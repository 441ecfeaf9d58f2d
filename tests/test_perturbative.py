import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import trapbose.perturbative as perturbative
from trapbose import (
    ComplexSpectrumError,
    ConvergenceError,
    SpectrumModel,
    TrapConfig,
    build_matrices,
    constraint_residual,
    enumerate_basis,
    perturbative_xy,
    real_eigenvalues,
)
from oracles import quasiparticle_levels, shift_vector, spectrum_matrix

CFG = TrapConfig()
C11 = math.sqrt(math.pi) / 2.0


def system(e_cut, lam=None, n0=1000):
    sysm = build_matrices(enumerate_basis(CFG, e_cut), n0)
    if lam is not None:
        sysm = replace(sysm, lam=lam)
    return sysm


class TestShiftVector:
    def test_zero_coupling(self):
        sysm = system(5.5, lam=0.0)
        assert np.array_equal(shift_vector(sysm, 1000), np.zeros(sysm.size))

    def test_two_state_reference_value(self):
        # 2x2 system is diagonal (c_12 = 0, d_1 = 0); solved by hand:
        # z_2 = -2*lam*sqrt(1000)*d_2 / (2 + 0.6*c_22).
        sysm = system(2.5)
        d2 = sysm.source[1]
        c22 = sysm.coupling[1, 1]
        expected = -2.0 * 0.1 * math.sqrt(1000.0) * d2 / (2.0 + 0.6 * c22)
        z = shift_vector(sysm, 1000)
        assert z[0] == pytest.approx(0.0, abs=1e-15)
        assert z[1] == pytest.approx(expected, rel=1e-12)
        assert z[1] == pytest.approx(1.6522, abs=1e-4)

    def test_zero_source_gives_zero_shift(self):
        sysm = system(5.5)
        sysm = replace(sysm, source=np.zeros(sysm.size))
        assert np.max(np.abs(shift_vector(sysm, 1000))) == 0.0

    def test_linear_term_elimination(self):
        # E z + 6 lam C z + 2 lam sqrt(N0) d is the gradient of the
        # quadratic-plus-linear form at z; it must vanish to solver accuracy.
        sysm = system(20.0)
        z = shift_vector(sysm, 1000)
        residual = (sysm.energies * z + 6.0 * sysm.lam * sysm.coupling @ z
                    + 2.0 * sysm.lam * math.sqrt(1000.0) * sysm.source)
        assert np.max(np.abs(residual)) < 1e-10 * np.max(np.abs(sysm.source))


class TestPerturbativeXY:
    def test_free_theory(self):
        sysm = system(10.0, lam=0.0)
        x, y, *_ = perturbative_xy(sysm)
        assert np.array_equal(x, np.eye(sysm.size))
        assert np.max(np.abs(y)) == 0.0

    def test_scalar_chi(self):
        sysm = system(1.5)
        _, _, chi, _, _ = perturbative_xy(sysm)
        assert chi[0, 0] == pytest.approx(-C11 / 2.0, abs=1e-12)

    def test_upsilon_is_twice_chi(self):
        sysm = system(12.0)
        _, _, chi, upsilon, _ = perturbative_xy(sysm)
        assert np.array_equal(upsilon, 2.0 * chi)

    def test_printed_y_is_asymmetric(self):
        # The printed upsilon is -Einv C rather than a symmetrized form.
        y = perturbative_xy(system(8.0))[1]
        assert np.max(np.abs(y - y.T)) > 0.0

    def test_constraint_residual_scales_as_lambda_cubed(self):
        res = []
        for lam in (0.1, 0.05):
            x, y, *_ = perturbative_xy(system(8.0, lam=lam))
            res.append(constraint_residual(x, y))
        assert 6.0 <= res[0] / res[1] <= 10.0


class TestSpectrumMatrix:
    def test_zero_coupling_reduces_to_oscillator(self):
        sysm = system(10.0, lam=0.0)
        assert np.array_equal(spectrum_matrix(sysm), np.diag(sysm.energies))
        assert np.allclose(quasiparticle_levels(spectrum_matrix(sysm)), np.sort(sysm.energies),
                           atol=0.0)

    def test_scalar_second_order_value(self):
        # size 1: E = 1 + 0.4 c11 - 0.02 c11^2 with c11 = sqrt(pi)/2.
        sysm = system(1.5, lam=0.1)
        expected = 1.0 + 0.4 * C11 - 0.02 * C11**2
        assert spectrum_matrix(sysm)[0, 0] == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.3387828, abs=1e-7)

    def test_interaction_shifts_levels_up(self):
        basis = enumerate_basis(CFG, 15.0)
        levels = SpectrumModel(CFG, basis, kind="perturbative1").levels(1000)
        assert np.all(np.sort(levels) > np.sort(basis.energies()))
        sysm = system(10.0)
        second_order = quasiparticle_levels(spectrum_matrix(sysm))
        assert second_order.shape == (sysm.size,)
        assert np.all(second_order > 0.0)


class TestQuasiparticleLevels:
    def test_diagonal_matrix(self):
        assert np.allclose(quasiparticle_levels(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    def test_known_symmetric_eigenvalues(self):
        assert np.allclose(quasiparticle_levels(np.array([[2.0, 1.0], [1.0, 2.0]])), [1.0, 3.0])

    def test_complex_spectrum_error(self):
        rotation = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(ComplexSpectrumError):
            quasiparticle_levels(rotation)

    def test_lowest_level_first_order_consistency(self):
        # Error against eps_1 + 4 lam c11 must shrink like lambda^2.
        errors = []
        for lam in (0.1, 0.05, 0.025):
            levels = quasiparticle_levels(spectrum_matrix(system(10.0, lam=lam)))
            errors.append(abs(levels[0] - (1.0 + 4.0 * lam * C11)))
        for big, small in zip(errors, errors[1:]):
            assert 3.5 <= big / small <= 4.5


class TestNodeChunks:
    @pytest.mark.parametrize("cpus, gate, sizes", [
        (1, 1, [17]),
        (2, 1, [9, 8]),
        (3, 1, [6, 6, 5]),
        (17, 1, [1] * 17),
        (64, 1, [1] * 17),
        (64, 34, [5, 4, 4, 4]),  # work 17 * 2^3 = 4 * 34
        (64, 69, [17]),
    ])
    def test_chunk_count(self, cpus, gate, sizes, monkeypatch, pools):
        # min(CPUs, nodes, work // MIN_CHUNK_WORK) contiguous chunks, the
        # first ones the larger; one pool for all but the first chunk.
        monkeypatch.setattr(perturbative, "MIN_CHUNK_WORK", gate)
        monkeypatch.setattr(perturbative, "_cpu_count", lambda: cpus)
        seen = []

        def diagonals(stack):
            seen.append(stack[:, 0, 0, 0].tolist())
            return [np.diagonal(stack, axis1=-2, axis2=-1).copy()]

        stack = np.arange(17 * 4.0).reshape(17, 1, 2, 2)
        (got,) = perturbative._on_node_chunks(diagonals, stack)
        assert np.array_equal(got, np.diagonal(stack, axis1=-2, axis2=-1))
        nodes = np.split(4.0 * np.arange(17), np.cumsum(sizes)[:-1])
        assert sorted(seen) == [chunk.tolist() for chunk in nodes]
        assert pools == ([len(sizes) - 1] if len(sizes) > 1 else [])

    @pytest.mark.parametrize("blas, cpus", [(1, 8), (2, 1), (None, 1)])
    def test_cpus_only_beside_one_blas_thread(self, blas, cpus, monkeypatch):
        # 8 CPUs in the affinity mask; a BLAS that runs more threads, or
        # cannot be asked, gets them to itself.
        monkeypatch.setattr(perturbative, "_blas_threads", lambda: blas)
        monkeypatch.setattr(perturbative.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        assert perturbative._cpu_count() == cpus

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(perturbative, "_blas_threads", lambda: 1)
        monkeypatch.delattr(perturbative.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(perturbative.os, "cpu_count", lambda: 6)
        assert perturbative._cpu_count() == 6

    def test_blas_threads_read_from_the_library(self):
        # OPENBLAS_NUM_THREADS is read by the BLAS when numpy loads it; the
        # count is then asked of the library.
        if perturbative._blas_thread_getter() is None:
            pytest.skip("numpy's BLAS is not the OpenBLAS of a numpy wheel")
        code = ("import os; from trapbose import perturbative as p; "
                "print(p._blas_threads(), p._cpu_count(), len(os.sched_getaffinity(0)))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(perturbative.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=60).stdout
            blas, cpus, affinity = map(int, out.split())
            assert blas == int(threads) and cpus == (affinity if threads == "1" else 1)

    def test_stacks_without_a_shared_node_axis_are_not_split(self, node_chunks, pools,
                                                              chunk_sizes):
        real_eigenvalues(np.diag([3.0, 1.0]), np.eye(3))
        real_eigenvalues(np.eye(2)[None], np.eye(3)[None])
        real_eigenvalues(np.stack([np.eye(2)] * 3), np.stack([np.eye(2)] * 4))
        # One solve per call, of the whole first stack.
        assert chunk_sizes == [2, 1, 3] and pools == []

    def test_imaginary_parts_checked_over_all_nodes(self, node_chunks, chunk_sizes):
        # Node 0 alone fails the check, 1e-7 > 1e-8 * 1; with node 1 it
        # passes, 1e-7 <= 1e-8 * 100, split into one chunk per node or not.
        tilted = np.array([[1.0, -1e-7], [1e-7, 1.0]])
        with pytest.raises(ComplexSpectrumError):
            real_eigenvalues(tilted[None])
        (levels,) = real_eigenvalues(np.stack([tilted, 100.0 * np.eye(2)]))
        assert chunk_sizes == [1, 1, 1]
        assert np.array_equal(levels, [[1.0, 1.0], [100.0, 100.0]])

    def test_failed_node_raises_as_in_one_call(self, request):
        stack = np.stack([np.eye(2), np.full((2, 2), np.inf)])
        with pytest.raises(ConvergenceError) as whole:
            real_eigenvalues(stack)
        request.getfixturevalue("node_chunks")
        with pytest.raises(ConvergenceError) as split:
            real_eigenvalues(stack)
        assert str(split.value) == str(whole.value)
        assert str(split.value).startswith("eigenvalue solve failed")

    def test_error_is_that_of_one_call(self, node_chunks):
        # Stack 0 fails at node 1 and stack 1 at node 0.  One call meets
        # stack 0's failure first; the first chunk meets stack 1's, so a
        # failed split is solved again in one call.
        sizes = []

        def solve(*stacks):
            sizes.append(len(stacks[0]))
            for i, stack in enumerate(stacks):
                if np.any(stack < 0.0):
                    raise ValueError(f"stack {i}")
            return [stack[:, 0, 0] for stack in stacks]

        first = np.array([1.0, -1.0]).reshape(2, 1, 1)
        with pytest.raises(ValueError, match="stack 0"):
            perturbative._on_node_chunks(solve, first, -first)
        assert sorted(sizes[:2]) == [1, 1] and sizes[2:] == [2]

    def test_chunks_keep_the_callers_error_state(self, node_chunks):
        # A worker thread starts at numpy's default error state.
        def states(stack):
            return [np.array([np.geterr()["over"]] * len(stack))]

        with np.errstate(over="raise"):
            (got,) = perturbative._on_node_chunks(states, np.zeros((3, 1, 1)))
        assert got.tolist() == ["raise"] * 3


class TestConstraintResidual:
    def test_identity_pair(self):
        assert constraint_residual(np.eye(3), np.zeros((3, 3))) == 0.0

    def test_scalar_arithmetic(self):
        assert constraint_residual(2.0 * np.eye(1), np.zeros((1, 1))) == pytest.approx(3.0)

