import math
from dataclasses import replace

import numpy as np
import pytest

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
    """Stacks with a leading (lambda node) axis, as SpectrumModel passes a
    whole table or one node chunk of it: one batched call each."""

    def test_imaginary_parts_checked_per_matrix(self):
        # The tilted matrix fails the check on its own, 1e-7 > 1e-8 * 1, and
        # beside a matrix whose max|Re| of 100 would cover it if pooled.
        tilted = np.array([[1.0, -1e-7], [1e-7, 1.0]])
        message = "max |Im eigenvalue| = 1.000e-07 exceeds 1e-08 * 1.000e+00"
        for stack in (tilted, np.stack([100.0 * np.eye(2), tilted])):
            with pytest.raises(ComplexSpectrumError) as raised:
                real_eigenvalues(stack)
            assert str(raised.value) == message
        levels = real_eigenvalues(np.stack([np.eye(2), 100.0 * np.eye(2)]))
        assert np.array_equal(levels, [[1.0, 1.0], [100.0, 100.0]])

    def test_failed_node_raises_as_in_one_call(self):
        # One node that LAPACK cannot solve fails the whole stack.
        with pytest.raises(ConvergenceError, match="^eigenvalue solve failed"):
            real_eigenvalues(np.stack([np.eye(2), np.full((2, 2), np.inf)]))


class TestConstraintResidual:
    def test_identity_pair(self):
        assert constraint_residual(np.eye(3), np.zeros((3, 3))) == 0.0

    def test_scalar_arithmetic(self):
        assert constraint_residual(2.0 * np.eye(1), np.zeros((1, 1))) == pytest.approx(3.0)

