import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from trapbose import (
    ConvergenceError,
    NoSolutionError,
    RiccatiProblem,
    SystemMatrices,
    TrapConfig,
    anomalous_residuals,
    bogoliubov_sector_levels,
    build_matrices,
    enumerate_basis,
    perturbative_xy,
    residuals,
    solve_xy,
    solve_xy_general,
)
from oracles import (
    bogoliubov_levels,
    exact_spectrum,
    geometric_mean_xy,
    quasiparticle_levels,
    solve_1x1,
    spectrum_matrix,
)

CFG = TrapConfig()


def system(e_cut, lam):
    sysm = build_matrices(enumerate_basis(CFG, e_cut), 1000)
    return replace(sysm, lam=lam)


def problem(e_cut, lam):
    return RiccatiProblem.from_system(system(e_cut, lam))


class TestProblem:
    def test_coefficient_matrices(self):
        sysm = system(5.5, 0.05)
        prob = RiccatiProblem.from_system(sysm)
        assert np.allclose(prob.a, np.diag(sysm.energies) + 0.2 * sysm.coupling)
        assert np.allclose(prob.b, 0.05 * sysm.coupling)
        assert np.array_equal(prob.b, prob.b.T)
        assert np.allclose(prob.oscillator_energies(), sysm.energies)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            RiccatiProblem(a=np.eye(2), b=np.eye(3))

    @pytest.mark.parametrize("solve", [solve_xy, solve_xy_general], ids=["symmetric", "general"])
    def test_stack_rejected_by_the_xy_solvers(self, solve):
        # Only the levels take a stack; X, Y are solved one problem at a time.
        stack = RiccatiProblem(a=np.stack([np.eye(2)] * 2), b=np.stack([0.1 * np.eye(2)] * 2))
        with pytest.raises(ValueError, match="not one problem: see bogoliubov_sector_levels"):
            solve(stack)


class TestResiduals:
    def test_identity_substitution(self):
        prob = problem(6.0, 0.05)
        n = prob.size
        r1, r2, r3 = residuals(np.eye(n), np.zeros((n, n)), prob)
        b_max = np.max(np.abs(prob.b))
        assert r1 == pytest.approx(b_max)
        assert r2 == pytest.approx(b_max)
        assert r3 == 0.0

    def test_free_theory(self):
        prob = problem(6.0, 0.0)
        n = prob.size
        assert residuals(np.eye(n), np.zeros((n, n)), prob) == (0.0, 0.0, 0.0)

    def test_scalar_solution_residuals(self):
        a, b = 1.3544908, 0.0886227
        x, y = solve_1x1(a, b)
        prob = RiccatiProblem(a=np.array([[a]]), b=np.array([[b]]))
        r1, r2, r3 = residuals(np.array([[x]]), np.array([[y]]), prob)
        assert max(r1, r2, r3) < 1e-12


class TestSolve1x1:
    def test_zero_coupling(self):
        assert solve_1x1(2.0, 0.0) == (1.0, 0.0)

    def test_reference_values(self):
        x, y = solve_1x1(1.3544908, 0.0886227)
        t = 0.5 * math.atanh(-2.0 * 0.0886227 / 1.3544908)
        assert x == pytest.approx(math.cosh(t), abs=1e-15)
        assert y == pytest.approx(math.sinh(t), abs=1e-15)
        assert x == pytest.approx(1.0021660, abs=1e-6)
        assert y == pytest.approx(-0.0658536, abs=1e-6)

    def test_out_of_domain(self):
        with pytest.raises(NoSolutionError):
            solve_1x1(1.0, 0.6)


class TestSymmetricBranch:
    def test_free_theory_immediate(self):
        sol = solve_xy(problem(6.0, 0.0))
        assert np.array_equal(sol.x, np.eye(sol.x.shape[0]))
        assert np.max(np.abs(sol.y)) == 0.0

    def test_scalar_matches_oracle(self):
        prob = RiccatiProblem(a=np.array([[1.3544908]]), b=np.array([[0.0886227]]))
        sol = solve_xy(prob)
        x, y = solve_1x1(1.3544908, 0.0886227)
        assert abs(sol.x[0, 0] - x) < 1e-12
        assert abs(sol.y[0, 0] - y) < 1e-12

    def test_closed_form_residuals(self):
        sol = solve_xy(problem(10.0, 0.01))
        assert sol.anomalous_r1 < 1e-10
        assert sol.r3 < 1e-13

    def test_transposition_symmetry(self):
        prob = problem(10.0, 0.02)
        sol = solve_xy(prob)
        e1 = sol.x @ prob.a @ sol.y + sol.x @ prob.b @ sol.x + sol.y @ prob.b @ sol.y
        e2 = sol.y @ prob.a @ sol.x + sol.x @ prob.b @ sol.x + sol.y @ prob.b @ sol.y
        assert np.max(np.abs(e2 - e1.T)) < 1e-12
        assert sol.anomalous_r2 == pytest.approx(sol.anomalous_r1, abs=1e-15)

    def test_solution_matrices_symmetric(self):
        sol = solve_xy(problem(8.0, 0.05))
        assert np.max(np.abs(sol.x - sol.x.T)) < 1e-14
        assert np.max(np.abs(sol.y - sol.y.T)) < 1e-14

    def test_skew_part_is_order_lambda(self):
        # The printed full equations cannot vanish on any branch; on the
        # symmetric one the leftover is pure skew and shrinks linearly.
        r1_small = solve_xy(problem(8.0, 0.005)).r1
        r1_big = solve_xy(problem(8.0, 0.01)).r1
        assert r1_big > 1e-6
        assert 1.5 <= r1_big / r1_small <= 2.5

    def test_no_solution_outside_domain(self):
        # |2b/a| >= 1: A - 2B is not positive definite.
        prob = RiccatiProblem(a=np.array([[1.0]]), b=np.array([[0.6]]))
        with pytest.raises(NoSolutionError):
            solve_xy(prob)
        with pytest.raises(NoSolutionError):
            bogoliubov_levels(prob)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_closed_form_on_random_gram_couplings(self, data):
        n = data.draw(st.integers(1, 6))
        energies = data.draw(arrays(float, n, elements=st.floats(0.5, 10.0)))
        factor = data.draw(arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
        lam = data.draw(st.floats(0.0, 1.0))
        sysm = SystemMatrices(energies=energies, coupling=factor @ factor.T,
                              source=np.zeros(n), lam=lam)
        prob = RiccatiProblem.from_system(sysm)
        sol = solve_xy(prob)
        assert max(sol.anomalous_r1, sol.anomalous_r2) <= 1e-10
        assert sol.r3 <= 1e-13
        np.testing.assert_allclose(exact_spectrum(sol, sysm), bogoliubov_levels(prob),
                                   rtol=1e-10, atol=0.0)
        # The Cholesky-frame X, Y against the generator T = -1/2 log(P^-1 # Q);
        # they differ by rounding, at most 2.4e-14 of max|X| in 20,000 draws.
        x, y = geometric_mean_xy(prob)
        atol = 1e-12 * np.max(np.abs(x))
        np.testing.assert_allclose(sol.x, x, rtol=0.0, atol=atol)
        np.testing.assert_allclose(sol.y, y, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("a_node1, b_node1, message", [
        (np.eye(2), np.eye(2), "A - 2B is not positive definite"),
        (np.eye(2), -np.eye(2), "A + 2B is not positive definite (eigenvalue -3)"),
        (-np.eye(2), np.zeros((2, 2)), "A - 2B is not positive definite"),
    ], ids=["cholesky", "lowest-square", "free-theory"])
    def test_no_solution_at_one_node(self, a_node1, b_node1, message):
        # Node 0 has a solution and node 1 none, so the stack has none: node
        # 1's P = I - 2B or P = -I fails the cholesky, or its P Q = -3 I
        # fails the check of the lowest square over all nodes.  solve_xy on
        # node 1 alone raises the same error, free theory included.
        prob = RiccatiProblem(a=np.stack([np.eye(2), a_node1]),
                              b=np.stack([0.1 * np.eye(2), b_node1]))
        bogoliubov_sector_levels(RiccatiProblem(a=prob.a[:1], b=prob.b[:1]))
        for solve, node in ((bogoliubov_sector_levels, prob),
                            (solve_xy, RiccatiProblem(a=prob.a[1], b=prob.b[1]))):
            with pytest.raises(NoSolutionError) as raised:
                solve(node)
            assert str(raised.value) == message


class TestLiteralBranch:
    def test_full_first_equation_vanishes(self):
        sol = solve_xy_general(problem(10.0, 0.01))
        assert sol.r1 < 1e-10
        assert sol.r3 < 1e-13

    def test_matches_perturbative_to_lambda_cubed(self):
        diffs = []
        for lam in (0.02, 0.01, 0.005):
            sysm = system(10.0, lam)
            xp, yp, *_ = perturbative_xy(sysm)
            sol = solve_xy_general(RiccatiProblem.from_system(sysm))
            diffs.append(max(np.max(np.abs(sol.x - xp)), np.max(np.abs(sol.y - yp))))
        for big, small in zip(diffs, diffs[1:]):
            assert 6.0 <= big / small <= 10.0

    def test_no_solution_outside_domain(self):
        # |2b/a| >= 1: a/2 sinh(2t) + b cosh(2t) has no zero, and the
        # residual cannot fall below sqrt(b^2 - a^2/4).
        prob = RiccatiProblem(a=np.array([[1.0]]), b=np.array([[0.6]]))
        with pytest.raises(ConvergenceError) as info:
            solve_xy_general(prob)
        assert info.value.residual >= math.sqrt(0.6**2 - 0.25) - 1e-9


class TestIsotropicTrap:
    # e_cut = 6.5 lies off every level of both traps, so they share a basis size.
    @staticmethod
    def system(frequencies, lam=0.1, e_cut=6.5):
        cfg = TrapConfig(dimension=2, frequencies=frequencies)
        return replace(build_matrices(enumerate_basis(cfg, e_cut), 1000), lam=lam)

    def test_closed_form_eliminates_anomalous_terms(self):
        sol = solve_xy(RiccatiProblem.from_system(self.system((1.0, 1.0))))
        assert max(sol.anomalous_r1, sol.anomalous_r2) < 1e-10
        assert sol.r3 < 1e-13

    def test_levels_are_limit_of_anisotropic_trap(self):
        isotropic = bogoliubov_levels(RiccatiProblem.from_system(self.system((1.0, 1.0))))
        for eps in (1e-3, 1e-6):
            shifted = bogoliubov_levels(
                RiccatiProblem.from_system(self.system((1.0, 1.0 + eps))))
            assert shifted.size == isotropic.size
            assert np.max(np.abs(shifted - isotropic)) < 6.0 * eps


class TestExactSpectrum:
    def test_free_theory_levels(self):
        sysm = system(8.0, 0.0)
        sol = solve_xy(RiccatiProblem.from_system(sysm))
        assert np.allclose(exact_spectrum(sol, sysm), np.sort(sysm.energies), atol=1e-14)

    def test_scalar_substitution(self):
        sysm = system(1.5, 0.1)
        eps = sysm.energies[0]
        c11 = sysm.coupling[0, 0]
        a = eps + 0.4 * c11
        b = 0.1 * c11
        x, y = solve_1x1(a, b)
        expected = (x * x + y * y) * (eps + 0.4 * c11) + 0.4 * c11 * x * y
        sol = solve_xy(RiccatiProblem.from_system(sysm))
        levels = exact_spectrum(sol, sysm)
        assert levels[0] == pytest.approx(expected, rel=1e-12)

    def test_agrees_with_perturbative_to_lambda_cubed(self):
        # Compared on the literal branch, whose expansion the printed
        # second-order spectrum matrix actually is; the canonical branch
        # differs from it at O(lambda^2) in the eigenvalues.
        errors = []
        for lam in (0.01, 0.005):
            sysm = system(10.0, lam)
            pert = quasiparticle_levels(spectrum_matrix(sysm))
            sol = solve_xy_general(RiccatiProblem.from_system(sysm))
            errors.append(np.max(np.abs(exact_spectrum(sol, sysm) - pert)))
        assert 6.0 <= errors[0] / errors[1] <= 10.0

    def test_spectrum_continuity_in_lambda(self):
        lams = np.linspace(0.0, 0.1, 6)
        previous = None
        for lam in lams:
            sysm = system(10.0, lam)
            sol = solve_xy(RiccatiProblem.from_system(sysm))
            levels = exact_spectrum(sol, sysm)
            if previous is not None:
                step = lams[1] - lams[0]
                bound = 10.0 * step * np.max(np.abs(np.diag(sysm.coupling)))
                assert np.max(np.abs(levels - previous)) < bound
            previous = levels


class TestScalarGrid:
    def test_solver_matches_oracle_on_grid(self):
        # 50 valid 1x1 problems (|2b/a| < 1, a - 4b > 0); for one state the
        # symmetric and the general branch are the same scalar equation.
        count = 0
        for a in np.linspace(1.0, 3.0, 10):
            for b in np.linspace(-0.15, 0.15, 5):
                x, y = solve_1x1(a, b)
                prob = RiccatiProblem(a=np.array([[a]]), b=np.array([[b]]))
                for solve in (solve_xy, solve_xy_general):
                    sol = solve(prob)
                    assert abs(sol.x[0, 0] - x) < 1e-12
                    assert abs(sol.y[0, 0] - y) < 1e-12
                count += 1
        assert count == 50
