import itertools
import math

import numpy as np
import pytest

from trapbose import (
    EmptyBasisError,
    IndexTooLargeError,
    TrapConfig,
    build_matrices,
    coupling_coefficient,
    diagonal_coupling,
    enumerate_basis,
    oscillator_energy,
    quadrature_oracle_element,
    source_coefficient,
)

PAPER_1D = TrapConfig()
SQRT2 = math.sqrt(2.0)
PAPER_2D = TrapConfig(dimension=2, frequencies=(1.0, SQRT2))


class TestTrapConfig:
    def test_defaults_match_reference_parameters(self):
        assert PAPER_1D.dimension == 1
        assert PAPER_1D.frequencies == (1.0,)
        assert PAPER_1D.mass == pytest.approx(2.0 * math.pi**2)
        assert PAPER_1D.hbar == 1.0
        assert PAPER_1D.g == 2e-4
        assert PAPER_1D.n_particles == 1000

    def test_lambda_is_half_g_n0(self):
        assert PAPER_1D.coupling_lambda(1000) == pytest.approx(0.1)
        assert TrapConfig(g=0.0).coupling_lambda(1000) == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(dimension=0, frequencies=()),
        dict(frequencies=(-1.0,)),
        dict(mass=0.0),
        dict(hbar=-1.0),
        dict(g=-1e-4),
        dict(n_particles=0),
    ])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(Exception):
            TrapConfig(**kwargs)

    def test_commensurate_frequencies_accepted(self):
        isotropic = TrapConfig(dimension=2, frequencies=(1.0, 1.0))
        assert enumerate_basis(isotropic, 6.5).size == 27
        assert TrapConfig(dimension=2, frequencies=(3.0, 2.0)).dimension == 2

    def test_near_irrational_ratio_accepted(self):
        cfg = TrapConfig(dimension=2, frequencies=(1.0, 1.4142135))
        assert cfg.dimension == 2

    def test_geometric_mean_frequency(self):
        assert PAPER_2D.omega_mean == pytest.approx(2.0**0.25)


class TestOscillatorEnergy:
    def test_ground_state(self):
        assert oscillator_energy((0,), PAPER_1D) == 0.0

    def test_linear_in_quantum_number(self):
        assert oscillator_energy((3,), PAPER_1D) == pytest.approx(3.0)

    def test_two_dimensional(self):
        assert oscillator_energy((1, 2), PAPER_2D) == pytest.approx(1.0 + 2.0 * SQRT2)


class TestEnumerateBasis:
    def test_one_dimensional_counting(self):
        basis = enumerate_basis(PAPER_1D, 3.5)
        assert basis.states == ((1,), (2,), (3,))
        assert basis.size == 3

    def test_two_dimensional_energy_order(self):
        basis = enumerate_basis(PAPER_2D, 2.5)
        assert basis.states == ((1, 0), (0, 1), (2, 0), (1, 1))
        energies = basis.energies()
        assert np.all(np.diff(energies) > 0)

    def test_empty_basis_error(self):
        with pytest.raises(EmptyBasisError):
            enumerate_basis(PAPER_1D, 0.5)

    def test_deterministic(self):
        a = enumerate_basis(PAPER_2D, 6.0)
        b = enumerate_basis(PAPER_2D, 6.0)
        assert a.states == b.states

    def test_ground_state_excluded(self):
        basis = enumerate_basis(PAPER_2D, 6.0)
        assert (0, 0) not in basis.states


class TestCouplingCoefficient:
    # With the defaults the prefactor (m*omega/2 pi^2 hbar)^(D/2) is one.

    def test_c11(self):
        assert coupling_coefficient((1,), (1,), PAPER_1D) == pytest.approx(
            math.sqrt(math.pi) / 2.0, abs=1e-12)

    def test_parity_zero_is_exact(self):
        assert coupling_coefficient((1,), (2,), PAPER_1D) == 0.0

    def test_c13(self):
        expected = -(3.0 * math.sqrt(math.pi) / 4.0) / math.sqrt(6.0)
        assert coupling_coefficient((1,), (3,), PAPER_1D) == pytest.approx(expected, abs=1e-12)

    def test_d2(self):
        expected = -math.sqrt(math.pi) / 2.0 / math.sqrt(2.0)
        assert source_coefficient((2,), PAPER_1D) == pytest.approx(expected, abs=1e-12)

    def test_d_odd_is_zero(self):
        assert source_coefficient((1,), PAPER_1D) == 0.0

    def test_d0_equals_sqrt_pi(self):
        assert source_coefficient((0,), PAPER_1D) == pytest.approx(math.sqrt(math.pi), abs=1e-12)

    def test_parity_selection_exhaustive(self):
        # c_mn = 0 exactly iff some m_j + n_j is odd; 1D indices <= 8.
        for m in range(9):
            for n in range(9):
                value = coupling_coefficient((m,), (n,), PAPER_1D)
                if (m + n) % 2:
                    assert value == 0.0
                else:
                    assert value != 0.0

    def test_parity_selection_2d(self):
        for m in itertools.product(range(5), repeat=2):
            for n in itertools.product(range(5), repeat=2):
                value = coupling_coefficient(m, n, PAPER_2D)
                odd = any((mj + nj) % 2 for mj, nj in zip(m, n))
                assert (value == 0.0) == odd

    def test_symmetry_exact(self):
        for m in range(9):
            for n in range(9):
                assert coupling_coefficient((m,), (n,), PAPER_1D) == \
                    coupling_coefficient((n,), (m,), PAPER_1D)

    def test_diagonal_positive(self):
        # build_matrices relies on positive energies and diagonal c_nn.
        for cfg, e_cut in ((PAPER_1D, 29.5), (PAPER_2D, 40.0)):
            basis = enumerate_basis(cfg, e_cut)
            assert np.all(basis.energies() > 0.0)
            assert np.all(diagonal_coupling(basis, cfg) > 0.0)

    def test_large_indices_do_not_overflow(self):
        value = coupling_coefficient((60,), (60,), PAPER_1D)
        assert np.isfinite(value) and value > 0.0


class TestBuildMatrices:
    def test_reference_two_state_assembly(self):
        basis = enumerate_basis(PAPER_1D, 2.5)
        sysm = build_matrices(basis, PAPER_1D, 1000)
        assert np.allclose(sysm.energies, [1.0, 2.0])
        expected_c = np.array([[math.sqrt(math.pi) / 2.0, 0.0],
                               [0.0, 3.0 * math.sqrt(math.pi) / 8.0]])
        assert np.allclose(sysm.coupling, expected_c, atol=1e-12)
        assert sysm.source[0] == 0.0
        assert sysm.source[1] == pytest.approx(-0.6266570686577501, abs=1e-12)
        assert sysm.lam == pytest.approx(0.1)

    def test_zero_interaction_means_zero_lambda(self):
        cfg = TrapConfig(g=0.0)
        sysm = build_matrices(enumerate_basis(cfg, 5.0), cfg, 700)
        assert sysm.lam == 0.0

    def test_coupling_exactly_symmetric(self):
        basis = enumerate_basis(PAPER_2D, 6.0)
        sysm = build_matrices(basis, PAPER_2D, 500)
        assert np.array_equal(sysm.coupling, sysm.coupling.T)

    def test_diagonal_coupling_matches_full(self):
        basis = enumerate_basis(PAPER_1D, 8.0)
        sysm = build_matrices(basis, PAPER_1D, 1000)
        assert np.allclose(diagonal_coupling(basis, PAPER_1D), np.diag(sysm.coupling))

    def test_n0_out_of_range(self):
        basis = enumerate_basis(PAPER_1D, 2.5)
        with pytest.raises(ValueError):
            build_matrices(basis, PAPER_1D, 2000)


class TestQuadratureOracle:
    def test_matches_c11(self):
        closed = coupling_coefficient((1,), (1,), PAPER_1D)
        quad = quadrature_oracle_element((1,), (1,), PAPER_1D)
        assert abs(closed - quad) < 1e-10

    def test_odd_integrand_tiny(self):
        assert abs(quadrature_oracle_element((1,), (2,), PAPER_1D)) < 1e-12

    def test_matches_source_coefficient(self):
        closed = source_coefficient((2,), PAPER_1D)
        quad = quadrature_oracle_element((0,), (2,), PAPER_1D)
        assert abs(closed - quad) < 1e-10

    def test_equivalence_1d_grid(self):
        for m in range(13):
            for n in range(13):
                closed = coupling_coefficient((m,), (n,), PAPER_1D)
                quad = quadrature_oracle_element((m,), (n,), PAPER_1D)
                assert abs(closed - quad) < 1e-10, (m, n)

    def test_equivalence_2d_anisotropic(self):
        # The geometric-mean prefactor equals the per-dimension product,
        # so the closed form holds for anisotropic traps as well.
        for m in itertools.product(range(7), repeat=2):
            for n in itertools.product(range(7), repeat=2):
                closed = coupling_coefficient(m, n, PAPER_2D)
                quad = quadrature_oracle_element(m, n, PAPER_2D)
                assert abs(closed - quad) < 1e-10, (m, n)

    def test_index_guard(self):
        with pytest.raises(IndexTooLargeError):
            quadrature_oracle_element((41,), (1,), PAPER_1D)
