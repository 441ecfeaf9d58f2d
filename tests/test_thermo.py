import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import trapbose.thermo as thermo
from trapbose import (
    SpectrumModel,
    TrapConfig,
    UnstableSpectrumError,
    energy_excess,
    enumerate_basis,
    excited_count,
    occupation,
    solve_n0,
    sweep,
)

CFG = TrapConfig()
IDEAL = TrapConfig(g=0.0)

# Direct-summation oracles for the 1D ladder eps_n = n at T = 1, summed to
# machine convergence (terms below 1e-300 ignored).
SUM_OCCUPATION = sum(1.0 / math.expm1(n) for n in range(1, 700))
SUM_ENERGY = sum(n / math.expm1(n) for n in range(1, 700))


class TestOccupation:
    def test_log2_ratio_gives_unity(self):
        assert occupation(math.log(2.0), 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_frozen_mode_at_low_temperature(self):
        assert occupation(1.0, 1e-3) == 0.0

    def test_large_temperature_value(self):
        assert occupation(1.0, 100.0) == pytest.approx(99.500833, abs=1e-5)

    def test_small_ratio_series(self):
        # 1/(exp(x) - 1) = 1/x - 1/2 + x/12 - ...
        assert occupation(1e-9, 1.0) == pytest.approx(1e9 - 0.5, rel=1e-12)

    @given(eps=st.floats(0.05, 50.0), temperature=st.floats(0.5, 50.0),
           fugacity=st.floats(1e-6, 1.0))
    def test_fugacity_oracle(self, eps, temperature, fugacity):
        expected = fugacity / (math.exp(eps / temperature) - fugacity)
        assert occupation(eps, temperature, fugacity) == pytest.approx(expected, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(UnstableSpectrumError):
            occupation(-1.0, 1.0)
        with pytest.raises(ValueError):
            occupation(1.0, 0.0)


class TestExcitedCount:
    def test_single_level(self):
        assert excited_count([math.log(2.0)], 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_ideal_ladder_oracle(self):
        levels = np.arange(1.0, 700.0)
        assert excited_count(levels, 1.0) == pytest.approx(SUM_OCCUPATION, rel=1e-13)
        assert SUM_OCCUPATION == pytest.approx(0.8202595115424166, abs=1e-12)

    def test_freezes_out(self):
        assert excited_count(np.arange(1.0, 50.0), 1e-3) == 0.0

    def test_rejects_nonpositive_level(self):
        with pytest.raises(ValueError):
            excited_count([1.0, 0.0], 1.0)


class TestEnergyExcess:
    def test_single_level(self):
        point = solve_n0(IDEAL, enumerate_basis(IDEAL, 40.0), 1e-3)
        assert point.energy_excess == pytest.approx(0.0, abs=1e-200)

    def test_ideal_ladder_oracle(self):
        basis = enumerate_basis(IDEAL, 699.0)
        point = solve_n0(IDEAL, basis, 1.0)
        assert point.energy_excess == pytest.approx(SUM_ENERGY, rel=1e-12)
        assert SUM_ENERGY == pytest.approx(1.1866007335148923, abs=1e-12)

    def test_recompute_matches_stored(self):
        basis = enumerate_basis(CFG, 100.0)
        point = solve_n0(CFG, basis, 20.0)
        assert energy_excess(point) == pytest.approx(point.energy_excess, rel=1e-14)


class TestSolveN0:
    def test_ideal_gas_decouples(self):
        basis = enumerate_basis(IDEAL, 400.0)
        point = solve_n0(IDEAL, basis, 50.0)
        expected = 1000.0 - excited_count(basis.energies(), 50.0)
        assert point.n0 == pytest.approx(expected, abs=1e-6)
        assert point.lam == 0.0

    def test_low_temperature_full_condensate(self):
        point = solve_n0(CFG, enumerate_basis(CFG, 50.0), 1e-2)
        assert point.n0 == pytest.approx(1000.0, abs=1e-6)

    def test_particle_conservation(self):
        basis = enumerate_basis(CFG, 400.0)
        model = SpectrumModel(CFG, basis)
        for temperature in (10.0, 60.0, 120.0):
            point = solve_n0(CFG, basis, temperature, model=model, tol=1e-10)
            total = point.n0 + excited_count(model.levels(point.n0), temperature)
            assert abs(total - 1000.0) < 1e-10 * 1000.0 * 10.0

    def test_interacting_condensate_above_ideal(self):
        basis = enumerate_basis(CFG, 400.0)
        for temperature in (60.0, 120.0):
            interacting = solve_n0(CFG, basis, temperature)
            ideal = solve_n0(IDEAL, basis, temperature)
            assert interacting.n0 >= ideal.n0
        assert solve_n0(CFG, basis, 120.0).n0 > solve_n0(IDEAL, basis, 120.0).n0 + 1.0

    def test_normal_phase_extension(self):
        basis = enumerate_basis(CFG, 400.0)
        point = solve_n0(CFG, basis, 190.0)
        assert point.normal_phase
        assert point.n0 == 0.0
        assert point.lam == 0.0
        assert 0.0 < point.fugacity < 1.0
        # The fugacity fit accounts for all N particles.
        occ = point.fugacity / (np.exp(point.levels / 190.0) - point.fugacity)
        assert np.sum(occ) == pytest.approx(1000.0, rel=1e-10)

    @settings(deadline=None)
    @given(kind=st.sampled_from(["ideal", "perturbative1", "perturbative2", "riccati"]),
           g=st.floats(0.0, 5e-4), temperature=st.floats(0.2, 40.0))
    def test_conservation_property(self, kind, g, temperature):
        cfg = TrapConfig(g=g)
        basis = enumerate_basis(cfg, 30.0)
        model = SpectrumModel(cfg, basis, kind=kind)
        point = solve_n0(cfg, basis, temperature, model=model)
        if not point.normal_phase:
            excited = excited_count(model.levels(point.n0), temperature)
            assert abs(1000.0 - point.n0 - excited) <= 1e-9 * 1000.0

    def test_rejects_bad_arguments(self):
        basis = enumerate_basis(CFG, 10.0)
        with pytest.raises(ValueError):
            solve_n0(CFG, basis, -1.0)
        with pytest.raises(ValueError):
            solve_n0(CFG, basis, 1.0, tol=0.0)


class TestSpectrumModel:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SpectrumModel(CFG, enumerate_basis(CFG, 5.0), kind="exact")

    def test_first_order_levels(self):
        basis = enumerate_basis(CFG, 10.0)
        model = SpectrumModel(CFG, basis, kind="perturbative1")
        lam = CFG.coupling_lambda(500.0)
        from trapbose import diagonal_coupling

        expected = basis.energies() + 4.0 * lam * diagonal_coupling(basis, CFG)
        assert np.allclose(model.levels(500.0), expected)

    def test_branches_agree_at_weak_coupling(self):
        basis = enumerate_basis(CFG, 10.0)
        n0 = 100.0  # lambda = 0.01
        p1 = SpectrumModel(CFG, basis, kind="perturbative1").levels(n0)
        p2 = SpectrumModel(CFG, basis, kind="perturbative2").levels(n0)
        ric = SpectrumModel(CFG, basis, kind="riccati").levels(n0)
        assert np.max(np.abs(np.sort(p1) - p2)) < 5e-4
        assert np.max(np.abs(p2 - ric)) < 5e-4


class TestSweep:
    def test_ideal_matches_pointwise(self):
        basis = enumerate_basis(IDEAL, 200.0)
        grid = [5.0, 10.0, 20.0]
        curve = sweep(IDEAL, basis, grid)
        for temperature, point in zip(grid, curve.points):
            single = solve_n0(IDEAL, basis, temperature)
            assert point.n0 == pytest.approx(single.n0, abs=1e-6)

    def test_cold_start_agrees(self):
        # A point of an interacting sweep does not depend on the points
        # before it: it equals a one-point sweep at the same temperature.
        basis = enumerate_basis(CFG, 300.0)
        grid = [20.0, 60.0, 100.0]
        curve = sweep(CFG, basis, grid)
        for temperature, point in zip(grid, curve.points):
            cold = sweep(CFG, basis, [temperature]).points[0]
            assert point.converged and cold.converged
            assert point.n0 == pytest.approx(cold.n0, abs=1e-6)

    def test_one_solve_per_temperature(self, monkeypatch):
        # Benchmarks time each point by wrapping the module-global solve_n0.
        calls = []

        def counting(cfg, basis, temperature, **kwargs):
            calls.append(temperature)
            return solve_n0(cfg, basis, temperature, **kwargs)

        monkeypatch.setattr(thermo, "solve_n0", counting)
        grid = [10.0, 100.0, 190.0]
        curve = sweep(CFG, enumerate_basis(CFG, 400.0), grid)
        assert calls == grid
        assert curve.points[-1].normal_phase

    def test_monotone_diagnostic(self):
        basis = enumerate_basis(CFG, 400.0)
        curve = sweep(CFG, basis, list(range(10, 200, 10)))
        assert curve.monotone_within(1e-6)

    def test_reversed_grid_rejected(self):
        basis = enumerate_basis(CFG, 10.0)
        with pytest.raises(ValueError):
            sweep(CFG, basis, [3.0, 2.0, 1.0])
        with pytest.raises(ValueError):
            sweep(CFG, basis, [-1.0, 2.0])

    def test_bad_points_flagged_not_raised(self):
        # At g = 0.02 the second-order levels at n0 = N (lambda = 10) go
        # negative; each point fails on its own and the sweep completes.
        cfg = TrapConfig(g=0.02)
        curve = sweep(cfg, enumerate_basis(cfg, 20.0), [1.0, 2.0, 3.0],
                      solver_kind="perturbative2")
        assert len(curve.points) == 3
        assert not any(p.converged for p in curve.points)
        for point in curve.points:
            assert point.fail_reason.startswith("UnstableSpectrumError: all levels must be positive")

    def test_riccati_large_basis_matches_perturbative2(self):
        basis = enumerate_basis(CFG, 60.0)
        grid = [1.0, 5.0]
        ric = sweep(CFG, basis, grid, solver_kind="riccati")
        pert = sweep(CFG, basis, grid, solver_kind="perturbative2")
        assert basis.size == 60
        for a, b in zip(ric.points, pert.points):
            assert a.converged
            assert abs(a.n0 - b.n0) / 1000.0 < 1e-4

    def test_solver_kind_consistency(self):
        # Perturbative and Riccati loops agree on n0/N at the reference
        # coupling (lambda <= 0.1) on a small basis.
        basis = enumerate_basis(CFG, 12.0)
        grid = [1.0, 2.0, 3.0]
        pert = sweep(CFG, basis, grid, solver_kind="perturbative1")
        ric = sweep(CFG, basis, grid, solver_kind="riccati")
        for a, b in zip(pert.points, ric.points):
            assert abs(a.n0 - b.n0) / 1000.0 < 1e-4


class TestTruncationStability:
    def test_doubling_cutoff_within_validity_window(self):
        # Inside T <= E_cut/8 the curve is cutoff-converged to 1e-4; near
        # the transition the occupation tail above the cutoff is larger
        # than that by itself, so no such bound can hold there.
        basis = enumerate_basis(CFG, 400.0)
        doubled = enumerate_basis(CFG, 800.0)
        for temperature in (10.0, 30.0, 50.0):
            a = solve_n0(CFG, basis, temperature)
            b = solve_n0(CFG, doubled, temperature)
            assert abs(a.n0 - b.n0) / 1000.0 < 1e-4
