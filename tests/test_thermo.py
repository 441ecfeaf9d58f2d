import dataclasses
import gc
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from numpy.polynomial.chebyshev import chebval
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trapbose.thermo as thermo
from trapbose.cli import main
from trapbose import (
    BasisSet,
    ConvergenceError,
    RiccatiProblem,
    SpectrumModel,
    TrapBoseError,
    TrapConfig,
    UnstableSpectrumError,
    build_matrices,
    energy_excess,
    enumerate_basis,
    excited_count,
    occupation,
    solve_n0,
    sweep,
)
from oracles import (allocating_point, bogoliubov_levels, bose_occupation, brent_root,
                     condensed_point, fugacity_occupation_q, fugacity_occupation_r, normal_phase_point,
                     quasiparticle_levels, spectrum_matrix)

CFG = TrapConfig()
IDEAL = TrapConfig(g=0.0)

# Direct-summation oracles for the 1D ladder eps_n = n at T = 1, summed to
# machine convergence (terms below 1e-300 ignored).
SUM_OCCUPATION = sum(1.0 / math.expm1(n) for n in range(1, 700))
SUM_ENERGY = sum(n / math.expm1(n) for n in range(1, 700))


def direct_levels(kind, basis, n0):
    """Levels of a solver kind from the full-basis matrices: the oracle for
    SpectrumModel.levels."""
    sysm = build_matrices(basis, n0)
    if kind == "perturbative1":
        return sysm.energies + 4.0 * sysm.lam * np.diag(sysm.coupling)
    if kind == "perturbative2":
        return quasiparticle_levels(spectrum_matrix(sysm))
    return bogoliubov_levels(RiccatiProblem.from_system(sysm))


def shuffled_basis():
    """The 1D basis below e_cut 60, its states in random order."""
    ordered = enumerate_basis(CFG, 60.0)
    rng = np.random.default_rng(7)
    return BasisSet(ordered.quanta[rng.permutation(ordered.size)], CFG)


def solve_at(cfg, basis, temperature, **kwargs):
    """solve_n0 with a fresh first-order level model."""
    return solve_n0(SpectrumModel(cfg, basis), temperature, **kwargs)


def record_fugacity_evaluations(monkeypatch):
    """Patch the normal-phase evaluation to record its log z: the list of
    values, one per Newton evaluation."""
    evaluations = []
    occupations = thermo._fugacity_occupations

    def recording(u, r, out):
        evaluations.append(u)
        return occupations(u, r, out)

    monkeypatch.setattr(thermo, "_fugacity_occupations", recording)
    return evaluations


def transition_temperature(bare_levels, n_total, low=1e-3, high=1e6):
    """The smallest float T at which the bare levels hold n_total particles
    at z = 1: the first normal-phase temperature."""
    while np.nextafter(low, high) < high:
        mid = 0.5 * (low + high)
        low, high = (mid, high) if excited_count(bare_levels, mid) < n_total else (low, mid)
    return high


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

    def test_domain_errors(self):
        with pytest.raises(UnstableSpectrumError):
            occupation(-1.0, 1.0)
        with pytest.raises(ValueError):
            occupation(1.0, 0.0)
        # A non-finite temperature is rejected as the sweep rejects it, not
        # summed to nan or divided by zero (under error::RuntimeWarning).
        for helper in (occupation, excited_count, energy_excess):
            for temperature in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match="^temperature must be positive and finite, "
                                                     f"got {temperature}$"):
                    helper([1.0, 2.0], temperature)


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
        point = solve_at(IDEAL, enumerate_basis(IDEAL, 40.0), 1e-3)
        assert point.energy_excess == pytest.approx(0.0, abs=1e-200)

    def test_ideal_ladder_oracle(self):
        basis = enumerate_basis(IDEAL, 699.0)
        point = solve_at(IDEAL, basis, 1.0)
        assert point.energy_excess == pytest.approx(SUM_ENERGY, rel=1e-12)
        assert SUM_ENERGY == pytest.approx(1.1866007335148923, abs=1e-12)

    def test_recompute_matches_stored(self):
        model = SpectrumModel(CFG, enumerate_basis(CFG, 100.0))
        point = solve_n0(model, 20.0)
        # A condensed point: z = 1.
        recomputed = energy_excess(model.levels(point.n0), 20.0)
        assert recomputed == pytest.approx(point.energy_excess, rel=1e-14)


class TestBoseKernel:
    """The in-place Bose sums against the formula of tests/oracles.py, bit
    for bit: every expression keeps its arithmetic order."""

    @given(levels=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=40),
           temperature=st.floats(1e-3, 1e4))
    # Frozen levels (eps/T > 709: exactly 0), eps/T near 1e-9, and both.
    @example(levels=[710.0, 1e4, 1e300], temperature=1.0)
    @example(levels=[1e-9, 2e-9], temperature=1.0)
    @example(levels=[1e-9, 800.0], temperature=1.0)
    def test_public_helpers_match_formula(self, levels, temperature):
        expected = bose_occupation(levels, temperature)
        assert np.array_equal(occupation(levels, temperature), expected)
        with np.errstate(over="ignore"):
            kernel = thermo._bose(np.array(levels) / temperature)
        assert np.array_equal(kernel, expected)
        assert excited_count(levels, temperature) == float(np.sum(expected))
        assert energy_excess(levels, temperature) == float(np.sum(np.array(levels) * expected))

    def test_frozen_and_small_ratios(self):
        occ = occupation([709.0, 710.0, 1e300], 1.0)
        assert occ[0] > 0.0 and occ[1] == 0.0 and occ[2] == 0.0
        assert occupation(1e-9, 1.0) == bose_occupation(1e-9, 1.0)

    @pytest.mark.parametrize("levels", [2.0, np.float64(2.0), np.array(2.0)])
    def test_scalar_and_zero_d_input(self, levels):
        # Scalar and 0-d levels give a scalar, as the formula does.
        occ = occupation(levels, 1.5)
        assert not isinstance(occ, np.ndarray)
        assert occ == bose_occupation(levels, 1.5)

    @settings(deadline=None, max_examples=60)
    @given(kind=st.sampled_from(["ideal", "perturbative1"]), g=st.floats(0.0, 5e-3),
           temperature=st.floats(0.05, 300.0))
    @example(kind="perturbative1", g=2e-4, temperature=0.05)
    @example(kind="perturbative1", g=0.0, temperature=5.0)
    @example(kind="perturbative1", g=2e-4, temperature=150.0)
    def test_solve_n0_sums_match_formula(self, kind, g, temperature):
        # The phase test, the g = 0 root and energy, the energy of the last
        # Newton evaluation and the normal-phase energy.  At T = 0.05 most
        # of the levels below e_cut 60 freeze out.  The normal phase sums
        # z/(r + 1 - z) at the log z of its last evaluation, bit for bit;
        # the q form z*q/(1 - z*q) rounds differently.
        cfg = TrapConfig(g=g)
        model = SpectrumModel(cfg, enumerate_basis(cfg, 60.0), kind=kind)
        with pytest.MonkeyPatch.context() as patch:
            log_fugacity = record_fugacity_evaluations(patch)
            point = solve_n0(model, temperature)
        bare = model.levels(0.0)
        bare_occ = bose_occupation(bare, temperature)
        assert point.normal_phase == (float(np.sum(bare_occ)) >= 1000.0)
        if point.normal_phase:
            u = log_fugacity[-1]
            assert point.fugacity == math.exp(u)
            assert point.energy_excess == float(bare @ fugacity_occupation_r(bare, temperature, u))
            q_form = float(bare @ fugacity_occupation_q(bare, temperature, point.fugacity))
            assert point.energy_excess == pytest.approx(q_form, rel=1e-13)
        elif model.cfg.g == 0.0:
            assert point.n0 == 1000.0 - float(np.sum(bare_occ))
            assert point.energy_excess == float(np.sum(bare * bare_occ))
        else:
            levels = model.levels(point.n0)
            assert point.energy_excess == float(levels @ bose_occupation(levels, temperature))

    @pytest.mark.parametrize("kind", ["perturbative2", "riccati"])
    def test_node_sums_match_formula(self, kind):
        model = SpectrumModel(CFG, enumerate_basis(CFG, 60.0), kind=kind)
        for rows in model._blocks():
            for temperature in (0.05, 1.0, 7.5, 300.0):
                with np.errstate(over="ignore"):
                    counts, energies = thermo._node_sums(rows, temperature)
                occ = bose_occupation(rows, temperature)
                assert np.array_equal(counts, np.sum(occ, axis=1))
                assert np.array_equal(energies, np.sum(rows * occ, axis=1))


class TestSolveN0:
    def test_ideal_gas_decouples(self):
        basis = enumerate_basis(IDEAL, 400.0)
        point = solve_at(IDEAL, basis, 50.0)
        expected = 1000.0 - excited_count(basis.energies(), 50.0)
        assert point.n0 == pytest.approx(expected, abs=1e-6)
        assert point.lam == 0.0

    @pytest.mark.parametrize("kind", thermo.SOLVER_KINDS)
    def test_zero_coupling_closed_form(self, kind, monkeypatch):
        # At g = 0 the levels do not depend on n0: n0 = N - N_excited(0)
        # exactly, with no root solve and no levels call but that at 0.
        basis = enumerate_basis(IDEAL, 120.0)
        model = SpectrumModel(IDEAL, basis, kind=kind)
        calls = TestLevelTable.record_levels_calls(monkeypatch)
        for temperature in (1.0, 5.0, 15.0):
            point = solve_n0(model, temperature)
            bare = model.levels(0.0)
            assert point.n0 == 1000.0 - excited_count(bare, temperature)
            assert point.energy_excess == energy_excess(bare, temperature)
            assert (point.iterations, point.lam) == (0, 0.0)
        assert set(calls) == {0.0}

    def test_low_temperature_full_condensate(self):
        point = solve_at(CFG, enumerate_basis(CFG, 50.0), 1e-2)
        assert point.n0 == pytest.approx(1000.0, abs=1e-6)

    def test_particle_conservation(self):
        basis = enumerate_basis(CFG, 400.0)
        model = SpectrumModel(CFG, basis)
        for temperature in (10.0, 60.0, 120.0):
            point = solve_n0(model, temperature, tol=1e-10)
            total = point.n0 + excited_count(model.levels(point.n0), temperature)
            assert abs(total - 1000.0) < 1e-10 * 1000.0 * 10.0

    def test_interacting_condensate_above_ideal(self):
        basis = enumerate_basis(CFG, 400.0)
        for temperature in (60.0, 120.0):
            interacting = solve_at(CFG, basis, temperature)
            ideal = solve_at(IDEAL, basis, temperature)
            assert interacting.n0 >= ideal.n0
        assert solve_at(CFG, basis, 120.0).n0 > solve_at(IDEAL, basis, 120.0).n0 + 1.0

    def test_normal_phase_extension(self):
        model = SpectrumModel(CFG, enumerate_basis(CFG, 400.0))
        point = solve_n0(model, 190.0)
        assert point.normal_phase
        assert point.n0 == 0.0
        assert point.lam == 0.0
        assert 0.0 < point.fugacity < 1.0
        # The fugacity fit accounts for all N particles.
        occ = point.fugacity / (np.exp(model.levels(0.0) / 190.0) - point.fugacity)
        assert np.sum(occ) == pytest.approx(1000.0, rel=1e-10)

    @pytest.mark.parametrize("kind", thermo.SOLVER_KINDS)
    def test_transition_temperature_is_normal_phase(self, kind, tmp_path):
        # T is the smallest float at which the ideal count reaches N: the
        # fugacity root lies at z = 1 itself, so the bracket must include it.
        cfg = TrapConfig(n_particles=20)
        basis = enumerate_basis(cfg, 30.0)
        high = transition_temperature(SpectrumModel(cfg, basis, kind=kind).levels(0.0), 20.0,
                                      1.0, 30.0)
        (point,) = sweep(cfg, basis, [high], solver_kind=kind).points
        assert point.converged and point.normal_phase
        config = tmp_path / "transition.cfg"
        out = tmp_path / "transition.csv"
        config.write_text(f"n_particles = 20\ne_cut = 30\nt_min = {high!r}\n"
                          f"t_max = {high + 0.5!r}\nsolver = {kind}\noutput = {out}\n")
        assert main(["--config", str(config)]) == 0
        (row,) = out.read_text().split()[1:]
        assert row.split(",")[4] == "1"

    @settings(deadline=None)
    @given(dimension=st.sampled_from([1, 2, 3]),
           omega=st.lists(st.floats(0.7, 2.0), min_size=3, max_size=3),
           scale=st.floats(1.0, 50.0))
    @example(dimension=1, omega=[1.0] * 3, scale=1.0)
    @example(dimension=2, omega=[1.0, math.sqrt(2.0), 1.0], scale=1.0)
    @example(dimension=3, omega=[1.0, 1.3, 0.7], scale=50.0)
    def test_normal_phase_matches_bracketed_oracle(self, dimension, omega, scale):
        # From the transition temperature itself (scale 1) to 50 times it.
        cfg = TrapConfig(dimension=dimension, frequencies=omega[:dimension])
        basis = enumerate_basis(cfg, {1: 60.0, 2: 25.0, 3: 12.0}[dimension])
        model = SpectrumModel(cfg, basis)
        bare = model.levels(0.0)
        temperature = transition_temperature(bare, 1000.0) * scale
        point = solve_n0(model, temperature)
        expected = normal_phase_point(bare, temperature, 1000.0)
        assert point.converged and point.normal_phase
        assert point.fugacity == pytest.approx(expected.fugacity, rel=1e-13)
        assert point.energy_excess == pytest.approx(expected.energy_excess, rel=1e-13)

    def test_normal_phase_at_extreme_temperatures(self):
        # At T >= 1e17 every exp(-eps/T) rounds to 1: a Newton start at
        # z = 1 would divide by zero there.
        basis = enumerate_basis(CFG, 20.0)
        bare = SpectrumModel(CFG, basis).levels(0.0)
        grid = [1e15, 1e17, 1e20, 1e300]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            curve = sweep(CFG, basis, grid)
        for temperature, point in zip(grid, curve.points):
            assert point.converged and point.normal_phase
            expected = normal_phase_point(bare, temperature, 1000.0)
            assert point.fugacity == pytest.approx(expected.fugacity, rel=1e-12)

    def test_normal_phase_with_n_beyond_float_resolution(self, monkeypatch):
        # N = 1e17: N/(N + 1) rounds to 1, and so do z and every
        # exp(-eps/T) at these T.  1 - z is about 1e-16, so the solve must
        # resolve it, not z: the point holds N particles, and its energy is
        # that of a 60-digit bisection in 1 - z (mpmath).
        cfg = TrapConfig(n_particles=10**17)
        basis = enumerate_basis(cfg, 20.0)
        bare = basis.energies()
        grid = [1e17, 2e17, 1e20, 1e300]
        log_fugacity = record_fugacity_evaluations(monkeypatch)
        last = []
        for temperature in grid:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                (point,) = sweep(cfg, basis, [temperature]).points
            assert point.converged and point.normal_phase and 0.0 < point.fugacity < 1.0
            count = float(np.sum(fugacity_occupation_r(bare, temperature, log_fugacity[-1])))
            assert abs(count - 1e17) <= 1e-12 * 1e17, temperature
            last.append(point)
        assert last[0].energy_excess / 1e17 == pytest.approx(8.8653584889562139803, rel=1e-10)
        assert last[1].energy_excess / 1e17 == pytest.approx(9.6722892860927827084, rel=1e-10)

    @settings(deadline=None)
    @given(dimension=st.sampled_from([1, 2, 3]),
           omega=st.lists(st.floats(0.7, 2.0), min_size=3, max_size=3),
           n_total=st.integers(1, 10**17) | st.sampled_from([10**k for k in range(18)]),
           scale=st.floats(0.0, 1.0), single=st.booleans())
    @example(dimension=1, omega=[1.0] * 3, n_total=10**17, scale=0.0, single=False)
    @example(dimension=1, omega=[1.0] * 3, n_total=10**17, scale=1.0, single=False)
    @example(dimension=3, omega=[1.0, 1.3, 0.7], n_total=1, scale=0.0, single=False)
    @example(dimension=2, omega=[1.0, math.sqrt(2.0), 1.0], n_total=1000, scale=0.0, single=False)
    # One state: Jensen's bound is that level's own z, exactly tight.  At
    # N = 1e5 on the transition and at N = 1000 just above it, its two logs
    # cancel, and 16 ulps of log z itself left the count 1 ulp short of N.
    @example(dimension=1, omega=[1.0] * 3, n_total=1, scale=0.0, single=True)
    @example(dimension=1, omega=[1.0] * 3, n_total=10**5, scale=0.0, single=True)
    @example(dimension=1, omega=[1.0] * 3, n_total=1000, scale=1e-6, single=True)
    @example(dimension=1, omega=[1.0] * 3, n_total=10**17, scale=0.0, single=True)
    @example(dimension=1, omega=[1.0] * 3, n_total=10**17, scale=1.0, single=True)
    @example(dimension=3, omega=[1.0, 1.3, 0.7], n_total=7, scale=0.25, single=True)
    def test_fugacity_start_holds_n(self, dimension, omega, n_total, scale, single):
        # The Newton start has h(u0) >= 0: the bare levels hold at least N
        # there, from the transition temperature (scale 0) up to T = 1e300.
        # As T grows, every r = expm1(eps/T) falls far below 1 - z and
        # Jensen's bound turns tight; unmoved, its count fell up to 4 ulps
        # short of N there.  On one state (e_cut just above the lowest
        # hbar*omega) it is tight at every T, and only the move holds N.
        cfg = TrapConfig(dimension=dimension, frequencies=omega[:dimension])
        e_cut = (1.0001 * min(cfg.frequencies) if single
                 else {1: 60.0, 2: 25.0, 3: 12.0}[dimension])
        bare = enumerate_basis(cfg, e_cut).energies()
        lowest = transition_temperature(bare, n_total, 1e-3, 1e300)
        temperature = min(lowest * (1e300 / lowest) ** scale, 1e300)
        with np.errstate(over="ignore"):
            r = np.expm1(bare / temperature)
            u0 = thermo._fugacity_start(r, 1.0 / r, float(n_total))
            count = float(np.sum(thermo._fugacity_occupations(u0, r, np.empty_like(r))))
        assert u0 <= 0.0
        assert count >= n_total

    @pytest.mark.parametrize("n_total", [1, 1000, 10**17])
    @pytest.mark.parametrize("scale", [1.0, 1.5, 1e3, 1e300])
    def test_fugacity_start_on_a_sparse_basis(self, n_total, scale, monkeypatch):
        # Levels 1 and 1000: near the transition the lowest level alone
        # holds nearly all N and bounds z more tightly than Jensen, whose z
        # is above 1 there, so the start is z = 1.  The start still holds N,
        # and the solve holds N at its last evaluation.  Its z is the bracketed oracle's where that resolves
        # 1 - z; at N = 1e17, 1 - z is below the float spacing of z.
        cfg = TrapConfig(n_particles=n_total)
        basis = BasisSet(np.array([[1], [1000]]), cfg)
        bare = basis.energies().astype(float)
        temperature = min(transition_temperature(bare, n_total, 1e-3, 1e300) * scale, 1e300)
        with np.errstate(over="ignore"):
            r = np.expm1(bare / temperature)
            u0 = thermo._fugacity_start(r, 1.0 / r, float(n_total))
            count = float(np.sum(thermo._fugacity_occupations(u0, r, np.empty_like(r))))
        assert u0 <= 0.0
        assert count >= n_total
        log_fugacity = record_fugacity_evaluations(monkeypatch)
        (point,) = sweep(cfg, basis, [temperature]).points
        assert point.converged and point.normal_phase
        count = float(np.sum(fugacity_occupation_r(bare, temperature, log_fugacity[-1])))
        assert abs(count - n_total) <= 1e-12 * n_total
        if n_total < 10**17:
            expected = normal_phase_point(bare, temperature, float(n_total))
            assert point.fugacity == pytest.approx(expected.fugacity, rel=1e-13)
            assert point.energy_excess == pytest.approx(expected.energy_excess, rel=1e-12)

    def test_normal_phase_evaluations_per_point(self, monkeypatch):
        # The trap and grid of the aniso2d-p1 benchmark.  Newton on the
        # log-count takes 4.2 evaluations per normal-phase point there, at
        # most 6, and 723 on the grid; brentq took 7.8, and a bracketing
        # fall back more than 8.
        evaluations = record_fugacity_evaluations(monkeypatch)
        cfg = TrapConfig(dimension=2, frequencies=(1.0, math.sqrt(2.0)))
        model = SpectrumModel(cfg, enumerate_basis(cfg, 300.0))
        normal = total = 0
        for temperature in np.arange(1.0, 201.0):
            evaluations.clear()
            point = solve_n0(model, temperature)
            if point.normal_phase:
                normal += 1
                total += len(evaluations)
                assert 1 <= len(evaluations) <= 8
            else:
                assert not evaluations
        assert normal == 172
        assert total <= 723

    @staticmethod
    def affine_model(dimension, omega, g):
        cfg = TrapConfig(dimension=dimension, frequencies=omega[:dimension], g=g)
        return SpectrumModel(cfg, enumerate_basis(cfg, {1: 60.0, 2: 25.0, 3: 12.0}[dimension]))

    @staticmethod
    def start_slope(model, temperature):
        """f'(n0) of f = N - n0 - sum occ at the Newton start, the g = 0
        root n0 = N - bare count; the levels rise by 2*g*c_nn per unit n0."""
        start = model.cfg.n_particles - excited_count(model.levels(0.0), temperature)
        occ = occupation(model.levels(start), temperature)
        return -1.0 + np.sum(2.0 * model.cfg.g * model.coupling_diagonal * occ * (1.0 + occ)
                             / temperature)

    @settings(deadline=None)
    @given(dimension=st.sampled_from([1, 2, 3]),
           omega=st.lists(st.floats(0.7, 2.0), min_size=3, max_size=3),
           g=st.floats(0.0, 10.0), scale=st.floats(0.01, 1.0 - 1e-12))
    @example(dimension=1, omega=[1.0] * 3, g=5e-324, scale=0.5)
    @example(dimension=1, omega=[1.0] * 3, g=1e-3, scale=1.0 - 1e-7)
    # Within 1e-4 of the transition at g = 3e-3, f'(x_a) >= 0: the solve
    # starts at N (test_affine_newton_start_at_n).
    @example(dimension=1, omega=[1.0] * 3, g=3e-3, scale=1.0 - 1e-4)
    @example(dimension=2, omega=[1.0, math.sqrt(2.0), 1.0], g=3e-3, scale=1.0 - 1e-4)
    @example(dimension=3, omega=[1.0, 1.3, 0.7], g=3e-3, scale=1.0 - 1e-4)
    @example(dimension=3, omega=[1.0, 1.3, 0.7], g=10.0, scale=0.01)
    @example(dimension=2, omega=[1.0, 2.0, 1.0], g=1.875, scale=0.46875)
    def test_affine_newton_matches_brent_oracle(self, dimension, omega, g, scale):
        # From well inside the condensed phase up to the bare transition.
        # Both roots are within tol*N of the true one.  The energy must be
        # that of direct levels at the point's own n0.  It is not held to
        # 1e-9 of Brent's energy: at large g and low T the energy moves by
        # more than that within tol*N of n0 (1.6e-9 relative at the last
        # example, where Newton stops at N, 9.4e-8 above the root).
        model = self.affine_model(dimension, omega, g)
        temperature = transition_temperature(model.levels(0.0), 1000.0) * scale
        point = solve_n0(model, temperature)
        expected = condensed_point(model, temperature, thermo.DEFAULT_TOL)
        assert point.converged and not point.normal_phase
        assert abs(point.n0 - expected.n0) <= 2.0 * thermo.DEFAULT_TOL * 1000.0
        own = energy_excess(model.levels(point.n0), temperature)
        assert point.energy_excess == pytest.approx(own, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("dimension, omega", [(1, [1.0]), (2, [1.0, math.sqrt(2.0)]),
                                                  (3, [1.0, 1.3, 0.7])])
    def test_affine_newton_start_at_n(self, dimension, omega, monkeypatch):
        # Where the tangent at x_a = N - bare count does not fall, the
        # second Newton evaluation is at N, and the root is still the oracle's.
        model = self.affine_model(dimension, omega, 3e-3)
        temperature = transition_temperature(model.levels(0.0), 1000.0) * (1.0 - 1e-4)
        assert self.start_slope(model, temperature) >= 0.0
        calls = TestLevelTable.record_levels_calls(monkeypatch)
        point = solve_n0(model, temperature)
        assert calls[2] == 1000.0
        assert len(calls) == point.iterations + 1
        expected = condensed_point(model, temperature, thermo.DEFAULT_TOL)
        assert abs(point.n0 - expected.n0) <= 2.0 * thermo.DEFAULT_TOL * 1000.0

    def test_affine_newton_evaluations_per_point(self):
        # The trap and grid of the ref1d-p1 benchmark (seed 0): at most 4
        # Newton evaluations per condensed point; Brent took 6.1 on average.
        model = SpectrumModel(CFG, enumerate_basis(CFG, 400.0))
        points = [solve_n0(model, temperature) for temperature in np.arange(1.0, 201.0)]
        condensed = [p.iterations for p in points if not p.normal_phase]
        assert len(condensed) == 177
        assert all(1 <= n <= 4 for n in condensed)

    @pytest.mark.parametrize("tol", [1e-17, 1e-300])
    def test_affine_newton_with_tol_below_float_resolution(self, tol):
        # The ref1d-p1 grid: near n0 = 500 the float spacing of n0 is
        # 5.7e-14, so a fall of at most 1e-17*N need never come.  tol is
        # floored at TOL_FLOOR, and every point converges within twice the
        # floored tol of Brent's root.
        basis = enumerate_basis(CFG, 400.0)
        model = SpectrumModel(CFG, basis)
        curve = sweep(CFG, basis, np.arange(1.0, 201.0), tol=tol)
        limit = 2.0 * max(tol, thermo.TOL_FLOOR) * 1000.0
        assert all(p.converged for p in curve.points)
        for point in curve.points:
            if not point.normal_phase:
                expected = condensed_point(model, point.temperature, tol)
                assert abs(point.n0 - expected.n0) <= limit, point.temperature

    def test_unconverged_affine_newton_flagged(self, monkeypatch):
        # With one Newton evaluation allowed, a condensed point whose start
        # is not already its root fails on its own.
        monkeypatch.setattr(thermo, "N0_MAX_EVALUATIONS", 1)
        curve = sweep(CFG, enumerate_basis(CFG, 400.0), [10.0, 190.0])
        cold, hot = curve.points
        assert not cold.converged
        assert cold.fail_reason.startswith("ConvergenceError: condensed-phase n0 not converged")
        assert hot.converged and hot.normal_phase

    @settings(deadline=None)
    @given(kind=st.sampled_from(["ideal", "perturbative1", "perturbative2", "riccati"]),
           g=st.floats(0.0, 5e-4), temperature=st.floats(0.2, 40.0))
    def test_conservation_property(self, kind, g, temperature):
        cfg = TrapConfig(g=g)
        basis = enumerate_basis(cfg, 30.0)
        model = SpectrumModel(cfg, basis, kind=kind)
        point = solve_n0(model, temperature)
        if not point.normal_phase:
            excited = excited_count(model.levels(point.n0), temperature)
            assert abs(1000.0 - point.n0 - excited) <= 1e-9 * 1000.0

    def test_model_freed_without_garbage_collection(self, monkeypatch):
        # A model held by a reference cycle, such as a function that refers
        # to itself, would stay alive until the garbage collector found it.
        # Without a table the dense kinds root-solve on direct levels, by
        # _brent_root; perturbative1 takes the Newton path and makes no call.
        basis = enumerate_basis(CFG, 400.0)
        brent = thermo._brent_root
        for kind, brent_calls in (("perturbative1", 0), ("riccati", 1)):
            calls = []
            monkeypatch.setattr(thermo, "_brent_root",
                                lambda *a: calls.append(1) or brent(*a))
            model = SpectrumModel(CFG, basis, kind=kind)
            model.table = None
            freed = weakref.ref(model)
            gc.disable()
            try:
                assert not solve_n0(model, 10.0).normal_phase
                assert solve_n0(model, 190.0).normal_phase
                del model
                assert freed() is None, kind
            finally:
                gc.enable()
            assert len(calls) == brent_calls

    @pytest.mark.parametrize("kind", ["perturbative2", "riccati"])
    def test_nan_residual_fails_its_point_only(self, monkeypatch, tmp_path, capsys, kind):
        # brentq raised ValueError on a nan residual, which is no TrapBoseError:
        # it ended the sweep, and the CLI run, in a traceback.
        direct = thermo._direct_residual
        monkeypatch.setattr(thermo, "_direct_residual", lambda n0, model, temperature, n_total:
                            math.nan if temperature == 2.0
                            else direct(n0, model, temperature, n_total))
        monkeypatch.setattr(thermo, "_table_sums", lambda *args: None)
        cold, nan, warm = sweep(CFG, enumerate_basis(CFG, 20.0), [1.0, 2.0, 3.0],
                                solver_kind=kind).points
        assert cold.converged and warm.converged
        assert not nan.converged
        assert nan.fail_reason.startswith("ConvergenceError: Brent root: residual is nan at n0 = ")
        config = tmp_path / "three.cfg"
        config.write_text("e_cut = 20\nt_min = 1\nt_max = 3\n")
        assert main(["--config", str(config), "--solver", kind,
                     "--output", str(tmp_path / "three.csv")]) == 2
        assert capsys.readouterr().err.startswith("# T=2: ConvergenceError: Brent root")

    @pytest.mark.parametrize("kind", thermo.SOLVER_KINDS)
    def test_vanishing_bare_level_fails_each_point(self, kind):
        # A hand-built basis that holds the ground state has a zero bare
        # level (TrapConfig rejects an hbar*omega that underflows to 0).
        # solve_n0 checks the bare levels once per point; perturbative2's
        # second-order term divides by them when the model is built, and
        # must not warn (an error under this suite's warning filter).
        basis = BasisSet(np.arange(0, 4)[:, None], CFG)
        assert basis.energies()[0] == 0.0
        model = SpectrumModel(CFG, basis, kind=kind)
        for temperature in (1.0, 2.0):
            with pytest.raises(UnstableSpectrumError, match="all levels must be positive"):
                solve_n0(model, temperature)
        curve = sweep(CFG, basis, [1.0, 2.0], solver_kind=kind)
        assert all(p.fail_reason.startswith("UnstableSpectrumError: all levels must be positive")
                   for p in curve.points)

    @pytest.mark.parametrize("kind", ["perturbative2", "riccati"])
    def test_nonpositive_direct_level_fails_the_point(self, kind):
        # Without a table the dense kinds root-solve on direct levels, which
        # excited_count checks: here the lowest level is 0 at every n0 > 0.
        model = SpectrumModel(CFG, enumerate_basis(CFG, 20.0), kind=kind)
        model.table = None
        direct = model.levels
        model.levels = lambda n0: direct(n0) if n0 == 0.0 else direct(n0) - direct(n0)[0]
        with pytest.raises(UnstableSpectrumError, match="all levels must be positive"):
            solve_n0(model, 1.0)

    def test_rejects_bad_arguments(self):
        basis = enumerate_basis(CFG, 10.0)
        with pytest.raises(ValueError):
            solve_at(CFG, basis, -1.0)
        with pytest.raises(ValueError):
            solve_at(CFG, basis, 1.0, tol=0.0)

    @pytest.mark.parametrize("kind", thermo.SOLVER_KINDS)
    def test_rejects_non_finite_arguments(self, kind):
        # A nan temperature once gave a converged point with n0 = nan (ideal)
        # or aborted the sweep from brentq (the dense kinds).
        basis = enumerate_basis(CFG, 10.0)
        model = SpectrumModel(CFG, basis, kind=kind)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^temperature must be positive and finite, "
                                                 f"got {bad}$"):
                solve_n0(model, bad)
            with pytest.raises(ValueError, match=f"^all temperatures must be positive and "
                                                 f"finite, got {bad}$"):
                sweep(CFG, basis, [1.0, bad, 2.0], solver_kind=kind)
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                solve_n0(model, 1.0, tol=bad)
            with pytest.raises(ValueError, match="tol must be positive and finite"):
                sweep(CFG, basis, [1.0, 2.0], solver_kind=kind, tol=bad)


# Functions of x that _brent_root and brentq solve on [0, n], scaled by
# scale: a root at r = share*n (f(n) = 0 at share 1), a zero on all of
# [r, r + width*(n - r)] for "flat", which an iterate may hit exactly, and a
# wave of amplitude width*n for "wavy", which may not change sign on [0, n];
# a numpy float or a Python float, as the package's residuals return either.
def _bracketing(x, shape, n, share, width, wave, scale, numpy):
    r = share * n
    if shape == "linear":
        value = r - x
    elif shape == "cubic":
        value = (r - x) ** 3
    elif shape == "steep":
        value = math.expm1(wave * (r - x) / n)
    elif shape == "wavy":
        value = r - x + width * n * math.sin(wave * x / n)
    else:
        value = max(r - x, 0.0) - max(x - r - width * (n - r), 0.0)
    return np.float64(scale * value) if numpy else scale * value


class TestPointWorkspace:
    """solve_n0 on ideal and perturbative1 runs each point in one workspace:
    the bare count's r and 1/r, and one slope-weight buffer for the Newton
    solve."""

    @settings(deadline=None)
    @given(kind=st.sampled_from(["ideal", "perturbative1"]),
           dimension=st.sampled_from([1, 2, 3]),
           omega=st.sampled_from([(1.0, 1.0, 1.0), (1.0, 2.0, 3.0)])
           | st.tuples(*[st.floats(0.7, 2.0)] * 3),
           g=st.sampled_from([0.0, 5e-324]) | st.floats(1e-4, 10.0),
           scale=st.floats(0.01, 3.0) | st.just(1.0))
    # scale 1 is the largest float below the transition; at 1 - 1e-4 and
    # g = 3e-3 the Newton solve starts at N (test_affine_newton_start_at_n).
    @example(kind="perturbative1", dimension=1, omega=(1.0, 1.0, 1.0), g=2e-4, scale=1.0)
    @example(kind="perturbative1", dimension=2, omega=(1.0, 2.0**0.5, 1.0), g=3e-3,
             scale=1.0 - 1e-4)
    @example(kind="perturbative1", dimension=3, omega=(1.0, 1.3, 0.7), g=3e-3,
             scale=1.0 - 1e-4)
    @example(kind="perturbative1", dimension=3, omega=(1.0, 1.3, 0.7), g=10.0, scale=0.01)
    @example(kind="perturbative1", dimension=1, omega=(1.0, 1.0, 1.0), g=5e-324, scale=0.5)
    @example(kind="ideal", dimension=2, omega=(1.0, 2.0, 3.0), g=1e-4, scale=2.0)
    def test_points_match_allocating_oracle(self, kind, dimension, omega, g, scale):
        # Every ThermoPoint field, or the error, of the solve that allocated
        # new arrays at each evaluation, in both phases.
        cfg = TrapConfig(dimension=dimension, frequencies=omega[:dimension], g=g)
        basis = enumerate_basis(cfg, {1: 60.0, 2: 25.0, 3: 12.0}[dimension])
        model = SpectrumModel(cfg, basis, kind=kind)
        transition = transition_temperature(model.levels(0.0), 1000.0)
        temperature = float(np.nextafter(transition, 0.0)) if scale == 1.0 else transition * scale

        def outcome(solve):
            try:
                return solve(model, temperature)
            except TrapBoseError as exc:
                return f"{type(exc).__name__}: {exc}"

        assert outcome(solve_n0) == outcome(allocating_point)

    def test_peak_memory_in_level_vectors(self):
        # The aniso2d-p1 trap (32,076 states).  With new arrays at each
        # evaluation the peak was 7.0 level vectors at T = 10 (condensed,
        # three Newton evaluations) and 4.0 at T = 100 (normal phase).
        cfg = TrapConfig(dimension=2, frequencies=(1.0, math.sqrt(2.0)))
        model = SpectrumModel(cfg, enumerate_basis(cfg, 300.0))
        vector = model.levels(0.0).nbytes
        for temperature, normal_phase, limit in ((10.0, False, 3.5), (100.0, True, 2.5)):
            tracemalloc.start()
            try:
                point = solve_n0(model, temperature)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert point.converged and point.normal_phase == normal_phase
            assert peak <= limit * vector, (temperature, peak / vector)

    def test_one_model_on_several_threads(self):
        # The model keeps no buffer: points solved on four threads at once,
        # switching every microsecond, are those solved one after another.
        model = SpectrumModel(CFG, enumerate_basis(CFG, 400.0))
        grid = np.arange(1.0, 201.0)
        serial = [solve_n0(model, temperature) for temperature in grid]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                threaded = list(pool.map(lambda t: solve_n0(model, t), grid, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial


def _decades(low, high):
    return st.floats(low, high).map(lambda e: 10.0**e)


class TestBrentRoot:
    @settings(deadline=None, max_examples=400)
    @given(shape=st.sampled_from(["linear", "cubic", "steep", "wavy", "flat"]),
           n_total=_decades(-3.0, 6.0),
           share=st.one_of(st.just(1.0), st.just(0.5), st.floats(0.0, 1.0)),
           width=st.floats(0.0, 1.0), wave=st.floats(0.1, 60.0),
           scale=st.one_of(st.just(1.0), _decades(-300.0, -150.0)),
           tol=st.one_of(st.just(thermo.TOL_FLOOR), _decades(-14.0, -3.0)),
           numpy=st.booleans())
    # The extrapolation's denominator underflows to 0 (an inf step in C).
    @example(shape="linear", n_total=1.0, share=0.3718, width=0.0, wave=1.0, scale=1e-150,
             tol=1e-10, numpy=True)
    # f(0)*f(1) underflows to -0.0: only the sign bits tell the signs apart.
    @example(shape="linear", n_total=1.0, share=0.3718, width=0.0, wave=1.0, scale=1e-200,
             tol=1e-10, numpy=True)
    # The secant from the bracket lands on the root, where f is 0 exactly.
    @example(shape="linear", n_total=1.0, share=0.5, width=0.0, wave=1.0, scale=1.0, tol=1e-10,
             numpy=False)
    def test_matches_brentq(self, shape, n_total, share, width, wave, scale, tol, numpy):
        # The same root bits and function_calls as scipy's brentq, and a
        # ConvergenceError where brentq raises.
        args = (shape, n_total, share, width, wave, scale, numpy)
        try:
            expected = brent_root(_bracketing, args, n_total, tol)
        except (ValueError, RuntimeError) as exc:
            message = "one sign" if isinstance(exc, ValueError) else "not converged"
            with pytest.raises(ConvergenceError, match=message):
                thermo._brent_root(_bracketing, args, n_total, tol)
            return
        root, calls = thermo._brent_root(_bracketing, args, n_total, tol)
        assert (root.hex(), calls) == (expected[0].hex(), expected[1])

    def test_nan_residual_raises_with_it(self):
        with pytest.raises(ConvergenceError, match="residual is nan at n0 = 1$") as caught:
            thermo._brent_root(lambda x: 1.0 - 2.0 * x if x < 1.0 else math.nan, (), 1.0, 1e-10)
        assert math.isnan(caught.value.residual)


class TestSpectrumModel:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SpectrumModel(CFG, enumerate_basis(CFG, 5.0), kind="exact")

    @pytest.mark.parametrize("n0", [1.0, 250.0, 1000.0])
    @pytest.mark.parametrize("cfg, e_cut", [
        (CFG, 60.0),
        (TrapConfig(dimension=2, frequencies=(1.0, math.sqrt(2.0))), 12.0),
        (TrapConfig(dimension=2, frequencies=(1.0, 1.0)), 10.0),
        (TrapConfig(dimension=3, frequencies=(1.0, 1.3, 0.7)), 6.0),
    ], ids=["1d", "2d-aniso", "2d-iso", "3d-aniso"])
    @pytest.mark.parametrize("kind", ["perturbative1", "perturbative2", "riccati"])
    def test_levels_match_direct_evaluation(self, kind, cfg, e_cut, n0):
        # The dense kinds solve each parity sector on its own, which is exact
        # but rounds differently from the full-matrix solve.
        basis = enumerate_basis(cfg, e_cut)
        got = SpectrumModel(cfg, basis, kind=kind).levels(n0)
        if kind == "perturbative1":
            assert np.array_equal(got, direct_levels(kind, basis, n0))
        else:
            np.testing.assert_allclose(got, direct_levels(kind, basis, n0), rtol=1e-11, atol=0.0)

    @settings(deadline=None)
    @given(kind=st.sampled_from(["perturbative2", "riccati"]),
           frequencies=st.lists(st.floats(0.5, 3.0), min_size=1, max_size=3),
           e_cut=st.floats(3.0, 6.0), n0=st.floats(1.0, 1000.0))
    def test_sector_levels_property(self, kind, frequencies, e_cut, n0):
        cfg = TrapConfig(dimension=len(frequencies), frequencies=tuple(frequencies))
        basis = enumerate_basis(cfg, e_cut)
        got = SpectrumModel(cfg, basis, kind=kind).levels(n0)
        assert got.shape == (basis.size,)
        assert np.all(np.diff(got) >= 0.0)
        np.testing.assert_allclose(got, direct_levels(kind, basis, n0), rtol=1e-11, atol=0.0)

    @pytest.mark.parametrize("kind", thermo.SOLVER_KINDS)
    def test_cached_arrays_read_only(self, kind):
        model = SpectrumModel(CFG, enumerate_basis(CFG, 31.0), kind=kind)
        arrays = []
        pending = list(vars(model).values())
        while pending:
            value = pending.pop()
            if isinstance(value, np.ndarray):
                arrays.append(value)
            elif isinstance(value, (list, tuple)):
                pending.extend(value)
        assert arrays
        assert not any(array.flags.writeable for array in arrays)

    def test_normal_phase_levels_do_not_alias_model(self):
        # A normal-phase point is solved on the model's bare levels, which
        # levels(0.0) returns as is; writing into them must fail, so that
        # the model's levels cannot change afterwards.
        cfg = TrapConfig(n_particles=20)
        model = SpectrumModel(cfg, enumerate_basis(cfg, 60.0))
        before = solve_n0(model, 5.0).n0
        assert solve_n0(model, 40.0).normal_phase
        with pytest.raises(ValueError):
            model.levels(0.0)[:] = 1e9
        assert solve_n0(model, 5.0).n0 == before

    @pytest.mark.parametrize("kind", ["ideal", "perturbative1"])
    @pytest.mark.parametrize("n0", [0.0, 300.0])
    def test_levels_into_out(self, kind, n0):
        # levels(n0, out) writes the levels of levels(n0) into out on the
        # kinds whose Newton solve passes a buffer.
        model = SpectrumModel(CFG, enumerate_basis(CFG, 60.0), kind=kind)
        expected = model.levels(n0)
        out = np.full(expected.shape, np.nan)
        assert model.levels(n0, out=out) is out
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize("kind", ["perturbative2", "riccati"])
    def test_dense_bare_levels_sorted(self, kind):
        # Like every other levels(n0) of a dense kind, and whatever the
        # basis order.
        basis = shuffled_basis()
        got = SpectrumModel(CFG, basis, kind=kind).levels(0.0)
        assert np.array_equal(got, np.sort(basis.energies()))

    @pytest.mark.parametrize("cfg, basis_cfg", [
        (TrapConfig(frequencies=(2.0,)), CFG),
        (TrapConfig(mass=1.0), CFG),
        (CFG, TrapConfig(dimension=2, frequencies=(1.0, 1.5))),
        (TrapConfig(dimension=2, frequencies=(1.0, 1.5)), CFG),
    ], ids=["omega", "mass", "1d-cfg-2d-basis", "2d-cfg-1d-basis"])
    def test_trap_must_match_basis(self, cfg, basis_cfg):
        basis = enumerate_basis(basis_cfg, 10.0)
        with pytest.raises(ValueError, match="different traps"):
            SpectrumModel(cfg, basis)
        with pytest.raises(ValueError, match="different traps"):
            sweep(cfg, basis, [5.0])

    def test_coupling_may_differ_from_basis(self):
        cfg = TrapConfig(g=1e-4, n_particles=500)
        curve = sweep(cfg, enumerate_basis(CFG, 50.0), [5.0])
        assert curve.config is cfg
        assert 0.0 < curve.points[0].n0 <= 500.0

    def test_branches_agree_at_weak_coupling(self):
        basis = enumerate_basis(CFG, 10.0)
        n0 = 100.0  # lambda = 0.01
        p1 = SpectrumModel(CFG, basis, kind="perturbative1").levels(n0)
        p2 = SpectrumModel(CFG, basis, kind="perturbative2").levels(n0)
        ric = SpectrumModel(CFG, basis, kind="riccati").levels(n0)
        assert np.max(np.abs(np.sort(p1) - p2)) < 5e-4
        assert np.max(np.abs(p2 - ric)) < 5e-4


class TestLevelTable:
    @settings(deadline=None, max_examples=40)
    @given(kind=st.sampled_from(["perturbative2", "riccati"]),
           frequencies=st.lists(st.floats(0.7, 2.0), min_size=1, max_size=3),
           g=st.floats(0.0, 5e-4), share=st.floats(0.05, 1.0))
    @example(kind="perturbative2", frequencies=[1.0], g=2.2e-309, share=0.5)
    @example(kind="perturbative2", frequencies=[2.0, 2.0, 0.75], g=0.00046772273784261156,
             share=1.0)
    def test_table_path_matches_direct_path(self, kind, frequencies, g, share):
        # Inside the cutoff-converged window T <= e_cut/8; g includes
        # subnormal values, where lambda_max is subnormal too.  Where the
        # second-order levels turn negative below N (the second example),
        # the direct root raises, and the model must raise the same error.
        e_cut = {1: 40.0, 2: 12.0, 3: 7.0}[len(frequencies)]
        cfg = TrapConfig(dimension=len(frequencies), frequencies=tuple(frequencies), g=g)
        basis = enumerate_basis(cfg, e_cut)
        temperature = share * e_cut / 8.0
        model = SpectrumModel(cfg, basis, kind=kind)
        direct = SpectrumModel(cfg, basis, kind=kind)
        direct.table = None
        try:
            reference = solve_n0(direct, temperature)
        except UnstableSpectrumError as exc:
            with pytest.raises(UnstableSpectrumError, match=f"^{re.escape(str(exc))}$"):
                solve_n0(model, temperature)
            return
        point = solve_n0(model, temperature)
        assert point.normal_phase == reference.normal_phase
        assert abs(point.n0 - reference.n0) <= 2.0 * thermo.DEFAULT_TOL * 1000.0
        assert abs(point.energy_excess - reference.energy_excess) <= 1e-12 * 1000.0

    @settings(deadline=None, max_examples=15)
    @given(kind=st.sampled_from(["perturbative2", "riccati"]),
           frequencies=st.lists(st.floats(0.7, 2.0), min_size=1, max_size=3),
           g=st.floats(1e-5, 5e-4))
    @example(kind="perturbative2", frequencies=[2.0, 2.0, 0.75], g=0.00046772273784261156)
    def test_node_chunks_match_one_batch(self, kind, frequencies, g):
        # Split into 2, 3, 5 or 17 node chunks on threads, whatever the size
        # of the stacks, the block of every grid is that of one batch, bit
        # for bit, and None where it is.  The example's second-order levels
        # turn negative below N, so its table is None.
        e_cut = {1: 40.0, 2: 12.0, 3: 7.0}[len(frequencies)]
        cfg = TrapConfig(dimension=len(frequencies), frequencies=tuple(frequencies), g=g)
        basis = enumerate_basis(cfg, e_cut)
        whole = SpectrumModel(cfg, basis, kind=kind)
        for cpus in (2, 3, 5, 17):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(thermo, "MIN_CHUNK_WORK", 1)
                patch.setattr(thermo, "_cpu_count", lambda: cpus)
                split = SpectrumModel(cfg, basis, kind=kind)
                blocks = list(zip(split._blocks(), whole._blocks()))
                assert len(blocks) == len(thermo._GRIDS)
                for j, (ours, theirs) in enumerate(blocks):
                    assert (ours is None) == (theirs is None), j
                    assert ours is None or np.array_equal(ours, theirs), j

    @settings(deadline=None, max_examples=30)
    @given(kind=st.sampled_from(["perturbative2", "riccati"]),
           trap=st.sampled_from([((1.0,), 14.0, 40.0), ((1.0, math.sqrt(2.0)), 8.0, 16.0),
                                 ((1.0, 1.3, 0.7), 5.0, 8.0)]),
           share=st.floats(0.0, 1.0),
           g=st.one_of(st.floats(-4.0, 0.0).map(lambda x: 10.0**x), st.just(1e200)),
           chunks=st.integers(1, 17))
    @example(kind="perturbative2", trap=((1.0,), 14.0, 40.0), share=1.0, g=1e200, chunks=17)
    @example(kind="riccati", trap=((1.0,), 14.0, 40.0), share=1.0, g=1e200, chunks=17)
    def test_split_table_fails_where_one_node_does(self, kind, trap, share, g, chunks):
        # In any number of node chunks the block of every grid is that of
        # one call, bit for bit, None included, and it is None exactly when
        # a node of it solved alone raises or has a level <= 0.
        frequencies, low, high = trap
        cfg = TrapConfig(dimension=len(frequencies), frequencies=frequencies, g=g)
        basis = enumerate_basis(cfg, low + share * (high - low))
        lam_max = cfg.coupling_lambda(cfg.n_particles)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(thermo, "_cpu_count", lambda: 1)
            whole = SpectrumModel(cfg, basis, kind=kind)
            blocks = list(whole._blocks())
            fails = []
            for coarse, grid in zip((None,) + thermo._GRIDS, thermo._GRIDS):
                fails.append(False)
                for node in grid.nodes[0 if coarse is None else coarse.nodes.size:]:
                    try:
                        fails[-1] |= bool(np.any(whole._sectors(np.array([lam_max * node])) <= 0.0))
                    except TrapBoseError:
                        fails[-1] = True
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(thermo, "MIN_CHUNK_WORK", 1)
            patch.setattr(thermo, "_cpu_count", lambda: chunks)
            split = list(SpectrumModel(cfg, basis, kind=kind)._blocks())
        assert len(blocks) == len(split) == len(fails) == len(thermo._GRIDS)
        for block, ours, fail in zip(blocks, split, fails):
            assert (block is None) == (ours is None) == fail
            assert block is None or np.array_equal(ours, block)

    def test_levels_are_never_split(self, node_chunks, pools, chunk_sizes):
        # A levels call solves one lambda, a node axis of length 1.
        basis = enumerate_basis(CFG, 120.0)
        for kind in ("perturbative2", "riccati"):
            model = SpectrumModel(CFG, basis, kind=kind)
            for n0 in (1.0, 500.0, 1000.0):
                model.levels(n0)
        assert pools == [] and chunk_sizes == [1] * 6

    def test_small_tables_are_not_split(self, monkeypatch, pools, chunk_sizes):
        # The riccati-1d benchmark sweep (e_cut 14, two sectors of 7) holds
        # less work than two chunks need, on any number of CPUs.
        monkeypatch.setattr(thermo, "_cpu_count", lambda: 17)
        curve = sweep(CFG, enumerate_basis(CFG, 14.0), np.arange(1.0, 21.0),
                      solver_kind="riccati")
        assert all(p.converged for p in curve.points)
        assert pools == [] and chunk_sizes == [17]

    def test_table_split_in_two_on_two_cpus(self, monkeypatch, pools, chunk_sizes):
        # The p2-1d benchmark table: (17, 2, 60, 60) stacks.
        monkeypatch.setattr(thermo, "_cpu_count", lambda: 2)
        assert SpectrumModel(CFG, enumerate_basis(CFG, 120.0), "perturbative2").table is not None
        assert pools == [1] and sorted(chunk_sizes) == [8, 9]

    def test_no_thread_outlives_a_table_build(self, node_chunks, pools):
        # Each build's pool has joined its threads when the build returns.
        before = threading.active_count()
        cfg = TrapConfig(dimension=3, frequencies=(1.0, 1.3, 0.7))
        basis = enumerate_basis(cfg, 8.0)
        model = SpectrumModel(cfg, basis, kind="riccati")
        assert model.table is not None and threading.active_count() == before
        for block in model._blocks():
            assert block is not None and threading.active_count() == before
        # The 17 nodes, then the 16, 32 and 64 of the later grids, 16 a call.
        assert pools == [16] + [15] * 7
        pools.clear()
        curve = sweep(cfg, basis, np.linspace(0.2, 8.0, 10), solver_kind="riccati")
        assert all(p.converged for p in curve.points)
        assert threading.active_count() == before
        assert pools == [16, 15]  # the 17 nodes, then the 16 of the 33-node grid

    @pytest.mark.parametrize("kind", ["ideal", "perturbative1"])
    def test_no_table_for_diagonal_kinds(self, kind):
        model = SpectrumModel(CFG, enumerate_basis(CFG, 120.0), kind=kind)
        assert not solve_n0(model, 5.0).normal_phase
        assert model.table is None

    def test_no_table_for_normal_phase_sweep(self, monkeypatch):
        models = []

        class Recording(SpectrumModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                models.append(self)

        monkeypatch.setattr(thermo, "SpectrumModel", Recording)
        curve = sweep(CFG, enumerate_basis(CFG, 120.0), [300.0, 400.0],
                      solver_kind="perturbative2")
        assert all(p.normal_phase for p in curve.points)
        assert len(models) == 1
        assert "table" not in vars(models[0])

    def test_no_table_when_a_node_fails(self):
        # At g = 0.02 the second-order levels go negative before lambda_max.
        cfg = TrapConfig(g=0.02)
        assert SpectrumModel(cfg, enumerate_basis(cfg, 20.0), kind="perturbative2").table is None

    def test_table_matches_direct_levels(self):
        # A basis in shuffled order: every node holds the direct levels at
        # its lambda (computed there as lambda_max * t, so lambda itself
        # rounds differently), and between the nodes the interpolated count
        # follows the direct one, on the 17 nodes and on each finer grid.
        basis = shuffled_basis()
        model = SpectrumModel(CFG, basis, kind="riccati")
        blocks = list(model._blocks())
        assert blocks[0] is model.table
        assert [block.shape for block in blocks] == [(17, basis.size), (16, basis.size),
                                                     (32, basis.size), (64, basis.size)]
        assert not any(block.flags.writeable for block in blocks)
        rows = np.concatenate(blocks)
        for node, row in zip(thermo._GRIDS[-1].nodes, rows):
            np.testing.assert_allclose(np.sort(row), model.levels(node * 1000.0),
                                       rtol=1e-12, atol=0.0)
        for grid in thermo._GRIDS:
            values = rows[:grid.nodes.size]
            counts = np.sum(occupation(values, 5.0), axis=1)
            for n0 in (3.0, 333.0, 777.0):
                count = thermo._interpolate(grid, counts, n0 / 1000.0)
                assert count == pytest.approx(excited_count(model.levels(n0), 5.0), rel=1e-12)

    def test_coarse_nodes_are_the_first_fine_nodes(self):
        # Each grid is in refinement order: the nodes of the grid before
        # it, bit for bit, then one between each two of them.
        assert [grid.nodes.size for grid in thermo._GRIDS] == [17, 33, 65, 129]
        for coarse, fine in zip(thermo._GRIDS, thermo._GRIDS[1:]):
            size = coarse.nodes.size
            assert np.array_equal(coarse.nodes, fine.nodes[:size])
            ordered, new = np.sort(coarse.nodes), np.sort(fine.nodes[size:])
            assert np.all(ordered[:-1] < new) and np.all(new < ordered[1:])

    def test_first_two_grids_are_the_former_grids(self):
        # The 17-node grid in the order of k and the 33-node grid with even
        # k first, as built before the grids were one sequence: nodes,
        # weights and tail map, bit for bit, so a point that solves on 17 or
        # 33 nodes gives the same bits.
        def grid(k):
            n = k.size - 1
            nodes = np.sin(0.5 * np.pi * k / n) ** 2
            weights = np.where(k % n == 0, 0.5, 1.0) * (-1.0) ** k
            tail = np.linalg.inv(np.polynomial.chebyshev.chebvander(2.0 * nodes - 1.0, n))[-2:]
            return nodes, weights, tail

        for ours, k in zip(thermo._GRIDS, (np.arange(17), np.r_[0:33:2, 1:33:2])):
            for mine, theirs in zip((ours.nodes, ours.weights, ours.tail), grid(k)):
                assert np.array_equal(mine, theirs)

    def test_interpolant_is_exact_at_the_nodes(self):
        # At a node the interpolant returns that node's value, bit for bit,
        # so the bracket of a root solve on it holds exactly: f(0) = N -
        # bare count > 0 and f(N) = -(count at lambda_max) <= 0.
        values = np.random.default_rng(5).standard_normal(129)
        for grid in thermo._GRIDS:
            for k, node in enumerate(grid.nodes):
                assert thermo._interpolate(grid, values[:grid.nodes.size], node) == values[k]

    @pytest.mark.parametrize("kind", ["perturbative2", "riccati"])
    def test_cold_sweep_roots_on_the_interpolant(self, kind, monkeypatch):
        # Far below the transition the count at lambda_max is about
        # exp(-1/T), so f(N) is a tiny negative number that an interpolant
        # off its node values by rounding would turn positive, and the
        # root solve would reject its bracket.  Every point is solved on
        # the interpolant, with no direct levels call.
        basis = enumerate_basis(CFG, 60.0)
        calls = self.record_levels_calls(monkeypatch)
        curve = sweep(CFG, basis, 0.005 * np.arange(1, 21), solver_kind=kind)
        assert all(p.converged and not p.normal_phase and p.iterations > 0
                   for p in curve.points)
        assert calls == [0.0] * 20

    def test_tail_map_gives_the_last_two_chebyshev_coefficients(self):
        for grid in thermo._GRIDS:
            x = 2.0 * grid.nodes - 1.0
            coefficients = np.random.default_rng(3).standard_normal(grid.nodes.size)
            np.testing.assert_allclose(grid.tail @ chebval(x, coefficients),
                                       coefficients[-2:], rtol=0.0, atol=1e-13)
            np.testing.assert_allclose(grid.tail @ chebval(x, coefficients[:-2]),
                                       0.0, rtol=0.0, atol=1e-13)
            assert not grid.tail.flags.writeable

    def test_tail_maps_built_at_first_use(self):
        # Importing the package inverts no Chebyshev-Vandermonde matrix.  A
        # tail map built later is the inverse's two last rows at one BLAS
        # thread, bit for bit.
        code = textwrap.dedent("""
            import trapbose.cli
            from trapbose import thermo
            print(*("tail" in vars(grid) for grid in thermo._GRIDS))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(thermo.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.split() == ["False"] * 4
        get, set_ = thermo._blas_threads()
        threads = get()
        set_(1)
        try:
            inverses = [np.linalg.inv(np.polynomial.chebyshev.chebvander(
                2.0 * grid.nodes - 1.0, grid.nodes.size - 1)) for grid in thermo._GRIDS]
        finally:
            set_(threads)
        for grid, inverse in zip(thermo._GRIDS, inverses):
            assert np.array_equal(grid.tail, inverse[-2:])

    def test_tail_maps_alike_at_any_blas_threads(self):
        # The 129-node inverse takes other bits on two BLAS threads than on
        # one; every tail map is formed on one, so processes started at
        # either count hold the same four maps, bit for bit.
        code = textwrap.dedent("""
            import hashlib
            from trapbose import thermo
            print(*(hashlib.md5(grid.tail.tobytes()).hexdigest() for grid in thermo._GRIDS))
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(thermo.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        hashes = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=60)
            assert run.returncode == 0, run.stderr
            hashes.append(run.stdout.split())
        assert len(hashes[0]) == 4 and hashes[0] == hashes[1]

    @pytest.fixture
    def table_calls(self, monkeypatch, chunk_sizes):
        """chunk_sizes, with every table built in one call whatever the
        machine's CPUs and BLAS threads."""
        monkeypatch.setattr(thermo, "_cpu_count", lambda: 1)
        return chunk_sizes

    def test_one_dimensional_sweep_builds_only_the_coarse_nodes(self, monkeypatch, table_calls):
        # The p2-1d benchmark sweep: every condensed point passes the tail
        # test on the 17 nodes, so no finer grid is built, and no point
        # needs a direct eigen-solve.
        basis = enumerate_basis(CFG, 120.0)
        models = []

        class Recording(SpectrumModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                models.append(self)

        monkeypatch.setattr(thermo, "SpectrumModel", Recording)
        curve = sweep(CFG, basis, np.arange(1.0, 16.0), solver_kind="perturbative2")
        assert all(p.converged and not p.normal_phase for p in curve.points)
        assert table_calls == [17]
        assert models[0].table.shape == (17, basis.size)
        assert models[0]._refined == {}

    def test_three_dimensional_sweep_adds_the_midpoints_once(self, monkeypatch, table_calls):
        # A 3D riccati sweep fails the tail test on 17 nodes at about half
        # of its points and passes it on 33: one batch of 17 nodes, then one
        # of the 16 nodes the 33-node grid adds, and no direct eigen-solve.
        cfg = TrapConfig(dimension=3, frequencies=(1.0, 1.3, 0.7))
        basis = enumerate_basis(cfg, 8.0)
        grid = np.linspace(0.2, 8.0, 40)
        curve = sweep(cfg, basis, grid, solver_kind="riccati")
        assert table_calls == [17, 16]
        monkeypatch.undo()
        direct = SpectrumModel(cfg, basis, kind="riccati")
        direct.table = None
        for temperature, point in zip(grid, curve.points):
            reference = solve_n0(direct, temperature)
            assert point.converged and point.normal_phase == reference.normal_phase
            assert abs(point.n0 - reference.n0) <= 2 * thermo.DEFAULT_TOL * 1000

    @staticmethod
    def record_grids(monkeypatch):
        """The node count of the grid that each table-path solve_n0 from
        now on solves on, None where it falls to direct levels."""
        grids = []
        table_sums = thermo._table_sums

        def recording(*args):
            sums = table_sums(*args)
            grids.append(None if sums is None else sums[0].nodes.size)
            return sums

        monkeypatch.setattr(thermo, "_table_sums", recording)
        return grids

    def test_strong_coupling_sweep_refines_to_129_nodes(self, monkeypatch, table_calls):
        # At g = 0.02 the riccati count needs more nodes as T grows: 5
        # points pass the tail test on 65 nodes and 3 on 129, and none falls
        # to direct levels.  No build hands _sectors more than 17 lambdas:
        # the 17 nodes, then the 16, 32 and 64 new ones 16 a call.
        cfg = TrapConfig(g=0.02)
        grids = self.record_grids(monkeypatch)
        curve = sweep(cfg, enumerate_basis(cfg, 60.0), np.arange(1.0, 9.0),
                      solver_kind="riccati")
        assert all(p.converged and not p.normal_phase for p in curve.points)
        assert sorted(grids) == [65] * 5 + [129] * 3
        assert table_calls == [17] + [16] * 7

    @settings(deadline=None, max_examples=20)
    @given(kind=st.sampled_from(["perturbative2", "riccati"]), e_cut=st.floats(40.0, 120.0),
           g=st.floats(-5.0, math.log10(0.02)).map(lambda x: 10.0**x))
    @example(kind="riccati", e_cut=60.0, g=0.02)
    @example(kind="perturbative2", e_cut=60.0, g=0.02)
    def test_refined_path_matches_direct_path(self, kind, e_cut, g):
        # On any grid up to 129 nodes the root is within 2 tol*N of the
        # direct one, the bound of --validate's interpolant-vs-direct.  The
        # first example solves 5 points on 65 nodes and 3 on 129.  Where a
        # direct root raises, as at every point of the second example (its
        # second-order levels turn negative below N), the model raises the
        # same error.
        cfg = TrapConfig(g=g)
        basis = enumerate_basis(cfg, e_cut)
        model = SpectrumModel(cfg, basis, kind=kind)
        direct = SpectrumModel(cfg, basis, kind=kind)
        direct.table = None
        for temperature in np.arange(1.0, 9.0):
            try:
                reference = solve_n0(direct, temperature)
            except TrapBoseError as exc:
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    solve_n0(model, temperature)
                continue
            point = solve_n0(model, temperature)
            assert point.normal_phase == reference.normal_phase
            assert abs(point.n0 - reference.n0) <= 2.0 * thermo.DEFAULT_TOL * 1000.0
            assert abs(point.energy_excess - reference.energy_excess) <= 1e-12 * 1000.0

    @pytest.mark.parametrize("kind", ["perturbative2", "riccati"])
    def test_tol_below_the_floor_keeps_the_table(self, kind, monkeypatch):
        # tol = 1e-17 asks for a count tail below rounding.  The tail test
        # takes the floor TOL_FLOOR*N at which the root solve stops, so
        # every point solves on the 17 nodes; against tol*N itself, 12
        # perturbative2 points here need 33 nodes and 2 riccati points fall
        # to direct levels.  The bound, 4 TOL_FLOOR*N: each Brent root lies
        # within tol*N + TOL_FLOOR*n0 of a root of its residual (2 in all),
        # the tail test accepts an interpolant whose count error it
        # estimates at TOL_FLOOR*N (1), and 1 is left for rounding in the
        # count sums of either path.  The largest gap here is 0.26.
        basis = enumerate_basis(CFG, 120.0)
        model = SpectrumModel(CFG, basis, kind=kind)
        direct = SpectrumModel(CFG, basis, kind=kind)
        direct.table = None
        temperatures = np.arange(1.0, 16.0)
        references = [solve_n0(direct, temperature, tol=1e-17) for temperature in temperatures]
        calls = self.record_levels_calls(monkeypatch)
        for temperature, reference in zip(temperatures, references):
            point = solve_n0(model, temperature, tol=1e-17)
            assert point.converged and not point.normal_phase and not reference.normal_phase
            assert abs(point.n0 - reference.n0) <= 4.0 * thermo.TOL_FLOOR * 1000.0
        assert calls == [0.0] * 15
        assert model._refined == {}

    @staticmethod
    def record_levels_calls(monkeypatch):
        """The n0 of every SpectrumModel.levels call from now on."""
        calls = []
        levels = SpectrumModel.levels

        def counting(model, n0, out=None):
            calls.append(n0)
            return levels(model, n0, out)

        monkeypatch.setattr(SpectrumModel, "levels", counting)
        return calls

    def assert_direct_solve(self, model, basis, temperature, monkeypatch):
        """solve_n0 on model equals that on a model of basis with no table,
        down to its direct levels calls."""
        direct = SpectrumModel(model.cfg, basis, kind=model.kind)
        direct.table = None
        calls = self.record_levels_calls(monkeypatch)
        reference = solve_n0(direct, temperature)
        reference_calls = calls[:]
        calls.clear()
        point = solve_n0(model, temperature)
        assert not point.normal_phase
        assert calls == reference_calls
        assert point.n0 == reference.n0
        assert point.iterations == reference.iterations
        assert point.energy_excess == reference.energy_excess

    def test_perturbed_table_fails_certificate(self, monkeypatch):
        # An odd node scaled by 1 + 1e-3 moves the last two Chebyshev
        # coefficients of the count interpolant by more than tol*N, so the
        # point is solved on direct levels.
        basis = enumerate_basis(CFG, 120.0)
        model = SpectrumModel(CFG, basis, kind="perturbative2")
        table = model.table.copy()
        table[-2] *= 1.0 + 1e-3
        model.table = table
        self.assert_direct_solve(model, basis, 5.0, monkeypatch)

    def test_tail_accepts_a_3d_point(self, monkeypatch):
        # A 3D trap above its cutoff-converged window: the count interpolant
        # on every other node is off by more than tol*N here, but the tail of
        # the one on all the nodes is not, and the point is solved on it.
        cfg = TrapConfig(dimension=3, frequencies=(1.0, 1.3, 0.7))
        basis = enumerate_basis(cfg, 8.0)
        direct = SpectrumModel(cfg, basis, kind="riccati")
        direct.table = None
        reference = solve_n0(direct, 6.4)
        model = SpectrumModel(cfg, basis, kind="riccati")
        calls = self.record_levels_calls(monkeypatch)
        point = solve_n0(model, 6.4)
        assert calls == [0.0]
        assert not point.normal_phase
        assert abs(point.n0 - reference.n0) <= 2 * thermo.DEFAULT_TOL * 1000

    def test_node_zero_takes_the_bare_count(self, monkeypatch):
        # Node 0 holds the bare levels from an eigen-solve, which may round
        # below levels(0.0).  Just under the transition its count then
        # reaches N although that of levels(0.0) does not.  solve_n0 puts the
        # count of levels(0.0) at node 0, so the interpolant keeps f(0) > 0.
        # Here node 0 is lowered on purpose and T is the largest float below
        # the transition; the point is still solved on the interpolant.
        cfg = TrapConfig(n_particles=20)
        basis = enumerate_basis(cfg, 30.0)
        model = SpectrumModel(cfg, basis, kind="riccati")
        table = model.table.copy()
        table[0] *= 1.0 - 1e-9
        model.table = table
        bare = model.levels(0.0)
        low, high = 1.0, 30.0
        while np.nextafter(low, high) < high:
            mid = 0.5 * (low + high)
            low, high = (mid, high) if excited_count(bare, mid) < 20.0 else (low, mid)
        assert np.sum(occupation(table[0], low)) >= 20.0
        direct = SpectrumModel(cfg, basis, kind="riccati")
        direct.table = None
        reference = solve_n0(direct, low)
        calls = []
        levels = SpectrumModel.levels

        def counting(model, n0):
            calls.append(n0)
            return levels(model, n0)

        monkeypatch.setattr(SpectrumModel, "levels", counting)
        point = solve_n0(model, low)
        assert calls == [0.0]
        assert not point.normal_phase
        assert abs(point.n0 - reference.n0) <= 2 * thermo.DEFAULT_TOL * 20


class TestNodeChunks:
    @pytest.mark.parametrize("cpus, gate, sizes", [
        (1, 1, [17]),
        (2, 1, [9, 8]),
        (3, 1, [6, 6, 5]),
        (17, 1, [1] * 17),
        (64, 1, [1] * 17),
        (64, 5831, [5, 4, 4, 4]),  # work 17 * 2 * 2 * 7^3 = 4 * 5831
        (64, 23325, [17]),
        (5, 1, [4, 4, 3, 3, 3]),
    ])
    def test_chunk_count(self, cpus, gate, sizes, monkeypatch, pools, chunk_sizes):
        # The riccati-1d table, two sectors of 7 with A and B each, in
        # min(CPUs, nodes, work // MIN_CHUNK_WORK) contiguous chunks, the
        # first ones the larger: one pool for all but the first chunk, and
        # the levels of one call, bit for bit.
        basis = enumerate_basis(CFG, 14.0)
        whole = SpectrumModel(CFG, basis, "riccati").table
        assert pools == [] and chunk_sizes == [17]
        chunk_sizes.clear()
        monkeypatch.setattr(thermo, "MIN_CHUNK_WORK", gate)
        monkeypatch.setattr(thermo, "_cpu_count", lambda: cpus)
        assert np.array_equal(SpectrumModel(CFG, basis, "riccati").table, whole)
        assert sorted(chunk_sizes) == sorted(sizes)
        assert pools == ([len(sizes) - 1] if len(sizes) > 1 else [])

    @staticmethod
    def fail_last_chunk(monkeypatch, error, whole_fails=False):
        # _sectors fails on every batch that holds the last node: on that
        # node's chunk, a worker's, only, or on all 17 nodes at once too.
        lam_max = CFG.coupling_lambda(CFG.n_particles)
        sizes = []

        def failing(self, lam, sectors=thermo.SpectrumModel._sectors):
            sizes.append(lam.size)
            if lam[-1] == lam_max and (whole_fails or lam.size < 17):
                raise error("the last node")
            return sectors(self, lam)

        monkeypatch.setattr(thermo.SpectrumModel, "_sectors", failing)
        return sizes

    @pytest.mark.parametrize("whole_fails", [False, True], ids=["chunk", "chunk-and-whole"])
    def test_failed_chunk_fails_the_table_once(self, whole_fails, node_chunks, pools,
                                               monkeypatch):
        # Whether or not one call on all nodes would fail too, the table is
        # None, and no node is solved again in one call.
        sizes = self.fail_last_chunk(monkeypatch, ConvergenceError, whole_fails)
        assert SpectrumModel(CFG, enumerate_basis(CFG, 14.0), "riccati").table is None
        assert sizes == [1] * 17 and pools == [16]

    def test_other_errors_in_a_chunk_propagate(self, node_chunks, pools, monkeypatch):
        # An error that is not a TrapBoseError is a bug, not a failed table.
        sizes = self.fail_last_chunk(monkeypatch, RuntimeError)
        with pytest.raises(RuntimeError, match="^the last node$"):
            SpectrumModel(CFG, enumerate_basis(CFG, 14.0), "riccati").table
        assert 17 not in sizes and pools == [16]

    @pytest.fixture
    def blas(self, monkeypatch):
        """A stand-in for numpy's OpenBLAS at 3 threads: .threads is its
        count, .during the count at each SpectrumModel._sectors call from
        now on."""
        fake = SimpleNamespace(threads=3, during=[])
        sectors = thermo.SpectrumModel._sectors

        def set_threads(threads):
            fake.threads = threads

        def recording(model, lam):
            fake.during.append(fake.threads)
            return sectors(model, lam)

        monkeypatch.setattr(thermo, "_blas_threads", lambda: (lambda: fake.threads, set_threads))
        monkeypatch.setattr(thermo.SpectrumModel, "_sectors", recording)
        return fake

    @pytest.mark.parametrize("error", [None, ConvergenceError, RuntimeError])
    def test_build_restores_the_blas_threads(self, error, blas, node_chunks, pools,
                                             monkeypatch):
        # Every chunk is solved at one BLAS thread, and the build leaves the
        # count it found, whether it gives a table, fails it or raises.
        if error is not None:
            self.fail_last_chunk(monkeypatch, error)
        model = SpectrumModel(CFG, enumerate_basis(CFG, 14.0), "riccati")
        if error is RuntimeError:
            with pytest.raises(RuntimeError, match="^the last node$"):
                model.table
        else:
            assert (model.table is None) == (error is ConvergenceError)
        assert blas.threads == 3 and set(blas.during) == {1} and pools == [16]

    def test_builds_on_threads_leave_the_callers_count(self, blas, node_chunks):
        # Builds on eight host threads, more than the cores, switching often:
        # each runs all its chunks at one BLAS thread, and the count is the
        # caller's 3 after them.  They call _node_levels itself, as
        # cached_property before Python 3.12 holds one lock for a property
        # across all instances.
        basis = enumerate_basis(CFG, 14.0)
        models = [SpectrumModel(CFG, basis, kind) for kind in ("perturbative2", "riccati") * 4]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(len(models)) as pool:
                tables = list(pool.map(lambda model: model._node_levels(thermo._GRIDS[0].nodes),
                                       models, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(table is not None for table in tables)
        assert blas.threads == 3 and set(blas.during) == {1} and len(blas.during) == 8 * 17

    def test_one_call_without_openblas(self, node_chunks, pools, chunk_sizes, monkeypatch):
        # With no OpenBLAS thread functions to set, the table is one call on
        # the BLAS as it is, split on no pool.
        monkeypatch.setattr(thermo, "_blas_threads", lambda: None)
        assert SpectrumModel(CFG, enumerate_basis(CFG, 14.0), "riccati").table is not None
        assert pools == [] and chunk_sizes == [17]

    @pytest.mark.parametrize("threads", [1, 2, None])
    def test_cpu_count_is_the_affinity_whatever_the_blas(self, threads, monkeypatch):
        # 8 CPUs in the affinity mask, whatever threads the BLAS runs, or
        # with no OpenBLAS to ask.
        pair = None if threads is None else (lambda: threads, lambda count: None)
        monkeypatch.setattr(thermo, "_blas_threads", lambda: pair)
        monkeypatch.setattr(thermo.os, "sched_getaffinity", lambda pid: set(range(8)),
                            raising=False)
        assert thermo._cpu_count() == 8

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(thermo.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(thermo.os, "cpu_count", lambda: 6)
        assert thermo._cpu_count() == 6

    @pytest.mark.parametrize("names, found", [
        (["openblas_get_num_threads64_", "openblas_set_num_threads64_"], True),
        (["scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_",
          "openblas_get_num_threads", "openblas_set_num_threads"], True),
        (["openblas_get_num_threads64_", "openblas_set_num_threads"], False),
    ], ids=["ilp64-only", "scipy-openblas-first", "no-matching-pair"])
    def test_blas_thread_functions_looked_up(self, names, found, monkeypatch):
        # A library that exports only some of the names: the first prefix
        # and suffix with both functions gives the pair, typed for ctypes.
        lib = SimpleNamespace(**{name: SimpleNamespace(name=name) for name in names})
        monkeypatch.setattr(thermo.glob, "glob", lambda pattern: ["libopenblas.so"])
        monkeypatch.setattr(thermo.ctypes, "CDLL", lambda path: lib)
        pair = thermo._blas_threads.__wrapped__()
        assert (pair is not None) == found
        if found:
            get, set_ = pair
            assert (get.name, set_.name) == tuple(names[:2])
            assert (get.argtypes, get.restype) == ([], thermo.ctypes.c_int)
            assert (set_.argtypes, set_.restype) == ([thermo.ctypes.c_int], None)

    def test_blas_threads_read_from_the_library(self):
        # OPENBLAS_NUM_THREADS is read by the BLAS when numpy loads it.  A
        # table build split into 17 chunks solves each at one thread of the
        # library, and leaves the count as the variable set it.
        code = textwrap.dedent("""
            from trapbose import thermo, TrapConfig, enumerate_basis
            blas = thermo._blas_threads()
            if blas is None:
                raise SystemExit("none")
            get, set_ = blas
            before, during, sectors = get(), set(), thermo.SpectrumModel._sectors
            def recording(model, lam):
                during.add(get())
                return sectors(model, lam)
            thermo.SpectrumModel._sectors = recording
            thermo.MIN_CHUNK_WORK, thermo._cpu_count = 1, lambda: 17
            cfg = TrapConfig()
            table = thermo.SpectrumModel(cfg, enumerate_basis(cfg, 14.0), "riccati").table
            print(before, sorted(during), get(), table is not None)
        """)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(thermo.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=60)
            if run.stderr.strip() == "none":
                pytest.skip("numpy's BLAS is not the OpenBLAS of a numpy wheel")
            assert run.returncode == 0, run.stderr
            assert run.stdout.split() == [threads, "[1]", threads, "True"]


class TestSweep:
    def test_ideal_matches_pointwise(self):
        basis = enumerate_basis(IDEAL, 200.0)
        grid = [5.0, 10.0, 20.0]
        curve = sweep(IDEAL, basis, grid)
        for temperature, point in zip(grid, curve.points):
            single = solve_at(IDEAL, basis, temperature)
            assert point.n0 == pytest.approx(single.n0, abs=1e-6)

    def test_ideal_kind_ignores_g(self):
        # The ideal kind sweeps the bare levels whatever g the config holds:
        # lambda is 0 and n0 is that of a g = 0 sweep.
        basis = enumerate_basis(CFG, 200.0)
        grid = [10.0, 50.0, 100.0]
        ideal = sweep(CFG, basis, grid, solver_kind="ideal")
        bare = sweep(IDEAL, basis, grid)
        for point, ref in zip(ideal.points, bare.points):
            assert point.lam == 0.0
            assert point.n0 == ref.n0

    @settings(deadline=None)
    @given(kind=st.sampled_from(thermo.SOLVER_KINDS), g=st.floats(0.0, 5e-4),
           temperatures=st.lists(st.floats(0.1, 30.0 / 8.0), min_size=2, max_size=5,
                                 unique=True))
    def test_fraction_non_increasing_property(self, kind, g, temperatures):
        # Inside the cutoff-converged window T <= e_cut/8.
        cfg = TrapConfig(g=g)
        curve = sweep(cfg, enumerate_basis(cfg, 30.0), sorted(temperatures),
                      solver_kind=kind)
        assert all(p.converged for p in curve.points)
        assert np.all(np.diff(curve.condensate_fractions()) <= 1e-9)

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

        def counting(model, temperature, **kwargs):
            calls.append(temperature)
            return solve_n0(model, temperature, **kwargs)

        monkeypatch.setattr(thermo, "solve_n0", counting)
        grid = [10.0, 100.0, 190.0]
        curve = sweep(CFG, enumerate_basis(CFG, 400.0), grid)
        assert calls == grid
        assert curve.points[-1].normal_phase

    def test_levels_calls_per_point(self, monkeypatch):
        # One call for the ideal levels.  perturbative1 then makes one per
        # Newton evaluation, and its energy is that of the last one;
        # perturbative2 root-solves on its count interpolant and makes no
        # other call.
        calls = []
        levels = SpectrumModel.levels

        def counting(model, n0, out=None):
            calls.append(n0)
            return levels(model, n0, out)

        monkeypatch.setattr(SpectrumModel, "levels", counting)
        basis = enumerate_basis(CFG, 120.0)
        for kind in ("perturbative1", "perturbative2"):
            model = SpectrumModel(CFG, basis, kind=kind)
            phases = []
            for temperature in (1.0, 5.0, 15.0, 400.0):
                calls.clear()
                point = solve_n0(model, temperature)
                phases.append(point.normal_phase)
                if point.normal_phase:
                    assert len(calls) == 1
                elif kind == "perturbative1":
                    assert len(calls) == point.iterations + 1
                else:
                    assert len(calls) == 1
            assert phases == [False, False, False, True]

    def test_frozen_out_sweep_warns_nothing(self):
        # At T = 0.25 every level above about 177 overflows exp: each point
        # sets np.errstate(over="ignore") once for all its Bose sums.
        basis = enumerate_basis(CFG, 400.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for kind in thermo.SOLVER_KINDS:
                (point,) = sweep(CFG, basis, [0.25], solver_kind=kind).points
                assert point.converged and not point.normal_phase, kind

    def test_monotone_diagnostic(self):
        basis = enumerate_basis(CFG, 400.0)
        curve = sweep(CFG, basis, list(range(10, 200, 10)))
        assert np.all(np.diff(curve.condensate_fractions()) <= 1e-6)

    def test_reversed_grid_swept_nonpositive_rejected(self):
        # Each point is solved on its own, so a grid in any order gives the
        # same points; a temperature that is not positive is rejected.
        basis = enumerate_basis(CFG, 10.0)
        forward = sweep(CFG, basis, [1.0, 2.0, 3.0]).points
        assert sweep(CFG, basis, [3.0, 2.0, 1.0]).points == forward[::-1]
        with pytest.raises(ValueError, match="all temperatures must be positive"):
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

    def test_unconverged_fugacity_flagged(self, monkeypatch):
        # With one Newton evaluation allowed, a normal-phase point whose
        # start is not already the root fails on its own.
        monkeypatch.setattr(thermo, "FUGACITY_MAX_EVALUATIONS", 1)
        curve = sweep(CFG, enumerate_basis(CFG, 400.0), [10.0, 190.0])
        cold, hot = curve.points
        assert cold.converged and not cold.normal_phase
        assert not hot.converged
        assert hot.fail_reason.startswith("ConvergenceError: normal-phase fugacity not converged")

    @pytest.mark.parametrize("kind", ["perturbative2", "riccati"])
    def test_linear_algebra_failures_flagged(self, kind):
        # At g = 1e200 the matrices at the table nodes and at every n0 > 0
        # overflow, and the eigen-solve fails: the model keeps no table and
        # each point fails on its own, with no RuntimeWarning (an error
        # under this suite's warning filter).
        cfg = TrapConfig(g=1e200)
        basis = enumerate_basis(cfg, 20.0)
        assert SpectrumModel(cfg, basis, kind=kind).table is None
        curve = sweep(cfg, basis, [1.0, 2.0, 3.0], solver_kind=kind)
        assert not any(p.converged for p in curve.points)
        for point in curve.points:
            assert point.fail_reason.startswith("ConvergenceError: eigenvalue solve failed")

    @pytest.mark.parametrize("kind", ["perturbative2", "riccati"])
    def test_linear_algebra_failures_flagged_in_node_chunks(self, kind, node_chunks, pools):
        # Each kind overflows on the worker threads of its two table builds,
        # under the error state that _sectors sets there: perturbative2 as
        # it assembles lambda^2 K, riccati in L^T Q L.  Node 0 (lambda = 0)
        # is the calling thread's chunk.
        self.test_linear_algebra_failures_flagged(kind)
        assert pools == [16, 16]

    def test_huge_coupling_has_no_riccati_solution(self):
        # At g = 1e200 and e_cut 40, E + 2 lambda C rounds to 2 lambda C,
        # which is numerically singular on sectors of 20 states: every n0 > 0
        # and every table node but lambda = 0 fails the cholesky of P.
        cfg = TrapConfig(g=1e200)
        basis = enumerate_basis(cfg, 40.0)
        assert SpectrumModel(cfg, basis, kind="riccati").table is None
        curve = sweep(cfg, basis, [1.0, 2.0, 3.0], solver_kind="riccati")
        assert [p.fail_reason for p in curve.points] == [
            "NoSolutionError: A - 2B is not positive definite"] * 3

    def test_coupling_beyond_float_range_flagged(self):
        # At g = 1e308, lambda_max = g*N/2 is inf: the model keeps no table
        # (node 0 would be inf*0) and each point fails on its own.
        cfg = TrapConfig(g=1e308)
        basis = enumerate_basis(cfg, 20.0)
        for kind in ("perturbative2", "riccati"):
            assert SpectrumModel(cfg, basis, kind=kind).table is None
            curve = sweep(cfg, basis, [1.0, 2.0], solver_kind=kind)
            assert all(p.fail_reason.startswith("ConvergenceError: eigenvalue solve failed")
                       for p in curve.points)
        # The first-order levels are inf there too, and under this suite's
        # RuntimeWarning filter their energy would raise; the ideal kind
        # ignores g.
        curve = sweep(cfg, basis, [1.0, 2.0], solver_kind="perturbative1")
        assert all(p.fail_reason.startswith("ConvergenceError: levels beyond the float range")
                   for p in curve.points)
        assert all(p.converged for p in sweep(cfg, basis, [1.0, 2.0], solver_kind="ideal").points)

    def test_coupling_beyond_float_range_flagged_in_node_chunks(self, node_chunks, pools):
        # No model builds a table at lambda_max = inf, so nothing is split.
        self.test_coupling_beyond_float_range_flagged()
        assert pools == []

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


def point_bits(point):
    """Every field of a ThermoPoint, its floats as their hex form, so that
    equal lists mean equal bits and nan equals nan."""
    return [v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(point)]


class Abort(BaseException):
    """Raised by a stub solve_n0: no TrapBoseError, nor an Exception."""


class TestSweepStripes:
    @staticmethod
    def striped(monkeypatch, cpus):
        """Every ideal or perturbative1 sweep from now on in
        min(cpus, temperatures, states) stripes."""
        monkeypatch.setattr(thermo, "MIN_STRIPE_LEVELS", 1)
        monkeypatch.setattr(thermo, "_cpu_count", lambda: cpus)

    @settings(deadline=None, max_examples=40)
    @given(kind=st.sampled_from(["ideal", "perturbative1"]),
           trap=st.sampled_from([((1.0,), 120.0), ((1.0, math.sqrt(2.0)), 24.0),
                                 ((1.0, 1.3, 0.7), 9.0)]),
           g=st.sampled_from([2e-4, 0.02, 1e308]),
           evaluations=st.sampled_from([1, 2, 50]),
           grid=st.lists(st.floats(0.2, 150.0), min_size=1, max_size=12),
           cpus=st.sampled_from([2, 3]))
    @example(kind="perturbative1", trap=((1.0,), 120.0), g=2e-4, evaluations=2,
             grid=[1.0, 5.0, 5.0, 10.0, 40.0, 150.0, 400.0, 1000.0], cpus=3)
    def test_stripes_give_the_serial_points(self, kind, trap, g, evaluations, grid, cpus):
        # Interleaved stripes on 2 or 3 threads give every point of the
        # serial sweep bit for bit, failed ones and their reasons included
        # (one or two Newton evaluations fail most condensed perturbative1
        # and normal-phase points, as in the example, and g = 1e308 every
        # condensed perturbative1 point), in grid order, with one call of
        # the module-global solve_n0 per temperature.
        frequencies, e_cut = trap
        cfg = TrapConfig(dimension=len(frequencies), frequencies=frequencies, g=g)
        basis = enumerate_basis(cfg, e_cut)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(thermo, "N0_MAX_EVALUATIONS", evaluations)
            patch.setattr(thermo, "FUGACITY_MAX_EVALUATIONS", evaluations)
            serial = sweep(cfg, basis, grid, solver_kind=kind)
            calls = []

            def counting(model, temperature, **kwargs):
                calls.append(temperature)
                return solve_n0(model, temperature, **kwargs)

            patch.setattr(thermo, "solve_n0", counting)
            self.striped(patch, cpus)
            curve = sweep(cfg, basis, grid, solver_kind=kind)
        assert sorted(calls) == sorted(grid)
        assert [point_bits(p) for p in curve.points] == [point_bits(p) for p in serial.points]
        assert all(p.converged == (p.fail_reason == "") for p in curve.points)

    @pytest.mark.parametrize("cpus, grid, size, stripes", [
        (2, 200, 32_076, 2), (3, 200, 32_076, 2), (2, 200, 20_569, 1), (3, 200, 56_910, 3),
        (8, 2, 56_910, 2), (2, 1, 32_076, 1), (1, 200, 56_910, 1), (2, 0, 32_076, 1),
    ])
    def test_stripe_count(self, cpus, grid, size, stripes, monkeypatch, pools):
        # min(CPUs, temperatures, size // MIN_STRIPE_LEVELS) stripes, at
        # least one: a pool for all but the first, and stripe i solves
        # t_grid[i::stripes] on one thread, stripe 0 on the calling one.
        # The basis is the 1D one of 400 states, counted as size // 400 of
        # MIN_STRIPE_LEVELS.  Each point sleeps, so that a worker that
        # starts first cannot run every stripe before the pool starts the
        # next worker.
        monkeypatch.setattr(thermo, "MIN_STRIPE_LEVELS", 16_000 * 400 // size)
        monkeypatch.setattr(thermo, "_cpu_count", lambda: cpus)
        threads = {}

        def recording(model, temperature, **kwargs):
            threads.setdefault(threading.get_ident(), []).append(temperature)
            time.sleep(1e-4)
            return solve_n0(model, temperature, **kwargs)

        monkeypatch.setattr(thermo, "solve_n0", recording)
        t_grid = list(np.linspace(1.0, 200.0, grid))
        curve = sweep(CFG, enumerate_basis(CFG, 400.0), t_grid)
        assert [p.temperature for p in curve.points] == t_grid
        assert pools == ([stripes - 1] if stripes > 1 else [])
        if grid:
            assert threads.pop(threading.get_ident()) == t_grid[::stripes]
            assert sorted(threads.values()) == [t_grid[i::stripes] for i in range(1, stripes)]

    def test_more_stripes_than_cores_switching_often(self, monkeypatch, pools):
        # Eight stripes on the machine's cores, with the interpreter switching
        # threads every microsecond: the points of one model, solved on all
        # of them at once, are still the serial sweep's.
        basis = enumerate_basis(CFG, 400.0)
        grid = np.linspace(1.0, 200.0, 64)
        serial = sweep(CFG, basis, grid)
        self.striped(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            curve = sweep(CFG, basis, grid)
        finally:
            sys.setswitchinterval(interval)
        assert pools == [7]
        assert [point_bits(p) for p in curve.points] == [point_bits(p) for p in serial.points]

    @pytest.mark.parametrize("kind", ["perturbative2", "riccati"])
    def test_dense_kinds_are_never_striped(self, kind, monkeypatch, pools):
        # The riccati-1d and a small perturbative2 trap: each point on the
        # calling thread, and no table large enough to split.
        self.striped(monkeypatch, 2)
        basis = enumerate_basis(CFG, 14.0)
        threads = []

        def recording(model, temperature, **kwargs):
            threads.append(threading.get_ident())
            return solve_n0(model, temperature, **kwargs)

        monkeypatch.setattr(thermo, "solve_n0", recording)
        curve = sweep(CFG, basis, np.arange(1.0, 21.0), solver_kind=kind)
        assert all(p.converged for p in curve.points)
        assert pools == [] and set(threads) == {threading.get_ident()}

    def test_small_bases_are_never_striped(self, monkeypatch, pools):
        # The ref1d-p1 trap, 400 states, on any number of CPUs.
        monkeypatch.setattr(thermo, "_cpu_count", lambda: 64)
        for kind in ("ideal", "perturbative1"):
            sweep(CFG, enumerate_basis(CFG, 400.0), np.arange(1.0, 201.0), solver_kind=kind)
        assert pools == []

    def test_one_stripe_without_openblas(self, monkeypatch, pools):
        self.striped(monkeypatch, 2)
        basis = enumerate_basis(CFG, 120.0)
        striped = sweep(CFG, basis, np.arange(1.0, 21.0))
        assert pools == [1]
        pools.clear()
        monkeypatch.setattr(thermo, "_blas_threads", lambda: None)
        serial = sweep(CFG, basis, np.arange(1.0, 21.0))
        assert pools == []
        assert [point_bits(p) for p in serial.points] == [point_bits(p) for p in striped.points]

    @pytest.fixture
    def blas(self, monkeypatch):
        """A stand-in for numpy's OpenBLAS at 3 threads: .threads is its
        count, .during the count at each solve_n0 call from now on."""
        fake = SimpleNamespace(threads=3, during=[])

        def set_threads(threads):
            fake.threads = threads

        def recording(model, temperature, **kwargs):
            fake.during.append(fake.threads)
            return solve_n0(model, temperature, **kwargs)

        monkeypatch.setattr(thermo, "_blas_threads", lambda: (lambda: fake.threads, set_threads))
        monkeypatch.setattr(thermo, "solve_n0", recording)
        return fake

    @pytest.mark.parametrize("kind, cpus", [("ideal", 1), ("perturbative1", 1),
                                            ("perturbative1", 2), ("perturbative1", 3)])
    def test_sweep_restores_the_blas_threads(self, kind, cpus, blas, monkeypatch):
        # Every point of these kinds, in one stripe or several, is solved at
        # one BLAS thread, and the sweep leaves the count it found.
        self.striped(monkeypatch, cpus)
        sweep(CFG, enumerate_basis(CFG, 60.0), np.arange(1.0, 31.0), solver_kind=kind)
        assert blas.threads == 3 and blas.during == [1] * 30

    def test_dense_sweep_leaves_the_blas_threads(self, blas, monkeypatch):
        # A dense kind's points run on the BLAS threads the process runs
        # with; only its table build sets one.
        self.striped(monkeypatch, 2)
        sweep(CFG, enumerate_basis(CFG, 14.0), np.arange(1.0, 11.0), solver_kind="riccati")
        assert blas.threads == 3 and blas.during == [3] * 10

    @pytest.mark.parametrize("cpus, failing", [(2, 0), (2, 1), (3, 0), (3, 2)])
    def test_abort_stops_every_stripe(self, cpus, failing, blas, monkeypatch, pools):
        # A point of stripe `failing` (0 is the calling thread's) raises a
        # BaseException at its third temperature: every other stripe makes
        # at most one more solve_n0 call, the sweep re-raises it once no
        # thread of its pool is left, and the BLAS count is restored.
        self.striped(monkeypatch, cpus)
        grid = list(np.arange(1.0, 61.0))
        bad = grid[failing + 2 * cpus]
        lock, calls, raised = threading.Lock(), [], []
        recording = thermo.solve_n0

        def stub(model, temperature, **kwargs):
            with lock:
                calls.append((threading.get_ident(), len(raised)))
            if temperature == bad:
                raised.append(threading.get_ident())
                raise Abort(temperature)
            time.sleep(5e-3)
            return recording(model, temperature, **kwargs)

        monkeypatch.setattr(thermo, "solve_n0", stub)
        before = set(threading.enumerate())
        with pytest.raises(Abort, match=f"^{bad}$"):
            sweep(CFG, enumerate_basis(CFG, 60.0), grid)
        assert set(threading.enumerate()) == before and pools == [cpus - 1]
        assert blas.threads == 3 and set(blas.during) == {1}
        later = [ident for ident, after in calls if after and ident != raised[0]]
        assert len(set(ident for ident, _ in calls)) == cpus
        assert all(later.count(ident) <= 1 for ident in set(later))
        assert len(calls) < len(grid) // 2

    @pytest.mark.parametrize("failing", [0, 1])
    def test_aborted_sweep_frees_its_model(self, failing, monkeypatch):
        # The exception of a stripe holds no reference cycle through the
        # pool's futures: once it is dropped, the sweep's model is freed
        # without the garbage collector, as after a serial sweep.
        self.striped(monkeypatch, 2)
        grid = list(np.arange(1.0, 21.0))
        models = []

        def stub(model, temperature, **kwargs):
            models.append(weakref.ref(model))
            if temperature == grid[failing + 4]:
                raise Abort(temperature)
            return solve_n0(model, temperature, **kwargs)

        monkeypatch.setattr(thermo, "solve_n0", stub)
        basis = enumerate_basis(CFG, 60.0)
        gc.disable()
        try:
            with pytest.raises(Abort):
                sweep(CFG, basis, grid)
            assert models and models[0]() is None
        finally:
            gc.enable()


class TestTruncationStability:
    def test_doubling_cutoff_within_validity_window(self):
        # Inside T <= E_cut/8 the curve is cutoff-converged to 1e-4; near
        # the transition the occupation tail above the cutoff is larger
        # than that by itself, so no such bound can hold there.
        basis = enumerate_basis(CFG, 400.0)
        doubled = enumerate_basis(CFG, 800.0)
        for temperature in (10.0, 30.0, 50.0):
            a = solve_at(CFG, basis, temperature)
            b = solve_at(CFG, doubled, temperature)
            assert abs(a.n0 - b.n0) / 1000.0 < 1e-4
