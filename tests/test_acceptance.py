"""End-to-end acceptance checks.

Each test exercises one documented guarantee at its stated tolerance and
prints a single PASS/FAIL line so a full run doubles as a report.
"""

import math
import time
from dataclasses import replace

import numpy as np

from trapbose import (
    RiccatiProblem,
    SpectrumModel,
    TrapConfig,
    build_matrices,
    enumerate_basis,
    perturbative_xy,
    quadrature_oracle_element,
    solve_n0,
    solve_xy,
    solve_xy_general,
    sweep,
)
from oracles import (
    coupling_coefficient,
    quasiparticle_levels,
    shift_vector,
    solve_1x1,
    spectrum_matrix,
)

CFG = TrapConfig()
IDEAL = TrapConfig(g=0.0)
N = 1000.0


def report(name, ok, detail=""):
    line = f"{name}: {detail}" if detail else name
    print(f"{'PASS' if ok else 'FAIL'} {line}")
    assert ok, line


def clock():
    """Wall time and the process's CPU time over all its threads, in s."""
    return time.perf_counter(), time.process_time()


def timed(start, bound):
    """(wall time since start within bound, a line with both times)."""
    wall, cpu = (now - then for now, then in zip(clock(), start))
    return wall < bound, f"wall {wall:.2f} s (bound {bound:g} s), process CPU {cpu:.2f} s"


def system_at(e_cut, lam):
    sysm = build_matrices(enumerate_basis(CFG, e_cut), N)
    return replace(sysm, lam=lam)


def test_matrix_element_oracle():
    start = clock()
    worst = 0.0
    parity_exact = True
    for m in range(13):
        for n in range(13):
            closed = coupling_coefficient((m,), (n,), CFG)
            oracle = quadrature_oracle_element((m,), (n,), CFG)
            worst = max(worst, abs(closed - oracle))
            if (m + n) % 2 == 1 and closed != 0.0:
                parity_exact = False
    in_time, times = timed(start, 5.0)
    report("matrix-element-oracle", worst < 1e-10 and parity_exact and in_time, times)


def test_free_theory_regression():
    start = clock()
    basis = enumerate_basis(IDEAL, 400.0)
    sysm = build_matrices(basis, N)
    x, y, *_ = perturbative_xy(sysm)
    identity_ok = np.array_equal(x, np.eye(sysm.size)) and np.max(np.abs(y)) == 0.0
    sol = solve_xy(RiccatiProblem.from_system(build_matrices(
        enumerate_basis(IDEAL, 20.0), N)))
    identity_ok &= np.max(np.abs(sol.y)) == 0.0
    levels_ok = np.array_equal(
        np.sort(quasiparticle_levels(spectrum_matrix(sysm))), np.sort(sysm.energies))

    worst = 0.0
    energies = basis.energies()
    model = SpectrumModel(IDEAL, basis)
    for temperature in range(1, 201):
        point = solve_n0(model, temperature)
        excited = sum(1.0 / math.expm1(e / temperature) for e in energies)
        brute = max(N - excited, 0.0)
        worst = max(worst, abs(point.n0 - brute) / N)
    in_time, times = timed(start, 10.0)
    report("free-theory-regression",
           identity_ok and levels_ok and worst < 1e-9 and in_time, times)


def test_perturbative_order():
    c11 = math.sqrt(math.pi) / 2.0
    errors = []
    for lam in (0.1, 0.05, 0.025):
        levels = quasiparticle_levels(spectrum_matrix(system_at(20.0, lam)))
        errors.append(abs(levels[0] - (1.0 + 4.0 * lam * c11)))
    ratios = [big / small for big, small in zip(errors, errors[1:])]
    report("perturbative-order-check", all(3.5 <= r <= 4.5 for r in ratios))


def test_riccati_convergence():
    prob = RiccatiProblem.from_system(system_at(10.0, 0.01))
    sol = solve_xy(prob)
    e1 = sol.x @ prob.a @ sol.y + sol.x @ prob.b @ sol.x + sol.y @ prob.b @ sol.y
    e2 = sol.y @ prob.a @ sol.x + sol.x @ prob.b @ sol.x + sol.y @ prob.b @ sol.y
    ok = (max(sol.anomalous_r1, sol.anomalous_r2) < 1e-10
          and sol.r3 < 1e-13
          and np.max(np.abs(e2 - e1.T)) < 1e-12)
    report("riccati-convergence", ok)


def test_cross_branch_lambda3_scaling():
    diffs = []
    for lam in (0.02, 0.01, 0.005):
        sysm = system_at(10.0, lam)
        xp, yp, *_ = perturbative_xy(sysm)
        sol = solve_xy_general(RiccatiProblem.from_system(sysm))
        diffs.append(max(np.max(np.abs(sol.x - xp)), np.max(np.abs(sol.y - yp))))
    ratios = [big / small for big, small in zip(diffs, diffs[1:])]
    report("cross-branch-lambda3-scaling", all(6.0 <= r <= 10.0 for r in ratios))


def test_scalar_oracle_grid():
    worst = 0.0
    count = 0
    for a in np.linspace(1.0, 3.0, 10):
        for b in np.linspace(-0.15, 0.15, 5):
            x, y = solve_1x1(a, b)
            prob = RiccatiProblem(a=np.array([[a]]), b=np.array([[b]]))
            for solve in (solve_xy, solve_xy_general):
                sol = solve(prob)
                worst = max(worst, abs(sol.x[0, 0] - x), abs(sol.y[0, 0] - y))
            count += 1
    report("scalar-oracle-grid", count == 50 and worst < 1e-12)


def test_condensate_curve_reproduction():
    start = clock()
    basis = enumerate_basis(CFG, 400.0)
    grid = [float(t) for t in range(1, 201)]
    interacting = sweep(CFG, basis, grid, solver_kind="perturbative1")
    ideal = sweep(IDEAL, basis, grid, solver_kind="ideal")
    int_frac = interacting.condensate_fractions()
    ideal_frac = ideal.condensate_fractions()
    in_time, times = timed(start, 120.0)
    ok = (all(p.converged for p in interacting.points)
          and all(p.converged for p in ideal.points)
          and np.all(int_frac >= ideal_frac)
          and np.max(int_frac - ideal_frac) > 1e-3
          and np.all(np.diff(int_frac) <= 1e-6)
          and np.all(np.diff(ideal_frac) <= 1e-6)
          and in_time)
    report("condensate-curve-reproduction", ok, times)


def test_dense_reference_run():
    # The reference run for the dense kinds: both together within 3 s.
    basis = enumerate_basis(CFG, 400.0)
    grid = [float(t) for t in range(1, 201)]
    first_order = sweep(CFG, basis, grid, solver_kind="perturbative1").condensate_fractions()
    ideal_frac = sweep(IDEAL, basis, grid, solver_kind="ideal").condensate_fractions()
    start = clock()
    curves = [sweep(CFG, basis, grid, solver_kind=kind) for kind in ("perturbative2", "riccati")]
    ok, times = timed(start, 3.0)
    for curve in curves:
        frac = curve.condensate_fractions()
        ok = (ok and all(p.converged for p in curve.points)
              and sum(not p.normal_phase for p in curve.points) == 177
              and np.all(frac >= ideal_frac)
              and np.all(np.diff(frac) <= 1e-6)
              and np.max(np.abs(frac - first_order)) <= 5e-3)
    report("dense-reference-run", ok, times)


def test_truncation_convergence():
    levels = [np.sort(quasiparticle_levels(spectrum_matrix(system_at(e, 0.1))))[:5]
              for e in (40.0, 60.0)]
    report("truncation-convergence", np.max(np.abs(levels[0] - levels[1])) < 1e-6)


def test_linear_term_elimination():
    sysm = build_matrices(enumerate_basis(CFG, 20.0), N)
    z = shift_vector(sysm, N)
    residual = (sysm.energies * z + 6.0 * sysm.lam * sysm.coupling @ z
                + 2.0 * sysm.lam * math.sqrt(N) * sysm.source)
    bound = 1e-10 * np.max(np.abs(sysm.source))
    report("linear-term-elimination", np.max(np.abs(residual)) < bound)
