"""Self-consistent condensate occupation and thermodynamic curves.

Closes the loop N0 = N - sum_n 1/(exp(eps_n(lambda(N0))/T) - 1) with
lambda = g*N0/2, and evaluates the condensate fraction and the energy
above the reference E0 on a temperature grid.  Temperatures are in units
of hbar*omega with k_B = 1.  N0 is treated as a continuous macroscopic
occupation.

Above the condensation region the loop has no solution with N0 > 0; those
points are extended with an ideal-spectrum fugacity fit (normal-phase
extension, an artifact convention).
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .basis import BasisSet, build_matrices, diagonal_coupling
from .config import TrapConfig
from .errors import ConvergenceError, TrapBoseError, UnstableSpectrumError
from .perturbative import quasiparticle_levels, spectrum_matrix
from .riccati import RiccatiProblem, bogoliubov_levels

SOLVER_KINDS = ("ideal", "perturbative1", "perturbative2", "riccati")

DEFAULT_TOL = 1e-10
MAX_FIXED_POINT_ITER = 500
DAMPING = 0.5

_EXP_OVERFLOW = 700.0
_EXP_SERIES = 1e-8


def occupation(eps, temperature):
    """Bose-Einstein occupation 1/(exp(eps/T) - 1) of a single level."""
    if eps <= 0.0:
        raise ValueError(f"level must be positive, got {eps}")
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    ratio = eps / temperature
    if ratio > _EXP_OVERFLOW:
        return 0.0
    if ratio < _EXP_SERIES:
        return 1.0 / ratio - 0.5
    return 1.0 / np.expm1(ratio)


def _occupations(levels, temperature):
    ratio = levels / temperature
    result = np.zeros_like(ratio)
    small = ratio < _EXP_SERIES
    mid = ~small & (ratio <= _EXP_OVERFLOW)
    result[small] = 1.0 / ratio[small] - 0.5
    result[mid] = 1.0 / np.expm1(ratio[mid])
    return result


def excited_count(levels, temperature):
    """Total occupation of the excited levels at temperature T."""
    levels = np.asarray(levels, dtype=float)
    if np.any(levels <= 0.0):
        raise UnstableSpectrumError(
            f"all levels must be positive, lowest is {np.min(levels):.6g}")
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    return float(np.sum(_occupations(levels, temperature)))


class SpectrumModel:
    """Maps condensate occupation to quasiparticle levels for one solver branch.

    ideal          -- bare oscillator levels (g forced to zero).
    perturbative1  -- first-order formula eps_n + 4*lambda*c_nn (diagonal only).
    perturbative2  -- eigenvalues of the second-order spectrum matrix.
    riccati        -- closed-form Bogoliubov levels of the symmetric branch.
    """

    def __init__(self, cfg: TrapConfig, basis: BasisSet, kind="perturbative1",
                 tol_imag=1e-8):
        if kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {kind!r}; expected one of {SOLVER_KINDS}")
        self.cfg = cfg
        self.basis = basis
        self.kind = kind
        self.tol_imag = tol_imag
        self._energies = basis.energies()
        self._diag_c = None
        self._sys_template = None
        if kind == "perturbative1":
            self._diag_c = diagonal_coupling(basis, cfg)
        elif kind in ("perturbative2", "riccati"):
            self._sys_template = build_matrices(basis, cfg, 0.0)

    def _system_at(self, n0):
        return replace(self._sys_template, lam=self.cfg.coupling_lambda(n0))

    def levels(self, n0):
        if self.kind == "ideal" or n0 == 0.0 or self.cfg.g == 0.0:
            return self._energies
        if self.kind == "perturbative1":
            lam = self.cfg.coupling_lambda(n0)
            return self._energies + 4.0 * lam * self._diag_c
        sys = self._system_at(n0)
        if self.kind == "perturbative2":
            return quasiparticle_levels(spectrum_matrix(sys, order=2), self.tol_imag)
        return bogoliubov_levels(RiccatiProblem.from_system(sys))


@dataclass
class ThermoPoint:
    """One converged temperature point of the self-consistent loop."""

    temperature: float
    n0: float
    lam: float
    levels: np.ndarray
    energy_excess: float
    iterations: int
    converged: bool
    normal_phase: bool = False
    fugacity: float = 1.0


def _fugacity_occupations(levels, temperature, fugacity):
    ratio = levels / temperature
    return fugacity / (np.exp(np.minimum(ratio, _EXP_OVERFLOW)) - fugacity)


def _normal_phase_point(levels, temperature, n_total, iterations):
    def excess(fug):
        return float(np.sum(_fugacity_occupations(levels, temperature, fug))) - n_total

    fugacity = brentq(excess, 1e-300, 1.0 - 1e-14, xtol=1e-15, rtol=1e-15)
    occ = _fugacity_occupations(levels, temperature, fugacity)
    return ThermoPoint(
        temperature=temperature, n0=0.0, lam=0.0, levels=levels,
        energy_excess=float(np.sum(levels * occ)), iterations=iterations,
        converged=True, normal_phase=True, fugacity=fugacity,
    )


def energy_excess(point: ThermoPoint):
    """E - E0 = sum_n eps_n / (exp(eps_n/T) - 1) at the point's levels."""
    if not point.converged:
        raise ValueError("energy requested from a non-converged point")
    if point.normal_phase:
        occ = _fugacity_occupations(point.levels, point.temperature, point.fugacity)
    else:
        occ = _occupations(point.levels, point.temperature)
    return float(np.sum(point.levels * occ))


def solve_n0(cfg: TrapConfig, basis: BasisSet, temperature, solver_kind="perturbative1",
             tol=DEFAULT_TOL, model=None, n0_init=None):
    """Self-consistent condensate occupation at one temperature.

    Damped fixed-point iteration on n0 -> N - N_excited(lambda(n0)), with a
    bisection fallback when the iteration oscillates.  When even n0 = 0
    cannot accommodate N particles the normal-phase extension is returned.
    Raises UnstableSpectrumError when the model returns a non-positive level.
    """
    if temperature <= 0.0:
        raise ValueError("temperature must be positive")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    if model is None:
        model = SpectrumModel(cfg, basis, kind=solver_kind)
    n_total = float(cfg.n_particles)

    ideal_levels = model.levels(0.0)
    if excited_count(ideal_levels, temperature) >= n_total:
        return _normal_phase_point(ideal_levels, temperature, n_total, 0)

    def target(n0):
        return n_total - excited_count(model.levels(n0), temperature)

    n0 = n_total if n0_init is None else float(np.clip(n0_init, 0.0, n_total))
    previous_sign = 0
    flips = 0
    for iteration in range(1, MAX_FIXED_POINT_ITER + 1):
        update = target(n0) - n0
        if abs(update) < tol * n_total:
            n0 = float(np.clip(n0 + update, 0.0, n_total))
            break
        sign = 1 if update > 0 else -1
        if previous_sign and sign != previous_sign:
            flips += 1
            if flips >= 2:
                n0 = brentq(lambda v: target(v) - v, 0.0, n_total,
                            xtol=tol * n_total, rtol=4 * np.finfo(float).eps)
                break
        previous_sign = sign
        n0 = float(np.clip(n0 + DAMPING * update, 0.0, n_total))
    else:
        raise ConvergenceError(
            f"fixed point did not converge at T={temperature}",
            iterations=MAX_FIXED_POINT_ITER, residual=abs(update),
        )

    levels = model.levels(n0)
    point = ThermoPoint(
        temperature=temperature, n0=n0, lam=cfg.coupling_lambda(n0),
        levels=levels, energy_excess=0.0, iterations=iteration, converged=True,
    )
    point.energy_excess = energy_excess(point)
    return point


@dataclass
class ThermoCurve:
    """Temperature sweep of the self-consistent loop."""

    points: list
    config: TrapConfig
    solver_kind: str
    cutoff: float

    def condensate_fractions(self):
        n = self.config.n_particles
        return np.array([p.n0 / n for p in self.points])

    def monotone_within(self, slack=1e-6):
        """Diagnostic: condensate fraction non-increasing in T up to slack."""
        frac = self.condensate_fractions()
        return bool(np.all(np.diff(frac) <= slack))


def _failed_point(temperature):
    return ThermoPoint(
        temperature=temperature, n0=float("nan"), lam=float("nan"),
        levels=np.array([]), energy_excess=float("nan"), iterations=0,
        converged=False,
    )


def sweep(cfg: TrapConfig, basis: BasisSet, t_grid, solver_kind="perturbative1",
          tol=DEFAULT_TOL, warm_start=True):
    """One ThermoPoint per grid temperature.

    With warm_start each point starts from the previous point's n0.
    A point whose solve raises a TrapBoseError is flagged as not converged
    on the returned curve, and the sweep goes on.
    """
    t_grid = [float(t) for t in t_grid]
    if any(t <= 0.0 for t in t_grid):
        raise ValueError("all temperatures must be positive")
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise ValueError("temperature grid must be strictly increasing")

    model = SpectrumModel(cfg, basis, kind=solver_kind)
    points = []
    previous_n0 = None
    for temperature in t_grid:
        try:
            point = solve_n0(cfg, basis, temperature, tol=tol, model=model,
                             n0_init=previous_n0 if warm_start else None)
            previous_n0 = point.n0
        except TrapBoseError:
            point = _failed_point(temperature)
            previous_n0 = None
        points.append(point)

    return ThermoCurve(points=points, config=cfg, solver_kind=solver_kind,
                       cutoff=basis.cutoff)
