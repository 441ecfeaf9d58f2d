"""Self-consistent condensate occupation and thermodynamic curves.

Solves N0 = N - sum_n 1/(exp(eps_n(lambda(N0))/T) - 1) with
lambda = g*N0/2 by Brent's method on the bracket [0, N], and evaluates the
condensate fraction and the energy above the reference E0 on a temperature
grid.  Temperatures are in units of hbar*omega with k_B = 1.  N0 is treated
as a continuous macroscopic occupation.

Above the condensation region the loop has no solution with N0 > 0; those
points are extended with an ideal-spectrum fugacity fit (normal-phase
extension, an artifact convention).
"""

from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import brentq

from .basis import BasisSet, build_matrices, diagonal_coupling
from .config import TrapConfig
from .errors import TrapBoseError, UnstableSpectrumError
from .perturbative import quasiparticle_levels, spectrum_matrix
from .riccati import RiccatiProblem, bogoliubov_levels

SOLVER_KINDS = ("ideal", "perturbative1", "perturbative2", "riccati")

DEFAULT_TOL = 1e-10


def occupation(levels, temperature, fugacity=1.0):
    """Bose-Einstein occupations z/(exp(eps/T) - z) of the given levels.

    Levels that freeze out (eps/T - log z beyond the float range of exp)
    get exactly 0.  Raises UnstableSpectrumError for a non-positive level.
    """
    levels = np.asarray(levels, dtype=float)
    if np.any(levels <= 0.0):
        raise UnstableSpectrumError(
            f"all levels must be positive, lowest is {np.min(levels):.6g}")
    if temperature <= 0.0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(levels / temperature - np.log(fugacity))


def excited_count(levels, temperature):
    """Total occupation of the excited levels at temperature T."""
    return float(np.sum(occupation(levels, temperature)))


class SpectrumModel:
    """Maps condensate occupation to quasiparticle levels for one solver branch.

    ideal          -- bare oscillator levels (g forced to zero).
    perturbative1  -- first-order formula eps_n + 4*lambda*c_nn (diagonal only).
    perturbative2  -- eigenvalues of the second-order spectrum matrix.
    riccati        -- closed-form Bogoliubov levels of the symmetric branch.
    """

    def __init__(self, cfg: TrapConfig, basis: BasisSet, kind="perturbative1"):
        if kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {kind!r}; expected one of {SOLVER_KINDS}")
        self.cfg = cfg
        self.basis = basis
        self.kind = kind
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
            return quasiparticle_levels(spectrum_matrix(sys, order=2))
        return bogoliubov_levels(RiccatiProblem.from_system(sys))


@dataclass
class ThermoPoint:
    """One temperature point of the self-consistent loop.

    iterations counts the level evaluations of the root solve; a point that
    failed has converged False and the exception in fail_reason.
    """

    temperature: float
    n0: float
    lam: float
    levels: np.ndarray
    energy_excess: float
    iterations: int
    converged: bool
    normal_phase: bool = False
    fugacity: float = 1.0
    fail_reason: str = ""


def _normal_phase_point(levels, temperature, n_total):
    def excess(fug):
        return float(np.sum(occupation(levels, temperature, fug))) - n_total

    fugacity = brentq(excess, 1e-300, 1.0 - 1e-14, xtol=1e-15, rtol=1e-15)
    point = ThermoPoint(
        temperature=temperature, n0=0.0, lam=0.0, levels=levels,
        energy_excess=0.0, iterations=0, converged=True, normal_phase=True,
        fugacity=fugacity,
    )
    point.energy_excess = energy_excess(point)
    return point


def energy_excess(point: ThermoPoint):
    """E - E0 = sum_n eps_n z/(exp(eps_n/T) - z) at the point's levels."""
    if not point.converged:
        raise ValueError("energy requested from a non-converged point")
    occ = occupation(point.levels, point.temperature, point.fugacity)
    return float(np.sum(point.levels * occ))


def solve_n0(cfg: TrapConfig, basis: BasisSet, temperature, solver_kind="perturbative1",
             tol=DEFAULT_TOL, model=None):
    """Self-consistent condensate occupation at one temperature.

    Finds the root of f(n0) = N - n0 - N_excited(lambda(n0)) with Brent's
    method on [0, N] to within tol*N.  The bracket holds: f(N) = -N_excited
    <= 0, and when f(0) <= 0 (even n0 = 0 cannot accommodate N particles)
    the normal-phase extension is returned instead.
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
        return _normal_phase_point(ideal_levels, temperature, n_total)

    def residual(n0):
        return n_total - n0 - excited_count(model.levels(n0), temperature)

    n0, result = brentq(residual, 0.0, n_total, xtol=tol * n_total,
                        rtol=4 * np.finfo(float).eps, full_output=True)
    levels = model.levels(n0)
    point = ThermoPoint(
        temperature=temperature, n0=n0, lam=cfg.coupling_lambda(n0), levels=levels,
        energy_excess=0.0, iterations=result.function_calls, converged=True,
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


def _failed_point(temperature, exc):
    return ThermoPoint(
        temperature=temperature, n0=float("nan"), lam=float("nan"),
        levels=np.array([]), energy_excess=float("nan"), iterations=0,
        converged=False, fail_reason=f"{type(exc).__name__}: {exc}",
    )


def sweep(cfg: TrapConfig, basis: BasisSet, t_grid, solver_kind="perturbative1",
          tol=DEFAULT_TOL):
    """One ThermoPoint per grid temperature, each solved on its own.

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
    for temperature in t_grid:
        try:
            point = solve_n0(cfg, basis, temperature, tol=tol, model=model)
        except TrapBoseError as exc:
            point = _failed_point(temperature, exc)
        points.append(point)

    return ThermoCurve(points=points, config=cfg, solver_kind=solver_kind,
                       cutoff=basis.cutoff)
