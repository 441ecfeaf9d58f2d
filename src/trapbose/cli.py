"""Command-line front end: config parsing, sweeps, and validation reports.

Config files are flat `key = value` text with `#` comments, each key at
most once; list values are comma-separated.  Defaults reproduce the
reference 1D run (hbar = omega = 1, m = 2*pi^2, N = 1000, g = 0.0002).
"""

import argparse
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import basis as basis_mod
from .config import TrapConfig, require_finite
from .errors import ConfigError, TrapBoseError
from .perturbative import constraint_residual, perturbative_xy
from .riccati import RiccatiProblem, solve_xy, solve_xy_general
from .thermo import DEFAULT_TOL, SOLVER_KINDS, SpectrumModel, excited_count, solve_n0, sweep

CSV_HEADER = "T,n0_over_N,energy_excess_per_N,lambda,converged,iterations"

# Most temperatures one run sweeps: the grid is held as a list of floats,
# and each of its points is one solve.
MAX_TEMPERATURES = 10**6


@dataclass(frozen=True)
class RunConfig:
    trap: TrapConfig = field(default_factory=TrapConfig)
    e_cut: float = 400.0
    t_min: float = 1.0
    t_max: float = 200.0
    t_step: float = 1.0
    solver: str = "perturbative1"
    tol: float = DEFAULT_TOL
    output_path: str = "thermo.csv"

    def __post_init__(self):
        require_finite(("e_cut", self.e_cut), ("t_min", self.t_min), ("t_max", self.t_max),
                        ("t_step", self.t_step), ("tol", self.tol))
        if self.e_cut <= 0.0:
            raise ConfigError("e_cut must be positive")
        if self.t_min <= 0.0:
            raise ConfigError("t_min must be positive")
        if self.t_step <= 0.0:
            raise ConfigError("t_step must be positive")
        if self.t_max <= self.t_min:
            raise ConfigError("t_max must exceed t_min")
        if self.tol <= 0.0:
            raise ConfigError("tol must be positive")
        if self.solver not in SOLVER_KINDS:
            raise ConfigError(f"unknown solver {self.solver!r}; choose from {SOLVER_KINDS}")
        # span is inf when t_step is subnormal, which math.floor does not
        # take; floor(span) + 1 exceeds the limit exactly when span reaches it.
        span = (self.t_max - self.t_min) / self.t_step + 1e-9
        if not span < MAX_TEMPERATURES:
            raise ConfigError(f"t_step = {self.t_step} gives {np.floor(span) + 1.0:.12g} "
                              f"temperatures from t_min to t_max, above the limit of "
                              f"{MAX_TEMPERATURES} (cli.MAX_TEMPERATURES)")
        object.__setattr__(self, "_grid_size", math.floor(span) + 1)

    def temperature_grid(self):
        return [self.t_min + k * self.t_step for k in range(self._grid_size)]


def _floats(value):
    return tuple(float(part) for part in value.split(","))


# config key -> (TrapConfig or RunConfig keyword set, field name, value parser)
_KEYS = {
    "dimension": ("trap", "dimension", int),
    "omega": ("trap", "frequencies", _floats),
    "mass": ("trap", "mass", float),
    "hbar": ("trap", "hbar", float),
    "g": ("trap", "g", float),
    "n_particles": ("trap", "n_particles", int),
    "e_cut": ("run", "e_cut", float),
    "t_min": ("run", "t_min", float),
    "t_max": ("run", "t_max", float),
    "t_step": ("run", "t_step", float),
    "tol": ("run", "tol", float),
    "solver": ("run", "solver", str),
    "output": ("run", "output_path", str),
}


def parse_config(text):
    """Parse the key-value config format into a RunConfig.

    Raises ConfigError with a line number on malformed input or a repeated
    key, and on any violated invariant (via TrapConfig / RunConfig
    validation).  Without `omega`, the trap is isotropic with unit
    frequencies.
    """
    kwargs = {"trap": {}, "run": {}}
    first_line = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        key, equals, value = line.partition("=")
        if not equals:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {first_line[key]}")
        first_line[key] = lineno
        target, name, parse = _KEYS[key]
        try:
            kwargs[target][name] = parse(value.strip())
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    trap_kwargs = kwargs["trap"]
    trap_kwargs.setdefault("frequencies", (1.0,) * trap_kwargs.get("dimension", 1))
    return RunConfig(trap=TrapConfig(**trap_kwargs), **kwargs["run"])


def _format(value):
    return format(value, ".12g")


def run(config: RunConfig, stream=None):
    """Execute the sweep and write the CSV; returns the process exit status."""
    trap = config.trap
    basis = basis_mod.enumerate_basis(trap, config.e_cut)
    curve = sweep(trap, basis, config.temperature_grid(),
                  solver_kind=config.solver, tol=config.tol)
    n_total = trap.n_particles
    lines = [CSV_HEADER]
    for point in curve.points:
        lines.append(",".join([
            _format(point.temperature),
            _format(point.n0 / n_total),
            _format(point.energy_excess / n_total),
            _format(point.lam),
            str(int(point.converged)),
            str(point.iterations),
        ]))
        if not point.converged:
            print(f"# T={_format(point.temperature)}: {point.fail_reason}", file=sys.stderr)
    text = "\n".join(lines) + "\n"
    if stream is not None:
        stream.write(text)
    else:
        with open(config.output_path, "w") as handle:
            handle.write(text)
    return 0 if all(p.converged for p in curve.points) else 2


def _check(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f": {detail}" if detail and not passed else ""
    return f"{status} {name}{suffix}", passed


def _scaling_ratio_ok(values, low, high):
    """Consecutive ratios within [low, high], as plain floats.  All zeros (at
    g = 0) is exact agreement and passes; a zero denominator under a non-zero
    value fails."""
    if not any(values):
        return True, []
    ratios = [float(a / b) if b else math.inf for a, b in zip(values, values[1:])]
    return all(low <= r <= high for r in ratios), ratios


def _interpolant_gap(trap, basis, probe, tol):
    """Largest |n0| difference, in units of tol*N, between solve_n0 on a
    dense model's table and on a model with none, over both dense kinds
    and the probe temperatures."""
    worst = 0.0
    for kind in ("perturbative2", "riccati"):
        model = SpectrumModel(trap, basis, kind=kind)
        direct = SpectrumModel(trap, basis, kind=kind)
        direct.table = None
        for t in probe:
            gap = abs(solve_n0(model, t, tol=tol).n0 - solve_n0(direct, t, tol=tol).n0)
            worst = max(worst, gap / (tol * trap.n_particles))
    return worst


def _guarded(name, check):
    """The report line of check() -> (passed, detail), run with numpy's
    overflow, invalid operations and division by zero raised (not underflow:
    the Bose sums and exp(-eps/T) underflow by design).  A package error, an
    arithmetic error or a failed linear-algebra routine fails the check with
    its type and message."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            passed, detail = check()
    except (TrapBoseError, ArithmeticError, np.linalg.LinAlgError) as exc:
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return _check(name, passed, detail)


def validate(config: RunConfig):
    """Cross-validation suite; returns (report_text, all_passed)."""
    trap = config.trap
    basis = basis_mod.enumerate_basis(trap, config.e_cut)

    # The assembled C and d on an index grid against the quadrature oracle.
    def matrix_element_oracle():
        top = 8 if trap.dimension == 1 else 4
        states = list(np.ndindex(*(top + 1,) * trap.dimension))
        grid_sys = basis_mod.build_matrices(basis_mod.BasisSet(np.array(states[1:]), trap), 0.0)
        quad = basis_mod.quadrature_oracle_element
        oracle = np.array([[quad(m, n, trap) for n in states] for m in states])
        # Row 0 of the oracle is d (m = 0); the rest is C.
        worst = max(np.max(np.abs(grid_sys.coupling - oracle[1:, 1:])),
                    np.max(np.abs(grid_sys.source - oracle[0, 1:])))
        return worst < 1e-10, f"max delta {worst:.3e}"

    # The next three checks share the lowest (at most) 10 states.  The two
    # lambda^3 checks probe a quarter, an eighth and a sixteenth of the full
    # coupling: their ratios tend to 8 only as lambda shrinks, and at the
    # full coupling of an anisotropic or 3D trap they fall below 6.
    sub_basis = basis_mod.BasisSet(quanta=basis.quanta[:10], config=trap)

    def scaled_pairs():
        sub_sys = basis_mod.build_matrices(sub_basis, trap.n_particles)
        scaled = [replace(sub_sys, lam=sub_sys.lam * scale) for scale in (0.25, 0.125, 0.0625)]
        return scaled, [perturbative_xy(sys_m)[:2] for sys_m in scaled]

    # Perturbative X, Y against the general-generator Riccati branch.
    def riccati_scaling():
        diffs = []
        for sys_m, (x_p, y_p) in zip(*scaled_pairs()):
            sol = solve_xy_general(RiccatiProblem.from_system(sys_m))
            diffs.append(max(np.max(np.abs(sol.x - x_p)), np.max(np.abs(sol.y - y_p))))
        ok, ratios = _scaling_ratio_ok(diffs, 6.0, 10.0)
        return ok, f"ratios {ratios}"

    # Constraint residual of the perturbative pair scales as lambda^3.
    def constraint_scaling():
        _, pairs = scaled_pairs()
        ok, ratios = _scaling_ratio_ok([constraint_residual(x_p, y_p) for x_p, y_p in pairs],
                                       6.0, 10.0)
        return ok, f"ratios {ratios}"

    # Symmetric Riccati branch: exact constraint, anomalous terms eliminated.
    def riccati_residuals():
        sol = solve_xy(RiccatiProblem.from_system(
            basis_mod.build_matrices(sub_basis, trap.n_particles)))
        return (sol.r3 < 1e-13 and sol.anomalous_r1 < 1e-10,
                f"r3 {sol.r3:.3e}, anomalous {sol.anomalous_r1:.3e}")

    # Condensate fraction stable under cutoff doubling (first-order levels).
    # The shift is 0.93 to 1.03 times the ideal count of the states the
    # doubled basis adds (measured on 1D, 2D and 3D traps), a count that grows
    # with T.  Only grid temperatures where it is at most half the 1e-4*N
    # limit are probed: higher up, the tail above the cutoff alone fails.
    doubled = basis_mod.enumerate_basis(trap, 2.0 * config.e_cut)
    added = doubled.energies()[basis.size:]
    grid = [t for t in config.temperature_grid()
            if excited_count(added, t) <= 0.5e-4 * trap.n_particles]
    probe = [grid[0], grid[len(grid) // 2], grid[-1]] if grid else []
    no_probe = "no grid temperature where the ideal count above e_cut is <= 5e-05*N"

    def truncation_doubling():
        worst = 0.0
        model_a = SpectrumModel(trap, basis, kind="perturbative1")
        model_b = SpectrumModel(trap, doubled, kind="perturbative1")
        for t in probe:
            pa = solve_n0(model_a, t, tol=config.tol)
            pb = solve_n0(model_b, t, tol=config.tol)
            worst = max(worst, abs(pa.n0 - pb.n0) / trap.n_particles)
        detail = f"max shift {worst:.3e}" if probe else no_probe
        return bool(probe) and worst < 1e-4, detail

    # The dense kinds' count interpolant against direct levels, at the same
    # probe temperatures.
    def interpolant_vs_direct():
        worst = _interpolant_gap(trap, basis, probe, config.tol)
        detail = f"max |delta n0| {worst:.3g} tol*N" if probe else no_probe
        return bool(probe) and worst <= 2.0, detail

    lines = [_guarded(name, check) for name, check in (
        ("matrix-element-oracle", matrix_element_oracle),
        ("perturbative-riccati-lambda3-scaling", riccati_scaling),
        ("perturbative-constraint-lambda3-scaling", constraint_scaling),
        ("riccati-constraint-residuals", riccati_residuals),
        ("truncation-doubling", truncation_doubling),
        ("interpolant-vs-direct", interpolant_vs_direct),
    )]
    report = "\n".join(text for text, _ in lines) + "\n"
    return report, all(passed for _, passed in lines)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="trapbose",
        description="Condensate fraction and energy of a weakly-interacting "
                    "trapped Bose gas (Bogoliubov matrix method).",
    )
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument("--solver", choices=SOLVER_KINDS, help="override the solver branch")
    parser.add_argument("--output", help="override the CSV output path")
    parser.add_argument("--validate", action="store_true",
                        help="run the cross-validation suite instead of a sweep")
    args = parser.parse_args(argv)

    try:
        if args.config:
            with open(args.config) as handle:
                config = parse_config(handle.read())
        else:
            config = parse_config("")
        if args.solver:
            config = replace(config, solver=args.solver)
        if args.output:
            config = replace(config, output_path=args.output)

        if args.validate:
            report, passed = validate(config)
            sys.stdout.write(report)
            return 0 if passed else 2
        return run(config)
    except (OSError, ConfigError, TrapBoseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
