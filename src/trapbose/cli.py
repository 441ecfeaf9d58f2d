"""Command-line front end: config parsing, sweeps, and validation reports.

Config files are flat `key = value` text with `#` comments; list values
are comma-separated.  Defaults reproduce the reference 1D run
(hbar = omega = 1, m = 2*pi^2, N = 1000, g = 0.0002).
"""

import argparse
import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import basis as basis_mod
from .config import TrapConfig
from .errors import ConfigError, TrapBoseError
from .perturbative import constraint_residual, perturbative_xy
from .riccati import RiccatiProblem, solve_xy
from .thermo import SOLVER_KINDS, SpectrumModel, solve_n0, sweep

CSV_HEADER = "T,n0_over_N,energy_excess_per_N,lambda,converged,iterations"

_DEFAULT_TRAP = dict(dimension=1, frequencies=(1.0,), mass=2.0 * math.pi**2,
                     hbar=1.0, g=2e-4, n_particles=1000)


@dataclass
class RunConfig:
    trap: TrapConfig = field(default_factory=lambda: TrapConfig(**_DEFAULT_TRAP))
    e_cut: float = 400.0
    t_min: float = 1.0
    t_max: float = 200.0
    t_step: float = 1.0
    solver: str = "perturbative1"
    tol: float = 1e-10
    output_path: str = "thermo.csv"
    emit_diagnostics: bool = False

    def __post_init__(self):
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

    def temperature_grid(self):
        count = int(math.floor((self.t_max - self.t_min) / self.t_step + 1e-9)) + 1
        return [self.t_min + k * self.t_step for k in range(count)]


_SCALAR_KEYS = {
    "dimension": int,
    "mass": float,
    "hbar": float,
    "g": float,
    "n_particles": int,
    "e_cut": float,
    "t_min": float,
    "t_max": float,
    "t_step": float,
    "tol": float,
    "solver": str,
    "output": str,
}


def parse_config(text):
    """Parse the key-value config format into a RunConfig.

    Raises ConfigError with a line number on malformed input, and on any
    violated invariant (via TrapConfig / RunConfig validation).
    """
    trap_kwargs = dict(_DEFAULT_TRAP)
    run_kwargs = {}
    omega = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "omega":
                omega = tuple(float(part) for part in value.split(","))
            elif key in ("dimension", "mass", "hbar", "g", "n_particles"):
                trap_kwargs[key] = _SCALAR_KEYS[key](value)
            elif key in ("e_cut", "t_min", "t_max", "t_step", "tol"):
                run_kwargs[key] = float(value)
            elif key == "solver":
                run_kwargs["solver"] = value
            elif key == "output":
                run_kwargs["output_path"] = value
            elif key == "emit_diagnostics":
                run_kwargs["emit_diagnostics"] = value.lower() in ("1", "true", "yes")
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    if omega is not None:
        trap_kwargs["frequencies"] = omega
    elif trap_kwargs["dimension"] != 1:
        trap_kwargs["frequencies"] = tuple(1.0 for _ in range(trap_kwargs["dimension"]))
    trap = TrapConfig(**trap_kwargs)
    return RunConfig(trap=trap, **run_kwargs)


def _format(value):
    return format(value, ".12g")


def run(config: RunConfig, stream=None):
    """Execute the sweep and write the CSV; returns the process exit status."""
    trap = config.trap
    if config.solver == "ideal":
        trap = replace(trap, g=0.0)
    basis = basis_mod.enumerate_basis(trap, config.e_cut)
    curve = sweep(trap, basis, config.temperature_grid(),
                  solver_kind=config.solver, tol=config.tol)
    n_total = trap.n_particles
    lines = [CSV_HEADER]
    for point in curve.points:
        if point.converged:
            lines.append(",".join([
                _format(point.temperature),
                _format(point.n0 / n_total),
                _format(point.energy_excess / n_total),
                _format(point.lam),
                "1",
                str(point.iterations),
            ]))
        else:
            lines.append(",".join([_format(point.temperature), "nan", "nan", "nan",
                                   "0", str(point.iterations)]))
            print(f"# T={_format(point.temperature)}: {point.fail_reason}", file=sys.stderr)
    text = "\n".join(lines) + "\n"
    if stream is not None:
        stream.write(text)
    else:
        with open(config.output_path, "w") as handle:
            handle.write(text)
    if config.emit_diagnostics:
        print(f"# monotone_n0: {curve.monotone_within()}", file=sys.stderr)
        normal = sum(1 for p in curve.points if p.normal_phase)
        print(f"# normal_phase_points: {normal}/{len(curve.points)}", file=sys.stderr)
    return 0 if all(p.converged for p in curve.points) else 2


def _check(name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f": {detail}" if detail and not passed else ""
    return f"{status} {name}{suffix}", passed


def _scaling_ratio_ok(values, low, high):
    ratios = [a / b for a, b in zip(values, values[1:])]
    return all(low <= r <= high for r in ratios), ratios


def validate(config: RunConfig):
    """Cross-validation suite; returns (report_text, all_passed)."""
    lines = []
    trap = config.trap
    basis = basis_mod.enumerate_basis(trap, config.e_cut)

    # Closed-form matrix elements against the quadrature oracle.
    top = 8 if trap.dimension == 1 else 4
    worst = 0.0
    indices = list(np.ndindex(*(top + 1,) * trap.dimension))
    for m in indices:
        for n in indices:
            closed = basis_mod.coupling_coefficient(m, n, trap)
            quad = basis_mod.quadrature_oracle_element(m, n, trap)
            worst = max(worst, abs(closed - quad))
    lines.append(_check("matrix-element-oracle", worst < 1e-10, f"max delta {worst:.3e}"))

    # Perturbative X, Y against the general-generator Riccati branch.
    sub_basis = basis_mod.BasisSet(states=basis.states[: min(basis.size, 10)],
                                   cutoff=basis.cutoff, config=trap)
    lam_full = trap.coupling_lambda(trap.n_particles)
    try:
        diffs = []
        for scale in (1.0, 0.5, 0.25):
            sys_m = basis_mod.build_matrices(sub_basis, trap, trap.n_particles)
            sys_m = replace(sys_m, lam=lam_full * scale)
            x_p, y_p, *_ = perturbative_xy(sys_m, order=2)
            sol = solve_xy(RiccatiProblem.from_system(sys_m), symmetric=False)
            diffs.append(max(np.max(np.abs(sol.x - x_p)), np.max(np.abs(sol.y - y_p))))
        ok, ratios = _scaling_ratio_ok(diffs, 6.0, 10.0)
        lines.append(_check("perturbative-riccati-lambda3-scaling", ok,
                            f"ratios {ratios}"))
    except TrapBoseError as exc:
        lines.append(_check("perturbative-riccati-lambda3-scaling", False, str(exc)))

    # Constraint residual of the order-2 perturbative pair scales as lambda^3.
    try:
        res = []
        for scale in (1.0, 0.5, 0.25):
            sys_m = replace(basis_mod.build_matrices(sub_basis, trap, trap.n_particles),
                            lam=lam_full * scale)
            x_p, y_p, *_ = perturbative_xy(sys_m, order=2)
            res.append(constraint_residual(x_p, y_p))
        ok, ratios = _scaling_ratio_ok(res, 6.0, 10.0)
        lines.append(_check("perturbative-constraint-lambda3-scaling", ok,
                            f"ratios {ratios}"))
    except TrapBoseError as exc:
        lines.append(_check("perturbative-constraint-lambda3-scaling", False, str(exc)))

    # Symmetric Riccati branch: exact constraint, anomalous terms eliminated.
    try:
        sys_m = replace(basis_mod.build_matrices(sub_basis, trap, trap.n_particles),
                        lam=lam_full)
        sol = solve_xy(RiccatiProblem.from_system(sys_m), symmetric=True)
        ok = sol.max_r3_iterates < 1e-13 and sol.anomalous_r1 < 1e-10
        lines.append(_check("riccati-constraint-residuals", ok,
                            f"r3 {sol.max_r3_iterates:.3e}, anomalous {sol.anomalous_r1:.3e}"))
    except TrapBoseError as exc:
        lines.append(_check("riccati-constraint-residuals", False, str(exc)))

    # Condensate fraction stable under cutoff doubling (first-order levels).
    # Probed only for T <= e_cut/8: beyond that the ideal occupation tail
    # above the cutoff exceeds the 1e-4 stability target by itself.
    grid = [t for t in config.temperature_grid() if t <= config.e_cut / 8.0]
    probe = [grid[0], grid[len(grid) // 2], grid[-1]] if grid else []
    doubled = basis_mod.enumerate_basis(trap, 2.0 * config.e_cut)
    worst = 0.0
    model_a = SpectrumModel(trap, basis, kind="perturbative1")
    model_b = SpectrumModel(trap, doubled, kind="perturbative1")
    for t in probe:
        pa = solve_n0(trap, basis, t, model=model_a, tol=config.tol)
        pb = solve_n0(trap, doubled, t, model=model_b, tol=config.tol)
        worst = max(worst, abs(pa.n0 - pb.n0) / trap.n_particles)
    lines.append(_check("truncation-doubling", worst < 1e-4, f"max shift {worst:.3e}"))

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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, TrapBoseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
