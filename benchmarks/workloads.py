"""Workload definitions: each is one CLI config, swept as a closed loop.

The seed only shifts the temperature grid by a sub-step offset, so a claim
can be re-checked on a grid no one tuned against.  Seed 0 is the unshifted
grid, whose output is compared with the recorded reference CSV.
"""

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    """One trap, cutoff, temperature grid and solver branch."""

    name: str
    dimension: int
    omega: str
    e_cut: float
    t_max: float
    solver: str
    # Percentile reported as thermo.point_ms.tail.  Fixed per workload so the
    # figure does not change meaning when a faster program fits more sweeps
    # into a run; min_traced_sweeps keeps at least ten points beyond it.
    tail_pct: int
    t_min: float = 1.0
    t_step: float = 1.0

    def grid_shift(self, seed):
        """Sub-step offset of the temperature grid; 0 for seed 0."""
        return 0.0 if seed == 0 else random.Random(seed).random() * self.t_step

    def grid(self, seed):
        count = round((self.t_max - self.t_min) / self.t_step) + 1
        start = self.t_min + self.grid_shift(seed)
        return [start + k * self.t_step for k in range(count)]

    def config_text(self, seed, output):
        shift = self.grid_shift(seed)
        keys = {
            "dimension": self.dimension,
            "omega": self.omega,
            "mass": repr(2.0 * math.pi**2),
            "hbar": 1.0,
            "g": 0.0002,
            "n_particles": 1000,
            "e_cut": self.e_cut,
            "t_min": repr(self.t_min + shift),
            "t_max": repr(self.t_max + shift),
            "t_step": self.t_step,
            "tol": 1e-10,
            "solver": self.solver,
            "output": output,
        }
        return "".join(f"{key} = {value}\n" for key, value in keys.items())

    def min_traced_sweeps(self, points):
        beyond = points * (1.0 - self.tail_pct / 100.0)
        return max(2, math.ceil(10.0 / beyond))


WORKLOADS = {
    w.name: w
    for w in (
        # Reference run of the paper: cheap diagonal levels, so the cost is
        # the fixed-point loop (5,432 levels calls) and CLI I/O.
        Workload("ref1d-p1", 1, "1.0", 400.0, 200.0, "perturbative1", tail_pct=99),
        # Dense spectrum_matrix + eigvals per levels call (perturbative layer).
        # T <= e_cut/8 keeps the unshifted grid inside the cutoff-converged window.
        Workload("p2-1d", 1, "1.0", 120.0, 15.0, "perturbative2", tail_pct=75),
        # Symmetric-branch Newton per levels call (riccati layer); the size
        # stays below the ~42-state failure of the Krylov path.
        Workload("riccati-1d", 1, "1.0", 14.0, 20.0, "riccati", tail_pct=75),
        # 32,076 states: basis enumeration dominates set-up, and most points
        # take the normal-phase brentq path over wide level vectors.
        Workload("aniso2d-p1", 2, "1.0, 1.4142135623730951", 300.0, 200.0,
                 "perturbative1", tail_pct=99),
    )
}
