"""Bogoliubov matrix method for weakly-interacting bosons in a harmonic trap.

Pipeline: truncated oscillator basis -> quadratic-Hamiltonian matrices ->
quasiparticle spectrum (perturbative or matrix-Riccati) -> self-consistent
condensate fraction and energy versus temperature.
"""

from .basis import (
    BasisSet,
    SystemMatrices,
    build_matrices,
    diagonal_coupling,
    enumerate_basis,
    parity_sectors,
    quadrature_oracle_element,
)
from .config import TrapConfig
from .errors import (
    BasisTooLargeError,
    ComplexSpectrumError,
    ConfigError,
    ConvergenceError,
    EmptyBasisError,
    IndexTooLargeError,
    NoSolutionError,
    TrapBoseError,
    UnstableSpectrumError,
)
from .perturbative import (
    constraint_residual,
    perturbative_xy,
    real_eigenvalues,
    second_order_term,
)
from .riccati import (
    RiccatiProblem,
    RiccatiSolution,
    anomalous_residuals,
    bogoliubov_sector_levels,
    residuals,
    solve_xy,
    solve_xy_general,
)
from .thermo import (
    SpectrumModel,
    ThermoCurve,
    ThermoPoint,
    energy_excess,
    excited_count,
    occupation,
    solve_n0,
    sweep,
)

__version__ = "0.1.0"
