"""Bogoliubov matrix method for weakly-interacting bosons in a harmonic trap.

Pipeline: truncated oscillator basis -> quadratic-Hamiltonian matrices ->
quasiparticle spectrum (perturbative or matrix-Riccati) -> self-consistent
condensate fraction and energy versus temperature.
"""

from .basis import (
    BasisSet,
    SystemMatrices,
    build_matrices,
    coupling_coefficient,
    diagonal_coupling,
    enumerate_basis,
    oscillator_energy,
    parity_sectors,
    quadrature_oracle_element,
    source_coefficient,
)
from .config import TrapConfig
from .errors import (
    ComplexSpectrumError,
    ConfigError,
    ConvergenceError,
    EmptyBasisError,
    IndexTooLargeError,
    NoSolutionError,
    SingularSystemError,
    TrapBoseError,
    UnstableSpectrumError,
)
from .perturbative import (
    PerturbativeSolution,
    constraint_residual,
    perturbative_xy,
    quasiparticle_levels,
    real_eigenvalues,
    second_order_term,
    shift_vector,
    solve_perturbative,
    spectrum_matrix,
)
from .riccati import (
    RiccatiProblem,
    RiccatiSolution,
    anomalous_residuals,
    bogoliubov_levels,
    bogoliubov_sector_levels,
    exact_spectrum,
    residuals,
    solve_1x1,
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
