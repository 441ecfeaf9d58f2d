"""Exception types shared across the package."""


class TrapBoseError(Exception):
    """Base class for all package errors."""


class ConfigError(TrapBoseError):
    """Invalid physical or run configuration."""


class EmptyBasisError(TrapBoseError):
    """No excited state lies below the requested energy cutoff."""


class BasisTooLargeError(TrapBoseError):
    """The states under the energy cutoff are too many to enumerate."""


class IndexTooLargeError(TrapBoseError):
    """Quantum number beyond the quadrature-order guard."""


class ComplexSpectrumError(TrapBoseError):
    """Eigenvalues have imaginary parts above tolerance."""


class UnstableSpectrumError(TrapBoseError, ValueError):
    """A quasiparticle level is zero or negative, so no Bose occupation exists."""


class NoSolutionError(TrapBoseError):
    """Scalar Bogoliubov problem has no real hyperbolic solution."""


class ConvergenceError(TrapBoseError):
    """Iterative solver stopped short of its tolerance."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual
