"""Perturbative Bogoliubov diagonalization to second order in lambda.

Implements the printed weak-coupling formulas verbatim:
    chi = -Einv C / 2,  upsilon = 2 chi,  upsilon1 = 4 Einv C Einv C,
    X = I + 2 lambda^2 chi^2,  Y = lambda upsilon + lambda^2 upsilon1,
and the second-order spectrum matrix whose eigenvalues are the
quasiparticle levels.  Note that the printed Y is generally not symmetric;
its asymmetry is reported as a diagnostic rather than symmetrized away.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .basis import SystemMatrices
from .errors import ComplexSpectrumError, SingularSystemError

DEFAULT_IMAG_TOL = 1e-8
CONDITION_LIMIT = 1e12


def _einv_apply(energies, mat):
    # Einv is diagonal: row scaling, never an explicit inverse matrix product.
    return mat / energies[..., :, None]


def shift_vector(sys: SystemMatrices, n0):
    """Shift z = -2 lambda sqrt(N0) (E + 6 lambda C)^{-1} d eliminating the
    linear terms, computed by a factorized linear solve."""
    lam = sys.lam
    if lam == 0.0:
        return np.zeros(sys.size)
    mat = np.diag(sys.energies) + 6.0 * lam * sys.coupling
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise SingularSystemError(
            f"(E + 6*lambda*C) condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; "
            "lambda too large for this basis"
        )
    return -2.0 * lam * np.sqrt(n0) * np.linalg.solve(mat, sys.source)


def perturbative_xy(sys: SystemMatrices):
    """Weak-coupling X, Y to second order in lambda, and the expansion
    matrices: (X, Y, chi, upsilon, upsilon1)."""
    lam = sys.lam
    einv_c = _einv_apply(sys.energies, sys.coupling)
    chi = -0.5 * einv_c
    upsilon = 2.0 * chi
    upsilon1 = 4.0 * einv_c @ einv_c
    x = np.eye(sys.size) + 2.0 * lam**2 * chi @ chi
    y = lam * upsilon + lam**2 * upsilon1
    return x, y, chi, upsilon, upsilon1


def second_order_term(energies, coupling):
    """The lambda-independent coefficient K of lambda^2 in the spectrum matrix.

    energies (..., m) and coupling (..., m, m) are one basis or a stack of
    blocks of one; K has the shape of coupling.
    """
    einv_c = _einv_apply(energies, coupling)
    return 0.5 * (
        (einv_c @ einv_c) * energies[..., None, :]
        - 3.0 * coupling @ einv_c
        - 2.0 * _einv_apply(energies, coupling @ coupling)
    )


def spectrum_matrix(sys: SystemMatrices):
    """Spectrum matrix to O(lambda^2): E + 4*lambda*C + lambda^2*K."""
    lam = sys.lam
    return (np.diag(sys.energies) + 4.0 * lam * sys.coupling
            + lam**2 * second_order_term(sys.energies, sys.coupling))


def real_eigenvalues(*stacks):
    """Real eigenvalues of one or more (generally non-symmetric) matrices,
    each given alone or as a (..., m, m) stack: one (..., m) array per
    argument, sorted along its last axis.

    Raises ComplexSpectrumError when max|Im| exceeds DEFAULT_IMAG_TOL *
    max|Re|, both over all eigenvalues, which signals a coupling beyond the
    perturbative regime.
    """
    eigenvalues = [np.linalg.eigvals(np.asarray(mat, dtype=float)) for mat in stacks]
    scale = max(np.max(np.abs(w.real)) for w in eigenvalues)
    max_imag = max(np.max(np.abs(w.imag)) for w in eigenvalues)
    if max_imag > DEFAULT_IMAG_TOL * scale:
        raise ComplexSpectrumError(
            f"max |Im eigenvalue| = {max_imag:.3e} exceeds {DEFAULT_IMAG_TOL} * {scale:.3e}"
        )
    return [np.sort(w.real, axis=-1) for w in eigenvalues]


def quasiparticle_levels(*stacks):
    """Real eigenvalue spectrum of one or more matrices or (..., m, m)
    stacks (real_eigenvalues): the eigenvalues of all of them, sorted
    ascending."""
    return np.sort(np.concatenate([w.ravel() for w in real_eigenvalues(*stacks)]))


def constraint_residual(x, y):
    """Max-norm of X^2 - Y^2 - I."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.max(np.abs(x @ x - y @ y - np.eye(x.shape[0]))))


@dataclass
class PerturbativeSolution:
    """Perturbative diagonalization bundle for one SystemMatrices instance."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    chi: np.ndarray
    upsilon: np.ndarray
    upsilon1: np.ndarray
    spectrum: np.ndarray
    levels: np.ndarray

    @property
    def y_asymmetry(self):
        """Max-norm of Y - Y^T; nonzero because the printed upsilon is
        -Einv C rather than a symmetrized form."""
        return float(np.max(np.abs(self.y - self.y.T)))


def solve_perturbative(sys: SystemMatrices, n0):
    """Full perturbative solution: shift vector, X/Y, spectrum, levels."""
    x, y, chi, upsilon, upsilon1 = perturbative_xy(sys)
    z = shift_vector(sys, n0)
    spec = spectrum_matrix(sys)
    levels = quasiparticle_levels(spec)
    if np.any(levels <= 0.0):
        warnings.warn(
            "non-positive quasiparticle level: coupling beyond the "
            "perturbative regime for this basis",
            RuntimeWarning,
            stacklevel=2,
        )
    return PerturbativeSolution(
        x=x, y=y, z=z, chi=chi, upsilon=upsilon, upsilon1=upsilon1,
        spectrum=spec, levels=levels,
    )
