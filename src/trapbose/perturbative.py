"""Perturbative Bogoliubov diagonalization to second order in lambda.

Implements the printed weak-coupling formulas verbatim:
    chi = -Einv C / 2,  upsilon = 2 chi,  upsilon1 = 4 Einv C Einv C,
    X = I + 2 lambda^2 chi^2,  Y = lambda upsilon + lambda^2 upsilon1,
and the lambda^2 term of the second-order spectrum matrix
E + 4 lambda C + lambda^2 K, whose eigenvalues are the quasiparticle
levels.  The level models assemble that matrix per parity sector; its
full-matrix form is the tests' oracle in tests/oracles.py.  Note that the
printed Y is generally not symmetric; it is kept as printed rather than
symmetrized.
"""

import numpy as np

from .basis import SystemMatrices
from .errors import ComplexSpectrumError, ConvergenceError

IMAG_TOL = 1e-8


def _einv_apply(energies, mat):
    # Einv is diagonal: row scaling, never an explicit inverse matrix product.
    return mat / energies[..., :, None]


def perturbative_xy(sys: SystemMatrices):
    """Weak-coupling X, Y to second order in lambda, and the expansion
    matrices: (X, Y, chi, upsilon, upsilon1).  Raises OverflowError, naming
    lambda, when lambda^2 is beyond the float range."""
    lam = sys.lam
    einv_c = _einv_apply(sys.energies, sys.coupling)
    chi = -0.5 * einv_c
    upsilon = 2.0 * chi
    upsilon1 = 4.0 * einv_c @ einv_c
    try:
        lam2 = lam**2
    except OverflowError:
        raise OverflowError(f"lambda^2 beyond the float range at lambda = {lam:.3g}") from None
    x = np.eye(sys.size) + 2.0 * lam2 * chi @ chi
    y = lam * upsilon + lam2 * upsilon1
    return x, y, chi, upsilon, upsilon1


def second_order_term(energies, coupling):
    """The lambda-independent coefficient K of lambda^2 in the spectrum matrix.

    energies (..., m) and coupling (..., m, m) are one basis or a stack of
    blocks of one; K has the shape of coupling.  A zero energy, which only a
    hand-built basis holding the ground state has, gives non-finite entries
    without a warning: solve_n0 rejects such levels at every point.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        einv_c = _einv_apply(energies, coupling)
        return 0.5 * (
            (einv_c @ einv_c) * energies[..., None, :]
            - 3.0 * coupling @ einv_c
            - 2.0 * _einv_apply(energies, coupling @ coupling)
        )


def real_eigenvalues(stack):
    """Real eigenvalues of a (generally non-symmetric) matrix or (..., m, m)
    stack of them, in one batched call: a (..., m) array, sorted along its
    last axis.

    Each matrix is checked on its own.  Raises ComplexSpectrumError when,
    in any one matrix, max|Im| exceeds IMAG_TOL * max|Re| of its own
    eigenvalues, which signals a coupling beyond the perturbative regime,
    and ConvergenceError when the eigen-solve fails.
    """
    try:
        eigenvalues = np.linalg.eigvals(np.asarray(stack, dtype=float))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solve failed: {exc}") from exc
    scale = np.abs(eigenvalues.real).max(axis=-1)
    max_imag = np.abs(eigenvalues.imag).max(axis=-1)
    failed = max_imag > IMAG_TOL * scale
    if failed.any():
        first = failed.argmax()
        raise ComplexSpectrumError(f"max |Im eigenvalue| = {max_imag.flat[first]:.3e} "
                                   f"exceeds {IMAG_TOL} * {scale.flat[first]:.3e}")
    levels = eigenvalues.real.copy()
    levels.sort(axis=-1)
    return levels


def constraint_residual(x, y):
    """Max-norm of X^2 - Y^2 - I."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.max(np.abs(x @ x - y @ y - np.eye(x.shape[0]))))
