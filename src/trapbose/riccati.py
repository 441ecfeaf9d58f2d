"""Non-perturbative solution of the coupled matrix Riccati system.

The equations
    X A Y + X B X + Y B Y = 0,
    Y A X + X B X + Y B Y = 0,
    X^2 - Y^2 - I = 0,
with A = E + 4*lambda*C and B = lambda*C are solved on the hyperbolic
ansatz X = cosh(T), Y = sinh(T), which satisfies the third equation
identically for any generator T.

Two branches are provided, one function each:

* solve_xy: T symmetric, in closed form, for one problem.  This is the
  canonical Bogoliubov branch: the symmetric part of the first equation is
  exactly the coefficient of the anomalous operator pairs, the second
  equation is the transpose of the first, and the commutation constraint
  holds by construction.  With P = A - 2B and Q = A + 2B, the anomalous
  coefficient vanishes iff exp(2T) Q exp(2T) = P, whose positive solution is
  the matrix geometric mean: T = -1/2 log(P^{-1} # Q) (Colpa, Physica A 93,
  327 (1978)).  It is formed in the Cholesky frame of P in which
  bogoliubov_sector_levels finds the levels sqrt(eig(P Q)), and raises where
  they do.  For lambda >= 0, P = E + 2 lambda C and Q = E + 6 lambda C are
  positive definite in exact arithmetic, because C is a Gram matrix.  In
  floating point they need not be: C's smallest eigenvalues fall below
  rounding of its largest from 20-state sectors on (1D e_cut 40), so at a
  huge lambda (g = 1e200) E + 2 lambda C rounds to the numerically singular
  2 lambda C and its cholesky fails (NoSolutionError).  The skew part of the
  printed equation is O(lambda) on this branch and is reported separately.

* solve_xy_general: general T, one hybrid-Powell root solve (MINPACK
  hybrd) of the full first equation.  This is the branch whose
  lambda-expansion reproduces the printed perturbative series (chi,
  upsilon, upsilon1) term by term, at the price of leaving the second
  equation unsatisfied at O(lambda).  It is the test oracle for that
  series and runs on small bases only.
"""

from dataclasses import dataclass

import numpy as np

from .basis import SystemMatrices
from .errors import ConvergenceError, NoSolutionError
from .perturbative import constraint_residual

GENERAL_BRANCH_TOL = 1e-10


@dataclass(frozen=True)
class RiccatiProblem:
    """Coefficient matrices A = E + 4*lambda*C and B = lambda*C.

    A and B may also be (..., n, n) stacks, which only
    bogoliubov_sector_levels accepts.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != b.shape or a.ndim < 2 or a.shape[-2] != a.shape[-1]:
            raise ValueError(f"A and B must be square and congruent, got {a.shape}, {b.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_system(cls, sys: SystemMatrices):
        return cls(
            a=np.diag(sys.energies) + 4.0 * sys.lam * sys.coupling,
            b=sys.lam * sys.coupling,
        )

    @property
    def size(self):
        return self.a.shape[-1]

    def oscillator_energies(self):
        """Diagonal of E, recovered as diag(A - 4B)."""
        return np.diag(self.a - 4.0 * self.b)


def _equation1(x, y, prob):
    return x @ prob.a @ y + x @ prob.b @ x + y @ prob.b @ y


def _equation2(x, y, prob):
    return y @ prob.a @ x + x @ prob.b @ x + y @ prob.b @ y


def residuals(x, y, prob: RiccatiProblem):
    """Max-norms (r1, r2, r3) of the three printed matrix equations."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r1 = float(np.max(np.abs(_equation1(x, y, prob))))
    r2 = float(np.max(np.abs(_equation2(x, y, prob))))
    return r1, r2, constraint_residual(x, y)


def anomalous_residuals(x, y, prob: RiccatiProblem):
    """Max-norms of the symmetric parts of the first two equations.

    These are the coefficients of the anomalous operator pairs (the
    operators commute, so only the symmetric part enters the Hamiltonian).
    """
    e1 = _equation1(x, y, prob)
    e2 = _equation2(x, y, prob)
    return (
        float(np.max(np.abs(0.5 * (e1 + e1.T)))),
        float(np.max(np.abs(0.5 * (e2 + e2.T)))),
    )


def _cosh_sinh_general(t_mat):
    # Imported at the first call, as in thermo._brent_root: only the
    # general branch, which --validate runs, comes here.
    from scipy.linalg import expm

    ep = expm(t_mat)
    em = expm(-t_mat)
    return 0.5 * (ep + em), 0.5 * (ep - em)


@dataclass
class RiccatiSolution:
    """Solution of the Riccati system on one branch.

    r1, r3 are the full-matrix residuals of the first and third printed
    equations; anomalous_r1/anomalous_r2 the symmetric (operator-coefficient)
    parts of the first two.  solve_xy zeroes the anomalous parts and
    solve_xy_general the full first equation; the skew part of the printed
    equations is O(lambda) on the symmetric branch and is not an error.
    """

    x: np.ndarray
    y: np.ndarray
    r1: float
    r3: float
    anomalous_r1: float
    anomalous_r2: float


def _solution(prob, x, y):
    r1, _, r3 = residuals(x, y, prob)
    an1, an2 = anomalous_residuals(x, y, prob)
    return RiccatiSolution(x=x, y=y, r1=r1, r3=r3, anomalous_r1=an1, anomalous_r2=an2)


def _one_problem(prob):
    if prob.a.ndim != 2:
        raise ValueError(f"a {prob.a.shape} stack, not one problem: see bogoliubov_sector_levels")


def _cholesky_frame(prob, vectors=False):
    # L = cholesky(P), L^T Q L = U diag(squares) U^T (U None unless vectors).
    try:
        low = np.linalg.cholesky(prob.a - 2.0 * prob.b)
    except np.linalg.LinAlgError as exc:
        raise NoSolutionError("A - 2B is not positive definite") from exc
    q_in_low = low.swapaxes(-1, -2) @ (prob.a + 2.0 * prob.b) @ low
    try:
        squares, frame = (np.linalg.eigh(q_in_low) if vectors
                          else (np.linalg.eigvalsh(q_in_low), None))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solve failed: {exc}") from exc
    lowest = squares.min()
    if lowest <= 0.0:
        raise NoSolutionError(f"A + 2B is not positive definite (eigenvalue {lowest:.3g})")
    return low, squares, frame


def bogoliubov_sector_levels(prob: RiccatiProblem):
    """Quasiparticle levels of the symmetric branch of a problem or (..., n, n)
    stack of them, in one batched call: a (..., n) array, sorted along its
    last axis.

    sqrt(eigvalsh(L^T Q L)) with L = cholesky(P), P = A - 2B, Q = A + 2B:
    the square roots of the eigenvalues of P Q.  Raises NoSolutionError
    when a P or Q is not positive definite, the matrix form of the
    |2b/a| < 1 condition of the scalar problem, where tanh(2t) = -2b/a,
    and ConvergenceError when the eigen-solve fails.  Each check holds per
    problem: a stack raises exactly when one of its problems would alone.
    """
    return np.sqrt(_cholesky_frame(prob)[1])


def solve_xy(prob: RiccatiProblem):
    """X = cosh(T), Y = sinh(T) on the symmetric branch of one problem.

    In the frame of the levels, L = cholesky(P) and L^T Q L = U Omega^2 U^T,
    G = P^-1 # Q = H H^T with H = L^-T U Omega^1/2; from G = V w V^T, X and
    Y are V (w^-1/2 +- w^1/2)/2 V^T.  Raises where bogoliubov_sector_levels
    does, and NoSolutionError when G is not numerically positive definite.
    """
    _one_problem(prob)
    low, squares, frame = _cholesky_frame(prob, vectors=True)
    if not np.any(prob.b):
        return _solution(prob, np.eye(prob.size), np.zeros_like(prob.b))  # free theory: T = 0
    g_factor = np.linalg.solve(low.T, frame * squares ** 0.25)
    w, v = np.linalg.eigh(g_factor @ g_factor.T)
    if w[0] <= 0.0:
        raise NoSolutionError(f"P^-1 # Q is not positive definite (eigenvalue {w[0]:.3g})")
    root = np.sqrt(w)
    return _solution(prob, (v * (0.5 / root + 0.5 * root)) @ v.T,
                     (v * (0.5 / root - 0.5 * root)) @ v.T)


def solve_xy_general(prob: RiccatiProblem):
    """X = cosh(T), Y = sinh(T) for a general T zeroing the full first equation.

    One hybrid-Powell root solve over the n^2 entries of T, started from the
    first-order generator -B/E.  The solution is accepted when r1 <
    GENERAL_BRANCH_TOL, and ConvergenceError (residual r1) is raised otherwise;
    the solver's own success flag is not used, because it can report a
    stalled step at a root that already meets the tolerance.
    """
    _one_problem(prob)
    from scipy import optimize

    n = prob.size

    def equation1_of(t_vec):
        x, y = _cosh_sinh_general(t_vec.reshape(n, n))
        return _equation1(x, y, prob).ravel()

    guess = -prob.b / prob.oscillator_energies()[:, None]
    # A step tolerance well below the default leaves r1 near rounding, far
    # under GENERAL_BRANCH_TOL, instead of within a factor of ten of it.
    t_mat = optimize.root(equation1_of, guess.ravel(), method="hybr",
                          options={"xtol": 1e-12}).x.reshape(n, n)
    sol = _solution(prob, *_cosh_sinh_general(t_mat))
    if not sol.r1 < GENERAL_BRANCH_TOL:
        raise ConvergenceError(f"general branch stopped at r1 = {sol.r1:.3g} >= "
                               f"{GENERAL_BRANCH_TOL}", residual=sol.r1)
    return sol
