"""The paper's printed formulas, kept as independent oracles for the tests.

The package evaluates each of these in a faster or plainer form: the
basis arrays vectorize the scalar matrix elements, reading log Gamma from
a table of its port of the Cephes lgam that scipy's gammaln runs, the
couplings take their parity and sign from one key and sign per state
instead of bit tricks on each pair's quanta, the basis is
sorted by one stable argsort instead of a lexsort, the level models
solve each parity sector on its own instead of the full matrices, the
Bose occupations are formed in place, the normal-phase fugacity and the
first-order condensed root are Newton solves instead of bracketed ones,
each ideal and first-order point is solved in one workspace instead of
new arrays at each evaluation, the dense kinds' Brent root is a port of
brentq that imports no scipy.optimize, the Chebyshev grids' tail maps
are closed-form rows instead of two rows of an inverse
Chebyshev-Vandermonde matrix, the count interpolant and the node sums
call ndarray methods and ufunc reductions instead of numpy's
Python-level functions, the dense models' E stacks are zeros with a
strided diagonal instead of a product with the identity, the
symmetric-branch X, Y are formed in the Cholesky frame of the levels
instead of from the generator T, and the pipeline never needs the shift
vector z or the spectrum of the solved X, Y.  The tests compare the fast forms against these, so
their arithmetic must stay as the formulas read.
"""

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammaln

from trapbose import (ConvergenceError, NoSolutionError, RiccatiProblem, RiccatiSolution,
                      SystemMatrices, ThermoPoint, TrapConfig, energy_excess, occupation)
from trapbose import thermo
from trapbose.basis import _coupling_magnitude, _log_prefactor
from trapbose.perturbative import real_eigenvalues, second_order_term
from trapbose.riccati import bogoliubov_sector_levels

CONDITION_LIMIT = 1e12


# Scalar matrix elements: the references for BasisSet.energies and the
# vectorized coupling and source arrays, which are bit-identical to them.

def oscillator_energy(n, cfg: TrapConfig):
    """Excitation energy hbar*(omega_1*n_1 + ... + omega_D*n_D).

    Measured from the ground state: the zero-point offset is excluded.
    """
    return cfg.hbar * sum(w * k for w, k in zip(cfg.frequencies, n))


def coupling_coefficient(m, n, cfg: TrapConfig):
    """Interaction matrix element c_mn.

    Vanishes exactly unless m_j + n_j is even in every dimension.  The
    Gamma/factorial magnitudes are accumulated in log space with the sign
    tracked separately, so large quantum numbers do not overflow.
    """
    if any((mj + nj) % 2 for mj, nj in zip(m, n)):
        return 0.0
    log_mag = _log_prefactor(cfg)
    sign = 1
    for mj, nj in zip(m, n):
        log_mag += gammaln((mj + nj + 1) / 2.0)
        log_mag -= 0.5 * (gammaln(mj + 1.0) + gammaln(nj + 1.0))
        if ((3 * mj + nj) // 2) % 2:
            sign = -sign
    return sign * math.exp(log_mag)


def source_coefficient(n, cfg: TrapConfig):
    """Linear-term coefficient d_n; equals c_mn with m = 0."""
    zero = (0,) * cfg.dimension
    return coupling_coefficient(zero, n, cfg)


# The coupling arrays with c_mn's parity and sign gathered by bit tricks on
# 3 m_j + n_j over each pair: the byte-level reference for build_matrices,
# which reads them from one parity key and sign per state.  The scalar
# coupling_coefficient differs from the arrays in the last bit of a few
# entries, so it cannot be that reference.

def coupling_array(m, n, cfg: TrapConfig, top):
    """Interaction matrix element c_mn for integer quanta arrays m and n of
    shape (..., D), broadcast against each other, and top as for
    _coupling_magnitude; the source d_n is c_mn with m = 0.

    c_mn vanishes exactly unless m_j + n_j is even in every dimension; its
    sign, like its magnitude, is symmetric in m and n.
    """
    # The quanta are non-negative, so bit 0 of bits = 3 mj + nj is the
    # parity of mj + nj, and bit 1 that of (3 mj + nj) // 2, whose parities
    # summed over j give the sign: OR and XOR gather them over j.
    odd = 0
    sign = 0
    for j in range(cfg.dimension):
        bits = 3 * m[..., j] + n[..., j]
        odd = odd | bits
        sign = sign ^ bits
    # 1 - (sign & 2) is the sign, +1 or -1, which multiplies exactly.
    return np.where(odd & 1, 0.0, (1 - (sign & 2)) * _coupling_magnitude(m, n, cfg, top))


# The full-matrix level path: the reference for the per-sector levels of
# SpectrumModel.

def spectrum_matrix(sys: SystemMatrices):
    """Spectrum matrix to O(lambda^2): E + 4*lambda*C + lambda^2*K."""
    lam = sys.lam
    return (np.diag(sys.energies) + 4.0 * lam * sys.coupling
            + lam**2 * second_order_term(sys.energies, sys.coupling))


def quasiparticle_levels(*stacks):
    """Real eigenvalue spectrum of one or more matrices or (..., m, m)
    stacks, each solved by its own real_eigenvalues call: the eigenvalues
    of all of them, sorted ascending."""
    return np.sort(np.concatenate([real_eigenvalues(mat).ravel() for mat in stacks]))


def bogoliubov_levels(*problems):
    """Symmetric-branch levels of one or more problems or stacks, each
    solved by its own bogoliubov_sector_levels call: the levels of all of
    them, sorted ascending."""
    return np.sort(np.concatenate([bogoliubov_sector_levels(prob).ravel() for prob in problems]))


# The printed z, the symmetric-branch X, Y from their generator, the scalar
# Bogoliubov problem, and the spectrum of a solved X, Y.

def shift_vector(sys: SystemMatrices, n0):
    """Shift z = -2 lambda sqrt(N0) (E + 6 lambda C)^{-1} d eliminating the
    linear terms, computed by a factorized linear solve.

    Raises ValueError when E + 6 lambda C is too ill-conditioned to solve.
    """
    lam = sys.lam
    if lam == 0.0:
        return np.zeros(sys.size)
    mat = np.diag(sys.energies) + 6.0 * lam * sys.coupling
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise ValueError(
            f"(E + 6*lambda*C) condition number {cond:.3e} exceeds {CONDITION_LIMIT:.0e}; "
            "lambda too large for this basis"
        )
    return -2.0 * lam * np.sqrt(n0) * np.linalg.solve(mat, sys.source)


def _positive_eigh(mat, name):
    w, v = np.linalg.eigh(mat)
    if w[0] <= 0.0:
        raise NoSolutionError(f"{name} is not positive definite (eigenvalue {w[0]:.3g})")
    return w, v


def geometric_mean_xy(prob: RiccatiProblem):
    """Symmetric-branch X = cosh(T), Y = sinh(T) from the generator
    T = -1/2 log(P^{-1} # Q), P^{-1} # Q = P^{-1/2} (P^{1/2} Q P^{1/2})^{1/2} P^{-1/2},
    with P = A - 2B and Q = A + 2B: three eigen-solves, a log, then cosh and
    sinh in the eigenbasis of T."""
    if not np.any(prob.b):
        t_mat = np.zeros_like(prob.a)  # free theory: T = 0 exactly, not to rounding
    else:
        w, v = _positive_eigh(prob.a - 2.0 * prob.b, "A - 2B")
        root = (v * np.sqrt(w)) @ v.T
        inv_root = (v / np.sqrt(w)) @ v.T
        w, v = _positive_eigh(root @ (prob.a + 2.0 * prob.b) @ root, "A + 2B")
        w, v = _positive_eigh(inv_root @ ((v * np.sqrt(w)) @ v.T) @ inv_root, "P^-1 # Q")
        t_mat = (v * (-0.5 * np.log(w))) @ v.T
    w, v = np.linalg.eigh(t_mat)
    return (v * np.cosh(w)) @ v.T, (v * np.sinh(w)) @ v.T


def solve_1x1(a, b):
    """Scalar oracle: x = cosh(t), y = sinh(t) with tanh(2t) = -2b/a."""
    if a == 0.0 or abs(2.0 * b / a) >= 1.0:
        raise NoSolutionError(f"|2b/a| = {abs(2 * b / a) if a else np.inf:.6g} >= 1")
    t = 0.5 * np.arctanh(-2.0 * b / a)
    return float(np.cosh(t)), float(np.sinh(t))


def exact_spectrum(sol: RiccatiSolution, sys: SystemMatrices):
    """Quasiparticle levels from the solved X, Y.

    Assembles X E X + Y E Y + 4 lambda (X C X + Y C Y) + 2 lambda (X C Y + Y C X)
    and returns its eigenvalues sorted ascending.
    """
    x, y = sol.x, sol.y
    lam = sys.lam
    e_mat = np.diag(sys.energies)
    c_mat = sys.coupling
    spec = (
        x @ e_mat @ x + y @ e_mat @ y
        + 4.0 * lam * (x @ c_mat @ x + y @ c_mat @ y)
        + 2.0 * lam * (x @ c_mat @ y + y @ c_mat @ x)
    )
    return quasiparticle_levels(spec)


# The Bose occupation as the formula reads: the reference for the in-place
# kernel of thermo (thermo._bose), which is bit-identical to it at z = 1,
# and the occupation at fugacity z of the bracketed normal-phase root below.

def bose_occupation(levels, temperature, fugacity=1.0):
    """z/(exp(eps/T) - z) as 1/expm1(eps/T - log z), over any positive levels;
    levels that freeze out (eps/T - log z beyond the float range of exp)
    get exactly 0."""
    with np.errstate(over="ignore"):
        return 1.0 / np.expm1(np.asarray(levels, dtype=float) / temperature - np.log(fugacity))


# The normal-phase occupations z/(exp(eps/T) - z) in two forms.  The r form
# is the arithmetic of thermo._fugacity_occupations, bit for bit: r =
# expm1(eps/T) and 1 - z = -expm1(u) at u = log z.  The q form, with q =
# exp(-eps/T), is the one the solve used before, and agrees to rounding.

def fugacity_occupation_r(levels, temperature, log_fugacity):
    """z/(r + 1 - z) with r = expm1(eps/T) and z = exp(u), u = log_fugacity."""
    r = np.expm1(np.asarray(levels, dtype=float) / temperature)
    return math.exp(log_fugacity) / (r - math.expm1(log_fugacity))


def fugacity_occupation_q(levels, temperature, fugacity):
    """z*q/(1 - z*q) with q = exp(-eps/T)."""
    zq = fugacity * np.exp(-np.asarray(levels, dtype=float) / temperature)
    return zq / (1.0 - zq)


# The bracketed fugacity root: the reference for the normal-phase Newton
# solve of solve_n0.

def _fugacity_excess(fugacity, levels, temperature, n_total):
    return float(np.sum(bose_occupation(levels, temperature, fugacity))) - n_total


def normal_phase_point(levels, temperature, n_total):
    """Normal-phase point of the bare levels: the fugacity z in (0, 1] at
    which sum z/(exp(eps/T) - z) = N, by Brent's method, and the energy
    there."""
    # At z = 1 the sum is the excited_count that chose the normal phase, so
    # f(1) >= 0 holds even at the transition temperature itself.
    fugacity = brentq(_fugacity_excess, 1e-300, 1.0,
                      args=(levels, temperature, n_total), xtol=1e-15, rtol=1e-15)
    energy = float(np.sum(levels * bose_occupation(levels, temperature, fugacity)))
    return ThermoPoint(
        temperature=temperature, n0=0.0, lam=0.0, energy_excess=energy, iterations=0,
        converged=True, normal_phase=True, fugacity=fugacity,
    )


# The bracketed condensed-phase root on direct levels: the reference for the
# Newton solve of solve_n0 on the affine first-order levels.

def _count_excess(n0, model, temperature, n_total):
    return n_total - n0 - float(np.sum(occupation(model.levels(n0), temperature)))


def condensed_point(model, temperature, tol):
    """Condensed-phase point of the model: the root of N - n0 - sum occ on
    [0, N] by Brent's method to within tol*N, and the energy of a direct
    levels call there; iterations counts the root's evaluations."""
    n_total = float(model.cfg.n_particles)
    n0, result = brentq(_count_excess, 0.0, n_total, args=(model, temperature, n_total),
                        xtol=tol * n_total, rtol=4 * np.finfo(float).eps, full_output=True)
    return ThermoPoint(
        temperature=temperature, n0=n0, lam=model.cfg.coupling_lambda(n0),
        energy_excess=energy_excess(model.levels(n0), temperature),
        iterations=result.function_calls, converged=True,
    )


# The ideal and first-order point as solve_n0 solved it with new arrays for
# the bare count, each Newton evaluation and each normal-phase evaluation:
# the reference for the point's workspace, which keeps every operation in
# its order, so that each ThermoPoint field is this one's bit for bit.

def allocating_point(model, temperature, tol=thermo.DEFAULT_TOL):
    """solve_n0 on an ideal or perturbative1 model, every array new."""
    n_total = float(model.cfg.n_particles)
    bare = model.levels(0.0)
    with np.errstate(over="ignore"):
        r = np.expm1(bare / temperature)
        occ = 1.0 / r
        bare_count = float(occ.sum())
        if bare_count >= n_total:
            return _allocating_normal_phase(bare, r, occ, temperature, n_total)
        if model.cfg.g == 0.0:
            n0, energy, calls = n_total - bare_count, float((bare * occ).sum()), 0
        else:
            n0, energy, calls = _allocating_affine_root(model, temperature, n_total,
                                                        bare_count, tol)
    return ThermoPoint(temperature=temperature, n0=n0, lam=model.cfg.coupling_lambda(n0),
                       energy_excess=energy, iterations=calls, converged=True)


def _allocating_affine_root(model, temperature, n_total, bare_count, tol):
    g = model.cfg.g
    bare, coupling = model.levels(0.0), model.coupling_diagonal
    limit = max(tol, thermo.TOL_FLOOR) * n_total
    n0, fall = n_total - bare_count, math.nan
    for evaluations in range(1, thermo.N0_MAX_EVALUATIONS + 1):
        levels = bare + 4.0 * model.cfg.coupling_lambda(n0) * coupling
        occ = 1.0 / np.expm1(levels / temperature)
        residual = n_total - n0 - float(occ.sum())
        slope = -1.0 + g * (2.0 * float(((occ + 1.0) * occ) @ coupling) / temperature)
        if not slope < 0.0:
            if evaluations > 1:
                raise ConvergenceError(f"condensed-phase Newton slope {slope:.3g} is not "
                                       f"negative at n0 = {n0:.6g}", residual=residual)
            n0 = n_total
            continue
        fall = residual / slope
        if (abs(fall) if evaluations == 1 else fall) <= limit:
            if not np.isfinite(levels).all():
                raise ConvergenceError(f"levels beyond the float range at lambda = "
                                       f"{model.cfg.coupling_lambda(n0):.3g}", residual=residual)
            return n0, float(levels @ occ), evaluations
        n0 = min(n0 - fall, n_total)
    raise ConvergenceError(
        f"condensed-phase n0 not converged in {thermo.N0_MAX_EVALUATIONS} Newton evaluations "
        f"(last step {fall:.3g})", residual=residual)


def _allocating_normal_phase(levels, r, occ, temperature, n_total):
    size = r.size
    spread = (1.0 / (occ + 1.0)).sum() / size
    u = min(-math.log1p(-spread) - math.log1p(size / n_total) * (1.0 - 2.0**-48), 0.0)
    for _ in range(thermo.FUGACITY_MAX_EVALUATIONS):
        occ = math.exp(u) / (r - math.expm1(u))
        count = float(occ.sum())
        h = math.log(count / n_total)
        step = h * count / (count + float(occ @ occ))
        if h <= thermo.FUGACITY_TOL or step <= thermo.FUGACITY_TOL * -u:
            return ThermoPoint(
                temperature=temperature, n0=0.0, lam=0.0,
                energy_excess=float(levels @ occ), iterations=0,
                converged=True, normal_phase=True, fugacity=math.exp(u),
            )
        u -= step
    raise ConvergenceError(
        f"normal-phase fugacity not converged in {thermo.FUGACITY_MAX_EVALUATIONS} Newton "
        f"evaluations (last step {step:.3g} in log z)", residual=count - n_total)


# The Chebyshev grids' tail map as two rows of the inverse of the grid's
# Chebyshev-Vandermonde matrix: the reference for thermo._Grid.tail, which
# forms those rows in closed form.

def inverse_tail(nodes):
    """The last two rows of the inverse of the Chebyshev-Vandermonde matrix
    of T_0 ... T_n at 2*nodes - 1, for the n + 1 nodes in [0, 1]: the map
    from values at the nodes to the coefficients of T_(n-1) and T_n in
    their interpolant."""
    vander = np.polynomial.chebyshev.chebvander(2.0 * nodes - 1.0, nodes.size - 1)
    return np.linalg.inv(vander)[-2:]


# The count interpolant and the node sums in numpy's Python-level functions:
# the reference for thermo._interpolate and thermo._node_sums, whose ndarray
# methods and ufunc reductions run the same kernels, bit for bit, without
# the wrappers' cost on every Brent evaluation.

def wrapped_interpolate(grid, values, t):
    """Barycentric interpolant of values at the grid's nodes, evaluated at t."""
    gap = t - grid.nodes
    nearest = np.argmin(np.abs(gap))
    if gap[nearest] == 0.0:
        return values[nearest]
    terms = grid.weights * (gap[nearest] / gap)
    return (terms @ values) / np.sum(terms)


def wrapped_node_sums(rows, temperature):
    """The excited count and energy at each row of positive node levels."""
    occ = thermo._bose(rows / temperature)
    counts = np.sum(occ, axis=1)
    occ *= rows
    return counts, np.sum(occ, axis=1)


def eye_energy_stack(sector):
    """The (k, m, m) stack of diagonal matrices of a (k, m) stack of sector
    energies, as a product with the identity: the reference for the E
    stacks of SpectrumModel."""
    return sector[..., None] * np.eye(sector.shape[-1])


# scipy's Brent root: the reference for thermo._brent_root, a port of
# brentq that must make the same evaluations and return the same root.

def brent_root(residual, args, n_total, tol):
    """brentq for residual(n0, *args) on [0, N] to within tol*N, or 4*eps
    relative to n0: (n0, function_calls).  Raises brentq's ValueError (no
    sign change on [0, N], or a nan residual) and RuntimeError (not
    converged in 100 iterations)."""
    n0, result = brentq(residual, 0.0, n_total, args=args, xtol=tol * n_total,
                        rtol=4 * np.finfo(float).eps, full_output=True)
    return n0, result.function_calls


# The enumeration's sort by lexsort on (energy, n_1, ..., n_D): the reference
# for the one stable argsort of enumerate_basis, which relies on the rows of
# its product being in lexicographic order already.

def lexsort_enumeration(cfg: TrapConfig, e_cut, seed=0):
    """The excited multi-indices with energy <= e_cut, taken from their
    bounding box in a shuffled row order and sorted by lexsort; the energies
    are summed as enumerate_basis sums them."""
    boxes = [np.arange(math.floor(e_cut / (cfg.hbar * w) + 1e-12) + 1) for w in cfg.frequencies]
    quanta = np.stack(np.meshgrid(*boxes, indexing="ij"), axis=-1).reshape(-1, cfg.dimension)
    quanta = quanta[np.random.default_rng(seed).permutation(len(quanta))]
    total = 0.0
    for j, w in enumerate(cfg.frequencies):
        total = total + w * quanta[:, j]
    energies = cfg.hbar * total
    keep = quanta.any(axis=1) & (energies <= e_cut)
    quanta, energies = quanta[keep], energies[keep]
    # lexsort's last key is the primary one: energy, then n_1, ..., n_D.
    return quanta[np.lexsort((*quanta.T[::-1], energies))]
