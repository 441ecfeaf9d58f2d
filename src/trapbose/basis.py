"""Truncated oscillator basis and assembly of the quadratic-Hamiltonian matrices.

The excited states of the D-dimensional harmonic oscillator are enumerated
under an energy cutoff; the interaction enters through the overlap
coefficients c_mn (coupling matrix C) and d_n (source vector d), which obey
a per-dimension parity selection rule.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import TrapConfig
from .errors import BasisTooLargeError, EmptyBasisError, IndexTooLargeError

# Largest quantum number per dimension accepted by the quadrature oracle.
ORACLE_MAX_INDEX = 40

# Most quantum numbers that enumerate_basis may meet in one dimension: the
# rows kept so far times the next dimension's quanta, rows x j int64 entries
# at dimension j (2**26 of them is 512 MiB).  The enumeration tests that
# bound before it extends the rows, and allocates only the rows that fit
# plus two or three candidates per row.
MAX_ENUMERATION_ENTRIES = 2**26

# Most entries that the coupling blocks of parity_sectors, times the arrays
# of their shape a caller keeps, may hold (2**26 float64 entries is 512 MiB).
# parity_sectors tests it on the sector sizes before it builds any block.
MAX_SECTOR_ENTRIES = 2**26


@dataclass(frozen=True, eq=False)
class BasisSet:
    """Ordered excited states (n != 0) of the trap in config.

    quanta is a read-only (size, D) integer array, one state per row.
    Ordering is (energy, lexicographic row), so two runs with identical
    inputs enumerate identically.  A quanta that is not a 2-D integer array
    with config.dimension columns, or holds a negative number, raises
    ValueError.
    """

    quanta: np.ndarray
    config: TrapConfig

    def __post_init__(self):
        # The couplings index their Gamma tables by the quanta: a negative
        # one would wrap around, and a column beyond D would go unread.
        quanta, dimension = self.quanta, self.config.dimension
        if not (isinstance(quanta, np.ndarray) and quanta.dtype.kind in "iu"
                and quanta.ndim == 2 and quanta.shape[1] == dimension):
            raise ValueError(
                f"quanta must be a 2-D integer array with {dimension} columns, one per "
                f"dimension of the trap; got {type(quanta).__name__} of shape "
                f"{np.shape(quanta)}, dtype {getattr(quanta, 'dtype', None)}")
        if quanta.min(initial=0) < 0:
            raise ValueError(f"quanta must be non-negative; got {quanta.min()}")

    @property
    def size(self):
        return len(self.quanta)

    def energies(self):
        """Vector of excitation energies hbar*(omega_1*n_1 + ... + omega_D*n_D),
        in basis order, measured from the ground state.

        The arithmetic of the scalar oscillator_energy in tests/oracles.py in
        the same order, so the values are bit-identical to it.
        """
        # The scalar sum starts at 0, and 0 + x is x for the x >= 0 here.
        (w, *others), quanta = self.config.frequencies, self.quanta
        total = w * quanta[:, 0]
        for j, w in enumerate(others, start=1):
            total = total + w * quanta[:, j]
        return self.config.hbar * total


def _quantum_count(cfg: TrapConfig, e_cut, j, kept):
    """Number of quanta k = 0, 1, ... of dimension j (from 1) whose energy
    hbar*omega_j*k alone is within e_cut.

    Raises BasisTooLargeError when the kept rows, each followed by every
    one of them, would hold more than MAX_ENUMERATION_ENTRIES quantum numbers.
    """
    # A float until it passes the guard: e_cut/(hbar*w) may be inf, which
    # math.floor does not take.  Under a negative e_cut no quantum fits.
    quotient = e_cut / (cfg.hbar * cfg.frequencies[j - 1]) + 1e-12
    count = max(math.floor(quotient) + 1.0 if math.isfinite(quotient) else quotient, 0.0)
    rows = kept * count
    if rows * j > MAX_ENUMERATION_ENTRIES:
        raise BasisTooLargeError(
            f"the basis under e_cut={e_cut} in dimension {cfg.dimension} needs {rows:.12g} "
            f"rows of {j} quantum numbers, above the limit of {MAX_ENUMERATION_ENTRIES} "
            f"(basis.MAX_ENUMERATION_ENTRIES)")
    return int(count)


def enumerate_basis(cfg: TrapConfig, e_cut):
    """All excited multi-indices with excitation energy <= e_cut.

    The states grow one dimension at a time; a row whose partial energy
    already exceeds e_cut is dropped, since later terms only add to it.
    Raises ValueError for a nan e_cut, EmptyBasisError when not even the
    first excited state fits (a negative e_cut included), and
    BasisTooLargeError, before extending them, when the rows kept times a
    dimension's quanta hold more than MAX_ENUMERATION_ENTRIES quantum numbers.
    """
    if math.isnan(e_cut):
        raise ValueError(f"e_cut={e_cut} is not a number")
    hbar, (w, *others) = cfg.hbar, cfg.frequencies
    # The first dimension extends one row, the ground state's empty one.
    k = np.arange(_quantum_count(cfg, e_cut, 1, 1))
    partial = w * k
    # The energies rise with k, so the k that fit are a prefix of k.
    fit = (hbar * partial).searchsorted(e_cut, side="right")
    quanta, partial = k[:fit, None], partial[:fit]
    for j, w in enumerate(others, start=2):
        count = _quantum_count(cfg, e_cut, j, len(quanta))
        # A row's energy rises with k, so the k that fit are a prefix of
        # range(count).  Its estimated length plus two candidates covers the
        # rounding of the estimate; the test of keep is the exact one.
        size = np.minimum(np.floor((e_cut / hbar - partial) / w) + 3.0, count).astype(np.int64)
        row = np.arange(len(size)).repeat(size)
        k = np.arange(len(row)) - (size.cumsum() - size).repeat(size)
        partial = partial.take(row) + w * k
        keep = hbar * partial <= e_cut
        row, k, partial = row.compress(keep), k.compress(keep), partial.compress(keep)
        # Each kept row followed by each of its k, in order.
        grown = np.empty((len(row), j), dtype=np.int64)
        grown[:, :-1] = quanta.take(row, axis=0)
        grown[:, -1] = k
        quanta = grown
    # Row 0 is the ground state, first in the enumeration and kept by any
    # e_cut >= 0; every other row is excited.
    quanta, energies = quanta[1:], hbar * partial[1:]
    if not quanta.size:
        raise EmptyBasisError(
            f"no excited state below e_cut={e_cut} "
            f"(first level at {cfg.hbar * min(cfg.frequencies)})"
        )
    # The rows come in lexicographic order, so a stable sort by energy
    # orders them by (energy, n_1, ..., n_D), ties included.
    quanta = quanta.take(energies.argsort(kind="stable"), axis=0)
    quanta.flags.writeable = False
    return BasisSet(quanta=quanta, config=cfg)


def _log_prefactor(cfg: TrapConfig):
    # (m*omega/2 pi^2 hbar)^(D/2) with omega the geometric-mean frequency;
    # identical to prod_j (m*omega_j / 2 pi^2 hbar)^(1/2).
    return 0.5 * cfg.dimension * math.log(
        cfg.mass * cfg.omega_mean / (2.0 * math.pi**2 * cfg.hbar)
    )


@dataclass(frozen=True)
class SystemMatrices:
    """Truncated matrices of the quadratic Hamiltonian at coupling lambda.

    energies: diagonal of the oscillator matrix (strictly positive).
    coupling: symmetric matrix of c_mn (symmetric by construction, not by
        numerical symmetrization).
    source:   vector of d_n.
    lam:      g*N0/2.
    """

    energies: np.ndarray
    coupling: np.ndarray
    source: np.ndarray
    lam: float

    @property
    def size(self):
        return self.energies.shape[0]


def _coupling_magnitude(m, n, cfg: TrapConfig, top):
    """|c_mn| for integer quanta arrays m and n of shape (..., D), broadcast
    against each other, wherever m_j + n_j is even in every dimension (c_mn
    vanishes elsewhere).  top is at least their largest quantum number: it
    sizes the log Gamma tables, whose entries do not depend on it.

    The Gamma/factorial magnitudes are accumulated in log space, so large
    quantum numbers do not overflow.  The arithmetic is that of the scalar
    coupling_coefficient in tests/oracles.py in the same order, with log
    Gamma read from the cached table of _gamma_tables, whose entries are
    scipy's gammaln bit for bit, instead of evaluated per element.  It is
    symmetric in m and n operation by operation, so swapping m and n gives
    bit-identical values.
    """
    half_gamma, log_factorial = _gamma_tables(top)
    log_mag = _log_prefactor(cfg)
    for j in range(cfg.dimension):
        mj, nj = m[..., j], n[..., j]
        log_mag = log_mag + half_gamma[mj + nj]
        log_mag = log_mag - 0.5 * (log_factorial[mj] + log_factorial[nj])
    return np.exp(log_mag)


def _coupling_array(m, n, cfg: TrapConfig, top):
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


# Cephes lgam (S. L. Moshier, Cephes Math Library, gamma.c), the routine
# behind scipy.special.gammaln, for x > 0: its coefficients, and its
# operations in its order, on Python floats.  Every log is math.log, the C
# library's log that Cephes calls; numpy's vectorized log differs from it in
# the last bit at some arguments.  The values are gammaln's bit for bit.
_LGAM_A = (8.11614167470508450300e-4, -5.95061904284301438324e-4, 7.93650340457716943945e-4,
           -2.77777777730099687205e-3, 8.33333333333331927722e-2)
_LGAM_B = (-1.37825152569120859100e3, -3.88016315134637840924e4, -3.31612992738871184744e5,
           -1.16237097492762307383e6, -1.72173700820839662146e6, -8.53555664245765465627e5)
# Cephes leaves out C's leading 1 and evaluates it by p1evl, which starts
# from x + C[0]; Horner's rule from 1.0 * x + C[0] gives the same bits.
_LGAM_C = (1.0, -3.51815701436523470549e2, -1.70642106651881159223e4, -2.20528590553854454839e5,
           -1.13933444367982507207e6, -2.53252307177582951285e6, -2.01889141433532773231e6)
_LS2PI = 0.91893853320467274178  # log(sqrt(2 pi))
_MAXLGM = 2.556348e305  # beyond it log Gamma overflows


def _polevl(x, coef):
    """Horner's rule on coef, highest power first (Cephes polevl)."""
    value = coef[0]
    for c in coef[1:]:
        value = value * x + c
    return value


def _lgam(x):
    """log Gamma(x) for a float x > 0, as Cephes lgam computes it."""
    if x < 13.0:
        # Shift x into [2, 3) by the recurrence, keeping the product in z.
        z, p, u = 1.0, 0.0, x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        x += p - 2.0
        return math.log(z) + x * _polevl(x, _LGAM_B) / _polevl(x, _LGAM_C)
    if x > _MAXLGM:
        return math.inf
    q = (x - 0.5) * math.log(x) - x + _LS2PI
    if x > 1.0e8:
        return q
    p = 1.0 / (x * x)
    if x >= 1000.0:
        return q + ((7.9365079365079365079365e-4 * p - 2.7777777777777777777778e-3) * p
                    + 0.0833333333333333333333) / x
    return q + _polevl(p, _LGAM_A) / x


@functools.lru_cache(maxsize=None)
def _half_gamma(size):
    # Sizes are powers of two, so a process keeps one table per doubling,
    # and every run of a sweep's set-up finds its table here.
    table = np.array([_lgam((k + 1) / 2) for k in range(size)])
    table.flags.writeable = False
    return table


def _gamma_tables(top):
    """log Gamma(k/2 + 1/2) for k = 0..2*top + 1, and its odd entries log k!
    for k = 0..top: read-only slices of a cached table of _lgam, equal to
    scipy.special.gammaln bit for bit."""
    # log k! = log Gamma((2k + 2)/2), bit for bit: (2k + 2)/2 is k + 1 exactly.
    count = 2 * int(top) + 2
    half_gamma = _half_gamma(1 << (count - 1).bit_length())[:count]
    return half_gamma, half_gamma[1::2]


def diagonal_coupling(basis: BasisSet):
    """Vector of diagonal elements c_nn (always positive) in basis.config's trap.

    Cheap path for the first-order level formula; avoids the full matrix.
    With m = n every parity is even and every sign +, so the arithmetic of
    _coupling_magnitude reduces to per-dimension lookups in the same cached
    log Gamma table (_gamma_tables) in the same order, and the values are
    bit-identical to the diagonal of build_matrices(basis, n0).coupling.
    """
    quanta = basis.quanta
    half_gamma, log_factorial = _gamma_tables(quanta.max(initial=0))
    # Entry n of each: the terms of a dimension where m_j = n_j = n.
    gamma_term = half_gamma[::2]
    factorial_term = 0.5 * (log_factorial + log_factorial)
    # The additions of _coupling_magnitude, in place on one buffer.
    log_mag = np.empty(len(quanta))
    log_mag.fill(_log_prefactor(basis.config))
    for j in range(basis.config.dimension):
        nj = quanta[:, j]
        log_mag += gamma_term[nj]
        log_mag -= factorial_term[nj]
    return np.exp(log_mag, out=log_mag)


def build_matrices(basis: BasisSet, n0):
    """Assemble SystemMatrices for condensate occupation n0 in basis.config."""
    cfg = basis.config
    if basis.size == 0:
        raise EmptyBasisError("basis is empty")
    if not 0.0 <= n0 <= cfg.n_particles:
        raise ValueError(f"n0={n0} outside [0, N={cfg.n_particles}]")
    quanta = basis.quanta
    ground = np.zeros(cfg.dimension, dtype=np.int64)
    top = quanta.max(initial=0)
    return SystemMatrices(
        energies=basis.energies(),
        coupling=_coupling_array(quanta[:, None, :], quanta[None, :, :], cfg, top),
        source=_coupling_array(ground, quanta, cfg, top),
        lam=cfg.coupling_lambda(n0),
    )


_SIGNS = np.array([1, -1])


def parity_sectors(basis: BasisSet, arrays=1):
    """The coupling matrix as blocks of its parity sectors, stacked by size.

    c_mn vanishes unless m_j + n_j is even in every dimension, so the states
    split into at most 2^D sectors, keyed by sum_j (n_j mod 2) 2^j, with no
    coupling between them.  Sectors of equal size m are stacked: for each
    size, ascending, one pair (index, coupling) of shapes (k, m) and
    (k, m, m), where row i of index holds the basis indices of one sector in
    basis order.  Each block equals the matching block of
    build_matrices(basis, n0).coupling element for element.

    arrays counts the blocks' coupling and the arrays of its shapes that the
    caller keeps beside it.  When that many of them would hold more than
    MAX_SECTOR_ENTRIES entries in all, BasisTooLargeError is raised before
    any block is built.
    """
    if basis.size == 0:
        raise EmptyBasisError("basis is empty")
    quanta = basis.quanta
    half, parity = np.divmod(quanta, 2)
    key = parity @ (1 << np.arange(quanta.shape[1]))
    sizes = np.bincount(key)
    counts = sizes.tolist()
    entries = sum(m * m for m in counts)
    if arrays * entries > MAX_SECTOR_ENTRIES:
        raise BasisTooLargeError(
            f"the parity-sector blocks of {basis.size} states in dimension "
            f"{basis.config.dimension} need {arrays} x {entries} entries, above the limit of "
            f"{MAX_SECTOR_ENTRIES} (basis.MAX_SECTOR_ENTRIES)")
    # The states by the size of their sector, then by key, then in basis
    # order (the sort is stable): the sectors of one size are one run.
    order = ((sizes.take(key) << quanta.shape[1]) | key).argsort(kind="stable")
    # In a sector every m_j + n_j is even.  With m_j = 2a + p and n_j = 2b + p,
    # (3 m_j + n_j)/2 = 3a + b + 2p has the parity of a + b, so the sign of
    # c_mn (_coupling_array) is the product of each state's sign
    # (-1)^(sum_j floor(n_j/2)), read from (1, -1) mod 2; +1 and -1
    # multiply exactly.
    signs = _SIGNS.take(np.add.reduce(half, axis=1), mode="wrap")
    top = quanta.max(initial=0)
    stacks, start = [], 0
    for m in sorted(set(counts) - {0}):
        index = order[start:start + m * counts.count(m)].reshape(-1, m)
        start += index.size
        block, sign = quanta.take(index, axis=0), signs.take(index)
        magnitude = _coupling_magnitude(block[..., :, None, :], block[..., None, :, :],
                                        basis.config, top)
        stacks.append((index, (sign[..., :, None] * sign[..., None, :]) * magnitude))
    return stacks


def _hermite_functions(order, xi):
    """Gaussian-free normalized Hermite-function values psi_n(xi)*exp(xi^2/2)
    for n = 0..order, by the stable three-term recurrence."""
    values = np.empty((order + 1, xi.size))
    values[0] = math.pi**-0.25
    if order >= 1:
        values[1] = math.sqrt(2.0) * xi * values[0]
    for k in range(1, order):
        values[k + 1] = (
            math.sqrt(2.0 / (k + 1)) * xi * values[k]
            - math.sqrt(k / (k + 1.0)) * values[k - 1]
        )
    return values


@functools.lru_cache(maxsize=None)
def _hermgauss(order):
    # At most ORACLE_MAX_INDEX + 1 orders exist; a --validate run on a 3D trap
    # asks for the same few rules 46,875 times.
    nodes, weights = np.polynomial.hermite.hermgauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def quadrature_oracle_element(m, n, cfg: TrapConfig):
    """Overlap integral of phi_m * phi_n * phi_0^2 by Gauss-Hermite quadrature.

    Independent cross-check for the c_mn and d_n arrays of build_matrices:
    it never touches the closed-form Gamma expression, and it uses the
    per-dimension frequencies rather than the geometric mean.
    """
    top = max(max(m), max(n))
    if top > ORACLE_MAX_INDEX:
        raise IndexTooLargeError(
            f"quantum number {top} exceeds oracle guard {ORACLE_MAX_INDEX}"
        )
    result = 1.0
    for mj, nj, w in zip(m, n, cfg.frequencies):
        order = 2 * max(mj, nj) + 20
        nodes, weights = _hermgauss(order)
        xi = nodes / math.sqrt(2.0)
        psi = _hermite_functions(max(mj, nj), xi)
        # The four Gaussian envelopes combine to exp(-2 xi^2) = exp(-u^2),
        # absorbed by the quadrature weight after u = sqrt(2) xi.
        integrand = psi[mj] * psi[nj] * psi[0] ** 2
        alpha = math.sqrt(cfg.mass * w / cfg.hbar)
        result *= alpha / math.sqrt(2.0) * float(np.dot(weights, integrand))
    return result
