"""Self-consistent condensate occupation and thermodynamic curves.

Solves N0 = N - sum_n 1/(exp(eps_n(lambda(N0))/T) - 1) with
lambda = g*N0/2 on [0, N], and evaluates the condensate fraction and the
energy above the reference E0 on a temperature grid.  The first-order levels
(perturbative1) are affine in N0, so the residual is concave in N0 and
Newton's method falls monotonically to its root; the dense kinds root-solve
by Brent's method, ported from scipy's brentq so that a sweep loads no
scipy.optimize.  Temperatures are in units of hbar*omega with k_B = 1.
N0 is treated as a continuous macroscopic occupation.

Above the condensation region the loop has no solution with N0 > 0; those
points are extended with an ideal-spectrum fugacity fit (normal-phase
extension, an artifact convention): the fugacity z at which the bare levels
hold all N particles, found by Newton's method on the log of their count in
log z.  The fit sums z/(r + 1 - z) over the r = expm1(eps/T) of the bare
count, so 1 - z is resolved even where z itself rounds to 1.
"""

import ctypes
import glob
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cache, cached_property
from itertools import product

import numpy as np

from .basis import BasisSet, diagonal_coupling, parity_sectors
from .config import TrapConfig
from .errors import ConvergenceError, TrapBoseError, UnstableSpectrumError
from .perturbative import real_eigenvalues, second_order_term
from .riccati import RiccatiProblem, bogoliubov_sector_levels

SOLVER_KINDS = ("ideal", "perturbative1", "perturbative2", "riccati")

DEFAULT_TOL = 1e-10
TOL_FLOOR = 4 * sys.float_info.epsilon  # the finest tol of a root in n0


def _require_positive(levels):
    """Raise UnstableSpectrumError unless every level is positive."""
    if (levels <= 0.0).any():
        raise UnstableSpectrumError(
            f"all levels must be positive, lowest is {levels.min():.6g}")


def _bose(x):
    """Bose occupations 1/(exp(x) - 1) at x = eps/T - log z, written over x.

    x is a float array that no caller reads again: _affine_root passes the
    occupation buffer of its point's workspace (solve_n0's, not the
    model's), which holds levels/T.  A level that freezes out (x beyond
    the float range of exp) overflows expm1 to inf and gets exactly 0, so
    the caller holds np.errstate(over="ignore").  The levels are not
    checked: the caller knows them to be positive.  solve_n0 forms the
    bare count the same way, keeping expm1(x) for the normal phase.
    """
    np.expm1(x, out=x)
    return np.reciprocal(x, out=x)


def _check_positive(value, subject):
    if not 0.0 < value < math.inf:
        raise ValueError(f"{subject} must be positive and finite, got {value}")


def occupation(levels, temperature):
    """Bose-Einstein occupations 1/(exp(eps/T) - 1) of the given levels,
    a scalar for scalar or 0-d levels.

    Levels that freeze out (eps/T beyond the float range of exp) get
    exactly 0.  Raises UnstableSpectrumError for a non-positive level and
    ValueError for a temperature that is not positive and finite.
    """
    levels = np.asarray(levels, dtype=float)
    _require_positive(levels)
    _check_positive(temperature, "temperature")
    with np.errstate(over="ignore"):
        return _bose(np.asarray(levels / temperature))[()]


def excited_count(levels, temperature):
    """Total occupation of the excited levels at temperature T.  Raises
    UnstableSpectrumError for a non-positive level."""
    return float(occupation(levels, temperature).sum())


def _read_only(array):
    array.flags.writeable = False
    return array


# The dense kinds solve each parity sector on its own.  Per kind: the
# functions of a sector-size group's energies and C that give the
# lambda-independent terms it keeps besides E and C, the levels of one group
# at a column of lambda (shape (p, 1, 1, 1)) -- a (p, k, m) array for a group
# of k sectors of size m, sorted within each sector -- and the matrices each
# sector's eigen-solve takes (the spectrum matrix; A and B).  Each sector
# matrix is checked on its own, so a column of lambda gives the rows, and
# raises the errors, of its lambdas solved one at a time.

def _second_order_levels(lam, e, c, k):
    return real_eigenvalues(e + 4.0 * lam * c + lam**2 * k)


def _bogoliubov_levels(lam, e, c):
    return bogoliubov_sector_levels(RiccatiProblem(a=e + 4.0 * lam * c, b=lam * c))


_SECTOR_KINDS = {
    "perturbative2": ((second_order_term,), _second_order_levels, 1),
    "riccati": ((), _bogoliubov_levels, 2),
}

# The least work, in matrices times m^3 over all sectors and nodes, that one
# node chunk of a table build gets.  Timed on 2 shared cores with one BLAS
# thread, on 1D tables (17 nodes, two sectors of size m): two chunks were
# slower than one call up to m = 25 and faster from m = 30 for perturbative2,
# and from m = 35 for riccati, whose A and B count as two matrices.  2**20
# splits them from m = 40 and m = 32 (p2-1d has m = 60, riccati-1d m = 7).
MIN_CHUNK_WORK = 2**20


@cache
def _blas_threads():
    """The (get, set) pair of openblas_{get,set}_num_threads (scipy_openblas_
    in numpy 2 wheels, ending in 64_ in an ILP64 build) of the OpenBLAS that
    a numpy wheel bundles in numpy.libs, which numpy.linalg and matmul call;
    None when there is none (numpy built on another BLAS, or installed
    another way)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in product(("scipy_openblas_", "openblas_"), ("64_", "")):
            names = [f"{prefix}{verb}_num_threads{suffix}" for verb in ("get", "set")]
            if all(hasattr(lib, name) for name in names):
                get, set_ = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_BLAS_LOCK = threading.Lock()  # held while _on_one_blas_thread has set the BLAS threads


def _cpu_count():
    """The CPUs that node chunks and sweep stripes may use: all those this
    process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_one_blas_thread(work, parts, stop=None):
    """[work(part) for part in parts], with numpy's OpenBLAS on one thread:
    the first part on the calling thread, and the others on a pool of one
    worker per part that lives for this call.

    The call sets the BLAS thread count to one and restores the count it
    found when it ends, however it ends; with no OpenBLAS to set
    (_blas_threads is None) the parts run on the BLAS as it is.  The count
    is process-wide, so the call holds _BLAS_LOCK: two calls on two threads
    run one after the other, and a host thread's BLAS calls run on one
    thread meanwhile.  A pool kept between calls would not survive a fork,
    and a worker does not inherit the caller's np.errstate.  An exception
    that a part raises propagates once every worker has ended, the first
    part's before the others'.  stop, when given, is set as soon as a part
    raises, or the calling thread is interrupted while it waits for the
    workers, so that a work that checks it can end early.
    """
    get, set_ = _blas_threads() or (lambda: None, lambda threads: None)
    first, *rest = parts
    with _BLAS_LOCK:
        previous = get()
        set_(1)
        try:
            if not rest:
                return [work(first)]
            stop = threading.Event() if stop is None else stop

            def guarded(part):
                try:
                    return work(part)
                except BaseException:
                    stop.set()
                    raise

            with ThreadPoolExecutor(len(rest)) as pool:
                later = pool.map(guarded, rest)
                try:
                    return [work(first), *later]
                except BaseException:
                    stop.set()
                    raise
        finally:
            set_(previous)


# Chebyshev points of the second kind in t = lambda/lambda_max = n0/N on
# [0, 1], node k of n at sin(pi*k/(2n))^2, their barycentric weights
# (Berrut and Trefethen, SIAM Rev. 46, 501 (2004)), and the tail map: row i
# of tail maps the values at the n + 1 nodes to the coefficient of
# T_(n-1+i)(2t - 1) in their interpolant, the last two.  Each of the nested
# _GRIDS (17, 33, 65 and 129 nodes) is in refinement order: the nodes of the
# grid before it, bit for bit, as k/n = (k/2)/(n/2) exactly, then new ones.
#
# At these nodes the coefficients are halved cosine sums, so the tail map is
# closed-form in the weights w: T_n(2t - 1) = (-1)^(n-k) at node k, and
# T_(n-1)(2t - 1) = (-1)^(n-k) (2t - 1), which give the rows (2/n) w (2t - 1)
# and w/n times (-1)^n, which is 1 on every grid of _GRIDS.
class _Grid:
    def __init__(self, n):
        k = np.arange(n + 1)
        k = k[np.argsort(-np.gcd(k, n // 16), kind="stable")]
        self.nodes = _read_only(np.sin(0.5 * np.pi * k / n) ** 2)
        self.weights = _read_only(np.where(k % n == 0, 0.5, 1.0) * (-1.0) ** k)
        self.tail = _read_only(np.stack([(2.0 / n) * self.weights * (2.0 * self.nodes - 1.0),
                                         self.weights / n]))


_GRIDS = tuple(_Grid(16 << j) for j in range(4))


def _interpolate(grid, values, t):
    """Barycentric interpolant of values at the grid's nodes, evaluated at t.

    It runs at each Brent evaluation, so it calls ndarray.argmin,
    ndarray.dot and np.add.reduce, the kernels that np.argmin, the @ of two
    vectors and np.sum run without their Python-level wrappers: the same
    bits as wrapped_interpolate in tests/oracles.py.
    """
    gap = t - grid.nodes
    nearest = np.abs(gap).argmin()
    if gap[nearest] == 0.0:
        return values[nearest]
    # Scaled by the smallest gap: every term is at most 1 in magnitude, so
    # none overflows however close t comes to a node.
    terms = grid.weights * (gap[nearest] / gap)
    return terms.dot(values) / np.add.reduce(terms)


class SpectrumModel:
    """Maps condensate occupation to quasiparticle levels for one solver branch.

    ideal          -- bare oscillator levels: cfg is stored with g = 0.
    perturbative1  -- first-order formula eps_n + 4*lambda*c_nn (diagonal only).
    perturbative2  -- eigenvalues of the second-order spectrum matrix.
    riccati        -- closed-form Bogoliubov levels of the symmetric branch.

    The dense kinds solve each parity sector of the basis on its own: C
    does not couple sectors (basis.parity_sectors), so the spectrum matrix
    and P, Q are block diagonal in them.  At construction the model keeps,
    for each sector size m shared by k sectors, E as a (k, m, m) stack of
    diagonal matrices, the in-sector C blocks as a (k, m, m) stack, and for
    perturbative2 the lambda^2 term K of the spectrum matrix; when these
    would hold more than basis.MAX_SECTOR_ENTRIES entries, the model raises
    BasisTooLargeError before it builds any (parity_sectors).  A levels call
    is then one batched eigen-solve per sector size, and the levels of all
    sectors are returned sorted ascending.  The full-matrix path of
    tests/oracles.py (build_matrices -> spectrum_matrix or
    RiccatiProblem.from_system -> quasiparticle_levels or bogoliubov_levels)
    gives the same levels and is the tests' oracle for this one.

    For the dense kinds, `table` is a read-only (17, size) array: row j
    holds the sector levels, in no particular order, at the Chebyshev node
    lambda = _GRIDS[0].nodes[j] * lambda_max, with lambda_max =
    cfg.coupling_lambda(N).  _blocks gives table, then the read-only rows at
    the 16, 32 and 64 nodes that each later grid of _GRIDS adds.  Each block
    is built at its first use (solve_n0 uses table at the first
    condensed-phase point, so a sweep with none builds nothing, and reaches
    a grid where the one before it fails its tail test) and kept.  A build
    runs numpy's OpenBLAS on one thread, at most 17 nodes a call, and when a
    call holds enough work it splits its nodes across threads
    (_node_levels), as each node's levels, and the checks of its sector
    matrices, depend on that node alone.  A block is None for ideal and
    perturbative1, at g = 0, when lambda_max is beyond the float range, and
    when a node raises a TrapBoseError or has a non-positive level; solve_n0
    then evaluates directly at each point that reaches it, and at every
    point when table is None.  levels(n0) always evaluates directly.
    Sector matrices that overflow raise ConvergenceError.

    cfg must describe the trap of basis.config; it gives N and lambda = g*N0/2
    to the loop.  At lambda = 0 every kind returns the bare levels: sorted
    ascending for the dense kinds, in basis order for ideal and
    perturbative1, whose levels at any lambda are in basis order.  Every
    array the model keeps is read-only, as its levels may be returned as is.

    coupling_diagonal is the c_nn of perturbative1, whose levels
    eps_n + 4*lambda*c_nn are affine in n0, and None for every other kind:
    solve_n0 takes its Newton path on the models that hold it.
    """

    def __init__(self, cfg: TrapConfig, basis: BasisSet, kind="perturbative1"):
        if kind not in SOLVER_KINDS:
            raise ValueError(f"unknown solver kind {kind!r}; expected one of {SOLVER_KINDS}")
        trap = basis.config
        if (cfg.frequencies, cfg.mass, cfg.hbar) != (trap.frequencies, trap.mass, trap.hbar):
            raise ValueError(f"cfg and basis.config are different traps: {cfg} vs {trap}")
        self.cfg = replace(cfg, g=0.0) if kind == "ideal" else cfg
        self.kind = kind
        energies = basis.energies()
        self.coupling_diagonal = None
        self._groups = None
        self._refined = {}  # the blocks after table that _blocks has built
        extra_terms, self._sector_levels, self._sector_matrices = _SECTOR_KINDS.get(
            kind, (None, None, 0))
        if kind == "perturbative1":
            self.coupling_diagonal = _read_only(diagonal_coupling(basis))
        elif extra_terms is not None:
            self._groups = []
            # Each group keeps E, C and the extra terms, all of C's shape.
            for index, coupling in parity_sectors(basis, arrays=2 + len(extra_terms)):
                sector = energies.take(index)
                # E as zeros with the energies on a strided view of each
                # diagonal: sector[..., None] * np.eye(m) bit for bit, as the
                # energies are finite and non-negative (e*0.0 is +0.0).
                k, m = index.shape
                diagonal = np.zeros((k, m, m))
                diagonal.reshape(k, m * m)[:, ::m + 1] = sector
                group = (diagonal, coupling, *[term(sector, coupling) for term in extra_terms])
                for array in group:
                    _read_only(array)
                self._groups.append(group)
            energies.sort()
        self._energies = _read_only(energies)
        # levels(0.0) is this array at every point, so it is tested once;
        # solve_n0 raises UnstableSpectrumError at each point when it fails.
        self._bare_positive = not (energies <= 0.0).any()

    def levels(self, n0, out=None):
        """The levels at condensate occupation n0.

        Without out, lambda = 0 returns the model's read-only bare levels
        and every other n0 a new array.  An ideal or perturbative1 model
        writes them into out when it is given (a float array of the model's
        size) and returns out: solve_n0's Newton passes a buffer of its
        point's workspace, so that each evaluation is still one levels call.
        That Newton never reaches the dense kinds, whose levels at lambda
        != 0 are always a new array.  The model keeps no buffer of its own,
        and one model may serve solve_n0 on several threads.
        """
        lam = self.cfg.coupling_lambda(n0)
        if lam == 0.0:
            if out is None:
                return self._energies
            np.copyto(out, self._energies)
            return out
        if self._sector_levels is None:
            # E + (4*lam)*c, the product formed in out when it is given.
            levels = np.multiply(4.0 * lam, self.coupling_diagonal, out=out)
            return np.add(self._energies, levels, out=levels)
        levels = self._sectors(np.array([lam]))[0]
        levels.sort()
        return levels

    def _sectors(self, lam):
        """The sector levels at each lambda of lam, one row per lambda."""
        column = lam.reshape(-1, 1, 1, 1)
        # A coupling beyond the float range overflows the sector matrices:
        # that is a failed eigen-solve of the point, not a warning.
        try:
            with np.errstate(over="raise", invalid="raise"):
                sectors = [self._sector_levels(column, *group).reshape(lam.size, -1)
                           for group in self._groups]
        except FloatingPointError as exc:
            raise ConvergenceError(f"eigenvalue solve failed: {exc}") from exc
        return np.concatenate(sectors, axis=1)

    @cached_property
    def table(self):
        """The levels of a dense model at the nodes of _GRIDS[0], built at
        first use; None when the model has none."""
        return self._node_levels(_GRIDS[0].nodes)

    def _blocks(self):
        """table, then the rows at the nodes each later grid of _GRIDS adds,
        built at first need in _node_levels calls of the first refinement's
        16 nodes, and kept; a block is None when one of its calls is."""
        yield self.table
        for j, (coarse, grid) in enumerate(zip(_GRIDS, _GRIDS[1:])):
            if j not in self._refined:
                parts = [self._node_levels(nodes)
                         for nodes in np.split(grid.nodes[coarse.nodes.size:], 1 << j)]
                self._refined[j] = (None if any(part is None for part in parts)
                                    else _read_only(np.concatenate(parts)))
            yield self._refined[j]

    def _node_levels(self, nodes):
        """The levels at lambda_max * nodes, one row per node, or None.

        The build runs numpy's OpenBLAS on one thread (_on_one_blas_thread),
        so two builds on two threads run one after the other.  Each row
        depends on its node alone, and _sectors checks each sector matrix on
        its own, so a table with enough work (MIN_CHUNK_WORK) is split into
        contiguous node chunks, one thread each on the CPUs that _cpu_count
        gives: the joined chunks are one call's rows bit for bit, and a
        chunk raises exactly where one call would.  With no OpenBLAS to set
        (_blas_threads is None), the table is one call.  _sectors sets its
        error state on each worker.
        """
        lam_max = self.cfg.coupling_lambda(self.cfg.n_particles)
        # lam_max = inf (g*N beyond the float range) would make node 0 nan.
        if self._sector_levels is None or not 0.0 < lam_max < math.inf:
            return None
        lam = lam_max * nodes
        work = lam.size * self._sector_matrices * sum(
            c.size * c.shape[-1] for _, c, *_ in self._groups)
        chunks = max(1, min(lam.size, work // MIN_CHUNK_WORK,
                            _cpu_count() if _blas_threads() else 1))
        try:
            values = np.concatenate(_on_one_blas_thread(self._sectors,
                                                        np.array_split(lam, chunks)))
        except TrapBoseError:
            return None
        if (values <= 0.0).any():
            return None
        return _read_only(values)


@dataclass
class ThermoPoint:
    """One temperature point of the self-consistent loop.

    iterations counts the evaluations of the root solve that gave n0
    (Newton evaluations for perturbative1, evaluations of the count
    interpolant when solve_n0 solved on it, direct levels calls otherwise,
    0 at g = 0 where no root solve is made);
    a point that failed has converged False and the exception in
    fail_reason.
    """

    temperature: float
    n0: float
    lam: float
    energy_excess: float
    iterations: int
    converged: bool
    normal_phase: bool = False
    fugacity: float = 1.0
    fail_reason: str = ""


# The root functions are module-level and take their data through args:
# _brent_root keeps brentq's (f, args) form, so the tests hand one function
# and one args to both.  Nothing in the solve refers to itself, so no
# reference cycle keeps a model alive until the garbage collector runs.

def _interpolated_residual(n0, grid, counts, n_total):
    return n_total - n0 - _interpolate(grid, counts, n0 / n_total)


def _direct_residual(n0, model, temperature, n_total):
    return n_total - n0 - excited_count(model.levels(n0), temperature)


BRENT_MAX_ITERATIONS = 100  # brentq's default maxiter


def _brent_value(residual, n0, args):
    value = float(residual(n0, *args))
    if math.isnan(value):
        raise ConvergenceError(f"Brent root: residual is nan at n0 = {n0:.6g}", residual=value)
    return value


def _brent_root(residual, args, n_total, tol):
    """Brent's method for residual(n0, *args) on [0, N] to within tol*N,
    or TOL_FLOOR relative to n0: (n0, evaluations).

    A port of scipy's brentq.c (R. P. Brent, Algorithms for Minimization
    without Derivatives, 1973, ch. 4) that makes brentq's evaluations and
    returns its root bit for bit, and its function_calls: in Python floats,
    as brentq passes C doubles, with the sign test on the sign bits (a
    product of two tiny residuals underflows to 0) and IEEE division.
    Raises ConvergenceError, with the residual, where brentq raises: a nan
    residual, no sign change on [0, N], or BRENT_MAX_ITERATIONS iterations
    without convergence.
    """
    xtol = float(tol) * n_total
    xpre, xcur = 0.0, n_total
    fpre, fcur = _brent_value(residual, xpre, args), _brent_value(residual, xcur, args)
    calls = 2
    if fpre == 0.0:
        return xpre, calls
    if fcur == 0.0:
        return xcur, calls
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ConvergenceError(f"Brent root: residual has one sign on [0, N] "
                               f"({fpre:.6g} and {fcur:.6g})", residual=fcur)
    xblk = fblk = spre = scur = 0.0
    for _ in range(BRENT_MAX_ITERATIONS):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + TOL_FLOOR * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, calls
        stry = math.nan  # a nan step fails the test below: bisect
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            # Where a denominator is 0, C divides to an inf or nan step.
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = _brent_value(residual, xcur, args)
        calls += 1
    raise ConvergenceError(f"Brent root not converged in {BRENT_MAX_ITERATIONS} iterations "
                           f"(n0 = {xcur:.6g})", residual=fcur)


# The condensed points of perturbative1: Newton's method on f(n0) = N - n0 -
# sum occ.  The levels eps_n + 2*g*n0*c_nn are affine in n0 with c_nn > 0 (so
# at least the bare levels, which solve_n0 has checked positive), and the
# Bose occupation is convex and decreasing in the level, so f is concave.
# With f(0) > 0 >= f(N), its one root n* lies in (0, N] and f' < 0 from n* on.
# The loop starts at the g = 0 root x_a = N - bare_count, where the levels are
# at least the bare ones and f(x_a) >= 0; the tangent there lands where
# f <= 0 (clipped at N), and every step after that falls monotonically to
# n*.  Where f'(x_a) >= 0 (just below the transition) it starts at N instead.
# It ends at a fall of at most max(tol, TOL_FLOOR)*N (a finer fall is below
# the float spacing of n0 and may never come), or at a rise, where rounding
# has crossed the root; the point keeps the n0 and energy of that evaluation.
N0_MAX_EVALUATIONS = 50


def _affine_root(model, temperature, n_total, bare_count, tol, levels, occ, weight):
    """Newton's method for f(n0) on the affine levels of model:
    (n0, energy, evaluations).

    The solve runs in solve_n0's workspace: each evaluation writes its
    levels over `levels` (the bare count's r, which is not read again) in
    one model.levels(n0, out=levels) call, levels/T and then their
    occupations over occ (_bose), and the slope weight occ*(1 + occ) into
    weight, which this allocates when it is None; the model keeps no
    buffer.  Every sum is np.add.reduce, the pairwise sum of ndarray.sum.
    """
    g = model.cfg.g
    limit = max(tol, TOL_FLOOR) * n_total
    if weight is None:
        weight = np.empty_like(occ)
    n0, fall = n_total - bare_count, math.nan
    for evaluations in range(1, N0_MAX_EVALUATIONS + 1):
        model.levels(n0, out=levels)
        _bose(np.divide(levels, temperature, out=occ))
        residual = n_total - n0 - float(np.add.reduce(occ))
        # f'(n0) = -1 + (2g/T) sum c*occ*(1 + occ); g multiplies last, so
        # frozen levels (occ = 0) give -1 at any finite g, not inf*0.
        np.add(occ, 1.0, out=weight)
        weight *= occ
        slope = -1.0 + g * (2.0 * float(weight @ model.coupling_diagonal) / temperature)
        if not slope < 0.0:
            if evaluations > 1:
                raise ConvergenceError(f"condensed-phase Newton slope {slope:.3g} is not "
                                       f"negative at n0 = {n0:.6g}", residual=residual)
            n0 = n_total
            continue
        fall = residual / slope
        # The step from x_a rises; every later step falls.
        if (abs(fall) if evaluations == 1 else fall) <= limit:
            # The levels are at least the bare ones, so they are all finite
            # when their largest is (a nan propagates to it).
            if not math.isfinite(levels.max()):
                raise ConvergenceError(f"levels beyond the float range at lambda = "
                                       f"{model.cfg.coupling_lambda(n0):.3g}", residual=residual)
            return n0, float(levels @ occ), evaluations
        n0 = min(n0 - fall, n_total)
    raise ConvergenceError(
        f"condensed-phase n0 not converged in {N0_MAX_EVALUATIONS} Newton evaluations "
        f"(last step {fall:.3g})", residual=residual)


# The normal-phase fugacity: Newton's method on h(u) = log count(u) - log N
# in u = log z, over r = expm1(eps/T), which solve_n0 has formed for the
# bare count.  exp(eps/T) - z = r + (1 - z) with 1 - z = -expm1(u), so
# count(u) = sum z/(r - expm1(u)), whose denominators add two non-negative
# terms for u <= 0 and cancel nothing, however close z comes to 1.  count(u)
# is a positive sum of e^(ju), so h is increasing and convex, and Newton
# started where h >= 0 falls monotonically to the root, never overshooting.
# The loop ends when the count is resolved (h at most FUGACITY_TOL: a step
# below zero, where rounding has crossed the root, included) or u is (a step
# of at most FUGACITY_TOL*|u|, which resolves 1 - z ~ -u near z = 1 and is
# never finer than the float spacing of u); the point keeps the z and
# energy of that last evaluation.
FUGACITY_TOL = 1e-15
FUGACITY_MAX_EVALUATIONS = 50


def _fugacity_occupations(u, r, out):
    """Occupations z/(r + 1 - z) at z = exp(u), written into out: one
    evaluation of the normal-phase Newton solve, which passes the
    occupation buffer of solve_n0's workspace."""
    np.subtract(r, math.expm1(u), out=out)
    return np.divide(math.exp(u), out, out=out)


def _fugacity_start(r, occ, n_total):
    """log z where h >= 0: the smaller of two z that each hold at least N
    particles, the first moved 16 ulps of log1p(size/N) toward 0.  occ is
    the bare 1/r, which this overwrites.

    z = N/((N + size)*mean q) with q = 1/(1 + r): Jensen's inequality for
    the convex f(w) = w/(1 - w) gives count >= size*f(z*mean q) = N.  Its
    log, -log1p(-mean(1 - q)) - log1p(size/N), is formed so that neither
    q nor N/(N + size) rounds to 1: 1 - q = 1/(1 + occ).
    z = 1: the bare count that chose this phase.
    Jensen's bound is tight where the q are alike (as T grows, or on one
    level or degenerate ones at any T).  There rounding leaves the count at
    that log z a few ulps short of N: a few ulps of the larger log, which
    near the transition cancel to a far smaller log z.  The move covers that.
    The lowest level alone holding N bounds z more tightly only on sparse
    spectra such as levels 1 and 1000 (on one level it is this bound).
    """
    size = r.size
    occ += 1.0
    spread = np.add.reduce(np.reciprocal(occ, out=occ)) / size
    return min(-math.log1p(-spread) - math.log1p(size / n_total) * (1.0 - 2.0**-48), 0.0)


def _normal_phase_point(levels, r, occ, temperature, n_total):
    """The normal-phase point of the bare levels, solved in the workspace
    of solve_n0's bare count: r is read, and each evaluation writes its
    occupations into occ."""
    u = _fugacity_start(r, occ, n_total)
    for _ in range(FUGACITY_MAX_EVALUATIONS):
        _fugacity_occupations(u, r, out=occ)
        count = float(np.add.reduce(occ))
        h = math.log(count / n_total)
        # h'(u) = sum occ*(1 + occ) / count.
        step = h * count / (count + float(occ @ occ))
        if h <= FUGACITY_TOL or step <= FUGACITY_TOL * -u:
            return ThermoPoint(
                temperature=temperature, n0=0.0, lam=0.0,
                energy_excess=float(levels @ occ), iterations=0,
                converged=True, normal_phase=True, fugacity=math.exp(u),
            )
        u -= step
    raise ConvergenceError(
        f"normal-phase fugacity not converged in {FUGACITY_MAX_EVALUATIONS} Newton evaluations "
        f"(last step {step:.3g} in log z)", residual=count - n_total)


def energy_excess(levels, temperature):
    """E - E0 = sum_n eps_n/(exp(eps_n/T) - 1) at the given levels."""
    return float((levels * occupation(levels, temperature)).sum())


def _node_sums(rows, temperature):
    """The excited count and energy at each row of node levels, which
    _node_levels has checked positive, summed along each row by
    np.add.reduce: np.sum's pairwise sum without its wrapper, the same bits
    as wrapped_node_sums in tests/oracles.py."""
    occ = _bose(rows / temperature)
    counts = np.add.reduce(occ, axis=1)
    occ *= rows
    return counts, np.add.reduce(occ, axis=1)


def _table_sums(model, temperature, bare_count, tol):
    """(grid, counts, energies) at the nodes of the first grid of _GRIDS
    whose count tail is within max(tol, TOL_FLOOR)*N; None when none is, or
    the model's block of a grid it reaches (_blocks) is None."""
    limit = max(tol, TOL_FLOOR) * model.cfg.n_particles
    sums = None
    for grid, block in zip(_GRIDS, model._blocks()):
        if block is None:
            return None
        new = _node_sums(block, temperature)
        sums = new if sums is None else [np.concatenate(pair) for pair in zip(sums, new)]
        counts = sums[0]
        # Node 0 is lambda = 0: the count that chose this phase, so f(0) > 0
        # holds on the interpolant too.
        counts[0] = bare_count
        if np.add.reduce(np.abs(grid.tail @ counts)) <= limit:
            return grid, *sums
    return None


def solve_n0(model: SpectrumModel, temperature, tol=DEFAULT_TOL, *, workspace=None):
    """Self-consistent condensate occupation at one temperature.

    Finds the root of f(n0) = N - n0 - N_excited(lambda(n0)) on [0, N] to
    within tol*N, or TOL_FLOOR*N for a finer tol; N and lambda come from
    model.cfg.  f(N) = -N_excited
    <= 0, and when f(0) <= 0 (even n0 = 0 cannot accommodate N particles)
    the normal-phase extension is returned instead.

    At g = 0 the levels do not depend on n0, and the root is N minus that
    bare count, found without a root solve.  The levels of perturbative1
    (model.coupling_diagonal) are affine in n0, so f is concave: Newton's
    method with f'(n0) = -1 + (2g/T) sum c_nn*occ*(1 + occ), started at the
    g = 0 root (or at N where f' >= 0 there), falls monotonically to the
    root after its first step, and the energy is that of its last
    evaluation.  A slope that is not negative after the start (nan
    included) or a non-finite level at the root raises ConvergenceError.

    The dense kinds use Brent's method.  With a table (model.table)
    the excited count and energy at each node are formed once.  Both are
    traces over the levels, analytic in lambda through level crossings, so
    their interpolants in t = n0/N converge geometrically, and the last two
    Chebyshev coefficients of the count interpolant estimate its error
    (Chebfun's test: Trefethen, Approximation Theory and Approximation
    Practice, ch. 8).  On the first grid of model._blocks (17, 33, 65 or
    129 nodes) where they sum to at most max(tol, TOL_FLOOR)*N in magnitude,
    the root is found on that interpolant, whose node 0 is the bare count
    above, and the energy is interpolated; otherwise, and without a table,
    on direct levels.  Each point makes one root solve.

    The bare count is sum 1/r over r = expm1(eps/T), bit for bit the
    in-place kernel _bose, through which every other Bose sum goes; the
    normal phase solves on that r (see _normal_phase_point).  All of them
    run under one np.errstate(over="ignore") for the point.  The bare
    count's r and 1/r are the point's workspace: for ideal and
    perturbative1 the normal phase writes each evaluation's occupations
    over 1/r, and the Newton solve its levels over r and their occupations
    over 1/r, with a third buffer for its slope weight (_affine_root).
    workspace is those three float vectors of the model's size, which the
    call overwrites (sweep passes one per stripe of ideal and
    perturbative1); without it the call allocates its own.  The model
    keeps no buffer, so one model may serve solve_n0 on several threads.
    Raises UnstableSpectrumError when a level it sums is not positive: the
    bare levels (tested once per model, raised at each point), the direct
    levels of the dense kinds by excited_count, and nothing else, as the
    perturbative1 levels are at least the bare ones and the table rows were
    checked when built.  Raises ValueError for a temperature or tol that
    is not positive and finite.
    """
    _check_positive(temperature, "temperature")
    _check_positive(tol, "tol")
    cfg = model.cfg
    n_total = float(cfg.n_particles)

    ideal_levels = model.levels(0.0)
    if not model._bare_positive:
        _require_positive(ideal_levels)
    if workspace is None:
        # The Newton solve allocates its slope weight only where it runs.
        workspace = np.empty_like(ideal_levels), np.empty_like(ideal_levels), None
    r, occ, weight = workspace
    with np.errstate(over="ignore"):
        # r = expm1(eps/T): the bare count is sum 1/r, as _bose forms it,
        # and the normal phase solves on r itself.  r and occ = 1/r are the
        # point's workspace, which the later evaluations overwrite.
        np.divide(ideal_levels, temperature, out=r)
        np.expm1(r, out=r)
        np.reciprocal(r, out=occ)
        bare_count = float(np.add.reduce(occ))
        if bare_count >= n_total:
            return _normal_phase_point(ideal_levels, r, occ, temperature, n_total)

        if cfg.g == 0.0:
            # The levels do not depend on n0: f(n0) = N - n0 - bare_count.
            n0, calls = n_total - bare_count, 0
            energy = float(np.add.reduce(np.multiply(ideal_levels, occ, out=r)))
        elif model.coupling_diagonal is not None:
            n0, energy, calls = _affine_root(model, temperature, n_total, bare_count, tol,
                                             r, occ, weight)
        elif (sums := _table_sums(model, temperature, bare_count, tol)) is not None:
            grid, counts, energies = sums
            n0, calls = _brent_root(_interpolated_residual, (grid, counts, n_total),
                                    n_total, tol)
            energy = float(_interpolate(grid, energies, n0 / n_total))
        else:
            n0, calls = _brent_root(_direct_residual, (model, temperature, n_total),
                                    n_total, tol)
            energy = energy_excess(model.levels(n0), temperature)
    return ThermoPoint(temperature=temperature, n0=n0, lam=cfg.coupling_lambda(n0),
                       energy_excess=energy, iterations=calls, converged=True)


@dataclass
class ThermoCurve:
    """Temperature sweep of the self-consistent loop."""

    points: list
    config: TrapConfig

    def condensate_fractions(self):
        n = self.config.n_particles
        return np.array([p.n0 / n for p in self.points])


def _failed_point(temperature, exc):
    return ThermoPoint(
        temperature=temperature, n0=float("nan"), lam=float("nan"),
        energy_excess=float("nan"), iterations=0,
        converged=False, fail_reason=f"{type(exc).__name__}: {exc}",
    )


# The levels per temperature stripe of an ideal or perturbative1 sweep:
# size // MIN_STRIPE_LEVELS stripes at most, one thread each.  Timed on 2
# shared cores with one BLAS thread, serial time over two-stripe time on a 2D
# (1, sqrt 2) trap (200 temperatures; 100 at 56,910): 0.35 at 600 levels,
# 0.47 at 2,627, 0.60 at 5,194, 0.70-0.90 at 10,363, 0.98-1.28 at 20,569,
# 1.10-1.56 at 32,076 and 1.75 at 56,910; 1.3-1.6 on a 3D (1, 1, 1) trap at
# e_cut 60 (39,710 levels, 100 temperatures).  On smaller bases a point is
# too short for two threads that contend for the interpreter lock, so two
# stripes start at 32,000 levels, past the sizes where they did not always win.
MIN_STRIPE_LEVELS = 16_000


def sweep(cfg: TrapConfig, basis: BasisSet, t_grid, solver_kind="perturbative1",
          tol=DEFAULT_TOL):
    """One ThermoPoint per grid temperature, in grid order, each solved on
    its own by one call of the module-global solve_n0.

    A point whose solve raises a TrapBoseError is flagged as not converged
    on the returned curve, and the sweep goes on.  Raises ValueError when
    cfg and basis.config describe different traps.

    An ideal or perturbative1 sweep runs numpy's OpenBLAS on one thread
    throughout (_on_one_blas_thread): it holds _BLAS_LOCK, so a table build
    on another thread waits until it ends.  On a basis of at least
    2 * MIN_STRIPE_LEVELS states it splits the grid into interleaved
    stripes, t_grid[i::stripes], at most one per CPU (_cpu_count): stripe 0
    on the calling thread and the others on a pool, so that the costlier
    cold points spread over all of them.  Each stripe's points share one
    workspace (solve_n0), which ends with the stripe.  Each point is the
    serial sweep's bit for bit, as solve_n0 writes its workspace before it
    reads it and sets its error state on each thread.  With no OpenBLAS to
    set (_blas_threads is None) the sweep is one stripe on the BLAS as it is.
    When a point raises anything but a TrapBoseError, every other stripe
    stops before its next point, and the sweep re-raises it.  The dense
    kinds sweep on the calling thread, on the BLAS threads the process
    runs with, each point in its own workspace: their points are small
    eigen-solves and Brent steps on tables that _node_levels builds on one
    BLAS thread.
    """
    t_grid = [float(t) for t in t_grid]
    for temperature in t_grid:
        _check_positive(temperature, "all temperatures")
    _check_positive(tol, "tol")

    model = SpectrumModel(cfg, basis, kind=solver_kind)
    dense = solver_kind in _SECTOR_KINDS
    stripes = 1 if dense else max(1, min(len(t_grid), basis.size // MIN_STRIPE_LEVELS,
                                         _cpu_count() if _blas_threads() else 1))
    # Set when a stripe raises; one stripe needs none.
    stop = threading.Event() if stripes > 1 else None

    def stripe(temperatures):
        workspace = None if dense else tuple(np.empty(basis.size) for _ in range(3))
        points = []
        for temperature in temperatures:
            if stop is not None and stop.is_set():
                break
            try:
                point = solve_n0(model, temperature, tol=tol, workspace=workspace)
            except TrapBoseError as exc:
                point = _failed_point(temperature, exc)
            points.append(point)
        return points

    if dense:
        return ThermoCurve(points=stripe(t_grid), config=model.cfg)
    points = [None] * len(t_grid)
    parts = _on_one_blas_thread(stripe, [t_grid[i::stripes] for i in range(stripes)], stop)
    for i, part in enumerate(parts):
        points[i::stripes] = part
    return ThermoCurve(points=points, config=model.cfg)
