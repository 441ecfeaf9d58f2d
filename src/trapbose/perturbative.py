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

import ctypes
import functools
import glob
import os
from concurrent.futures import ThreadPoolExecutor
from math import prod

import numpy as np

from .basis import SystemMatrices
from .errors import ComplexSpectrumError, ConvergenceError

IMAG_TOL = 1e-8

# The least work, in matrices times m^3 over the stacks, that one node chunk
# of a split eigen-solve gets.  Timed on 2 shared cores with one BLAS thread,
# on 1D tables (17 nodes, two sectors of size m): two chunks were slower than
# one call up to m = 25 and faster from m = 30 for perturbative2, and from
# m = 35 for riccati, whose A and B count as two matrices.  2**20 splits
# them from m = 40 and m = 32 (p2-1d has m = 60, riccati-1d m = 7).
MIN_CHUNK_WORK = 2**20


@functools.cache
def _blas_thread_getter():
    """openblas_get_num_threads of the OpenBLAS that a numpy wheel bundles in
    numpy.libs, which numpy.linalg and matmul call; None when there is none
    (numpy built on another BLAS, or installed another way)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return getattr(lib, symbol)
    return None


def _blas_threads():
    """The threads numpy's BLAS runs now, as the library reports them, or
    None when it cannot be asked."""
    getter = _blas_thread_getter()
    return None if getter is None else getter()


def _cpu_count():
    """The CPUs node chunks may use: all those this process may run on when
    numpy's BLAS runs one thread, and 1 otherwise (more BLAS threads, or a
    BLAS that cannot be asked).  Node chunks on the CPUs that a
    multithreaded BLAS also uses are slower than one call: on 2 cores, the
    perturbative2 table of 1D e_cut 400 took 780 ms in two chunks and 680 ms
    in one with two BLAS threads, and 320 ms and 600 ms with one."""
    if _blas_threads() != 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _on_node_chunks(function, *stacks):
    """function(*stacks) -- a list of arrays, each with the leading (node)
    axis the stacks share -- solved on contiguous chunks of that axis at once.

    The table's stacks are (p, k, m, m), one batch of matrices per lambda
    node, and no node depends on another; LAPACK and BLAS solve each matrix
    on its own, so the joined result is bit for bit that of one call.  The
    chunk count is min(CPUs, p, work // MIN_CHUNK_WORK), with the CPUs of
    _cpu_count and work the matrix count times m^3; below 2 (a levels call
    has p = 1) function runs here with no thread.  Otherwise a pool made
    for this call, and shut down before it returns, solves all chunks but
    the first, which the calling thread solves; a pool kept between calls
    would not survive a fork.  Each chunk runs under the caller's numpy
    error state, which a worker thread does not inherit.  When a chunk
    raises, function(*stacks) runs again here in one call, so that the
    exception is the one a single call raises: a single call solves each
    stack over all nodes before the next, and a chunk may fail first in a
    later stack.  Checks that compare nodes belong to the caller, on the
    joined result.
    """
    p = stacks[0].shape[0] if stacks[0].ndim > 2 else 1
    chunks = 1
    if p > 1 and all(s.ndim > 2 and s.shape[0] == p for s in stacks):
        work = sum(prod(s.shape[:-2]) * s.shape[-1] ** 3 for s in stacks)
        chunks = min(p, work // MIN_CHUNK_WORK)
        if chunks > 1:
            chunks = min(chunks, _cpu_count())
    if chunks < 2:
        return function(*stacks)
    bounds = [-(-p * i // chunks) for i in range(chunks + 1)]
    state = np.geterr()

    def solve(lo, hi):
        with np.errstate(**state):
            return function(*(s[lo:hi] for s in stacks))

    with ThreadPoolExecutor(chunks - 1) as pool:
        futures = [pool.submit(solve, lo, hi) for lo, hi in zip(bounds[1:-1], bounds[2:])]
        try:
            parts = [solve(bounds[0], bounds[1])] + [f.result() for f in futures]
        except Exception:
            parts = None
    if parts is None:
        return function(*stacks)
    return [np.concatenate(column) for column in zip(*parts)]


def _einv_apply(energies, mat):
    # Einv is diagonal: row scaling, never an explicit inverse matrix product.
    return mat / energies[..., :, None]


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


def _eigvals(*stacks):
    return [np.linalg.eigvals(mat) for mat in stacks]


def real_eigenvalues(*stacks):
    """Real eigenvalues of one or more (generally non-symmetric) matrices,
    each given alone or as a (..., m, m) stack: one (..., m) array per
    argument, sorted along its last axis.

    Stacks that share a leading (node) axis and hold enough work are solved
    in node chunks on threads when numpy's BLAS runs one thread
    (_on_node_chunks); the eigenvalues, and the error when a node fails,
    are those of one call.  Raises ComplexSpectrumError when max|Im| exceeds
    IMAG_TOL * max|Re|, both over all eigenvalues of all stacks, which
    signals a coupling beyond the perturbative regime, and ConvergenceError
    when the eigen-solve fails.
    """
    try:
        eigenvalues = _on_node_chunks(
            _eigvals, *(np.asarray(mat, dtype=float) for mat in stacks))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigenvalue solve failed: {exc}") from exc
    scale = max(np.max(np.abs(w.real)) for w in eigenvalues)
    max_imag = max(np.max(np.abs(w.imag)) for w in eigenvalues)
    if max_imag > IMAG_TOL * scale:
        raise ComplexSpectrumError(
            f"max |Im eigenvalue| = {max_imag:.3e} exceeds {IMAG_TOL} * {scale:.3e}"
        )
    return [np.sort(w.real, axis=-1) for w in eigenvalues]


def constraint_residual(x, y):
    """Max-norm of X^2 - Y^2 - I."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.max(np.abs(x @ x - y @ y - np.eye(x.shape[0]))))
