"""Truncated oscillator basis and assembly of the quadratic-Hamiltonian matrices.

The excited states of the D-dimensional harmonic oscillator are enumerated
under an energy cutoff; the interaction enters through the overlap
coefficients c_mn (coupling matrix C) and d_n (source vector d), which obey
a per-dimension parity selection rule.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .config import TrapConfig
from .errors import EmptyBasisError, IndexTooLargeError

# Largest quantum number per dimension accepted by the quadrature oracle.
ORACLE_MAX_INDEX = 40


def oscillator_energy(n, cfg: TrapConfig):
    """Excitation energy hbar*(omega_1*n_1 + ... + omega_D*n_D).

    Measured from the ground state: the zero-point offset is excluded.
    """
    return cfg.hbar * sum(w * k for w, k in zip(cfg.frequencies, n))


@dataclass(frozen=True)
class BasisSet:
    """Ordered excited-state basis: all n != 0 with energy <= cutoff.

    Ordering is (energy, lexicographic tuple), so two runs with identical
    inputs enumerate identically.
    """

    states: tuple
    cutoff: float
    config: TrapConfig

    @property
    def size(self):
        return len(self.states)

    def energies(self):
        """Vector of excitation energies, in basis order."""
        return np.array([oscillator_energy(n, self.config) for n in self.states])


def enumerate_basis(cfg: TrapConfig, e_cut):
    """All excited multi-indices with oscillator_energy <= e_cut.

    Raises EmptyBasisError when not even the first excited state fits.
    """
    max_per_dim = [int(math.floor(e_cut / (cfg.hbar * w) + 1e-12)) for w in cfg.frequencies]
    states = []
    for n in itertools.product(*(range(m + 1) for m in max_per_dim)):
        if all(k == 0 for k in n):
            continue
        if oscillator_energy(n, cfg) <= e_cut:
            states.append(n)
    if not states:
        raise EmptyBasisError(
            f"no excited state below e_cut={e_cut} "
            f"(first level at {cfg.hbar * min(cfg.frequencies)})"
        )
    states.sort(key=lambda n: (oscillator_energy(n, cfg), n))
    return BasisSet(states=tuple(states), cutoff=float(e_cut), config=cfg)


def _log_prefactor(cfg: TrapConfig):
    # (m*omega/2 pi^2 hbar)^(D/2) with omega the geometric-mean frequency;
    # identical to prod_j (m*omega_j / 2 pi^2 hbar)^(1/2).
    return 0.5 * cfg.dimension * math.log(
        cfg.mass * cfg.omega_mean / (2.0 * math.pi**2 * cfg.hbar)
    )


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
    basis: BasisSet

    @property
    def size(self):
        return self.energies.shape[0]

    def energy_matrix(self):
        return np.diag(self.energies)


def diagonal_coupling(basis: BasisSet, cfg: TrapConfig):
    """Vector of diagonal elements c_nn (always positive).

    Cheap path for the first-order level formula; avoids the full matrix.
    """
    return np.array([coupling_coefficient(n, n, cfg) for n in basis.states])


def build_matrices(basis: BasisSet, cfg: TrapConfig, n0):
    """Assemble SystemMatrices for condensate occupation n0."""
    if basis.size == 0:
        raise EmptyBasisError("basis is empty")
    if not 0.0 <= n0 <= cfg.n_particles:
        raise ValueError(f"n0={n0} outside [0, N={cfg.n_particles}]")
    size = basis.size
    energies = basis.energies()
    coupling = np.zeros((size, size))
    for i in range(size):
        for j in range(i, size):
            value = coupling_coefficient(basis.states[i], basis.states[j], cfg)
            coupling[i, j] = value
            coupling[j, i] = value
    source = np.array([source_coefficient(n, cfg) for n in basis.states])
    return SystemMatrices(
        energies=energies,
        coupling=coupling,
        source=source,
        lam=cfg.coupling_lambda(n0),
        basis=basis,
    )


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


def quadrature_oracle_element(m, n, cfg: TrapConfig):
    """Overlap integral of phi_m * phi_n * phi_0^2 by Gauss-Hermite quadrature.

    Independent cross-check for coupling_coefficient / source_coefficient:
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
        nodes, weights = np.polynomial.hermite.hermgauss(order)
        xi = nodes / math.sqrt(2.0)
        psi = _hermite_functions(max(mj, nj), xi)
        # The four Gaussian envelopes combine to exp(-2 xi^2) = exp(-u^2),
        # absorbed by the quadrature weight after u = sqrt(2) xi.
        integrand = psi[mj] * psi[nj] * psi[0] ** 2
        alpha = math.sqrt(cfg.mass * w / cfg.hbar)
        result *= alpha / math.sqrt(2.0) * float(np.dot(weights, integrand))
    return result
