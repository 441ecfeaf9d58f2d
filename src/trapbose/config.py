"""Physical configuration of the trapped Bose gas."""

import math
from dataclasses import dataclass

from .errors import ConfigError


def require_finite(*pairs):
    """ConfigError naming the first config key whose value is nan or
    infinite, or an integer beyond the float range."""
    for key, value in pairs:
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ConfigError(f"{key} must be finite as a float, got an integer "
                              f"of {value.bit_length()} bits") from None
        if not finite:
            raise ConfigError(f"{key} must be finite, got {value}")


@dataclass(frozen=True)
class TrapConfig:
    """Parameters of one model instance: D-dimensional harmonic trap with
    contact interaction g*delta(x) among N bosons of mass m.

    Frequencies are in oscillator units; with the defaults
    (hbar = omega = 1, m = 2*pi^2, N = 1000, g = 0.0002) the matrix-element
    prefactor (m*omega / 2*pi^2*hbar)^(D/2) equals one.
    """

    dimension: int = 1
    frequencies: tuple = (1.0,)
    mass: float = 2.0 * math.pi**2
    hbar: float = 1.0
    g: float = 2e-4
    n_particles: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "frequencies", tuple(map(float, self.frequencies)))
        require_finite(("g", self.g), ("mass", self.mass), ("hbar", self.hbar),
                        ("n_particles", self.n_particles),
                        *[("omega", w) for w in self.frequencies])
        if self.dimension < 1:
            raise ConfigError(f"dimension must be >= 1, got {self.dimension}")
        if len(self.frequencies) != self.dimension:
            raise ConfigError(
                f"expected {self.dimension} frequencies, got {len(self.frequencies)}"
            )
        if min(self.frequencies) <= 0.0:
            raise ConfigError("all trap frequencies must be positive")
        if self.mass <= 0.0:
            raise ConfigError("mass must be positive")
        if self.hbar <= 0.0:
            raise ConfigError("hbar must be positive")
        for w in self.frequencies:
            if self.hbar * w == 0.0:
                raise ConfigError(f"omega = {w} with hbar = {self.hbar} gives a level "
                                  f"spacing hbar*omega that underflows to 0")
        if self.g < 0.0:
            raise ConfigError("interaction strength g must be >= 0")
        if self.n_particles < 1:
            raise ConfigError("n_particles must be >= 1")

    @property
    def omega_mean(self):
        """Geometric-mean frequency (omega_1 ... omega_D)^(1/D)."""
        log_sum = sum(map(math.log, self.frequencies))
        return math.exp(log_sum / self.dimension)

    def coupling_lambda(self, n0):
        """Effective coupling lambda = g*N0/2 at condensate occupation n0."""
        return 0.5 * self.g * n0
