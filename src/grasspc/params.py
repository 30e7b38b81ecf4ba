"""Experiment parameters and their checks, on the standard library alone.

``grasspc.cli`` builds these objects while it validates a config, so
that a config error is reported before numpy is imported.  ``channel``
(``Ar1Params``, ``Ar2Params``), ``mumimo`` (``SumRateConfig``) and
``codebooks`` import them from here, and the package exports them under
those modules' names.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

#: The schemes the sum-rate experiment compares.
SCHEMES = ("perfect_csi", "memoryless_random", "gpc")

#: Trapezoid nodes for J0's integral form, used beyond |x| = 8.
_J0_NODES = 64


def _count(name: str, value) -> int:
    """An integer argument (a count, size or seed) as an int: Python and
    numpy integers pass, anything else (a float such as 4.0 included) is a
    ValueError naming ``name``, rather than being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _int_fields(obj, *names: str):
    """Store the named fields of a frozen dataclass as ints, by :func:`_count`."""
    for name in names:
        object.__setattr__(obj, name, _count(name, getattr(obj, name)))


def _is_pow2(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


def _j0(x: float) -> float:
    x = abs(x)
    if x <= 8.0:
        # The power series sum_k (-x^2/4)^k / (k!)^2, in + - * / only, so the
        # value is the same on every IEEE 754 platform.  Past the largest
        # term the terms shrink, and once one no longer moves the total the
        # rest cannot either.
        q = -0.25 * x * x
        term = total = 1.0
        k = 0
        while True:
            k += 1
            term = term * q / (k * k)
            if total + term == total:
                return total
            total = total + term
    # J0(x) = (1/pi) int_0^pi cos(x sin t) dt: the trapezoid rule on this
    # periodic integrand errs by about J_{2N}(x), far below 1e-16 for x <= 20.
    total = 0.0
    for j in range(_J0_NODES):
        total += math.cos(x * math.sin(j * math.pi / _J0_NODES))
    return total / _J0_NODES


@dataclass(frozen=True)
class Ar1Params:
    """First-order model h[k] = alpha h[k-1] + sqrt(1 - alpha^2) z[k].

    ``beta`` is the normalized Doppler f_D T_s; alpha = J0(2 pi beta).
    """

    n: int
    beta: float
    steps: int
    seed: int

    def __post_init__(self):
        _int_fields(self, "n", "steps", "seed")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.beta < 0.0 or not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if self.steps < 3:
            raise ValueError(f"need steps >= 3, got {self.steps}")

    @property
    def alpha(self) -> float:
        a = _j0(float(2.0 * math.pi * self.beta))
        if not -1.0 < a <= 1.0:
            raise ValueError(f"lag-1 coefficient {a} outside (-1, 1]")
        return a


@dataclass(frozen=True)
class Ar2Params:
    """Second-order model h[k] = a1 h[k-1] + a2 h[k-2] + noise_std z[k].

    ``noise_std`` is an explicit parameter rather than a function of the
    coefficients: the classic unit-variance scaling sqrt(1 - a1^2 - a2^2)
    is imaginary for strongly correlated coefficient pairs such as
    (0.9, 0.75), so the innovation scale must be supplied.
    """

    n: int
    a1: float
    a2: float
    noise_std: float
    steps: int
    seed: int

    def __post_init__(self):
        _int_fields(self, "n", "steps", "seed")
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if self.steps < 3:
            raise ValueError(f"need steps >= 3, got {self.steps}")
        if self.noise_std < 0.0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        for name in ("a1", "a2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class SumRateConfig:
    """Settings for the sum-rate comparison experiment."""

    n_t: int = 4
    users: int = 4
    bits: int = 9
    magnitude_bits: int = 3
    snr_db_grid: tuple = (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    fdts_grid: tuple = (0.001, 0.01, 0.02, 0.04)
    schemes: tuple = SCHEMES
    trials: int = 500
    steps: int = 60
    discard: int = 20
    seed: int = 0

    def __post_init__(self):
        _int_fields(self, "n_t", "users", "bits", "magnitude_bits", "trials", "steps", "discard", "seed")
        if self.n_t < 2:
            raise ValueError(f"n_t must be >= 2, got {self.n_t}")
        if not 1 <= self.users <= self.n_t:
            raise ValueError(f"need 1 <= users <= n_t={self.n_t}, got {self.users}")
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown or not self.schemes:
            raise ValueError(f"schemes must be a nonempty subset of {SCHEMES}, got {self.schemes}")
        if "gpc" in self.schemes and self.bits <= self.magnitude_bits:
            raise ValueError(
                f"bits ({self.bits}) must exceed magnitude_bits ({self.magnitude_bits}) "
                "to leave at least one direction bit"
            )
        if self.bits < 1 or self.magnitude_bits < 0:
            raise ValueError("bits must be >= 1 and magnitude_bits >= 0")
        if not self.snr_db_grid or not all(math.isfinite(s) for s in self.snr_db_grid):
            raise ValueError("snr_db_grid must be nonempty and finite")
        if "gpc" in self.schemes and (not self.fdts_grid or min(self.fdts_grid) <= 0.0):
            raise ValueError("fdts_grid must be nonempty and positive")
        if self.trials < 2:
            raise ValueError("trials must be >= 2 to report a standard error")
        if self.discard < 2:
            raise ValueError("discard must be >= 2 (the tracker needs two seed steps)")
        if self.steps <= self.discard:
            raise ValueError(f"steps ({self.steps}) must exceed discard ({self.discard})")

    @property
    def window(self) -> int:
        """Number of measured channel uses per trial."""
        return self.steps - self.discard
