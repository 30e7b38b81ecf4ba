"""Closed-form distortion bounds and scalar performance metrics.

All bound functions are deterministic closed forms on G(n, 1) with the
chordal metric: metric-ball volume, in-ball mean squared distance, the
fixed-rate memoryless quantization lower bound, and the annular-sector
lower/upper bounds for the shape-gain predictive quantizer.  The metric
helpers convert error sequences into the reported decibel figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codebooks import DirectionCodebook, ShapeGainCodebook, _nearest
from .params import _count

__all__ = [
    "DistortionBounds",
    "ball_volume",
    "ball_normalized_distortion",
    "codebook_spacings",
    "gpc_distortion_bounds",
    "memoryless_lower_bound",
    "gpc_bound_reduction",
    "closed_loop_gain",
    "closed_loop_gain_db",
    "mse_db",
    "memoryless_squared_errors",
]


@dataclass(frozen=True)
class DistortionBounds:
    """Lower/upper mean-squared-distortion bounds plus the codebook
    spacings that generated them."""

    lower: float
    upper: float
    gamma_lower: float
    lambda_upper: float

    def __post_init__(self):
        if not 0.0 <= self.lower <= self.upper:
            raise ValueError(f"need 0 <= lower <= upper, got {self.lower}, {self.upper}")
        if self.gamma_lower > self.lambda_upper:
            raise ValueError("gamma_lower cannot exceed lambda_upper")


def _check_n(n: int) -> int:
    if _count("n", n) < 2:
        raise ValueError(f"n must be >= 2, got {n!r}")
    return int(n)


def ball_volume(n: int, delta: float) -> float:
    """Normalized volume of a chordal metric ball of radius delta on G(n,1):
    delta^(2(n-1))."""
    n = _check_n(n)
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta must lie in [0, 1], got {delta!r}")
    return float(delta) ** (2 * (n - 1))


def ball_normalized_distortion(n: int, gamma: float) -> float:
    """Mean squared chordal distance of a volume-uniform point in a radius-
    gamma ball: ((n-1)/n) * gamma^2."""
    n = _check_n(n)
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma!r}")
    return (n - 1) / n * float(gamma) ** 2


def codebook_spacings(codebook: ShapeGainCodebook) -> tuple[float, float, float, float]:
    """(gamma_d, gamma_m, lambda_d, lambda_m): min/max pairwise chordal
    distance over direction codewords and min/max absolute difference over
    magnitude codewords.  Requires at least two codewords on each side."""
    dists = codebook.directions.pairwise_chordal()
    if codebook.directions.size < 2 or codebook.magnitudes.size < 2:
        raise ValueError("spacings need at least two codewords on each side")
    off = ~np.eye(codebook.directions.size, dtype=bool)
    gamma_d = float(dists[off].min())
    lambda_d = float(dists[off].max())
    m = codebook.magnitudes.entries
    diffs = np.abs(m[None, :] - m[:, None])[~np.eye(m.size, dtype=bool)]
    return gamma_d, float(diffs.min()), lambda_d, float(diffs.max())


def gpc_distortion_bounds(n: int, codebook: ShapeGainCodebook) -> DistortionBounds:
    """Annular-sector distortion bounds for a shape-gain tangent codebook.

    lower = ((n-1)/n)(gamma_lower/2)^2 and upper = ((n-1)/n)(lambda_upper/2)^2
    with gamma_lower = min(gamma_d, gamma_m), lambda_upper = max(lambda_d,
    lambda_m): the radii of the ball inscribed in the smallest annular
    sector and of the ball covering the largest one.
    """
    n = _check_n(n)
    if n != codebook.n:
        raise ValueError(f"n = {n} does not match codebook dimension {codebook.n}")
    gamma_d, gamma_m, lambda_d, lambda_m = codebook_spacings(codebook)
    gamma_lower = min(gamma_d, gamma_m)
    lambda_upper = max(lambda_d, lambda_m)
    return DistortionBounds(
        lower=ball_normalized_distortion(n, min(gamma_lower / 2.0, 1.0)),
        upper=ball_normalized_distortion(n, min(lambda_upper / 2.0, 1.0)),
        gamma_lower=gamma_lower,
        lambda_upper=lambda_upper,
    )


def memoryless_lower_bound(n: int, size: int) -> float:
    """Fixed-rate quantization lower bound on G(n,1):
    ((n-1)/n) * size^(-1/(n-1))."""
    n, size = _check_n(n), _count("size", size)
    if size < 1:
        raise ValueError(f"codebook size must be >= 1, got {size}")
    return (n - 1) / n * float(size) ** (-1.0 / (n - 1))


def gpc_bound_reduction(n: int, n_d: int) -> float:
    """Predictive-coding lower bound when the direction spacing dominates:
    (1/4)((n-1)/n) * memoryless_lower_bound(n, N_d) — strictly below the
    memoryless bound at the same codebook size for every n >= 2."""
    return 0.25 * (_check_n(n) - 1) / n * memoryless_lower_bound(n, n_d)


def closed_loop_gain(prediction_errors) -> float:
    """Reciprocal of the mean squared chordal prediction error (linear
    scale); infinity when every error is zero."""
    e = np.asarray(prediction_errors, dtype=np.float64)
    if e.size == 0:
        raise ValueError("need at least one prediction error")
    mean_sq = float(np.mean(e * e))
    return math.inf if mean_sq == 0.0 else 1.0 / mean_sq


def closed_loop_gain_db(prediction_errors) -> float:
    """closed_loop_gain reported as 10*log10 (dB); infinite for all-zero
    errors."""
    g = closed_loop_gain(prediction_errors)
    return math.inf if math.isinf(g) else 10.0 * math.log10(g)


def mse_db(errors) -> float:
    """10*log10 of the mean squared error of a sequence of (non-squared)
    chordal errors; negative infinity when every error is zero."""
    e = np.asarray(errors, dtype=np.float64)
    if e.size == 0:
        raise ValueError("need at least one error value")
    mean_sq = float(np.mean(e * e))
    return -math.inf if mean_sq == 0.0 else 10.0 * math.log10(mean_sq)


def memoryless_squared_errors(rows: np.ndarray, codebook: DirectionCodebook) -> np.ndarray:
    """Squared chordal error of nearest-codeword quantization for a batch
    of unit rows, evaluated in one matrix pass."""
    rows = np.asarray(rows, dtype=np.complex128)
    if rows.ndim != 2 or rows.shape[1] != codebook.n:
        raise ValueError(f"rows must have shape (steps, {codebook.n})")
    return _nearest(rows, codebook.entries)[1]
