"""Seeded generation of temporally correlated vector channel traces.

Two models are provided: a first-order autoregression whose lag-1
coefficient follows the Clarke/Jakes value J0(2 pi f_D T_s), and a
second-order autoregression with explicit coefficients and noise scale.
Traces carry both the raw vectors and their normalized projections onto
G(n, 1); all randomness flows through named Philox substreams so that any
(seed, stream id) pair reproduces bit-identically on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import UNIT_NORM_TOL, GrassmannPoint, _cols, _sqnorm
from .params import Ar1Params, Ar2Params, _count, _j0

__all__ = [
    "Ar1Params",
    "Ar2Params",
    "ChannelTrace",
    "bessel_j0",
    "rng_stream",
    "complex_gaussian",
    "gen_ar1",
    "ar1_from_innovations",
    "gen_ar2",
    "save_trace",
    "load_trace",
]

# Raw AR(2) vectors are stored saturated at this log-magnitude when the
# recursion is unstable and the true magnitude leaves float64 range.
_LOG_CLAMP = 700.0


def bessel_j0(x):
    """Bessel function of the first kind J0, elementwise, float64.

    Absolute error is below 1e-13 on [0, 20].  For |x| <= 8, which covers
    every Doppler value the experiments use, the value is computed with
    + - * / only and so does not depend on the platform's libm.
    """
    if np.ndim(x) == 0:
        return _j0(float(x))
    arr = np.asarray(x, dtype=np.float64)
    return np.array([_j0(v) for v in arr.ravel().tolist()]).reshape(arr.shape)


def rng_stream(seed: int, *key: int) -> np.random.Generator:
    """Named, splittable generator: Philox keyed by (seed, *key).

    Distinct key tuples give statistically independent streams; the same
    tuple reproduces the identical stream everywhere.
    """
    key = tuple(_count("key", k) for k in key)
    ss = np.random.SeedSequence(entropy=_count("seed", seed), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """Circularly symmetric CN(0, 1) entries: variance 1/2 per real part."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


@dataclass
class ChannelTrace:
    """A generated trace: raw vectors plus their normalized directions.

    ``raw`` has shape (steps, n) and ``normalized`` matches it row for row
    with unit-norm entries.  For an unstable AR(2) recursion the raw rows
    saturate once the true magnitude leaves float64 range; the normalized
    rows are always exact.
    """

    raw: np.ndarray
    normalized: np.ndarray

    def __post_init__(self):
        self.raw = np.asarray(self.raw, dtype=np.complex128)
        self.normalized = np.asarray(self.normalized, dtype=np.complex128)
        if self.raw.shape != self.normalized.shape or self.raw.ndim != 2 or self.raw.shape[1] < 2:
            raise ValueError("raw and normalized must share shape (steps, n >= 2)")
        _check_unit_rows(self.normalized)

    def __len__(self) -> int:
        return self.raw.shape[0]

    @property
    def n(self) -> int:
        return self.raw.shape[1]

    @cached_property
    def points(self) -> tuple[GrassmannPoint, ...]:
        # The rows of one checked copy, adopted without a per-point check.
        rows = _check_unit_rows(self.normalized.copy())
        return tuple(GrassmannPoint._wrap(row) for row in rows)

    @property
    def gains(self) -> np.ndarray:
        """Per-step raw magnitudes ||h[k]||."""
        return np.linalg.norm(self.raw, axis=1)


def _check_unit_rows(rows: np.ndarray) -> np.ndarray:
    """``rows``, if every one is finite and unit norm within ``UNIT_NORM_TOL``."""
    norms = np.sqrt(_sqnorm(rows.real.T, rows.imag.T))
    if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):
        raise ValueError("normalized rows must be finite and unit norm")
    return rows


def _normalize_rows(h: np.ndarray) -> np.ndarray:
    """Complex rows (..., n) over their norms.  The norms sum left to right,
    so no SIMD loop changes them; the division is numpy's complex one, whose
    bits real division (as in ``geometry._unit_rows``) would not keep."""
    norms = np.sqrt(_sqnorm(np.moveaxis(h.real, -1, 0), np.moveaxis(h.imag, -1, 0)))
    if np.any(norms == 0.0):
        raise ArithmeticError("degenerate all-zero channel vector in trace")
    return h / norms[..., None]


def ar1_from_innovations(z: np.ndarray, alpha: float) -> np.ndarray:
    """Run the AR(1) recursion on pre-drawn CN(0,1) innovations.

    h[0] = z[0] and h[k] = alpha h[k-1] + sqrt(1 - alpha^2) z[k].  Exposed
    separately so that experiments can couple traces across different
    Doppler values by reusing one innovation block.
    """
    z = np.asarray(z, dtype=np.complex128)
    scale = np.sqrt(max(0.0, 1.0 - alpha * alpha))
    h = np.concatenate([z[:1], scale * z[1:]], axis=0)
    for k in range(1, h.shape[0]):
        h[k] += alpha * h[k - 1]
    return h


def gen_ar1(params: Ar1Params) -> ChannelTrace:
    """Generate a stationary AR(1) trace; same params give identical bits."""
    return _ar1_traces(params, _innovations(params, (params.seed,)))[0]


def _innovations(params: Ar1Params, seeds) -> np.ndarray:
    """The CN(0, 1) innovations of ``params``'s traces at ``seeds`` (not its
    own seed), stacked (steps, len(seeds), n).  They do not depend on beta."""
    shape = (params.steps, params.n)
    return np.stack([complex_gaussian(rng_stream(seed), shape) for seed in seeds], axis=1)


def _ar1_traces(params: Ar1Params, z: np.ndarray) -> list[ChannelTrace]:
    """The traces of ``params`` over stacked innovations ``z`` (from
    :func:`_innovations`), from one recursion, normalized in one call.  Both
    are elementwise (the normalization row by row), so every trace has the
    bits it has when its seed is generated alone."""
    raws = ar1_from_innovations(z, params.alpha).swapaxes(0, 1).copy()
    units = _normalize_rows(raws)
    return [ChannelTrace(raw=raw, normalized=unit) for raw, unit in zip(raws, units)]


def gen_ar2(params: Ar2Params) -> ChannelTrace:
    """Generate an AR(2) trace, stable against explosive coefficient pairs.

    The recursion is evaluated with its common magnitude tracked in log
    domain, so the normalized sequence is exact even when the dominant
    characteristic root exceeds 1 and the literal vectors would overflow
    after a few thousand steps.
    """
    rng = rng_stream(params.seed)
    z = complex_gaussian(rng, (params.steps, params.n))
    raw = np.empty_like(z)
    normalized = np.empty_like(z)
    raw[0], raw[1] = z[0], z[1]
    normalized[:2] = _normalize_rows(z[:2])
    s2, s1 = z[0], z[1]  # rescaled (h[k-2], h[k-1]) sharing the scale e^L
    log_scale = 0.0
    for k in range(2, params.steps):
        noise_gain = np.exp(-log_scale) if log_scale < _LOG_CLAMP else 0.0
        u = params.a1 * s1 + params.a2 * s2 + (params.noise_std * noise_gain) * z[k]
        c = math.sqrt(_sqnorm(*_cols(u)))
        if c == 0.0:
            raise ArithmeticError(f"AR(2) state collapsed to zero at step {k}")
        raw[k] = u * np.exp(min(log_scale, _LOG_CLAMP))
        normalized[k] = u / c
        s2 = s1 / c
        s1 = u / c
        log_scale += np.log(c)
    return ChannelTrace(raw=raw, normalized=normalized)


def save_trace(trace: ChannelTrace, path, *, model: str, seed: int, extra: dict | None = None):
    """Write a trace as CSV: one row per step, 2n columns (re, im interleaved).

    The single header line carries provenance: n, model name, seed, and any
    extra key=value pairs.
    """
    fields = {"n": trace.n, "model": model, "seed": seed}
    if extra:
        fields.update(extra)
    header = " ".join(f"{k}={v}" for k, v in fields.items())
    flat = np.empty((len(trace), 2 * trace.n), dtype=np.float64)
    flat[:, 0::2] = trace.raw.real
    flat[:, 1::2] = trace.raw.imag
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {header}\n")
        for row in flat:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_trace(path) -> ChannelTrace:
    """Read a trace written by :func:`save_trace`, validating the header."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("# ") or "=" not in header:
            raise ValueError(f"{path}: missing trace header line")
        fields = dict(kv.split("=", 1) for kv in header[2:].split())
        if "n" not in fields:
            raise ValueError(f"{path}: header does not declare n")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    n = int(fields["n"])
    if data.size == 0 or data.shape[1] != 2 * n:
        raise ValueError(f"{path}: expected 2n = {2 * n} columns, got {data.shape[1:]}")
    raw = data[:, 0::2] + 1j * data[:, 1::2]
    return ChannelTrace(raw=raw, normalized=_normalize_rows(raw))
