"""Limited-feedback multiuser MIMO downlink with zero-forcing beamforming.

Single-antenna users feed back quantized channel directions; the
transmitter zero-forces on whatever directions it has (true, memoryless-
quantized, or predictively tracked) and splits the power budget equally.
The per-user SINR is evaluated against the *true* channels, so feedback
error shows up as residual inter-user interference.  The experiment
driver compares perfect CSI, per-step memoryless random codebooks, and
the predictive tangent codec across an SNR grid and a set of normalized
Doppler values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ar1_from_innovations, bessel_j0, complex_gaussian, rng_stream
from .codebooks import ShapeGainCodebook, _nearest, best_packing, uniform_magnitude
from .codec import _encode_rows
from .geometry import _unit_rows
from .params import SCHEMES, SumRateConfig

__all__ = [
    "RankDeficientError",
    "CompositeChannel",
    "Beamformers",
    "SumRateResult",
    "SumRateConfig",
    "SumRateTableRow",
    "zf_beamformers",
    "per_user_sinr",
    "sum_rate",
    "evaluate_sum_rate",
    "default_gpc_codebook",
    "run_sumrate_experiment",
]

RANK_TOL = 1e-10
UNIT_COLUMN_TOL = 1e-12


class RankDeficientError(ArithmeticError):
    """Composite channel too close to rank deficient for zero-forcing."""


@dataclass(frozen=True)
class CompositeChannel:
    """Stacked user channel rows, shape (U, N_t) with U <= N_t."""

    rows: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rows, dtype=np.complex128).copy()
        if arr.ndim != 2 or arr.shape[0] < 1:
            raise ValueError(f"rows must have shape (U >= 1, N_t), got {arr.shape}")
        if arr.shape[0] > arr.shape[1]:
            raise ValueError(
                f"more users ({arr.shape[0]}) than transmit antennas ({arr.shape[1]})"
            )
        if not np.all(np.isfinite(arr.view(np.float64))):
            raise ValueError("channel rows must be finite")
        if np.any(np.linalg.norm(arr, axis=1) == 0.0):
            raise ValueError("channel rows must be nonzero")
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def users(self) -> int:
        return self.rows.shape[0]

    @property
    def n_t(self) -> int:
        return self.rows.shape[1]

    @property
    def gains(self) -> np.ndarray:
        """Per-user channel norms ||h_u||."""
        return np.linalg.norm(self.rows, axis=1)

    @property
    def directions(self) -> np.ndarray:
        """Unit-norm channel directions g_u, one per row."""
        return self.rows / self.gains[:, None]


@dataclass(frozen=True)
class Beamformers:
    """Unit-norm beamforming columns, shape (N_t, U)."""

    columns: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.columns, dtype=np.complex128).copy()
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ValueError(f"columns must have shape (N_t, U >= 1), got {arr.shape}")
        norms = np.linalg.norm(arr, axis=0)
        if np.any(np.abs(norms - 1.0) > UNIT_COLUMN_TOL):
            raise ValueError("beamforming columns must be unit norm")
        arr.setflags(write=False)
        object.__setattr__(self, "columns", arr)

    @property
    def users(self) -> int:
        return self.columns.shape[1]


def _zf_columns(h: np.ndarray) -> np.ndarray:
    """:func:`zf_beamformers` columns (..., N_t, U) for a stack of composite
    channels (..., U, N_t); any rank-deficient one raises.

    The receive model is y_u = h_u^H x, so the cross terms are nulled by the
    pseudoinverse of the conjugated rows.  One SVD h = U S V^H gives the rank
    guard (the last singular value) and V^T S^-1 U^T, formed as
    ``np.linalg.pinv(h.conj())`` forms it from the same SVD: the same bits
    whenever pinv keeps every singular value (condition number below 1e15).
    """
    u, s, vt = np.linalg.svd(h, full_matrices=False)
    smallest = s[..., -1]
    if np.any(smallest <= RANK_TOL):
        raise RankDeficientError(
            f"smallest singular value {np.min(smallest):.3e} <= {RANK_TOL:g}; "
            "zero-forcing needs a full-row-rank composite channel"
        )
    pinv = np.swapaxes(vt, -1, -2) @ ((1.0 / s)[..., None] * np.swapaxes(u, -1, -2))
    return pinv / np.linalg.norm(pinv, axis=-2, keepdims=True)


def zf_beamformers(channels: CompositeChannel) -> Beamformers:
    """Zero-forcing beamformers: normalized columns of the pseudoinverse.

    By construction h_u^H v_n = 0 for n != u when the composite matrix has
    full row rank; a smallest singular value at or below ``RANK_TOL``
    raises :class:`RankDeficientError` instead of amplifying noise.
    """
    return Beamformers(_zf_columns(channels.rows))


def _sinr_terms(rows: np.ndarray, columns: np.ndarray):
    """Per-user (||h||^2, |g^H v_u|^2, sum_{n != u} |g^H v_n|^2) for a
    stack of channel rows (..., U, N_t) and beamformer columns (..., N_t, U)."""
    gains = np.linalg.norm(rows, axis=-1)
    cross = np.abs((rows / gains[..., None]).conj() @ columns) ** 2
    signal = np.diagonal(cross, axis1=-2, axis2=-1)
    return gains**2, signal, cross.sum(axis=-1) - signal


def per_user_sinr(
    channels: CompositeChannel, beamformers: Beamformers, snr_db: float
) -> np.ndarray:
    """SINR per user at equal power allocation and unit noise variance.

    SINR_u = (P/U) ||h_u||^2 |g_u^H v_u|^2
             / (1 + (P/U) ||h_u||^2 sum_{n != u} |g_u^H v_n|^2)
    with P = 10^(snr_db / 10) split equally over the U streams.
    """
    if beamformers.users != channels.users:
        raise ValueError("beamformer count must match user count")
    power_per_user = 10.0 ** (float(snr_db) / 10.0) / channels.users
    a, signal, interference = _sinr_terms(channels.rows, beamformers.columns)
    return power_per_user * a * signal / (1.0 + power_per_user * a * interference)


def sum_rate(sinrs) -> float:
    """Sum of per-user rates log2(1 + SINR) in bits/s/Hz."""
    s = np.asarray(sinrs, dtype=np.float64)
    if np.any(s < 0.0) or not np.all(np.isfinite(s)):
        raise ValueError("SINR values must be finite and nonnegative")
    return float(np.log2(1.0 + s).sum())


@dataclass(frozen=True)
class SumRateResult:
    """Per-user SINRs and rates plus their sum for one channel use."""

    per_user_sinr: np.ndarray
    per_user_rate: np.ndarray
    sum_rate: float
    snr_db: float

    def __post_init__(self):
        sinr = np.asarray(self.per_user_sinr, dtype=np.float64)
        rate = np.asarray(self.per_user_rate, dtype=np.float64)
        if sinr.shape != rate.shape or sinr.ndim != 1:
            raise ValueError("per-user SINR and rate must be 1-D with equal length")
        if not math.isclose(self.sum_rate, float(rate.sum()), rel_tol=0.0, abs_tol=1e-9):
            raise ValueError("sum_rate must equal the sum of per-user rates")
        object.__setattr__(self, "per_user_sinr", sinr)
        object.__setattr__(self, "per_user_rate", rate)


def evaluate_sum_rate(
    channels: CompositeChannel, beamformers: Beamformers, snr_db: float
) -> SumRateResult:
    """Evaluate SINRs, rates, and sum rate for one channel use."""
    sinr = per_user_sinr(channels, beamformers, snr_db)
    rate = np.log2(1.0 + sinr)
    return SumRateResult(sinr, rate, float(rate.sum()), float(snr_db))


@dataclass(frozen=True)
class SumRateTableRow:
    """One aggregated cell of the sum-rate comparison table."""

    scheme: str
    snr_db: float
    fdts: float
    bits: int
    trial_count: int
    sum_rate_mean: float
    sum_rate_stderr: float


def default_gpc_codebook(config: SumRateConfig) -> ShapeGainCodebook:
    """Shape-gain codebook used by the ``gpc`` scheme: a best-of-random
    chordal packing for directions and uniform [0, 1] magnitude levels."""
    n_d = 1 << (config.bits - config.magnitude_bits)
    return ShapeGainCodebook(
        best_packing(config.n_t, n_d),
        uniform_magnitude(1 << config.magnitude_bits, 0.0, 1.0),
    )


def _window_mean_rates(true_steps, quantized_steps, powers_per_user, window):
    """Mean sum rate per trial and SNR, shape (trials, SNR).

    ``true_steps`` and ``quantized_steps`` are (trials * window, U, n)
    stacks with channel uses on axis 0, each trial's ``window`` uses
    consecutive; the quantized rows steer the zero-forcing beamformers while
    the true rows set the SINR.  Each trial's uses are summed in order, so
    its means have the bits they have when the trial is evaluated alone.
    """
    a, signal, interference = _sinr_terms(true_steps, _zf_columns(quantized_steps))
    pa = powers_per_user[:, None] * a[:, None]  # (uses, SNR, U)
    sinr = pa * signal[:, None] / (1.0 + pa * interference[:, None])
    rates = np.log2(1.0 + sinr).sum(axis=2).reshape(-1, window, len(powers_per_user))
    totals = np.zeros((len(rates), len(powers_per_user)))
    for use in range(window):
        totals += rates[:, use]  # use by use, in order: the totals' rounding depends on it
    return totals / window


def _perfect_csi_trial(config: SumRateConfig, trial: int):
    rng = rng_stream(config.seed, 0x50, trial)
    h = complex_gaussian(rng, (config.window, config.users, config.n_t))
    return h, h


def _memoryless_trial(config: SumRateConfig, trial: int):
    rng = rng_stream(config.seed, 0x3E, trial)
    h = complex_gaussian(rng, (config.window, config.users, config.n_t))
    quantized = np.empty_like(h)
    for u in range(config.users):
        cb_rng = rng_stream(config.seed, 0xCB, trial, u)
        raw = complex_gaussian(cb_rng, (1 << config.bits, config.n_t))
        codebook = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        directions = h[:, u, :] / np.linalg.norm(h[:, u, :], axis=1, keepdims=True)
        quantized[:, u, :] = codebook[_nearest(directions, codebook)[0]]
    return h, quantized


def _gpc_steps(config: SumRateConfig, codebook: ShapeGainCodebook):
    """For each Doppler value of ``config.fdts_grid`` in turn, the true and
    tracked (trials * window, U, n) stacks of the ``gpc`` scheme: all (trial,
    user) channels run through one AR(1) recursion over one innovation block,
    drawn once, and are tracked by one batch of codec sessions."""
    keys = [(trial, u) for trial in range(config.trials) for u in range(config.users)]
    shape = (config.steps, config.n_t)
    z = np.stack([complex_gaussian(rng_stream(config.seed, 0xA1, *k), shape) for k in keys], axis=1)
    shape = (config.trials, config.users, config.window, config.n_t)
    for fdts in config.fdts_grid:
        # (trials * users, steps, n), contiguous as the per-session traces were.
        raw = ar1_from_innovations(z, bessel_j0(2.0 * math.pi * fdts)).swapaxes(0, 1).copy()
        estimates = _encode_rows(_unit_rows(raw), codebook, "memoryless", reseed="memoryless").estimates
        yield tuple(
            np.ascontiguousarray(rows.reshape(shape).swapaxes(1, 2)).reshape(-1, *shape[1::2])
            for rows in (raw[:, config.discard :], estimates[:, config.discard - 2 :])
        )


def run_sumrate_experiment(
    config: SumRateConfig, codebook: ShapeGainCodebook | None = None
) -> tuple[SumRateTableRow, ...]:
    """Run the sum-rate comparison and return one aggregated row per
    (scheme, Doppler, SNR) cell.

    Every scheme shares its channel draws across the whole SNR grid, and
    the ``gpc`` scheme reuses one innovation block per (trial, user) across
    all Doppler values, so comparisons along those axes are paired.  The
    first ``config.discard`` channel uses of each trial are excluded to let
    the tracker converge past its memoryless initialization.  Rows for the
    Doppler-free schemes report ``fdts = 0.0``, and ``perfect_csi`` reports
    ``bits = 0``.
    """
    powers = np.array([10.0 ** (s / 10.0) / config.users for s in config.snr_db_grid])
    if codebook is None and "gpc" in config.schemes:
        codebook = default_gpc_codebook(config)
    if codebook is not None and codebook.n != config.n_t:
        raise ValueError(f"codebook dimension {codebook.n} does not match n_t {config.n_t}")

    gpc = _gpc_steps(config, codebook)  # draws nothing before its first step
    cells: list[SumRateTableRow] = []
    for scheme in config.schemes:
        fdts_values = config.fdts_grid if scheme == "gpc" else (0.0,)
        bits = 0 if scheme == "perfect_csi" else config.bits
        for fdts in fdts_values:
            if scheme == "gpc":
                steps = next(gpc)
            else:
                trial = _perfect_csi_trial if scheme == "perfect_csi" else _memoryless_trial
                steps = map(np.concatenate, zip(*(trial(config, t) for t in range(config.trials))))
            per_trial = _window_mean_rates(*steps, powers, config.window)
            mean = per_trial.mean(axis=0)
            stderr = per_trial.std(axis=0, ddof=1) / math.sqrt(config.trials)
            for i, snr_db in enumerate(config.snr_db_grid):
                cells.append(
                    SumRateTableRow(
                        scheme=scheme,
                        snr_db=float(snr_db),
                        fdts=float(fdts),
                        bits=bits,
                        trial_count=config.trials,
                        sum_rate_mean=float(mean[i]),
                        sum_rate_stderr=float(stderr[i]),
                    )
                )
    return tuple(cells)
