"""Predictive encoder/decoder on the Grassmannian of complex lines.

Both ends keep the same three-point state (previous estimate, current
estimate, one-step prediction) and repeat one update per step: the encoder
quantizes the observation's error tangent at the prediction against a
shape-gain codebook and sends only the codeword index; both ends step along
that codeword and extrapolate the next prediction.  ``_run`` is the one
implementation of that update, on plain complex rows: the encoder, the
decoder and the closed-loop training harvest all run it, so the two estimate
sequences are bit-identical as long as the index stream is intact.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .codebooks import DirectionCodebook, ShapeGainCodebook
from .geometry import (
    RHO_MIN,
    ZERO_TANGENT_TOL,
    CutLocusError,
    GrassmannPoint,
    TangentVector,
    _chord_from_coords,
    _geodesic_coords,
    _predict_coords,
    chordal_distance,
)

__all__ = [
    "PROJECTION_COLLAPSE_TOL",
    "TrackingLostError",
    "CodewordIndex",
    "GpcState",
    "EncodeResult",
    "initialize",
    "memoryless_quantize",
    "quantize_tangent",
    "reconstruct_codeword",
    "encode_trace",
    "decode_trace",
    "write_index_stream",
    "read_index_stream",
]

#: Below this projected-norm threshold a direction codeword is treated as
#: collinear with the base point and reconstructs to the zero tangent.
PROJECTION_COLLAPSE_TOL = 1e-12


class TrackingLostError(CutLocusError):
    """Prediction and observation became (numerically) orthogonal mid-run.

    The session cannot continue from its current state; the caller must
    re-initialize.  ``step`` is the time index of the failed update.
    """

    def __init__(self, rho_abs: float, step: int):
        self.step = int(step)
        super().__init__(
            rho_abs,
            f"tracking lost at step {step}: |rho| = {rho_abs:.3e} <= {RHO_MIN:.0e}",
        )


@dataclass(frozen=True)
class CodewordIndex:
    """Index pair into a shape-gain codebook, one per encoded step."""

    direction_index: int
    magnitude_index: int

    def __post_init__(self):
        if self.direction_index < 0 or self.magnitude_index < 0:
            raise ValueError("indices must be nonnegative")

    def serialize(self, n_m: int) -> int:
        """Single-integer wire form: direction_index * N_m + magnitude_index."""
        if self.magnitude_index >= n_m:
            raise ValueError(f"magnitude_index {self.magnitude_index} >= N_m = {n_m}")
        return self.direction_index * n_m + self.magnitude_index

    @classmethod
    def deserialize(cls, value: int, n_m: int) -> "CodewordIndex":
        value = int(value)
        if value < 0:
            raise ValueError("serialized index must be nonnegative")
        return cls(value // n_m, value % n_m)


@dataclass(frozen=True)
class GpcState:
    """Synchronized codec state: the two latest estimates and the prediction.

    ``predicted`` always equals ``predict_one_step(est_prev, est_curr)``;
    every constructor in this module maintains that invariant.  ``time`` is
    the index of the step the state is ready to encode or decode.
    """

    est_prev: GrassmannPoint
    est_curr: GrassmannPoint
    predicted: GrassmannPoint
    time: int

    def __post_init__(self):
        if self.est_prev.n != self.est_curr.n or self.est_curr.n != self.predicted.n:
            raise ValueError("state points must share the ambient dimension")
        if self.time < 2:
            raise ValueError("state time starts at 2 (two points seed the predictor)")


def memoryless_quantize(
    observed: GrassmannPoint, direction_codebook: DirectionCodebook
) -> tuple[int, GrassmannPoint]:
    """Nearest codeword by chordal distance (one-shot quantization).

    Returns the winning index and the codeword as a point; ties break to
    the lowest index.
    """
    scores = np.abs(direction_codebook.entries.conj() @ observed.coords) ** 2
    idx = int(scores.argmax())
    return idx, GrassmannPoint.from_vector(direction_codebook.entries[idx])


def _projected_directions(codebook_entries: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Direction codewords projected onto the tangent space at ``base`` and
    renormalized; rows that collapse onto the base line become zero rows
    (their candidates reduce to the base point for every magnitude)."""
    inners = codebook_entries @ base.conj()
    w = codebook_entries - np.outer(inners, base)
    norms = np.linalg.norm(w, axis=1)
    keep = norms > PROJECTION_COLLAPSE_TOL
    out = np.zeros_like(w)
    out[keep] = w[keep] / norms[keep, None]
    return out


def _joint_search(base, observed, rho, chord, entries, cos_m, sin_m) -> tuple[int, int]:
    """:func:`quantize_tangent` on plain rows, given rho = base^H observed,
    their chordal distance and the magnitudes' (1, N_m) cosines and sines."""
    if chord < ZERO_TANGENT_TOL:
        return 0, 0
    s = _projected_directions(entries, base).conj() @ observed
    inner = cos_m * rho + sin_m * s[:, None]
    return divmod(int(np.argmax(np.abs(inner) ** 2)), cos_m.size)


def _direction_only(base, observed, rho, chord, entries) -> tuple[float, np.ndarray]:
    """(magnitude, direction) of the best direction codeword with its
    continuously optimal, unquantized magnitude.

    This is the infinite-resolution limit of the joint search: for each
    direction codeword the score |cos(m) rho + sin(m) s_i|^2 is a sinusoid in
    2m, so the optimal magnitude has a closed form.
    """
    if chord < ZERO_TANGENT_TOL:
        return 0.0, np.zeros_like(base)
    proj = _projected_directions(entries, base)
    s = proj.conj() @ observed
    bb = abs(rho) ** 2
    ss = np.abs(s) ** 2
    cross = (np.conj(rho) * s).real
    # score(m) = (bb+ss)/2 + ((bb-ss)/2) cos 2m + cross sin 2m on m in
    # [0, pi/2]; the interior optimum exists iff cross >= 0, otherwise the
    # best in-range magnitude is an endpoint (0 or pi/2).
    interior, endpoint = cross >= 0.0, np.where(bb >= ss, 0.0, np.pi / 2)
    m_best = np.where(interior, 0.5 * np.arctan2(2.0 * cross, bb - ss), endpoint)
    peak = 0.5 * (bb + ss) + np.hypot(0.5 * (bb - ss), cross)
    score = np.where(interior, peak, np.maximum(bb, ss))
    d_idx = int(np.argmax(score))
    magnitude = float(min(m_best[d_idx], np.pi / 2))
    if magnitude <= ZERO_TANGENT_TOL or np.linalg.norm(proj[d_idx]) == 0.0:
        return 0.0, np.zeros_like(base)
    return magnitude, proj[d_idx]


def _codeword(base, entries, levels, d_idx, m_idx) -> tuple[float, np.ndarray]:
    """(magnitude, direction) of :func:`reconstruct_codeword` on plain rows."""
    magnitude = float(levels[m_idx])
    c = entries[d_idx]
    w = c - np.vdot(base, c) * base
    wn = np.linalg.norm(w)
    if magnitude == 0.0 or wn < PROJECTION_COLLAPSE_TOL:
        return 0.0, np.zeros_like(base)
    return magnitude, w / wn


def _pair(index: CodewordIndex, codebook: ShapeGainCodebook) -> tuple[int, int]:
    if not (0 <= index.direction_index < codebook.directions.size):
        raise IndexError(f"direction_index {index.direction_index} out of range")
    if not (0 <= index.magnitude_index < codebook.magnitudes.size):
        raise IndexError(f"magnitude_index {index.magnitude_index} out of range")
    return index.direction_index, index.magnitude_index


def quantize_tangent(
    predicted: GrassmannPoint,
    observed: GrassmannPoint,
    codebook: ShapeGainCodebook,
) -> CodewordIndex:
    """Exhaustive joint search for the codeword whose geodesic endpoint is
    chordal-nearest to the observation.

    Every candidate endpoint is cos(m_j) * base + sin(m_j) * s_i with s_i
    the projected direction codeword, so |<candidate, observed>|^2 is
    evaluated for all N_d * N_m pairs in one vectorized pass; maximizing it
    is identical to minimizing the chordal distance.  Ties break to the
    lowest serialized index.  A numerically zero error tangent short-circuits
    to (0, 0): all directions are then equivalent and the smallest magnitude
    (entry 0 of the sorted codebook) wins, which keeps the degenerate tie
    deterministic instead of resting on rounding noise.
    """
    p, o, m = predicted.coords, observed.coords, codebook.magnitudes.entries[None, :]
    chord = chordal_distance(predicted, observed)
    entries = codebook.directions.entries
    return CodewordIndex(*_joint_search(p, o, np.vdot(p, o), chord, entries, np.cos(m), np.sin(m)))


def reconstruct_codeword(
    index: CodewordIndex,
    predicted: GrassmannPoint,
    codebook: ShapeGainCodebook,
) -> TangentVector:
    """Recompose the indexed shape-gain codeword as a tangent at the
    prediction.

    Stored direction codewords are generic unit vectors; projecting onto
    the tangent space at the base (and renormalizing) is what keeps the
    geodesic endpoint on the manifold.  A codeword collinear with the base
    (projection collapse) reconstructs to the zero tangent.
    """
    d_idx, m_idx = _pair(index, codebook)
    entries, levels = codebook.directions.entries, codebook.magnitudes.entries
    return TangentVector(predicted, *_codeword(predicted.coords, entries, levels, d_idx, m_idx))


def _seed(x0: np.ndarray, x1: np.ndarray, codebook, mode: str):
    """(previous, current, predicted) rows seeded from two observations."""
    if mode == "exact":
        return x0, x1, _predict_coords(x0, x1)
    if mode != "memoryless":
        raise ValueError(f"mode must be 'exact' or 'memoryless', got {mode!r}")
    if codebook is None:
        raise ValueError("memoryless initialization requires a codebook")
    entries = codebook.directions.entries
    c0 = entries[int((np.abs(entries.conj() @ x0) ** 2).argmax())]
    q0 = c0 / np.linalg.norm(c0)
    scores = np.abs(entries.conj() @ x1) ** 2
    last_exc: CutLocusError | None = None
    for i1 in np.argsort(-scores, kind="stable"):
        q1 = entries[i1] / np.linalg.norm(entries[i1])
        try:
            return q0, q1, _predict_coords(q0, q1)
        except CutLocusError as exc:
            last_exc = exc
    raise CutLocusError(
        last_exc.rho_abs if last_exc else 0.0,
        "no codeword for the second point can seed the predictor",
    )


def _state(rows, time: int) -> GpcState:
    return GpcState(*(GrassmannPoint(r) for r in rows), time)


def initialize(
    x0: GrassmannPoint,
    x1: GrassmannPoint,
    codebook: ShapeGainCodebook | None,
    mode: str = "exact",
) -> GpcState:
    """Seed the codec state from the first two observations.

    ``exact`` keeps the observations at full precision (side information the
    wire format does not cover); ``memoryless`` one-shot-quantizes both
    against the codebook's direction entries, so the decoder can build the
    same state from two plain codeword indices.  If the best pair of
    quantized points cannot seed the predictor (cut locus), the second point
    falls back to its next-best codewords before giving up.
    """
    return _state(_seed(x0.coords, x1.coords, codebook, mode), 2)


_Run = namedtuple("_Run", "pairs estimates predictions pred_err est_err state time reinits")


def _run(codebook, state, time, observed=None, pairs=None, free_magnitude=False, reseed=None):
    """The codec update, repeated over a session on plain complex rows.

    Each step starts from the (previous, current, predicted) ``state`` at
    step ``time``, picks a codeword, steps from the prediction along it and
    extrapolates the next prediction.  The encoder passes the trace's
    ``observed`` rows (rows 0 and 1 seeded ``state``) and searches each
    codeword; the decoder passes the received index ``pairs``.  Both ends
    run the same float operations in the same order, which keeps them
    bit-synchronized.  On track loss the encoder re-seeds from its two
    latest observations in mode ``reseed``; without one, and always in the
    decoder, :class:`TrackingLostError` is raised.
    """
    entries, levels = codebook.directions.entries, codebook.magnitudes.entries
    cos_m, sin_m = np.cos(levels)[None, :], np.sin(levels)[None, :]
    decoding = observed is None
    steps = len(pairs) if decoding else len(observed) - 2
    prev, curr, predicted = state
    sent, estimates, predictions = [], [], []
    pred_err = np.empty(0 if decoding else steps)
    est_err = np.empty_like(pred_err)
    reinits = 0
    for j in range(steps):
        predictions.append(predicted)
        try:
            if decoding:
                pair = pairs[j]
            else:
                obs = observed[j + 2]
                pred_err[j] = chord = _chord_from_coords(predicted, obs)
                rho = np.vdot(predicted, obs)
                if abs(rho) <= RHO_MIN:
                    raise CutLocusError(abs(rho))
                if free_magnitude:
                    pair = None
                    angle, direction = _direction_only(predicted, obs, rho, chord, entries)
                else:
                    pair = _joint_search(predicted, obs, rho, chord, entries, cos_m, sin_m)
            if pair is not None:
                angle, direction = _codeword(predicted, entries, levels, *pair)
            estimate = predicted if angle == 0.0 else _geodesic_coords(predicted, direction, angle)
            next_predicted = _predict_coords(curr, estimate)
        except CutLocusError as exc:
            if decoding or reseed is None:
                raise TrackingLostError(exc.rho_abs, time) from exc
            reinits += 1
            prev, curr, predicted = _seed(observed[j + 1], obs, codebook, reseed)
            pair, estimate = None, curr
        else:
            prev, curr, predicted = curr, estimate, next_predicted
        time += 1
        sent.append(pair)
        estimates.append(estimate)
        if not decoding:
            est_err[j] = _chord_from_coords(estimate, obs)
    state = (prev, curr, predicted)
    return _Run(sent, estimates, predictions, pred_err, est_err, state, time, reinits)


@dataclass(frozen=True)
class EncodeResult:
    """Everything a full-trace encoder run produces.

    ``indices[j]``, ``estimates[j]``, ``prediction_errors[j]``, and
    ``estimate_errors[j]`` all describe trace step ``j + 2`` (the first two
    points seed the state).  ``prediction_errors`` are chordal distances
    between prediction and observation (pre-quantization);
    ``estimate_errors`` between estimate and observation
    (post-quantization).  Steps where tracking was lost and the session
    re-initialized carry index ``None`` and count in ``reinits``.
    """

    indices: tuple[CodewordIndex | None, ...]
    estimates: tuple[GrassmannPoint, ...]
    prediction_errors: np.ndarray
    estimate_errors: np.ndarray
    state: GpcState
    reinits: int = 0


def encode_trace(
    points,
    codebook: ShapeGainCodebook,
    mode: str = "exact",
    free_magnitude: bool = False,
    on_track_loss: str = "raise",
) -> EncodeResult:
    """Run the encoder over a whole trace of points.

    The state is seeded from the first two points in ``mode`` (see
    :func:`initialize`).  ``free_magnitude=True`` replaces the joint search
    with a direction-only search that leaves the magnitude unquantized: it
    has no wire form, so every index is ``None``, and it isolates the loss
    due to magnitude quantization.  ``on_track_loss`` is ``"raise"`` (propagate
    :class:`TrackingLostError`) or ``"reinit"`` (re-seed from the two latest
    observations in the same ``mode``, recording ``None`` for the step's
    index — the wire format cannot carry re-initialization, so streams with
    re-inits are for analysis, not replay).
    """
    if on_track_loss not in ("raise", "reinit"):
        raise ValueError(f"on_track_loss must be 'raise' or 'reinit', got {on_track_loss!r}")
    rows = [p.coords for p in points]
    if len(rows) < 3:
        raise ValueError("need at least 3 points (two seed the state)")
    reseed = mode if on_track_loss == "reinit" else None
    state = _seed(rows[0], rows[1], codebook, mode)
    run = _run(codebook, state, 2, rows, None, free_magnitude, reseed)
    return EncodeResult(
        tuple(None if p is None else CodewordIndex(*p) for p in run.pairs),
        tuple(GrassmannPoint(e) for e in run.estimates),
        run.pred_err,
        run.est_err,
        _state(run.state, run.time),
        run.reinits,
    )


def decode_trace(
    state: GpcState,
    indices,
    codebook: ShapeGainCodebook,
) -> tuple[tuple[GrassmannPoint, ...], GpcState]:
    """Replay an index stream from an initial state; an empty stream leaves
    the state unchanged."""
    pairs = [_pair(index, codebook) for index in indices]
    if not pairs:
        return (), state
    rows = (state.est_prev.coords, state.est_curr.coords, state.predicted.coords)
    run = _run(codebook, rows, state.time, pairs=pairs)
    return tuple(GrassmannPoint(e) for e in run.estimates), _state(run.state, run.time)


def write_index_stream(path, indices, n_m: int):
    """One decimal serialized index per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for index in indices:
            if index is None:
                raise ValueError("stream contains a re-initialization gap; not serializable")
            fh.write(f"{index.serialize(n_m)}\n")


def read_index_stream(path, n_m: int) -> tuple[CodewordIndex, ...]:
    """Inverse of :func:`write_index_stream`."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(CodewordIndex.deserialize(int(line), n_m))
    return tuple(out)
