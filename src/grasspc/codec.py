"""Predictive encoder/decoder on the Grassmannian of complex lines.

Both ends keep the same three-point state (previous estimate, current
estimate, one-step prediction).  The encoder maps each new observation to
the tangent space at the prediction, quantizes the resulting error tangent
against a shape-gain codebook, and transmits only the codeword index; the
decoder replays the identical update, so the two estimate sequences are
bit-identical as long as the index stream is intact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codebooks import DirectionCodebook, ShapeGainCodebook
from .geometry import (
    RHO_MIN,
    ZERO_TANGENT_TOL,
    CutLocusError,
    GrassmannPoint,
    TangentVector,
    chordal_distance,
    exp_map,
    log_map,
    predict_one_step,
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
    "encode_step",
    "decode_step",
    "encode_trace",
    "decode_trace",
    "direction_only_quantizer",
    "exact_quantizer",
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


def _advance(state: GpcState, estimate: GrassmannPoint) -> GpcState:
    """Shared encoder/decoder state update; identical float operations on
    both ends keep the sessions bit-synchronized."""
    try:
        predicted = predict_one_step(state.est_curr, estimate)
    except CutLocusError as exc:
        raise TrackingLostError(exc.rho_abs, state.time) from exc
    return GpcState(state.est_curr, estimate, predicted, state.time + 1)


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


def _projected_directions(
    codebook_entries: np.ndarray, base: np.ndarray
) -> np.ndarray:
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
    base = predicted.coords
    if chordal_distance(predicted, observed) < ZERO_TANGENT_TOL:
        return CodewordIndex(0, 0)
    b = np.vdot(base, observed.coords)
    s = _projected_directions(codebook.directions.entries, base).conj() @ observed.coords
    m = codebook.magnitudes.entries
    inner = np.cos(m)[None, :] * b + np.sin(m)[None, :] * s[:, None]
    flat = int(np.argmax(np.abs(inner) ** 2))
    d_idx, m_idx = divmod(flat, m.size)
    return CodewordIndex(d_idx, m_idx)


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
    if not (0 <= index.direction_index < codebook.directions.size):
        raise IndexError(f"direction_index {index.direction_index} out of range")
    if not (0 <= index.magnitude_index < codebook.magnitudes.size):
        raise IndexError(f"magnitude_index {index.magnitude_index} out of range")
    magnitude = float(codebook.magnitudes.entries[index.magnitude_index])
    if magnitude == 0.0:
        return TangentVector.zero(predicted)
    c = codebook.directions.entries[index.direction_index]
    base = predicted.coords
    w = c - np.vdot(base, c) * base
    wn = np.linalg.norm(w)
    if wn < PROJECTION_COLLAPSE_TOL:
        return TangentVector.zero(predicted)
    return TangentVector(predicted, magnitude, w / wn)


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
    if mode == "exact":
        return GpcState(x0, x1, predict_one_step(x0, x1), 2)
    if mode != "memoryless":
        raise ValueError(f"mode must be 'exact' or 'memoryless', got {mode!r}")
    if codebook is None:
        raise ValueError("memoryless initialization requires a codebook")
    _, q0 = memoryless_quantize(x0, codebook.directions)
    scores = np.abs(codebook.directions.entries.conj() @ x1.coords) ** 2
    last_exc: CutLocusError | None = None
    for i1 in np.argsort(-scores, kind="stable"):
        q1 = GrassmannPoint.from_vector(codebook.directions.entries[i1])
        try:
            return GpcState(q0, q1, predict_one_step(q0, q1), 2)
        except CutLocusError as exc:
            last_exc = exc
    raise CutLocusError(
        last_exc.rho_abs if last_exc else 0.0,
        "no codeword for the second point can seed the predictor",
    )


def encode_step(
    state: GpcState,
    observed: GrassmannPoint,
    codebook: ShapeGainCodebook,
    quantizer=None,
) -> tuple[CodewordIndex | None, GpcState, GrassmannPoint]:
    """One encoder update: quantize the error tangent, apply it, advance.

    Returns the transmitted index, the advanced state, and the new estimate.
    ``quantizer`` overrides the default joint search; it is called as
    ``quantizer(predicted, observed, codebook)`` and returns a tangent plus
    an optional index (``None`` for analysis-only quantizers that have no
    wire representation).  Raises :class:`TrackingLostError` when the
    observation or the advanced estimates straddle the cut locus.
    """
    try:
        error = log_map(state.predicted, observed)
    except CutLocusError as exc:
        raise TrackingLostError(exc.rho_abs, state.time) from exc
    if quantizer is None:
        index = quantize_tangent(state.predicted, observed, codebook)
        tangent = reconstruct_codeword(index, state.predicted, codebook)
    else:
        tangent, index = quantizer(state.predicted, observed, codebook, error)
    estimate = exp_map(state.predicted, tangent)
    return index, _advance(state, estimate), estimate


def decode_step(
    state: GpcState,
    index: CodewordIndex,
    codebook: ShapeGainCodebook,
) -> tuple[GrassmannPoint, GpcState]:
    """One decoder update, the exact float-for-float mirror of the encoder:
    reconstruct the indexed codeword at the current prediction, step along
    the geodesic, advance the state."""
    tangent = reconstruct_codeword(index, state.predicted, codebook)
    estimate = exp_map(state.predicted, tangent)
    return estimate, _advance(state, estimate)


def direction_only_quantizer(
    predicted: GrassmannPoint,
    observed: GrassmannPoint,
    codebook: ShapeGainCodebook,
    error: TangentVector,
) -> tuple[TangentVector, None]:
    """Quantize only the tangent direction; the magnitude stays unquantized.

    This is the infinite-resolution limit of the joint search: for each
    direction codeword the score |cos(m) b + sin(m) s_i|^2 is a sinusoid in
    2m, so the continuously optimal magnitude has a closed form, and the
    best (direction, optimal magnitude) pair wins.  Analysis-only (the
    magnitude has no wire representation); used to isolate how much of the
    loss is attributable to magnitude quantization.
    """
    if error.is_zero:
        return TangentVector.zero(predicted), None
    base = predicted.coords
    b = np.vdot(base, observed.coords)
    proj = _projected_directions(codebook.directions.entries, base)
    s = proj.conj() @ observed.coords
    bb = abs(b) ** 2
    ss = np.abs(s) ** 2
    cross = (np.conj(b) * s).real
    # score(m) = (bb+ss)/2 + ((bb-ss)/2) cos 2m + cross sin 2m on m in
    # [0, pi/2]; the interior optimum exists iff cross >= 0, otherwise the
    # best in-range magnitude is an endpoint (0 or pi/2).
    m_best = np.where(
        cross >= 0.0,
        0.5 * np.arctan2(2.0 * cross, bb - ss),
        np.where(bb >= ss, 0.0, np.pi / 2),
    )
    score = np.where(
        cross >= 0.0,
        0.5 * (bb + ss) + np.hypot(0.5 * (bb - ss), cross),
        np.maximum(bb, ss),
    )
    d_idx = int(np.argmax(score))
    magnitude = float(min(m_best[d_idx], np.pi / 2))
    if magnitude <= ZERO_TANGENT_TOL or np.linalg.norm(proj[d_idx]) == 0.0:
        return TangentVector.zero(predicted), None
    return TangentVector(predicted, magnitude, proj[d_idx]), None


def exact_quantizer(
    predicted: GrassmannPoint,
    observed: GrassmannPoint,
    codebook: ShapeGainCodebook,
    error: TangentVector,
) -> tuple[TangentVector, None]:
    """Infinite-resolution stand-in: the error tangent passes through
    unquantized.  Analysis-only."""
    return error, None


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
    quantizer=None,
    on_track_loss: str = "raise",
) -> EncodeResult:
    """Run the encoder over a whole trace of points.

    ``on_track_loss`` is ``"raise"`` (propagate :class:`TrackingLostError`)
    or ``"reinit"`` (re-seed from the two latest observations in the same
    ``mode``, recording ``None`` for the step's index — the wire format
    cannot carry re-initialization, so streams with re-inits are for
    analysis, not replay).
    """
    if on_track_loss not in ("raise", "reinit"):
        raise ValueError(f"on_track_loss must be 'raise' or 'reinit', got {on_track_loss!r}")
    points = list(points)
    if len(points) < 3:
        raise ValueError("need at least 3 points (two seed the state)")
    state = initialize(points[0], points[1], codebook, mode=mode)
    indices: list[CodewordIndex | None] = []
    estimates: list[GrassmannPoint] = []
    pred_err = np.empty(len(points) - 2)
    est_err = np.empty(len(points) - 2)
    reinits = 0
    for j, observed in enumerate(points[2:]):
        pred_err[j] = chordal_distance(state.predicted, observed)
        try:
            index, state, estimate = encode_step(state, observed, codebook, quantizer)
        except TrackingLostError:
            if on_track_loss == "raise":
                raise
            reinits += 1
            state = initialize(points[j + 1], observed, codebook, mode=mode)
            index, estimate = None, state.est_curr
        indices.append(index)
        estimates.append(estimate)
        est_err[j] = chordal_distance(estimate, observed)
    return EncodeResult(tuple(indices), tuple(estimates), pred_err, est_err, state, reinits)


def decode_trace(
    state: GpcState,
    indices,
    codebook: ShapeGainCodebook,
) -> tuple[tuple[GrassmannPoint, ...], GpcState]:
    """Replay an index stream from an initial state; an empty stream leaves
    the state unchanged."""
    estimates = []
    for index in indices:
        estimate, state = decode_step(state, index, codebook)
        estimates.append(estimate)
    return tuple(estimates), state


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
