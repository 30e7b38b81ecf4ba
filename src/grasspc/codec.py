"""Predictive encoder/decoder on the Grassmannian of complex lines.

Both ends keep the same three-point state (previous estimate, current
estimate, one-step prediction) and repeat one update per step: the encoder
quantizes the observation's error tangent at the prediction against a
shape-gain codebook and sends only the codeword index; both ends step along
that codeword and extrapolate the next prediction.  ``_run`` is the one
implementation of that update.  It steps B independent sessions at once on
real and imaginary float columns (Python floats when B = 1, (B,) arrays
otherwise): the encoder, the decoder, the closed-loop training harvest and
every experiment run it, the experiments with all their sessions in one
batch (through ``_encode_rows``).  A batch's joint search first screens
every session with two BLAS products, into a workspace ``_run``'s ``_Book``
keeps; a session whose screen leaves exactly one candidate within a proven
error margin takes it.  The fixed-order search scores the others, and one
session, by the same few whole-array products on the book's product table,
whose last axis is the sessions'.  One session's geodesic step runs on
floats inline.  Points are built only where a public function takes or
returns them.

Determinism.  Every quantity of the update (the prediction, the codeword
reconstruction, the geodesic step, norms, chordal errors and the joint- and
direction-only search scores) uses only elementwise + - * / and sqrt in a
fixed order, with sums over coordinates run left to right and no BLAS call
or complex ufunc multiply.  The batch screen is the one BLAS step, and its
margin covers its rounding in any summation order: BLAS may change which
sessions the fixed-order search re-scores, never a pick.  So, byte for byte:

* a session's indices, estimates, errors and re-inits are the same alone or
  in a batch of any size, and whatever chunk a batch is split into;
* the decoder replays the encoder's estimates from the initial state and
  the index stream, one session alone or a batch of them, under any
  OpenBLAS kernel and any numpy SIMD dispatch;
* the quickstart ``gen-trace``, ``distortion``, ``gains``, ``mse`` and
  ``sumrate`` CSV data rows do not change with either: the public geometry
  and the harvests run the same helpers, and traces are normalized by
  fixed-order norms (a test pins their hashes).

Still allowed to vary: ``train``'s codebook (its Lloyd direction step scores
with BLAS and takes ``eigh``'s eigenvectors); the BLAS scores of
``codebooks._nearest``, which pick memoryless indices and the seed codewords
of memoryless initialization (and so could differ only at near-ties); for a
``best_packing`` key that is searched, its Philox normals and its near-ties
(the keys the configs build load shipped constants, and depend on neither);
libm's ``cos``/``sin`` of the magnitude levels, taken once per codebook (the
direction-only search needs no libm: half-angle formulas give its arcs) and
its ``atan`` of the harvests' arc lengths; and the traces' Philox normals
across numpy versions.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .codebooks import DirectionCodebook, ShapeGainCodebook, _nearest, _scores
from .geometry import (
    RHO_MIN,
    ZERO_TANGENT_TOL,
    CutLocusError,
    GrassmannPoint,
    TangentVector,
    _chord_cols,
    _cols,
    _csum,
    _direction,
    _geodesic_cols,
    _inner,
    _predict_cols,
    _row,
    _sqnorm,
    _sqrt,
    _unit,
)
from .params import _count

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
_NO_WIRE_FORM = (
    "a re-initialization gap or a free_magnitude=True step, and neither has a wire form"
)


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
    """Index pair into a shape-gain codebook, one per encoded step.

    Both fields are nonnegative integers; numpy integers are stored as ints.
    """

    direction_index: int
    magnitude_index: int

    def __post_init__(self):
        d, m = self.direction_index, self.magnitude_index
        # Plain ints, which the codec builds once per step, skip the calls.
        if type(d) is not int or type(m) is not int:
            d, m = _count("direction_index", d), _count("magnitude_index", m)
            object.__setattr__(self, "direction_index", d)
            object.__setattr__(self, "magnitude_index", m)
        if d < 0 or m < 0:
            raise ValueError("indices must be nonnegative")

    def serialize(self, n_m: int) -> int:
        """Single-integer wire form: direction_index * N_m + magnitude_index."""
        n_m = _count("n_m", n_m)
        if self.magnitude_index >= n_m:
            raise ValueError(f"magnitude_index {self.magnitude_index} >= N_m = {n_m}")
        return self.direction_index * n_m + self.magnitude_index

    @classmethod
    def deserialize(cls, value: int, n_m: int) -> "CodewordIndex":
        value, n_m = _count("serialized index", value), _count("n_m", n_m)
        if value < 0:
            raise ValueError("serialized index must be nonnegative")
        if n_m < 1:
            raise ValueError(f"n_m must be at least 1, got {n_m}")
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
    idx = int(_nearest(observed.coords[None, :], direction_codebook.entries)[0][0])
    return idx, GrassmannPoint.from_vector(direction_codebook.entries[idx])


def _sendable(index: CodewordIndex | None, step: int) -> CodewordIndex:
    if index is None:
        raise ValueError(f"index {step} of the stream is None: {_NO_WIRE_FORM}")
    return index


def _pair(index: CodewordIndex, n_d: int, n_m: int) -> tuple[int, int]:
    d, m = index.direction_index, index.magnitude_index
    if not 0 <= d < n_d:
        raise IndexError(f"direction_index {d} out of range")
    if not 0 <= m < n_m:
        raise IndexError(f"magnitude_index {m} out of range")
    return d, m


# ---------------------------------------------------------------------------
# The kernel: B sessions per step on fixed-order float columns (see the
# column helpers in ``geometry``).  A session is one Python float per
# coordinate part when B = 1, and a (B,) array slot otherwise.

#: Larger encoder batches run this many sessions per kernel call, which
#: bounds the screen's workspace (its largest buffers are the scores, N_d N_m
#: per session); one session skips the screen.  The bits depend on neither.
_CHUNK = 256

#: Floats of temporaries per slice of the fixed-order search (see _sliced).
_SLICE_FLOATS = 1 << 16

# The batch screen (see _screen) scores every (d, m) from g = C^H p and
# C^H (o - rho p), both taken by one BLAS product, and keeps its first maximum
# only when no other entry is within _MARGIN of it.  Why that cannot change a
# pick: let u = 2^-53 and every input be a unit vector within FILE_NORM_TOL,
# so |g|, |h|, |rho| and the exact |s| are below 1.01 (s is o's component
# along a unit vector orthogonal to p, so |rho|^2 + |s|^2 <= ||o||^2).  A part
# of g or h is a real dot product of length 2n, off by at most 2nu in any
# summation order or blocking, fixed order included.  So den = ||c||^2 - |g|^2
# and the numerator h - g rho (the screen's C^H (o - rho p), whose o - rho p
# is off by under 10u) are off by at most 8nu each, and where
# den >= _DEN_FLOOR = delta (which an error of 8nu << delta does not move),
# s by at most 8nu/sqrt(delta) + 1.01 (8nu/(2 delta) + 3u) < 4.2nu/delta.
# A score |cos rho + sin s|^2 then moves by at most 2 * 1.01 * 4.2nu/delta
# plus 20u of its own rounding: under 9.5e-12 n, which for n <= _SCREEN_MAX_N
# is below _MARGIN/4, for the fixed-order score and the screened one alike.
# So they differ by less than _MARGIN/2, and the fixed-order first maximum k
# scores S_k > F_k - _MARGIN/2 >= F_j - _MARGIN/2 > S_j - _MARGIN for every j:
# it is within _MARGIN of the screened maximum.  A session with no other entry
# that close and no den below delta therefore has the screen's pick as its
# fixed-order pick.  Wider points skip the screen.
_DEN_FLOOR = 1e-4
_MARGIN = 1e-9
_SCREEN_MAX_N = 16


_Screen = namedtuple("_Screen", "x gh t u feat score")


class _Book:
    """A shape-gain codebook laid out for the kernel: each codeword's
    columns (lists of floats for one session, (n, N_d) arrays for a batch),
    the squared codeword norms (N_d,), and the magnitude levels' cosines and
    sines, taken once from libm.

    The fixed-order search multiplies the (2, n, 4, N_d) ``table`` (with a
    trailing axis for a batch's sessions) by the (2, n, 4, 1 [, B]) operand
    ``gather`` picks from the points' rows (pr, pi, or, oi), (4n [, B]).
    For the outputs (gr, gi, hr, hi) of g = C^H p and h = C^H o, pair 0 is
    cr times (pr, pi, or, oi) and pair 1 is (ci, -ci, ci, -ci) times (pi,
    pr, oi, or), so that a coordinate's pair sum is its term of g and h, as
    :func:`_inner` forms it.

    A batch's screen takes its products from the real form of C^H,
    ``conj_t``, with [pr pi] @ conj_t = (gr, gi), and its scores from
    ``trig``, each level's (cos^2, sin^2, 2 sin cos), into buffers the book
    keeps (a chunk's largest).  Its BLAS rounding may only change which
    sessions the fixed-order search re-scores, never a pick."""

    def __init__(self, codebook: ShapeGainCodebook):
        entries = codebook.directions.entries
        levels = codebook.magnitudes.entries.tolist()
        self.n_m = len(levels)
        self.re, self.im = entries.real.tolist(), entries.imag.tolist()
        self.cr, self.ci = cr, ci = entries.real.T.copy(), entries.imag.T.copy()  # (n, N_d)
        n, signs = len(cr), np.array((1.0, -1.0, 1.0, -1.0))[:, None]
        self.table = np.array((np.repeat(cr[:, None], 4, axis=1), ci[:, None] * signs))  # (2, n, 4, N_d)
        order = np.array(((0, 1, 2, 3), (1, 0, 3, 2)))[:, None]  # (pr, pi, or, oi) and (pi, pr, oi, or)
        self.gather = (n * order + np.arange(n)[:, None])[..., None]  # (2, n, 4, 1)
        self.sq = _sqnorm(cr, ci)
        self.cos = [math.cos(m) for m in levels]
        self.sin = [math.sin(m) for m in levels]
        self.cos_row, self.sin_row = np.array(self.cos), np.array(self.sin)
        self.conj_t = np.array((np.vstack((cr, ci)), np.vstack((-ci, cr))))  # (2, 2n, N_d)
        self.trig = np.array((self.cos_row**2, self.sin_row**2, 2.0 * self.sin_row * self.cos_row))
        self._screen = None

    def screen(self, width: int) -> _Screen:
        """The screen's buffers for ``width`` sessions: the rows [pr pi] of p
        and of y = o - rho p (p/y, B, 2n), their products with C^H (re/im,
        p/y, B, N_d), two (B, N_d) planes, the features (3, B, N_d) and the
        scores (B, N_d N_m)."""
        if self._screen is None or len(self._screen.t) != width:
            two_n, n_d = self.conj_t.shape[1], len(self.sq)
            self._screen = _Screen(np.empty((2, width, two_n)), np.empty((2, 2, width, n_d)),
                                   *np.empty((2, width, n_d)), np.empty((3, width, n_d)),
                                   np.empty((width, n_d * self.n_m)))
        return self._screen

    def level(self, m):
        if type(m) is int:
            return self.cos[m], self.sin[m]
        return self.cos_row[m], self.sin_row[m]


def _projections(book: _Book, predicted, observed, rho):
    """Each codeword's direction, projected onto the tangent space at the
    prediction p and renormalized, against the observation o: with g = C^H p,
    h = C^H o and rho = p^H o,

        s_d = (h_d - g_d rho) / sqrt(||c_d||^2 - |g_d|^2),

    and 0 where the projection collapses.  The points' parts are floats for
    one session and (B,) arrays for a batch; s is returned as (re; im), shape
    (2, N_d) for one session and (2, N_d, B) for a batch."""
    x = np.array([*predicted[0], *predicted[1], *observed[0], *observed[1]])
    col = (..., None)[: x.ndim]  # a batch's trailing session axis on the book's arrays
    terms = book.table[col] * x[book.gather]
    gh = _csum(terms[0] + terms[1])  # (gr, gi, hr, hi) x N_d [x B]
    g, s = gh[:2], gh[2:]
    rr, ri = rho
    g_rho = g * rr
    g_rho += g[::-1] * np.array((-ri, ri)).reshape(2, 1, *x.shape[1:])
    gg = g * g
    den = book.sq[col] - (gg[0] + gg[1])
    den[~(den > PROJECTION_COLLAPSE_TOL**2)] = np.inf  # before sqrt: no invalid-value warning
    s -= g_rho
    s /= np.sqrt(den, out=den)
    return s


def _joint(book: _Book, predicted, observed, rho):
    """The fixed-order joint search scores |cos(m) rho + sin(m) s_d|^2: a
    column of all N_d N_m in serialized order per session, (N_d N_m, B)."""
    s = _projections(book, predicted, observed, rho)
    col = (..., None)[: s.ndim - 1]
    inner = s[:, :, None] * book.sin_row[col]  # (2, N_d, N_m [, B])
    inner += np.array(rho).reshape(2, 1, 1, *s.shape[2:]) * book.cos_row[col]
    inner *= inner
    return (inner[0] + inner[1]).reshape(len(book.sq) * book.n_m, -1)


def _search(book: _Book, predicted, observed, rho):
    """Each session's first maximum of :func:`_joint`, a serialized index."""
    return _joint(book, predicted, observed, rho).argmax(axis=0)


def _sliced(search, book: _Book, predicted, observed, rho):
    """``search`` over a batch, joined on the session axis.  Its temporaries
    grow as about the table's 8 n N_d floats plus 2 N_d N_m per session, so
    a batch runs in slices of sessions that hold _SLICE_FLOATS of them; the
    arithmetic is elementwise, so the bits do not depend on the slicing."""
    width = 1 if type(rho[0]) is float else len(rho[0])
    step = max(1, _SLICE_FLOATS // (book.table.size + 2 * book.sq.size * book.n_m))
    if width <= step:  # one session or one slice
        return search(book, predicted, observed, rho)
    out = []
    for k in map(slice, range(0, width, step), range(step, width + step, step)):
        p, o = ([[x[k] for x in part] for part in point] for point in (predicted, observed))
        out.append(search(book, p, o, (rho[0][k], rho[1][k])))
    return np.concatenate(out, axis=-1)


def _pick(book: _Book, predicted, observed, rho, chord):
    """The joint search: per session, the (d, m) whose geodesic endpoint
    cos(m) p + sin(m) s_d is nearest the observation, i.e. the first maximum
    of |cos(m) rho + sin(m) s_d|^2 in serialized order.  A numerically zero
    error tangent short-circuits to (0, 0).  A batch takes each session's
    pick from :func:`_screen` where it decides one, and from the fixed-order
    :func:`_search` of the others."""
    if type(chord) is float:
        if chord < ZERO_TANGENT_TOL:
            return 0, 0
        return divmod(int(_joint(book, predicted, observed, rho).argmax()), book.n_m)
    zero = chord < ZERO_TANGENT_TOL
    if len(book.cr) <= _SCREEN_MAX_N:
        flat, unsure = _screen(book, predicted, observed, rho)
        unsure &= ~zero
    else:  # beyond the margin's proof
        flat, unsure = np.zeros(len(chord), dtype=np.intp), ~zero
    if unsure.any():
        at = np.flatnonzero(unsure)
        p, o = ([[x[at] for x in part] for part in point] for point in (predicted, observed))
        flat[at] = _sliced(_search, book, p, o, (rho[0][at], rho[1][at]))
    flat[zero] = 0
    return divmod(flat, book.n_m)


def _screen(book: _Book, predicted, observed, rho):
    """Every session's joint search scores from two BLAS products, as the
    first maximum's serialized index and whether the screen cannot vouch for
    it: a second entry within ``_MARGIN`` of the maximum, or a codeword's
    squared projected norm below ``_DEN_FLOOR`` (see the bound above
    ``_DEN_FLOOR``).  Each score is [|rho|^2, |s|^2, Re(rho^* s)] @ (cos^2,
    sin^2, 2 sin cos) of its level, with s = C^H (o - rho p) / sqrt(max(den,
    _DEN_FLOOR)), in the book's screen workspace."""
    rr, ri = rho
    width = len(rr)
    w = book.screen(width)
    rows = w.x.reshape(2, width, 2, -1).transpose(0, 2, 3, 1)  # (p/y, re/im, n, B)
    rows[...] = (predicted, observed)
    (pr, pi), (yr, yi) = rows
    yr -= rr * pr - ri * pi  # y = o - rho p, so that C^H y = h - g rho
    yi -= rr * pi + ri * pr
    np.matmul(w.x.reshape(2 * width, -1), book.conj_t, out=w.gh.reshape(2, 2 * width, -1))
    (gr, sr), (gi, si) = w.gh
    den, scale = w.t, w.u
    np.add(np.multiply(gr, gr, out=den), np.multiply(gi, gi, out=scale), out=den)
    np.subtract(book.sq, den, out=den)
    low = den.min(axis=1) < _DEN_FLOOR if den.min() < _DEN_FLOOR else False
    np.sqrt(np.maximum(den, _DEN_FLOOR, out=scale), out=scale)
    sr /= scale
    si /= scale
    aa, ss, cross = w.feat
    rr, ri = rr[:, None], ri[:, None]
    aa[...] = rr * rr + ri * ri
    t = den  # den is not needed again
    np.add(np.multiply(sr, sr, out=ss), np.multiply(si, si, out=t), out=ss)
    np.add(np.multiply(sr, rr, out=cross), np.multiply(si, ri, out=t), out=cross)
    score = w.score
    np.matmul(w.feat.reshape(3, -1).T, book.trig, out=score.reshape(-1, book.n_m))
    at = np.arange(width)
    flat = score.argmax(axis=1)
    top = score[at, flat]
    score[at, flat] = -np.inf
    unsure = ~(score[at, score.argmax(axis=1)] < top - _MARGIN)  # NaN is unsure
    score[at, flat] = top
    return flat, unsure | low


def _free_arc(cross: float, ss: float, bb: float, chord: float):
    # score(m) = (bb + ss)/2 + half cos 2m + cross sin 2m on m in [0, pi/2],
    # half = (bb - ss)/2: the interior optimum exists iff cross >= 0, at
    # (cos 2m, sin 2m) = (half, cross) / r; otherwise the best in-range
    # magnitude is an endpoint (0 or pi/2).  Half-angle formulas give
    # (cos m, sin m) with + - * / and sqrt only.
    if chord < ZERO_TANGENT_TOL:
        return 1.0, 0.0
    if cross < 0.0:
        return (1.0, 0.0) if bb >= ss else (0.0, 1.0)
    half = 0.5 * (bb - ss)
    r = math.sqrt(half * half + cross * cross)
    if r == 0.0:
        return 1.0, 0.0
    c2, s2 = half / r, cross / r
    if c2 >= 0.0:
        cos = math.sqrt(0.5 * (1.0 + c2))
        sin = s2 / (2.0 * cos)
    else:
        sin = math.sqrt(0.5 * (1.0 - c2))
        cos = s2 / (2.0 * sin)
    return (1.0, 0.0) if sin <= ZERO_TANGENT_TOL else (cos, sin)


def _pick_free(book: _Book, predicted, observed, rho, chord):
    """The infinite-resolution limit of the joint search: per session, the
    best direction codeword with its continuously optimal, unquantized
    magnitude, as (d, cos, sin) of that magnitude."""
    sr, si = _sliced(_projections, book, predicted, observed, rho)
    rr, ri = rho
    bb = rr * rr + ri * ri
    ss = sr * sr + si * si
    cross = rr * sr + ri * si
    half = 0.5 * (bb - ss)
    peak = 0.5 * (bb + ss) + np.sqrt(half * half + cross * cross)
    d = np.where(cross >= 0.0, peak, np.maximum(bb, ss)).argmax(axis=0)
    if type(chord) is float:
        return int(d), *_free_arc(cross[d].item(), ss[d].item(), bb, chord)
    at = (d, np.arange(d.size))
    args = cross[at].tolist(), ss[at].tolist(), bb.tolist(), chord.tolist()
    cos, sin = zip(*(_free_arc(*arc) for arc in zip(*args)))
    return d, np.array(cos), np.array(sin)


def _along(book: _Book, predicted, d, cos, sin):
    """The estimate: the geodesic from the prediction along codeword ``d``'s
    projected, renormalized direction, for the arc length of the given
    cosine and sine.  A zero arc (sin == 0) or a projection that collapses
    leaves the prediction."""
    if type(d) is int:  # one session: _direction, _geodesic_cols and _unit, inlined
        (pr, pi), cr, ci = predicted, book.re[d], book.im[d]
        ur, ui = _inner(pr, pi, cr, ci)
        wr = [x - (ur * a - ui * b) for x, a, b in zip(cr, pr, pi)]
        wi = [y - (ur * b + ui * a) for y, a, b in zip(ci, pr, pi)]
        wn = math.sqrt(_sqnorm(wr, wi))
        if not (wn >= PROJECTION_COLLAPSE_TOL and sin > 0.0):
            return predicted
        vr = [a * cos + (x / wn) * sin for a, x in zip(pr, wr)]
        vi = [b * cos + (y / wn) * sin for b, y in zip(pi, wi)]
        nrm = math.sqrt(_sqnorm(vr, vi))
        return [a / nrm for a in vr], [b / nrm for b in vi]
    wr, wi, wn = _direction(predicted, (book.cr[:, d], book.ci[:, d]))
    keep = (wn >= PROJECTION_COLLAPSE_TOL) & (sin > 0.0)
    wn = np.where(keep, wn, 1.0)
    estimate = _geodesic_cols(*predicted, [x / wn for x in wr], [y / wn for y in wi], cos, sin)
    return tuple([np.where(keep, e, p) for e, p in zip(*part)] for part in zip(estimate, predicted))


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
    p, o = _cols(predicted.coords), _cols(observed.coords)
    rho = _inner(*p, *o)
    return CodewordIndex(*_pick(_Book(codebook), p, o, rho, _chord_cols(*p, *o, rho)))


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
    d, m = _pair(index, codebook.directions.size, codebook.magnitudes.size)
    magnitude = float(codebook.magnitudes.entries[m])
    wr, wi, wn = _direction(_cols(predicted.coords), _cols(codebook.directions.entries[d]))
    if magnitude == 0.0 or wn < PROJECTION_COLLAPSE_TOL:
        return TangentVector.zero(predicted)
    return TangentVector(predicted, magnitude, _row([x / wn for x in wr], [y / wn for y in wi]))


def _seed(x0: np.ndarray, x1: np.ndarray, codebook, mode: str):
    """One session's (previous, current, predicted) columns, seeded from two
    observed rows."""
    if mode == "exact":
        q0, q1 = _cols(x0), _cols(x1)
        a, predicted = _predict_cols(*q0, *q1)
        if a <= RHO_MIN:
            raise CutLocusError(a)
        return q0, q1, predicted
    if mode != "memoryless":
        raise ValueError(f"mode must be 'exact' or 'memoryless', got {mode!r}")
    if codebook is None:
        raise ValueError("memoryless initialization requires a codebook")
    entries = codebook.directions.entries
    q0 = _unit(*_cols(entries[_nearest(x0[None, :], entries)[0][0]]))
    # _nearest's pick first (the stable ranking starts with it), then the rest.
    for i1 in np.argsort(-_scores(x1[None, :], entries)[0], kind="stable"):
        q1 = _unit(*_cols(entries[i1]))
        rho_abs, predicted = _predict_cols(*q0, *q1)
        if rho_abs > RHO_MIN:
            return q0, q1, predicted
    raise CutLocusError(rho_abs, "no codeword for the second point can seed the predictor")


def _stack(seeds):
    """Column form of a batch: each point's parts as (n, B) arrays."""
    return tuple(
        tuple(np.array([seed[p][c] for seed in seeds]).T.copy() for c in (0, 1))
        for p in range(3)
    )


def _reseeded(point, seeds: dict, p: int):
    """A batch point with the sessions in ``seeds`` replaced by their
    re-seeded point ``p``; the batch's own columns are left as they are."""
    parts = tuple([np.array(col) for col in part] for part in point)
    for b, seed in seeds.items():
        for c in (0, 1):
            for col, value in zip(parts[c], seed[p][c]):
                col[b] = value
    return parts


def _rows(points, sessions: int) -> np.ndarray:
    """Complex rows (B, len(points), n) of a sequence of column-form points."""
    n = len(points[0][0])
    out = np.empty((len(points), n, sessions), dtype=np.complex128)
    out.real = np.reshape([p[0] for p in points], out.shape)
    out.imag = np.reshape([p[1] for p in points], out.shape)
    return out.transpose(2, 0, 1)


def _state(rows, time: int) -> GpcState:
    # Each row is an input point's, a normalized codeword or a fresh v / ||v||.
    return GpcState(*(GrassmannPoint._wrap(r) for r in rows), time)


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
    return _state(_rows(_seed(x0.coords, x1.coords, codebook, mode), 1)[0], 2)


_Run = namedtuple("_Run", "pairs estimates predictions pred_err est_err state time reinits")


def _run(codebook, state, time, observed=None, pairs=None, free_magnitude=False, reseed=None):
    """The codec update for B sessions in lock step.

    ``state`` holds every session's (previous, current, predicted) points in
    column form at step ``time``.  Each step picks a codeword per session,
    steps from the prediction along it and extrapolates the next prediction.
    The encoder passes the sessions' observed rows, shape (B, T, n), whose
    rows 0 and 1 seeded ``state``, and searches every codeword; the decoder
    passes the received index ``pairs``, one (d, m) per step: ints for one
    session, (B,) integer arrays for a batch.  Both ends run the same float
    operations in the same order, which keeps them bit-synchronized, and a
    batch decodes each session to the bytes it decodes to alone.

    On track loss a session leaves the step: the encoder re-seeds it alone
    from its two latest observations in mode ``reseed`` and counts a re-init.
    Without ``reseed``, and always in the decoder, :class:`TrackingLostError`
    is raised.  The returned arrays lead with the session axis: ``pairs``
    (B, T, 2), -1 where a step has no wire form; ``estimates`` and
    ``predictions`` (B, T, n); ``pred_err`` and ``est_err`` (B, T);
    ``state`` (B, 3, n); ``reinits`` (B,).  The decoder returns only
    ``estimates``, ``state`` and ``time``, and None for the other fields.
    """
    book = _Book(codebook)
    prev, curr, predicted = state
    single = type(prev[0]) is list
    sessions = 1 if single else len(prev[0][0])
    decoding = observed is None
    if decoding:
        steps = len(pairs)
    else:
        steps = observed.shape[1] - 2
        if single:
            obs_re, obs_im = observed[0].real.tolist(), observed[0].imag.tolist()
        else:  # (T, n, B)
            obs_re = np.moveaxis(observed.real, 0, -1).copy()
            obs_im = np.moveaxis(observed.imag, 0, -1).copy()
    sent, estimates, predictions, pred_err = [], [], [], []
    send = not (decoding or free_magnitude)
    reinits = np.zeros(sessions, dtype=int)
    for j in range(steps):
        if decoding:
            d, m = pairs[j]
            estimate = _along(book, predicted, d, *book.level(m))
            a_obs = math.inf
        else:
            predictions.append(predicted)
            obs = (obs_re[j + 2], obs_im[j + 2])
            rho = _inner(*predicted, *obs)
            a_obs = _sqrt(rho[0] * rho[0] + rho[1] * rho[1])
            chord = _chord_cols(*predicted, *obs, rho)
            pred_err.append(chord)
            if free_magnitude:
                d, cos, sin = _pick_free(book, predicted, obs, rho, chord)
                m = -1
            else:
                d, m = _pick(book, predicted, obs, rho, chord)
                cos, sin = book.level(m)
            estimate = _along(book, predicted, d, cos, sin)
        a_next, following = _predict_cols(*curr, *estimate)
        lost = (a_obs <= RHO_MIN) | (a_next <= RHO_MIN)
        if lost if single else lost.any():
            if decoding or reseed is None:
                a = min(a_obs, a_next) if single else np.minimum(a_obs, a_next)[lost].min()
                raise TrackingLostError(a, time + j)
            lost_at = [0] if single else np.flatnonzero(lost).tolist()
            seeds = {b: _seed(observed[b, j + 1], observed[b, j + 2], codebook, reseed) for b in lost_at}
            reinits[lost_at] += 1
            if single:
                prev, curr, predicted = seeds[0]
                d = m = -1
            else:
                prev, curr, predicted = (
                    _reseeded(point, seeds, p)
                    for p, point in enumerate((curr, estimate, following))
                )
                d, m = np.where(lost, -1, d), np.where(lost, -1, m)
            estimate = curr
        else:
            prev, curr, predicted = curr, estimate, following
        if send:
            sent.append((d, m))
        estimates.append(estimate)
    rows = _rows(estimates, sessions)
    state = _rows((prev, curr, predicted), sessions)
    if decoding:
        return _Run(None, rows, None, None, None, state, time + steps, None)
    if free_magnitude:
        pairs = np.full((sessions, steps, 2), -1)
    else:
        pairs = np.reshape(sent, (steps, 2, sessions)).transpose(2, 0, 1)
    # Each estimate's error, for every (session, step) at once: the chord is
    # elementwise, so its bits are those of one column at a time.
    est, obs = np.moveaxis(rows, -1, 0), np.moveaxis(observed[:, 2:], -1, 0)  # (n, B, T)
    parts = est.real, est.imag, obs.real, obs.imag
    return _Run(
        pairs,
        rows,
        _rows(predictions, sessions),
        np.reshape(pred_err, (steps, sessions)).T,
        _chord_cols(*parts, _inner(*parts)),
        state,
        time + steps,
        reinits,
    )


def _encode_rows(rows, codebook, mode: str, free_magnitude=False, reseed=None) -> _Run:
    """The encoder over B traces of unit rows, shape (B, T, n): each session
    is seeded from its rows 0 and 1 in ``mode`` and :func:`_run` encodes the
    rest, ``_CHUNK`` sessions per call."""
    if rows.shape[1] < 3:
        raise ValueError("need at least 3 points (two seed the state)")
    runs = []
    for lo in range(0, len(rows), _CHUNK):
        part = rows[lo : lo + _CHUNK]
        seeds = [_seed(r[0], r[1], codebook, mode) for r in part]
        state = seeds[0] if len(seeds) == 1 else _stack(seeds)
        runs.append(_run(codebook, state, 2, part, None, free_magnitude, reseed))
    if len(runs) == 1:
        return runs[0]
    return _Run(
        *(np.concatenate(field) for field in list(zip(*runs))[:6]), runs[0].time,
        np.concatenate([run.reinits for run in runs]),
    )


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
    reseed = mode if on_track_loss == "reinit" else None
    rows = np.array([p.coords for p in points])[None]
    run = _encode_rows(rows, codebook, mode, free_magnitude, reseed)
    return EncodeResult(
        tuple(None if d < 0 else CodewordIndex(d, m) for d, m in run.pairs[0].tolist()),
        tuple(GrassmannPoint._wrap(e) for e in run.estimates[0]),
        run.pred_err[0],
        run.est_err[0],
        _state(run.state[0], run.time),
        int(run.reinits[0]),
    )


def decode_trace(
    state: GpcState,
    indices,
    codebook: ShapeGainCodebook,
) -> tuple[tuple[GrassmannPoint, ...], GpcState]:
    """Replay an index stream from an initial state; an empty stream leaves
    the state unchanged."""
    sizes = codebook.directions.size, codebook.magnitudes.size
    pairs = [_pair(_sendable(index, step), *sizes) for step, index in enumerate(indices)]
    if not pairs:
        return (), state
    points = (_cols(p.coords) for p in (state.est_prev, state.est_curr, state.predicted))
    run = _run(codebook, tuple(points), state.time, pairs=pairs)
    return tuple(GrassmannPoint._wrap(e) for e in run.estimates[0]), _state(run.state[0], run.time)


def write_index_stream(path, indices, n_m: int):
    """One decimal serialized index per line."""
    with open(path, "w", encoding="utf-8") as fh:
        for step, index in enumerate(indices):
            fh.write(f"{_sendable(index, step).serialize(n_m)}\n")


def read_index_stream(path, n_m: int) -> tuple[CodewordIndex, ...]:
    """Inverse of :func:`write_index_stream`."""
    n_m = _count("n_m", n_m)
    if n_m < 1:
        raise ValueError(f"n_m must be at least 1, got {n_m}")
    with open(path, "r", encoding="utf-8") as fh:
        return tuple(CodewordIndex.deserialize(int(line), n_m) for line in fh if line.strip())
