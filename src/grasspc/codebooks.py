"""Shape-gain tangent codebooks: containers, training, and file format.

A codeword is the product of a unit "shape" (a direction codeword, stored
as a unit vector in C^n and projected onto the local tangent space at use
time) and a scalar "gain" (a tangent magnitude in [0, pi/2]).  Training
follows the classic two-stage recipe: harvest prediction-error tangents
from a trace (open loop on raw observations, then closed loop through the
actual encoder) into a :class:`TrainingSet` of plain arrays, and run Lloyd
iterations separately on the direction rows and the magnitudes.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel import rng_stream
from .geometry import CutLocusError, _log_coords, _predict_coords
from .params import _count, _is_pow2

__all__ = [
    "FILE_NORM_TOL",
    "SAME_LINE_CHORD",
    "DirectionCodebook",
    "MagnitudeCodebook",
    "ShapeGainCodebook",
    "TrainingSet",
    "canonical_phase",
    "harvest_open_loop",
    "harvest_closed_loop",
    "lloyd_direction",
    "lloyd_magnitude",
    "uniform_magnitude",
    "best_packing",
    "save_codebook",
    "load_codebook",
]

#: Unit-norm tolerance accepted for direction codewords (file interchange).
FILE_NORM_TOL = 1e-9
#: Two direction codewords closer than this chordal distance span one line.
SAME_LINE_CHORD = 1e-6
#: Lloyd stops once the per-iteration distortion decrease falls below this.
LLOYD_TOL = 1e-8
# Floating-point slack for the hard monotonicity assertion: the analytic
# argument gives non-increase exactly, rounding can wobble a plateau.
_MONOTONE_SLACK = 1e-12


@dataclass(frozen=True)
class DirectionCodebook:
    """A power-of-two collection of distinct unit shape codewords in C^n."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.complex128).copy()
        if arr.ndim != 2 or arr.shape[1] < 2:
            raise ValueError(f"entries must have shape (N_d, n >= 2), got {arr.shape}")
        if not _is_pow2(arr.shape[0]):
            raise ValueError(f"N_d must be a power of two, got {arr.shape[0]}")
        norms = np.linalg.norm(arr, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > FILE_NORM_TOL)[0]
        if bad.size:
            raise ValueError(
                f"direction codeword {bad[0]} has norm error {abs(norms[bad[0]] - 1.0):.3e} "
                f"> {FILE_NORM_TOL:.0e}"
            )
        if arr.shape[0] > 1:
            # Scaled by the norms, which may be off 1 by FILE_NORM_TOL.
            power = norms * norms
            gram = np.abs(arr @ arr.conj().T) ** 2 / np.outer(power, power)
            np.fill_diagonal(gram, 0.0)
            if gram.max() > 1.0 - SAME_LINE_CHORD**2:
                i, j = np.unravel_index(int(gram.argmax()), gram.shape)
                raise ValueError(
                    f"codewords {i} and {j} span the same line (chordal distance "
                    f"{math.sqrt(max(0.0, 1.0 - gram[i, j])):.1e} < {SAME_LINE_CHORD:.0e})"
                )
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def n(self) -> int:
        return self.entries.shape[1]

    @property
    def bits(self) -> int:
        return int(math.log2(self.size))

    def min_chordal_distance(self) -> float:
        if self.size < 2:
            raise ValueError("spacing of a singleton codebook is undefined")
        gram = np.abs(self.entries @ self.entries.conj().T) ** 2
        off_diag = gram[~np.eye(self.size, dtype=bool)]
        return float(np.sqrt(max(0.0, 1.0 - off_diag.max())))

    def pairwise_chordal(self) -> np.ndarray:
        gram = np.abs(self.entries @ self.entries.conj().T) ** 2
        return np.sqrt(np.maximum(0.0, 1.0 - gram))


@dataclass(frozen=True)
class MagnitudeCodebook:
    """Sorted power-of-two set of gain codewords in [0, pi/2].

    Entries are normally distinct; ties are tolerated because Lloyd training
    on degenerate data (e.g. a stationary trace) legitimately collapses
    codewords.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=np.float64).copy()
        if arr.ndim != 1:
            raise ValueError(f"entries must be 1-D, got shape {arr.shape}")
        if not _is_pow2(arr.shape[0]):
            raise ValueError(f"N_m must be a power of two, got {arr.shape[0]}")
        if np.any(np.diff(arr) < 0.0):
            raise ValueError("entries must be sorted ascending")
        if arr[0] < 0.0 or arr[-1] > np.pi / 2 + 1e-12:
            raise ValueError("entries must lie in [0, pi/2]")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    @property
    def bits(self) -> int:
        return int(math.log2(self.size))

    def spacings(self) -> np.ndarray:
        if self.size < 2:
            raise ValueError("spacing of a singleton codebook is undefined")
        return np.diff(self.entries)


@dataclass(frozen=True)
class ShapeGainCodebook:
    """The product codebook: every (direction, magnitude) pair is a codeword."""

    directions: DirectionCodebook
    magnitudes: MagnitudeCodebook

    @property
    def n(self) -> int:
        return self.directions.n

    @property
    def size(self) -> int:
        return self.directions.size * self.magnitudes.size

    @property
    def bits(self) -> int:
        return self.directions.bits + self.magnitudes.bits


@dataclass(frozen=True)
class TrainingSet:
    """Harvested prediction-error tangents as arrays, plus a skipped-step counter.

    Row ``k`` of ``directions`` (shape (M, n)) is the unit direction of the
    tangent whose arc length is ``magnitudes[k]`` (shape (M,)); a zero
    tangent has the all-zeros direction.  Direction training wants the
    nonzero ones: ``directions[magnitudes > 0]``.
    """

    magnitudes: np.ndarray
    directions: np.ndarray
    skipped: int = 0

    def __post_init__(self):
        mags = np.array(self.magnitudes, dtype=np.float64)
        dirs = np.array(self.directions, dtype=np.complex128)
        if mags.size == 0:
            raise ValueError("training set must contain at least one tangent")
        if mags.ndim != 1 or dirs.ndim != 2 or dirs.shape[0] != mags.size or dirs.shape[1] < 2:
            raise ValueError(f"need shapes (M,) and (M, n >= 2), got {mags.shape}, {dirs.shape}")
        mags.flags.writeable = dirs.flags.writeable = False
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "directions", dirs)

    def __len__(self) -> int:
        return self.magnitudes.size

    @property
    def n(self) -> int:
        return self.directions.shape[1]


def canonical_phase(v: np.ndarray) -> np.ndarray:
    """Rotate a vector so its first non-negligible entry is real positive."""
    v = np.asarray(v, dtype=np.complex128)
    for z in v:
        if abs(z) > 1e-12:
            return v * (np.conj(z) / abs(z))
    return v.copy()


def _training_set(tangents: list, skipped: int) -> TrainingSet:
    if not tangents:
        raise ValueError("every step straddled the cut locus; nothing harvested")
    magnitudes, directions = zip(*tangents)
    return TrainingSet(magnitudes, directions, skipped)


def _harvest_open_rows(rows) -> TrainingSet:
    """:func:`harvest_open_loop` on a sequence of unit rows."""
    if len(rows) < 3:
        raise ValueError("need at least 3 points to harvest")
    tangents = []
    for prev, curr, target in zip(rows, rows[1:], rows[2:]):
        try:
            tangents.append(_log_coords(_predict_coords(prev, curr), target))
        except CutLocusError:
            pass
    return _training_set(tangents, len(rows) - 2 - len(tangents))


def _harvest_closed_rows(rows, codebook: ShapeGainCodebook) -> TrainingSet:
    """:func:`harvest_closed_loop` on a sequence of unit rows."""
    from .codec import _encode_rows  # local import to avoid a cycle

    run = _encode_rows(np.asarray(rows)[None], codebook, "exact", reseed="exact")
    tangents = []
    for base, target in zip(run.predictions[0], rows[2:]):
        try:
            tangents.append(_log_coords(base, target))
        except CutLocusError:
            pass
    return _training_set(tangents, int(run.reinits[0]))


def harvest_open_loop(points) -> TrainingSet:
    """Prediction-error tangents of a trace, predicting from raw observations.

    For each k >= 1 the tangent log_map(predict(x[k-1], x[k]), x[k+1]) is
    recorded; cut-locus steps are skipped and counted.
    """
    return _harvest_open_rows([p.coords for p in points])


def harvest_closed_loop(points, codebook: ShapeGainCodebook) -> TrainingSet:
    """Prediction-error tangents seen by the running encoder itself.

    Runs the encoder (exact initialization from the first two points) and
    records log_map(predicted, observed) at each step, before the quantized
    update is applied; a step whose observation straddles the cut locus
    contributes no tangent.  Encoder cut-locus failures are counted in
    ``skipped`` and recover by exact re-initialization from the raw
    observations.
    """
    return _harvest_closed_rows([p.coords for p in points], codebook)


def _scores(rows, entries) -> np.ndarray:
    """|c^H x|^2 for each of the (M, n) ``rows`` x and (N, n) ``entries`` c."""
    return np.abs(rows.conj() @ entries.T) ** 2


def _nearest(rows, entries) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best codeword by :func:`_scores` (ties to the lowest
    index) and its squared chordal error.  A lone (1, n) row scores to the
    bits of the matrix-vector C^* @ x, a stacked batch need not: callers
    whose results must not depend on batching pass one row at a time."""
    scores = _scores(rows, entries)
    index = scores.argmax(axis=1)
    return index, np.maximum(0.0, 1.0 - scores[np.arange(index.size), index])


def _lloyd(samples, centers, assign, centroid, max_iters: int):
    """Lloyd iterations shared by both trainers; returns (centers, history).

    ``assign(centers)`` gives each sample's cell and squared error (it may
    reorder ``centers`` in place); ``centroid(members)`` a nonempty cell's
    codeword.  Stops when the mean error falls by less than ``LLOYD_TOL``
    or after ``max_iters`` assignments, and asserts that it never rises.
    """
    history = []
    for _ in range(max_iters):
        cells, sq_err = assign(centers)
        distortion = float(sq_err.mean())
        if history and distortion > history[-1] + _MONOTONE_SLACK:
            raise AssertionError(
                f"Lloyd distortion increased: {history[-1]!r} -> {distortion!r}"
            )
        history.append(distortion)
        if len(history) > 1 and history[-2] - distortion < LLOYD_TOL:
            break
        # Farthest-first: the worst-quantized samples seed empty cells.
        empties = [k for k in range(len(centers)) if not np.any(cells == k)]
        for k, idx in zip(empties, np.argsort(sq_err)[::-1][: len(empties)]):
            centers[k] = samples[idx]
            cells[idx] = k
        for k in range(len(centers)):
            members = samples[cells == k]
            if len(members):
                centers[k] = centroid(members)
    return centers, history


def lloyd_direction(
    samples,
    n_d: int,
    max_iters: int = 100,
    seed: int = 0,
    *,
    return_history: bool = False,
):
    """Lloyd clustering of tangent directions under the chordal metric.

    ``samples`` is an (M, n) array of unit rows, such as the nonzero rows of
    a :class:`TrainingSet`'s ``directions``; each is phase-canonicalized for
    reproducible clustering.  Cluster centroids are principal eigenvectors
    of the cluster outer-product sums; empty clusters are repaired with the
    currently worst-quantized samples.  The per-iteration mean distortion is
    non-increasing by construction and this is asserted on every run.
    """
    X = np.asarray(samples, dtype=np.complex128)
    if X.ndim != 2 or np.any(np.abs(np.linalg.norm(X, axis=1) - 1.0) > FILE_NORM_TOL):
        raise ValueError("samples must be a 2-D array of unit rows (drop zero tangents)")
    X = np.array([canonical_phase(r) for r in X])
    m = X.shape[0]
    n_d, max_iters = _count("n_d", n_d), _count("max_iters", max_iters)
    seed = _count("seed", seed)
    if not _is_pow2(n_d):
        raise ValueError(f"N_d must be a power of two, got {n_d}")
    if m < n_d:
        raise ValueError(f"need at least N_d = {n_d} usable samples, got {m}")
    rng = rng_stream(seed, 0xD1)
    centers = X[rng.choice(m, size=n_d, replace=False)].copy()

    def principal(members):
        _, vecs = np.linalg.eigh(members.T @ members.conj())
        return canonical_phase(vecs[:, -1])

    centers, history = _lloyd(X, centers, lambda c: _nearest(X, c), principal, max_iters)
    codebook = DirectionCodebook(centers)
    return (codebook, history) if return_history else codebook


def lloyd_magnitude(
    samples,
    n_m: int,
    max_iters: int = 100,
    *,
    return_history: bool = False,
):
    """Scalar Lloyd-Max on tangent magnitudes: midpoint cells, mean codewords.

    ``samples`` is an array of magnitudes, such as a :class:`TrainingSet`'s
    ``magnitudes``.  Initialization uses sample quantiles, so the run is
    deterministic.  The per-iteration distortion is asserted non-increasing.
    """
    vals = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    if vals.size == 0:
        raise ValueError("no magnitude samples")
    n_m, max_iters = _count("n_m", n_m), _count("max_iters", max_iters)
    if not _is_pow2(n_m):
        raise ValueError(f"N_m must be a power of two, got {n_m}")

    def midpoint_cells(codewords):
        codewords.sort()  # the cells need sorted codewords; repair and update unsort them
        cells = np.searchsorted(0.5 * (codewords[1:] + codewords[:-1]), vals)
        err = vals - codewords[cells]
        return cells, err * err

    codewords = np.quantile(vals, (np.arange(n_m) + 0.5) / n_m)
    codewords, history = _lloyd(vals, codewords, midpoint_cells, np.mean, max_iters)
    codebook = MagnitudeCodebook(np.sort(codewords))
    return (codebook, history) if return_history else codebook


def uniform_magnitude(n_m: int, lo: float = 0.0, hi: float = 1.0) -> MagnitudeCodebook:
    """Midpoints of ``n_m`` equal bins on [lo, hi]."""
    n_m = _count("n_m", n_m)
    if not _is_pow2(n_m):
        raise ValueError(f"n_m must be a power of two, got {n_m}")
    if not 0.0 <= lo < hi <= np.pi / 2 + 1e-12:
        raise ValueError(f"need 0 <= lo < hi <= pi/2, got [{lo}, {hi}]")
    step = (hi - lo) / n_m
    return MagnitudeCodebook(lo + step * (np.arange(n_m) + 0.5))


#: Gram rows scored per step of the packing search.
_PACKING_BLOCK_ROWS = 16


def _packing_file(n: int, size: int, seed: int, draws: int) -> str:
    """Where the shipped packing for this key would be; most keys have none."""
    return os.path.join(os.path.dirname(__file__), "packings", f"{n}-{size}-{seed}-{draws}.npy")


@lru_cache(maxsize=32)
def _best_packing_cached(n: int, size: int, seed: int, draws: int) -> np.ndarray:
    """The key's shipped packing if it has one, else the search's."""
    path = _packing_file(n, size, seed, draws)
    if not os.path.exists(path):
        return _search_packing(n, size, seed, draws)
    table = np.load(path, allow_pickle=False)
    if table.dtype != np.complex128 or table.shape != (size, n):
        raise ValueError(
            f"{path}: shipped packing is {table.dtype} {table.shape}, "
            f"wanted complex128 {(size, n)}"
        )
    return table


def _search_packing(n: int, size: int, seed: int, draws: int) -> np.ndarray:
    rng = rng_stream(seed, 0xBE5)
    # The chunk size fixes how draws are split between generator calls, and
    # so which candidates are drawn: changing it changes every codebook.
    chunk = max(1, min(256, (1 << 22) // (size * size)))
    best_score = np.inf
    best = None
    done = 0
    while done < draws:
        b = min(chunk, draws - done)
        rows = rng.standard_normal((b, size, n)) + 1j * rng.standard_normal((b, size, n))
        rows /= np.linalg.norm(rows, axis=2, keepdims=True)
        done += b
        cols = np.conj(np.swapaxes(rows, 1, 2))
        # Each candidate's running off-diagonal max of |inner|^2, a block of
        # Gram rows at a time.  A winner must score strictly below
        # best_score, so a candidate whose running max reaches it is
        # dropped without finishing.
        running = np.zeros(b)
        for r0 in range(0, size, _PACKING_BLOCK_ROWS):
            block = np.abs(rows[:, r0 : r0 + _PACKING_BLOCK_ROWS] @ cols) ** 2
            diag = np.arange(block.shape[1])
            block[:, diag, r0 + diag] = 0.0
            running = np.maximum(running, block.reshape(running.size, -1).max(axis=1))
            keep = running < best_score
            if not keep.all():
                rows, cols, running = rows[keep], cols[keep], running[keep]
                if running.size == 0:
                    break
        if running.size:
            k = int(running.argmin())  # first minimum, as over the whole chunk
            best_score = float(running[k])
            best = rows[k].copy()
    return best


def best_packing(n: int, size: int, seed: int = 0, draws: int = 10_000) -> DirectionCodebook:
    """Best of ``draws`` random codebooks by minimum pairwise chordal distance.

    A codebook's score is its largest off-diagonal |inner|^2; the first
    codebook drawn with the smallest score wins.  Candidates are drawn in
    chunks and scored a block of Gram rows at a time, and a candidate is
    dropped as soon as one entry reaches the best score so far, since it
    can no longer win; the result, byte for byte, is the one a full scoring
    of every candidate would pick.  Deterministic in (n, size, seed,
    draws); results are cached in-process.

    The keys the configs build, (4, 64), (4, 512) and (3, 16) at seed 0 and
    10,000 draws, load shipped constants instead (``packings/*.npy`` in the
    package), which are this search's bytes and are tested against it;
    every other key runs the search.
    """
    n, size = _count("n", n), _count("size", size)
    seed, draws = _count("seed", seed), _count("draws", draws)
    if size < 2:
        raise ValueError("a packing needs at least two codewords")
    if n < 2:
        raise ValueError(f"a packing needs ambient dimension n >= 2, got n = {n}")
    if draws < 1:
        raise ValueError(f"a packing needs draws >= 1 candidate codebooks, got draws = {draws}")
    return DirectionCodebook(_best_packing_cached(n, size, seed, draws))


def save_codebook(codebook: ShapeGainCodebook, path):
    """Plain-text format: header 'n N_d N_m', direction rows (re im
    interleaved), then magnitude rows; 17 significant digits round-trip
    float64 exactly."""
    d = codebook.directions.entries
    m = codebook.magnitudes.entries
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{codebook.n} {d.shape[0]} {m.shape[0]}\n")
        for row in d:
            flat = np.empty(2 * row.size)
            flat[0::2] = row.real
            flat[1::2] = row.imag
            fh.write(" ".join(f"{v:.17g}" for v in flat) + "\n")
        for v in m:
            fh.write(f"{v:.17g}\n")


def load_codebook(path) -> ShapeGainCodebook:
    """Inverse of :func:`save_codebook`, validating counts and norms."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty codebook file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    try:
        n, n_d, n_m = (int(v) for v in head)
    except ValueError as exc:
        raise ValueError(f"{path}: malformed header {lines[0]!r}") from exc
    if len(lines) != 1 + n_d + n_m:
        raise ValueError(
            f"{path}: expected {1 + n_d + n_m} lines for header + {n_d} directions "
            f"+ {n_m} magnitudes, found {len(lines)}"
        )
    dirs = np.empty((n_d, n), dtype=np.complex128)
    for i in range(n_d):
        parts = lines[1 + i].split()
        if len(parts) != 2 * n:
            raise ValueError(f"{path}: direction row {i} has {len(parts)} fields, wanted {2 * n}")
        flat = np.array([float(v) for v in parts])
        dirs[i] = flat[0::2] + 1j * flat[1::2]
        err = abs(np.linalg.norm(dirs[i]) - 1.0)
        if err > FILE_NORM_TOL:
            raise ValueError(f"{path}: direction row {i} norm error {err:.3e} > {FILE_NORM_TOL:.0e}")
    mags = np.array([float(lines[1 + n_d + j]) for j in range(n_m)])
    return ShapeGainCodebook(DirectionCodebook(dirs), MagnitudeCodebook(mags))
