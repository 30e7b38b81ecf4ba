"""Unit tests for codebook containers, training-set harvesting, Lloyd
training, uniform grids, random packings, and codebook file I/O."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grasspc import (
    Ar1Params,
    Ar2Params,
    CutLocusError,
    FILE_NORM_TOL,
    SAME_LINE_CHORD,
    DirectionCodebook,
    GrassmannPoint,
    MagnitudeCodebook,
    ShapeGainCodebook,
    TrainingSet,
    best_packing,
    chordal_distance,
    exp_map,
    gen_ar1,
    gen_ar2,
    harvest_closed_loop,
    harvest_open_loop,
    load_codebook,
    lloyd_direction,
    lloyd_magnitude,
    log_map,
    predict_one_step,
    random_point,
    rng_stream,
    save_codebook,
    uniform_magnitude,
)
from grasspc import codebooks
from grasspc.codebooks import _best_packing_cached, _search_packing, canonical_phase

REPO = Path(__file__).resolve().parents[1]
PACKINGS = Path(codebooks.__file__).parent / "packings"
# The (n, size, seed, draws) keys the configs build, shipped as constants.
SHIPPED_KEYS = [(4, 64, 0, 10_000), (4, 512, 0, 10_000), (3, 16, 0, 10_000)]


def unit_rows(n_rows, n, rng):
    z = rng.standard_normal((n_rows, n)) + 1j * rng.standard_normal((n_rows, n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# containers


def test_direction_codebook_validation():
    rng = rng_stream(1)
    with pytest.raises(ValueError, match="power of two"):
        DirectionCodebook(unit_rows(3, 4, rng))
    with pytest.raises(ValueError, match="shape"):
        DirectionCodebook(unit_rows(4, 4, rng)[:, :1])
    bad = unit_rows(4, 4, rng)
    bad[2] *= 1.5
    with pytest.raises(ValueError, match="codeword 2 has norm error"):
        DirectionCodebook(bad)


def test_direction_codebook_rejects_duplicate_lines():
    e1 = np.eye(2, dtype=np.complex128)[0]
    e2 = np.eye(2, dtype=np.complex128)[1]
    with pytest.raises(ValueError, match="same line"):
        DirectionCodebook(np.stack([e1, e2, e1 * np.exp(0.4j), -e2]))


def test_direction_codebook_rejects_phase_rotated_random_lines():
    # Random rows are not exact in floating point the way basis vectors
    # are: |<a, a e^{i theta}>|^2 lands on either side of 1.
    rng = rng_stream(7)
    for _ in range(300):
        rows = unit_rows(4, 4, rng)
        rows[2] = rows[0] * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        with pytest.raises(ValueError, match="codewords 0 and 2 span the same line"):
            DirectionCodebook(rows)
    # Short of unit norm by almost FILE_NORM_TOL, a copy still spans the
    # same line, though its unscaled |<a, b>|^2 is 1 - 1.8e-9.
    rows = unit_rows(4, 4, rng)
    rows[3] = rows[1] * (1.0 - 0.9 * FILE_NORM_TOL) * 1j
    with pytest.raises(ValueError, match="same line"):
        DirectionCodebook(rows)


def test_direction_codebook_same_line_tolerance():
    # A row a tenth of SAME_LINE_CHORD from row 0 spans its line; ten times
    # that far, it is a codeword of its own.
    rows = unit_rows(4, 4, rng_stream(8))
    step = rows[1] - np.vdot(rows[0], rows[1]) * rows[0]
    step /= np.linalg.norm(step)
    for chord in (SAME_LINE_CHORD / 10, SAME_LINE_CHORD * 10):
        trial = rows.copy()
        trial[1] = np.sqrt(1.0 - chord**2) * rows[0] + chord * step
        if chord < SAME_LINE_CHORD:
            with pytest.raises(ValueError, match=r"codewords 0 and 1 span the same line"):
                DirectionCodebook(trial)
        else:
            assert DirectionCodebook(trial).min_chordal_distance() == pytest.approx(chord, rel=1e-3)


def test_direction_codebook_metrics():
    cb = DirectionCodebook(np.eye(4, dtype=np.complex128))
    assert cb.size == 4 and cb.n == 4 and cb.bits == 2
    assert abs(cb.min_chordal_distance() - 1.0) < 1e-15
    pc = cb.pairwise_chordal()
    assert pc.shape == (4, 4)
    assert np.allclose(np.diag(pc), 0.0)
    assert np.allclose(pc, pc.T)
    single = DirectionCodebook(np.eye(2, dtype=np.complex128)[:1])
    with pytest.raises(ValueError, match="singleton"):
        single.min_chordal_distance()


def test_magnitude_codebook_validation():
    with pytest.raises(ValueError, match="power of two"):
        MagnitudeCodebook(np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="sorted"):
        MagnitudeCodebook(np.array([0.3, 0.1]))
    with pytest.raises(ValueError, match="pi/2"):
        MagnitudeCodebook(np.array([0.1, 2.0]))
    # exact ties are tolerated: Lloyd on degenerate data may collapse cells
    tied = MagnitudeCodebook(np.array([0.2, 0.2]))
    assert tied.size == 2
    got = MagnitudeCodebook(np.array([0.1, 0.3, 0.5, 0.9])).spacings()
    assert np.allclose(got, [0.2, 0.2, 0.4])
    with pytest.raises(ValueError, match="singleton"):
        MagnitudeCodebook(np.array([0.1])).spacings()


def test_shape_gain_codebook_bit_accounting():
    cb = ShapeGainCodebook(best_packing(3, 8), uniform_magnitude(4))
    assert cb.n == 3
    assert cb.size == 32
    assert cb.bits == 5


def test_uniform_magnitude_grids():
    assert np.array_equal(
        uniform_magnitude(4, 0.0, 1.0).entries, [0.125, 0.375, 0.625, 0.875]
    )
    assert np.allclose(uniform_magnitude(2, 0.0, 0.1).entries, [0.025, 0.075])
    with pytest.raises(ValueError):
        uniform_magnitude(4, 0.5, 0.2)
    with pytest.raises(ValueError):
        uniform_magnitude(4, 0.0, 3.2)
    assert np.array_equal(uniform_magnitude(np.int64(4)).entries, uniform_magnitude(4).entries)


@pytest.mark.parametrize(
    "n_m, message",
    [
        (0, "power of two, got 0"),
        (-2, "power of two, got -2"),
        (3, "power of two, got 3"),
        (2.5, "n_m must be an integer, got 2.5"),
        (4.0, "n_m must be an integer, got 4.0"),
    ],
)
def test_uniform_magnitude_rejects_bad_level_counts(n_m, message):
    with pytest.raises(ValueError, match=message):
        uniform_magnitude(n_m)


def test_canonical_phase():
    v = np.array([0.0, 0.6j, 0.8], dtype=np.complex128)
    w = canonical_phase(v)
    assert abs(w[1].imag) < 1e-15 and w[1].real > 0
    assert abs(np.vdot(v, w)) - 1.0 < 1e-12  # same line
    z = np.zeros(3, dtype=np.complex128)
    assert np.array_equal(canonical_phase(z), z)


# ---------------------------------------------------------------------------
# training sets and harvesting


def tangent_with_magnitude(mag, n=3):
    x = GrassmannPoint(np.eye(n, dtype=np.complex128)[0])
    y = GrassmannPoint.from_vector(
        np.cos(mag) * np.eye(n)[0] + np.sin(mag) * np.eye(n)[1]
    )
    return log_map(x, y)


def test_training_set_validation_and_filter():
    with pytest.raises(ValueError, match="at least one"):
        TrainingSet(np.empty(0), np.empty((0, 3)), 0)
    tangents = [tangent_with_magnitude(0.2), tangent_with_magnitude(0.4)]
    ts = TrainingSet([t.magnitude for t in tangents], [t.direction for t in tangents], 0)
    assert len(ts) == 2 and ts.n == 3
    assert np.allclose(ts.magnitudes, [0.2, 0.4])
    assert not ts.magnitudes.flags.writeable and not ts.directions.flags.writeable
    assert ts.directions[ts.magnitudes > 0.0].shape == (2, 3)
    assert ts.directions[ts.magnitudes > 0.2].shape == (1, 3)  # floor is strict
    with pytest.raises(ValueError, match="shape"):
        TrainingSet([0.2, 0.4], [tangents[0].direction], 0)
    with pytest.raises(ValueError, match="shape"):
        TrainingSet([0.2], [[1.0]], 0)


def test_harvest_open_loop_counts():
    trace = gen_ar1(Ar1Params(n=4, beta=0.01, steps=200, seed=2))
    ts = harvest_open_loop(trace.points)
    assert len(ts) + ts.skipped == 198
    assert ts.skipped == 0  # heavily correlated trace never hits the cut locus
    with pytest.raises(ValueError, match="at least 3"):
        harvest_open_loop(trace.points[:2])


def ref_harvest_open_loop(points):
    """The open-loop harvest on checked point and tangent objects, which
    the row loop replaced: (magnitudes, directions, skipped)."""
    magnitudes, directions, skipped = [], [], 0
    for k in range(1, len(points) - 1):
        try:
            tangent = log_map(predict_one_step(points[k - 1], points[k]), points[k + 1])
        except CutLocusError:
            skipped += 1
            continue
        magnitudes.append(tangent.magnitude)
        directions.append(tangent.direction)
    return np.array(magnitudes), np.array(directions), skipped


def cut_locus_trace():
    # Step 1 predicts e0 and observes e1 (orthogonal); step 2 predicts from
    # the orthogonal pair (e0, e1).  Both are skipped.
    e = np.eye(3, dtype=np.complex128)
    head = [GrassmannPoint(e[0]), GrassmannPoint(e[0]), GrassmannPoint(e[1])]
    return head + list(gen_ar1(Ar1Params(n=3, beta=0.01, steps=50, seed=9)).points)


HARVEST_TRACES = {
    "ar1-slow": lambda: gen_ar1(Ar1Params(n=4, beta=0.001, steps=400, seed=7)).points,
    "ar1-fast": lambda: gen_ar1(Ar1Params(n=4, beta=0.04, steps=400, seed=7)).points,
    "ar2": lambda: gen_ar2(Ar2Params(3, a1=0.9, a2=0.75, noise_std=0.01, steps=400, seed=8)).points,
    "stationary": lambda: [random_point(3, rng_stream(3))] * 10,
    "cut-locus": cut_locus_trace,
}


@pytest.mark.parametrize("name", sorted(HARVEST_TRACES))
def test_harvest_open_loop_matches_object_reference(name):
    points = list(HARVEST_TRACES[name]())
    magnitudes, directions, skipped = ref_harvest_open_loop(points)
    ts = harvest_open_loop(points)
    assert ts.skipped == skipped == (2 if name == "cut-locus" else 0)
    assert ts.magnitudes.tobytes() == magnitudes.tobytes()
    assert ts.directions.tobytes() == directions.tobytes()


def test_harvest_on_stationary_trace_is_all_zero():
    x = random_point(3, rng_stream(3))
    ts = harvest_open_loop([x] * 10)
    assert np.all(ts.magnitudes == 0.0)
    assert ts.directions.shape == (8, 3) and not ts.directions.any()


def test_harvest_on_exact_geodesic_is_near_zero():
    rng = rng_stream(4)
    x, y = random_point(4, rng), random_point(4, rng)
    e = log_map(x, y)
    points = [exp_map(x, e, t) for t in np.arange(12) * 0.05]
    ts = harvest_open_loop(points)
    assert np.max(ts.magnitudes) < 1e-6  # constant-speed rotation is predictable


def test_harvest_closed_loop_sees_larger_errors_than_open_loop():
    # With a coarse codebook in the loop the encoder predicts from quantized
    # estimates, so its prediction errors dominate the open-loop ones.
    trace = gen_ar1(Ar1Params(n=3, beta=0.02, steps=600, seed=6))
    coarse = ShapeGainCodebook(best_packing(3, 4), uniform_magnitude(2, 0.0, 0.5))
    closed = harvest_closed_loop(trace.points, coarse)
    opened = harvest_open_loop(trace.points)
    assert np.mean(closed.magnitudes) >= np.mean(opened.magnitudes)


# ---------------------------------------------------------------------------
# Lloyd training


def test_lloyd_direction_single_center_is_principal_eigenvector():
    rng = rng_stream(7)
    X = unit_rows(64, 3, rng)
    cb = lloyd_direction(X, 1)
    scatter = X.T @ X.conj()
    _, vecs = np.linalg.eigh(scatter)
    principal = vecs[:, -1]
    assert abs(abs(np.vdot(cb.entries[0], principal)) - 1.0) < 1e-9


def test_lloyd_direction_recovers_separated_clusters():
    X = np.repeat(np.eye(4, dtype=np.complex128), 25, axis=0)
    cb, history = lloyd_direction(X, 4, seed=1, return_history=True)
    assert history[-1] < 1e-9
    for k in range(4):
        best = np.max(np.abs(cb.entries @ np.conj(np.eye(4)[k])))
        assert best > 1.0 - 1e-9
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_lloyd_direction_validation():
    rng = rng_stream(8)
    with pytest.raises(ValueError, match="power of two"):
        lloyd_direction(unit_rows(10, 3, rng), 3)
    with pytest.raises(ValueError, match="at least"):
        lloyd_direction(unit_rows(3, 3, rng), 8)
    # A zero tangent's all-zeros direction is not a unit row.
    with pytest.raises(ValueError, match="unit rows"):
        lloyd_direction(np.vstack([unit_rows(9, 3, rng), np.zeros((1, 3))]), 2)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"n_d": 2.0}, "n_d"),
        ({"n_d": 2, "max_iters": 2.5}, "max_iters"),
        ({"n_d": 2, "seed": 0.5}, "seed"),
    ],
)
def test_lloyd_direction_rejects_non_integer_arguments(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        lloyd_direction(unit_rows(10, 3, rng_stream(8)), **kwargs)


def test_lloyd_direction_history_non_increasing():
    rng = rng_stream(9)
    X = unit_rows(400, 3, rng)
    _, history = lloyd_direction(X, 8, return_history=True)
    assert len(history) >= 2
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def test_lloyd_magnitude_two_point_oracle():
    cb = lloyd_magnitude([0.1, 0.1, 0.3, 0.3], 2)
    assert np.allclose(cb.entries, [0.1, 0.3], atol=1e-12)


def test_lloyd_magnitude_degenerate_samples_collapse():
    cb = lloyd_magnitude([0.25] * 40, 2)
    assert np.allclose(cb.entries, 0.25)


def test_lloyd_magnitude_beats_uniform_grid():
    mags = np.clip(np.abs(rng_stream(5, 0xAB).normal(0.3, 0.1, 2000)), 0.0, np.pi / 2)

    def grid_distortion(cb):
        d = np.abs(mags[:, None] - cb.entries[None, :])
        return float(np.mean(d.min(axis=1) ** 2))

    trained, history = lloyd_magnitude(mags, 8, return_history=True)
    uniform = uniform_magnitude(8, 0.0, float(mags.max()))
    assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))
    assert grid_distortion(trained) <= grid_distortion(uniform)


def test_lloyd_magnitude_validation():
    with pytest.raises(ValueError, match="power of two"):
        lloyd_magnitude([0.1, 0.2], 3)
    with pytest.raises(ValueError, match="no magnitude"):
        lloyd_magnitude([], 2)


@pytest.mark.parametrize(
    "kwargs, name", [({"n_m": 2.0}, "n_m"), ({"n_m": 4, "max_iters": 2.5}, "max_iters")]
)
def test_lloyd_magnitude_rejects_non_integer_arguments(kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        lloyd_magnitude(np.linspace(0.0, 1.0, 50), **kwargs)


def test_lloyd_trainers_accept_numpy_integers():
    mags = np.linspace(0.0, 1.0, 50)
    got = lloyd_magnitude(mags, np.int64(4), max_iters=np.int32(20))
    assert np.array_equal(got.entries, lloyd_magnitude(mags, 4, max_iters=20).entries)
    X = unit_rows(40, 3, rng_stream(11))
    got = lloyd_direction(X, np.int16(4), max_iters=np.int64(20), seed=np.uint8(3))
    assert np.array_equal(got.entries, lloyd_direction(X, 4, max_iters=20, seed=3).entries)


def test_lloyd_magnitude_deterministic():
    mags = np.abs(rng_stream(10).normal(0.2, 0.05, 500))
    a = lloyd_magnitude(mags, 4)
    b = lloyd_magnitude(mags, 4)
    assert np.array_equal(a.entries, b.entries)


# ---------------------------------------------------------------------------
# packings


def test_best_packing_deterministic_and_separated():
    a = best_packing(3, 16, seed=0, draws=2000)
    b = best_packing(3, 16, seed=0, draws=2000)
    c = best_packing(3, 16, seed=1, draws=2000)
    assert np.array_equal(a.entries, b.entries)
    assert not np.array_equal(a.entries, c.entries)
    assert a.min_chordal_distance() > 0.4
    with pytest.raises(ValueError):
        best_packing(3, 1)
    with pytest.raises(ValueError, match="draws"):
        best_packing(4, 4, draws=0)
    with pytest.raises(ValueError, match="draws"):
        best_packing(4, 4, draws=-2)
    with pytest.raises(ValueError, match="n = 1"):
        best_packing(1, 4)


@pytest.mark.parametrize(
    "args, kwargs, name",
    [
        ((4.5, 8), {}, "n"),
        ((4.0, 64), {}, "n"),
        ((4, 8.9), {}, "size"),
        ((4, 8), {"draws": 2.5}, "draws"),
        ((4, 8), {"seed": 0.5}, "seed"),
        (("4", 8), {}, "n"),
    ],
)
def test_best_packing_rejects_non_integer_arguments(args, kwargs, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        best_packing(*args, **kwargs)


def test_best_packing_accepts_numpy_integers():
    got = best_packing(np.int64(4), np.int32(8), seed=np.uint8(1), draws=np.int16(50))
    assert got.entries.tobytes() == best_packing(4, 8, seed=1, draws=50).entries.tobytes()


def full_gram_packing(n, size, seed, draws):
    """Reference search: score every candidate on its whole Gram matrix.

    Returns the winning codebook and its score, the largest off-diagonal
    |inner|^2.
    """
    rng = rng_stream(seed, 0xBE5)
    chunk = max(1, min(256, (1 << 22) // (size * size)))
    best_score = np.inf
    best = None
    done = 0
    while done < draws:
        b = min(chunk, draws - done)
        cand = rng.standard_normal((b, size, n)) + 1j * rng.standard_normal((b, size, n))
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        gram = np.abs(cand @ np.conj(np.swapaxes(cand, 1, 2))) ** 2
        idx = np.arange(size)
        gram[:, idx, idx] = 0.0
        scores = gram.reshape(b, -1).max(axis=1)
        k = int(scores.argmin())
        if scores[k] < best_score:
            best_score = float(scores[k])
            best = cand[k].copy()
        done += b
    return best, best_score


@pytest.mark.parametrize(
    "n, size, seed, draws",
    [
        (2, 2, 0, 1),
        (3, 16, 0, 2000),
        (3, 16, 1, 2000),
        (4, 64, 0, 10_000),
        (4, 512, 0, 100),  # 100 is not a multiple of the 16-candidate chunk
        # Element counts that are no multiple of a SIMD width; after the
        # first chunk, nearly every candidate is dropped early.
        (3, 2, 0, 300),
        (5, 8, 0, 3000),
        (4, 128, 0, 2000),
    ],
)
def test_best_packing_matches_full_gram_search(n, size, seed, draws):
    got = best_packing(n, size, seed=seed, draws=draws)
    ref, score = full_gram_packing(n, size, seed, draws)
    assert got.entries.tobytes() == ref.tobytes()
    assert got.min_chordal_distance() == DirectionCodebook(ref).min_chordal_distance()
    assert got.min_chordal_distance() == pytest.approx(np.sqrt(1.0 - score), rel=1e-12)


def early_abandon_packing(n, size, seed, draws):
    """Reference search: the early-abandon scoring written out here, apart
    from the package's code; at published scale it is much faster than
    :func:`full_gram_packing`, which scores every full Gram matrix."""
    rng = rng_stream(seed, 0xBE5)
    chunk = max(1, min(256, (1 << 22) // (size * size)))
    best_score = np.inf
    best = None
    done = 0
    while done < draws:
        b = min(chunk, draws - done)
        cand = rng.standard_normal((b, size, n)) + 1j * rng.standard_normal((b, size, n))
        cand /= np.linalg.norm(cand, axis=2, keepdims=True)
        done += b
        rows, cols = cand, np.conj(np.swapaxes(cand, 1, 2))
        running = np.zeros(b)
        for r0 in range(0, size, 16):
            block = np.abs(rows[:, r0 : r0 + 16] @ cols) ** 2
            diag = np.arange(block.shape[1])
            block[:, diag, r0 + diag] = 0.0
            running = np.maximum(running, block.reshape(running.size, -1).max(axis=1))
            keep = running < best_score
            if not keep.all():
                rows, cols, running = rows[keep], cols[keep], running[keep]
                if running.size == 0:
                    break
        if running.size:
            k = int(running.argmin())
            best_score = float(running[k])
            best = rows[k].copy()
    return best


def test_best_packing_matches_early_abandon_reference_at_published_scale():
    got = best_packing(4, 512, seed=0, draws=10_000)
    assert got.entries.tobytes() == early_abandon_packing(4, 512, 0, 10_000).tobytes()


@settings(derandomize=True, deadline=None, database=None)
@given(
    n=st.integers(2, 5),
    size=st.sampled_from([2, 4, 8, 16, 32]),
    seed=st.integers(0, 1000),
    # Up to 300 draws: the 256-candidate chunk of these sizes is crossed.
    draws=st.integers(1, 300),
)
@example(n=5, size=32, seed=0, draws=300)
@example(n=2, size=2, seed=1, draws=257)
def test_best_packing_matches_full_gram_search_on_random_keys(n, size, seed, draws):
    ref, _ = full_gram_packing(n, size, seed, draws)
    assert best_packing(n, size, seed=seed, draws=draws).entries.tobytes() == ref.tobytes()


@pytest.fixture
def fresh_packing_cache():
    """An empty packing cache, emptied again afterwards so that nothing a
    monkeypatched test puts in it outlives the test."""
    _best_packing_cached.cache_clear()
    yield
    _best_packing_cached.cache_clear()


def test_shipped_packings_are_the_configs_keys():
    names = sorted(p.name for p in PACKINGS.iterdir())
    assert names == sorted("-".join(map(str, key)) + ".npy" for key in SHIPPED_KEYS)


@pytest.mark.parametrize("n, size, seed, draws", SHIPPED_KEYS)
def test_shipped_packing_is_the_search_result(n, size, seed, draws):
    shipped = np.load(codebooks._packing_file(n, size, seed, draws), allow_pickle=False)
    assert shipped.dtype == np.complex128 and shipped.shape == (size, n)
    # The search itself, past both the file and the cache.
    assert shipped.tobytes() == _search_packing(n, size, seed, draws).tobytes()


def test_shipped_packing_makes_no_draw(monkeypatch, fresh_packing_cache):
    def no_search(*key):
        raise AssertionError(f"searched for shipped key {key}")

    monkeypatch.setattr(codebooks, "_search_packing", no_search)
    monkeypatch.setattr(codebooks, "rng_stream", no_search)
    got = best_packing(4, 512)
    assert got.entries.tobytes() == np.load(PACKINGS / "4-512-0-10000.npy").tobytes()


def test_unshipped_key_still_searches(monkeypatch, fresh_packing_cache):
    searched = []

    def recording_search(*key):
        searched.append(key)
        return _search_packing(*key)

    monkeypatch.setattr(codebooks, "_search_packing", recording_search)
    best_packing(3, 16, draws=2000)
    best_packing(4, 64)
    assert searched == [(3, 16, 0, 2000)]


@pytest.mark.parametrize(
    "table",
    [np.ones((8, 3), np.complex128), np.ones((4, 8), np.complex128), np.ones((8, 4))],
    ids=["narrow", "transposed", "float64"],
)
def test_shipped_packing_that_does_not_fit_its_key_raises(
    tmp_path, monkeypatch, fresh_packing_cache, table
):
    path = tmp_path / "4-8-0-10.npy"
    np.save(path, table, allow_pickle=False)
    monkeypatch.setattr(codebooks, "_packing_file", lambda *key: str(path))
    with pytest.raises(ValueError, match="shipped packing"):
        best_packing(4, 8, draws=10)


def test_package_build_copies_the_shipped_packings(tmp_path):
    pytest.importorskip("setuptools")
    lib = tmp_path / "lib"
    # egg_info goes to tmp_path too, so the build leaves nothing in the tree.
    subprocess.run(
        [
            sys.executable, "-c", "import setuptools; setuptools.setup()",
            "egg_info", "--egg-base", str(tmp_path), "build_py", "-d", str(lib),
        ],
        cwd=REPO, check=True, capture_output=True,
    )
    built = sorted(p.name for p in (lib / "grasspc" / "packings").glob("*.npy"))
    assert built == sorted(p.name for p in PACKINGS.glob("*.npy"))


def test_shape_gain_storage_expands_to_distinct_tangencies():
    # N_d + N_m stored rows parameterize N_d * N_m distinct reconstructed
    # points when applied at a base.
    from grasspc import CodewordIndex, reconstruct_codeword

    cb = ShapeGainCodebook(best_packing(3, 4, draws=500), uniform_magnitude(4))
    base = random_point(3, rng_stream(11))
    endpoints = [
        exp_map(base, reconstruct_codeword(CodewordIndex(d, m), base, cb))
        for d in range(4)
        for m in range(4)
    ]
    assert len(endpoints) == cb.size == 16
    dmin = min(
        chordal_distance(a, b)
        for i, a in enumerate(endpoints)
        for b in endpoints[i + 1 :]
    )
    assert dmin > 1e-6


# ---------------------------------------------------------------------------
# file I/O


def test_save_load_codebook_round_trip(tmp_path):
    cb = ShapeGainCodebook(best_packing(4, 8, draws=500), uniform_magnitude(4, 0.0, 0.3))
    path = tmp_path / "cb.txt"
    save_codebook(cb, path)
    loaded = load_codebook(path)
    assert np.array_equal(loaded.directions.entries, cb.directions.entries)
    assert np.array_equal(loaded.magnitudes.entries, cb.magnitudes.entries)
    assert path.read_text().splitlines()[0].split() == ["4", "8", "4"]


def test_load_codebook_error_cases(tmp_path):
    path = tmp_path / "cb.txt"
    path.write_text("4 8\n")
    with pytest.raises(ValueError, match="header"):
        load_codebook(path)
    path.write_text("2 2 2\n1 0 0 0\n")
    with pytest.raises(ValueError, match="expected"):
        load_codebook(path)
    path.write_text(
        "2 2 2\n1.1 0 0 0\n0 0 1 0\n0.1\n0.2\n"
    )
    with pytest.raises(ValueError, match="direction row 0"):
        load_codebook(path)
