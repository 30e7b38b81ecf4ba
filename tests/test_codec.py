"""Unit tests for the predictive encoder/decoder: quantization, state
management, symmetry, initialization, and index-stream serialization."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grasspc import (
    PROJECTION_COLLAPSE_TOL,
    RHO_MIN,
    ZERO_TANGENT_TOL,
    Ar1Params,
    Ar2Params,
    CodewordIndex,
    CutLocusError,
    DirectionCodebook,
    EncodeResult,
    GpcState,
    GrassmannPoint,
    ShapeGainCodebook,
    UNIT_NORM_TOL,
    TrackingLostError,
    best_packing,
    chordal_distance,
    decode_trace,
    encode_trace,
    exp_map,
    gen_ar1,
    gen_ar2,
    harvest_closed_loop,
    initialize,
    log_map,
    memoryless_quantize,
    predict_one_step,
    quantize_tangent,
    random_point,
    read_index_stream,
    reconstruct_codeword,
    rng_stream,
    uniform_magnitude,
    write_index_stream,
)
from grasspc import codec
from grasspc.channel import _ar1_traces, _innovations
from grasspc.codec import _along, _Book, _pick, _pick_free
from grasspc.geometry import _chord_cols, _cols, _inner, _row, _unit


def small_codebook(n=4, n_d=8, n_m=4, hi=0.6, seed=0):
    return ShapeGainCodebook(
        best_packing(n, n_d, seed=seed, draws=1000), uniform_magnitude(n_m, 0.0, hi)
    )


def basis(n, k):
    return GrassmannPoint(np.eye(n, dtype=np.complex128)[k])


# ---------------------------------------------------------------------------
# indices and state


def test_codeword_index_serialization_round_trip():
    for d in range(4):
        for m in range(8):
            idx = CodewordIndex(d, m)
            assert CodewordIndex.deserialize(idx.serialize(8), 8) == idx
    assert CodewordIndex(3, 5).serialize(8) == 29


def test_codeword_index_validation():
    with pytest.raises(ValueError):
        CodewordIndex(-1, 0)
    with pytest.raises(ValueError):
        CodewordIndex(0, 3).serialize(2)
    with pytest.raises(ValueError):
        CodewordIndex.deserialize(-4, 8)


@pytest.mark.parametrize(
    "fields, name",
    [((1.5, 0), "direction_index"), ((0, 2.0), "magnitude_index"), (("1", 0), "direction_index")],
)
def test_codeword_index_rejects_non_integer_fields(fields, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        CodewordIndex(*fields)


def test_codeword_index_wire_forms_reject_non_integers():
    with pytest.raises(ValueError, match="^serialized index must be an integer"):
        CodewordIndex.deserialize(17.9, 8)
    with pytest.raises(ValueError, match="^n_m must be an integer"):
        CodewordIndex.deserialize(17, 8.0)
    with pytest.raises(ValueError, match="^n_m must be at least 1"):
        CodewordIndex.deserialize(17, 0)
    with pytest.raises(ValueError, match="^n_m must be an integer"):
        CodewordIndex(1, 2).serialize(8.0)


def test_codeword_index_numpy_integers_round_trip_the_stream(tmp_path):
    idx = CodewordIndex(np.int64(1), np.uint8(4))
    assert (type(idx.direction_index), type(idx.magnitude_index)) == (int, int)
    path = tmp_path / "stream.txt"
    write_index_stream(path, [idx, CodewordIndex.deserialize(np.int32(17), np.int64(8))], 8)
    assert path.read_text() == "12\n17\n"
    assert read_index_stream(path, 8) == (CodewordIndex(1, 4), CodewordIndex(2, 1))


def test_state_validation():
    x = basis(3, 0)
    with pytest.raises(ValueError, match="time"):
        GpcState(x, x, x, 1)
    with pytest.raises(ValueError, match="dimension"):
        GpcState(x, x, basis(4, 0), 2)


# ---------------------------------------------------------------------------
# quantizers


def test_memoryless_quantize_is_nearest_codeword():
    cb = best_packing(4, 32, draws=1000)
    rng = rng_stream(1)
    for _ in range(50):
        x = random_point(4, rng)
        idx, point = memoryless_quantize(x, cb)
        d = chordal_distance(x, point)
        others = [
            chordal_distance(x, GrassmannPoint.from_vector(row)) for row in cb.entries
        ]
        assert d <= min(others) + 1e-12
    row = GrassmannPoint.from_vector(cb.entries[5])
    idx, point = memoryless_quantize(row, cb)
    assert idx == 5 and chordal_distance(row, point) < 1e-12


def test_quantize_tangent_matches_exhaustive_search():
    # Oracle: reconstruct every codeword, walk the geodesic, take the
    # chordal-nearest endpoint scanning in serialized order.
    rng = rng_stream(2)
    cb = small_codebook()
    for _ in range(100):
        predicted = random_point(4, rng)
        observed = random_point(4, rng)
        if abs(np.vdot(predicted.coords, observed.coords)) < 0.05:
            continue
        fast = quantize_tangent(predicted, observed, cb)
        best = None
        best_d = np.inf
        for d in range(cb.directions.size):
            for m in range(cb.magnitudes.size):
                idx = CodewordIndex(d, m)
                endpoint = exp_map(
                    predicted, reconstruct_codeword(idx, predicted, cb)
                )
                dist = chordal_distance(endpoint, observed)
                if dist < best_d:
                    best, best_d = idx, dist
        fast_d = chordal_distance(
            exp_map(predicted, reconstruct_codeword(fast, predicted, cb)), observed
        )
        assert fast == best or abs(fast_d - best_d) <= 1e-12


def test_quantize_tangent_recovers_exact_codeword():
    rng = rng_stream(3)
    cb = small_codebook()
    predicted = random_point(4, rng)
    idx = CodewordIndex(3, 2)
    observed = exp_map(predicted, reconstruct_codeword(idx, predicted, cb))
    assert quantize_tangent(predicted, observed, cb) == idx
    err = chordal_distance(
        exp_map(predicted, reconstruct_codeword(idx, predicted, cb)), observed
    )
    assert err < 1e-9


def test_quantize_tangent_zero_error_short_circuit():
    cb = small_codebook()
    x = random_point(4, rng_stream(4))
    assert quantize_tangent(x, x, cb) == CodewordIndex(0, 0)


def test_reconstruct_codeword_properties():
    cb = small_codebook()
    base = random_point(4, rng_stream(5))
    with pytest.raises(IndexError):
        reconstruct_codeword(CodewordIndex(8, 0), base, cb)
    with pytest.raises(IndexError):
        reconstruct_codeword(CodewordIndex(0, 4), base, cb)
    for d in range(cb.directions.size):
        for m in range(cb.magnitudes.size):
            t = reconstruct_codeword(CodewordIndex(d, m), base, cb)
            endpoint = exp_map(base, t)
            assert abs(np.linalg.norm(endpoint.coords) - 1.0) < 1e-12
    # a codeword collinear with the base collapses to the zero tangent
    collinear = ShapeGainCodebook(
        best_packing(4, 4, draws=200), uniform_magnitude(2, 0.0, 0.5)
    )
    base = GrassmannPoint.from_vector(collinear.directions.entries[1])
    t = reconstruct_codeword(CodewordIndex(1, 1), base, collinear)
    assert t.is_zero
    # zero magnitude reconstructs to the zero tangent regardless of direction
    zero_mag = ShapeGainCodebook(
        best_packing(4, 4, draws=200),
        uniform_magnitude(2, 0.0, 1.0).__class__(np.array([0.0, 0.3])),
    )
    assert reconstruct_codeword(CodewordIndex(0, 0), base, zero_mag).is_zero


def test_direction_only_quantizer_dominates_joint_search():
    # For a fixed (prediction, observation) pair the continuously optimal
    # magnitude can only improve on any quantized magnitude over the same
    # direction set.  (Across a whole trace the two encoders evolve
    # different states, so only the per-pair comparison is meaningful.)
    rng = rng_stream(6)
    cb = small_codebook(hi=0.4)
    for _ in range(100):
        predicted, observed = random_point(4, rng), random_point(4, rng)
        if abs(np.vdot(predicted.coords, observed.coords)) < 0.05:
            continue
        p, o = _cols(predicted.coords), _cols(observed.coords)
        rho = _inner(*p, *o)
        book = _Book(cb)
        step = _pick_free(book, p, o, rho, _chord_cols(*p, *o, rho))
        free_estimate = GrassmannPoint(_row(*_along(book, p, *step)))
        joint_idx = quantize_tangent(predicted, observed, cb)
        joint_tangent = reconstruct_codeword(joint_idx, predicted, cb)
        free_d = chordal_distance(free_estimate, observed)
        joint_d = chordal_distance(exp_map(predicted, joint_tangent), observed)
        assert free_d <= joint_d + 1e-12
    trace = gen_ar1(Ar1Params(n=4, beta=0.01, steps=100, seed=6))
    free = encode_trace(trace.points, cb, free_magnitude=True)
    assert all(i is None for i in free.indices)


# ---------------------------------------------------------------------------
# initialization


def test_initialize_exact_matches_predictor():
    rng = rng_stream(8)
    x0, x1 = random_point(4, rng), random_point(4, rng)
    state = initialize(x0, x1, None, mode="exact")
    assert state.time == 2
    assert np.array_equal(state.predicted.coords, predict_one_step(x0, x1).coords)


def test_initialize_memoryless_snaps_to_codewords():
    cb = small_codebook()
    x0 = GrassmannPoint.from_vector(cb.directions.entries[3])
    x1 = GrassmannPoint.from_vector(cb.directions.entries[7])
    state = initialize(x0, x1, cb, mode="memoryless")
    assert chordal_distance(state.est_prev, x0) < 1e-12
    assert chordal_distance(state.est_curr, x1) < 1e-12


def test_initialize_memoryless_requires_codebook_and_valid_mode():
    rng = rng_stream(9)
    x0, x1 = random_point(4, rng), random_point(4, rng)
    with pytest.raises(ValueError, match="codebook"):
        initialize(x0, x1, None, mode="memoryless")
    with pytest.raises(ValueError, match="mode"):
        initialize(x0, x1, None, mode="fuzzy")


def test_initialize_memoryless_falls_back_past_cut_locus():
    # The nearest codeword for x1 is orthogonal to the quantized x0; the
    # seeder must fall back to the next-best codeword instead of failing.
    entries = np.eye(2, dtype=np.complex128)
    cb = ShapeGainCodebook(
        best_packing(2, 2, draws=1).__class__(entries), uniform_magnitude(2, 0.0, 0.5)
    )
    x0 = basis(2, 0)
    x1 = GrassmannPoint.from_vector([0.05, 1.0])
    state = initialize(x0, x1, cb, mode="memoryless")
    assert chordal_distance(state.est_curr, basis(2, 0)) < 1e-12
    assert chordal_distance(state.predicted, basis(2, 0)) < 1e-12


def test_initialize_memoryless_transient_decays():
    # Seeding from quantized points costs accuracy for the first few steps;
    # the closed loop then pulls the estimate onto the trace.
    early, late = [], []
    cb = ShapeGainCodebook(best_packing(4, 64), uniform_magnitude(8, 0.0, 0.5))
    for seed in range(100):
        trace = gen_ar1(Ar1Params(n=4, beta=0.001, steps=300, seed=seed))
        res = encode_trace(trace.points, cb, mode="memoryless")
        early.append(np.mean(res.estimate_errors[:4] ** 2))
        late.append(np.mean(res.estimate_errors[100:] ** 2))
    assert np.mean(early) > 1.5 * np.mean(late)


# ---------------------------------------------------------------------------
# encoder/decoder sessions


def test_encoder_decoder_bit_identical():
    cb = small_codebook()
    trace = gen_ar1(Ar1Params(n=4, beta=0.005, steps=500, seed=10))
    enc = encode_trace(trace.points, cb)
    dec_state = initialize(trace.points[0], trace.points[1], cb, mode="exact")
    dec_estimates, dec_final = decode_trace(dec_state, enc.indices, cb)
    assert len(dec_estimates) == len(enc.estimates)
    for a, b in zip(enc.estimates, dec_estimates):
        assert np.array_equal(a.coords, b.coords)
    assert np.array_equal(dec_final.predicted.coords, enc.state.predicted.coords)


def test_encoder_decoder_bit_identical_memoryless_init():
    cb = small_codebook()
    trace = gen_ar1(Ar1Params(n=4, beta=0.005, steps=500, seed=11))
    enc = encode_trace(trace.points, cb, mode="memoryless")
    dec_state = initialize(trace.points[0], trace.points[1], cb, mode="memoryless")
    dec_estimates, _ = decode_trace(dec_state, enc.indices, cb)
    for a, b in zip(enc.estimates, dec_estimates):
        assert np.array_equal(a.coords, b.coords)


@pytest.mark.parametrize("residual", [0.0, 1e-13])
def test_decoded_collapsed_codeword_leaves_the_prediction(residual):
    # Codeword 0 is e_0 and every prediction is i (e_0 + residual e_1) up to
    # rounding, where that codeword's projection onto the tangent space is
    # zero or below PROJECTION_COLLAPSE_TOL: at every magnitude the decoder
    # must return the prediction, bit for bit.
    words = best_packing(4, 8, draws=1000).entries.copy()
    words[0] = np.eye(4)[0]
    cb = ShapeGainCodebook(DirectionCodebook(words), uniform_magnitude(4, 0.0, 1.2))
    x = GrassmannPoint.from_vector(1j * (np.eye(4)[0] + residual * np.eye(4)[1]))
    state = GpcState(x, x, predict_one_step(x, x), 2)
    decoded, final = decode_trace(state, [CodewordIndex(0, m) for m in (3, 1, 2, 0)], cb)
    history = [x, x, *decoded]
    for j, point in enumerate(decoded):
        predicted = predict_one_step(history[j], history[j + 1])
        assert point.coords.tobytes() == predicted.coords.tobytes()
    assert final.time == 6


def test_empty_stream_leaves_state_unchanged():
    cb = small_codebook()
    rng = rng_stream(12)
    state = initialize(random_point(4, rng), random_point(4, rng), cb)
    estimates, after = decode_trace(state, [], cb)
    assert estimates == ()
    assert after is state


def test_corrupted_index_diverges():
    cb = small_codebook()
    trace = gen_ar1(Ar1Params(n=4, beta=0.005, steps=200, seed=13))
    enc = encode_trace(trace.points, cb)
    k = 50
    bad = list(enc.indices)
    bad[k] = CodewordIndex.deserialize(
        (bad[k].serialize(4) + 1) % cb.size, 4
    )
    state = initialize(trace.points[0], trace.points[1], cb)
    dec, _ = decode_trace(state, bad, cb)
    assert all(
        np.array_equal(a.coords, b.coords)
        for a, b in zip(enc.estimates[:k], dec[:k])
    )
    assert chordal_distance(enc.estimates[k], dec[k]) > 1e-6
    assert chordal_distance(enc.estimates[-1], dec[-1]) > 1e-6


def test_estimate_alignment_and_prediction_errors():
    cb = small_codebook()
    trace = gen_ar1(Ar1Params(n=4, beta=0.01, steps=40, seed=14))
    res = encode_trace(trace.points, cb)
    assert len(res.indices) == len(trace.points) - 2
    assert len(res.estimates) == len(trace.points) - 2
    first_pred = predict_one_step(trace.points[0], trace.points[1])
    assert abs(
        res.prediction_errors[0] - chordal_distance(first_pred, trace.points[2])
    ) < 1e-15
    for est, obs in zip(res.estimates, trace.points[2:]):
        assert abs(np.linalg.norm(est.coords) - 1.0) < 1e-12
        # estimate_errors[j] measures estimate j against observation j+2
    assert np.allclose(
        res.estimate_errors,
        [chordal_distance(e, o) for e, o in zip(res.estimates, trace.points[2:])],
    )


def test_encode_trace_validation():
    cb = small_codebook()
    rng = rng_stream(15)
    pts = [random_point(4, rng) for _ in range(3)]
    with pytest.raises(ValueError, match="at least 3"):
        encode_trace(pts[:2], cb)
    with pytest.raises(ValueError, match="on_track_loss"):
        encode_trace(pts, cb, on_track_loss="ignore")


def test_tracking_loss_raise_and_reinit():
    cb = small_codebook(n=3, n_d=4, n_m=2)
    x0 = basis(3, 0)
    x1 = GrassmannPoint.from_vector([1.0, 1.0, 0.0])
    x2 = basis(3, 0)  # orthogonal to the prediction e2, fine vs x1
    x3 = GrassmannPoint.from_vector([1.0, 0.2, 0.1])
    with pytest.raises(TrackingLostError) as exc:
        encode_trace([x0, x1, x2, x3], cb, on_track_loss="raise")
    assert exc.value.step == 2
    res = encode_trace([x0, x1, x2, x3], cb, on_track_loss="reinit")
    assert res.reinits == 1
    assert res.indices[0] is None
    assert chordal_distance(res.estimates[0], x2) < 1e-12  # reseeded exactly
    assert res.indices[1] is not None  # tracking resumed


def test_small_angle_quantization_consistency():
    # For small error tangents the chordal estimate error matches the
    # Euclidean tangent-space distance between error and codeword.
    cb = ShapeGainCodebook(best_packing(4, 64), uniform_magnitude(8, 0.0, 0.5))
    trace = gen_ar1(Ar1Params(n=4, beta=0.01, steps=2000, seed=16))
    # The encoder's prediction at step j extrapolates from the two latest
    # estimates, the first two of which are the exact seed points.
    seq = list(trace.points[:2]) + list(encode_trace(trace.points, cb).estimates)
    checked = consistent = 0
    for j, obs in enumerate(trace.points[2:]):
        predicted = predict_one_step(seq[j], seq[j + 1])
        err = log_map(predicted, obs)
        idx = quantize_tangent(predicted, obs, cb)
        tangent = reconstruct_codeword(idx, predicted, cb)
        estimate = exp_map(predicted, tangent)
        assert np.array_equal(estimate.coords, seq[j + 2].coords)
        if err.magnitude < 0.1:
            checked += 1
            euclid = np.linalg.norm(err.as_ambient() - tangent.as_ambient())
            if abs(chordal_distance(estimate, obs) - euclid) < 0.01:
                consistent += 1
    assert checked > 100
    assert consistent >= 0.99 * checked


def test_more_magnitude_bits_reduce_distortion():
    from grasspc import harvest_open_loop, lloyd_magnitude

    trace = gen_ar2(Ar2Params(n=3, a1=0.9, a2=0.75, noise_std=0.01, steps=3000, seed=17))
    directions = best_packing(3, 16)
    ts = harvest_open_loop(trace.points)
    errors = {}
    for n_m in (4, 32):  # 2 vs 5 magnitude bits
        cb = ShapeGainCodebook(directions, lloyd_magnitude(ts.magnitudes, n_m))
        res = encode_trace(trace.points, cb)
        errors[n_m] = float(np.mean(res.estimate_errors**2))
    assert errors[32] < errors[4]


def test_gpc_beats_memoryless_at_equal_bits_on_correlated_trace():
    trace = gen_ar1(Ar1Params(n=4, beta=0.001, steps=1000, seed=18))
    gpc_cb = ShapeGainCodebook(best_packing(4, 64), uniform_magnitude(8, 0.0, 0.5))
    res = encode_trace(trace.points, gpc_cb)
    gpc_mse = float(np.mean(res.estimate_errors**2))
    one_shot = best_packing(4, 512)
    mem_mse = float(
        np.mean(
            [
                chordal_distance(p, memoryless_quantize(p, one_shot)[1]) ** 2
                for p in trace.points[2:]
            ]
        )
    )
    assert gpc_mse < mem_mse


# ---------------------------------------------------------------------------
# index streams


def test_index_stream_round_trip(tmp_path):
    cb = small_codebook()
    trace = gen_ar1(Ar1Params(n=4, beta=0.01, steps=60, seed=19))
    enc = encode_trace(trace.points, cb)
    path = tmp_path / "stream.txt"
    write_index_stream(path, enc.indices, cb.magnitudes.size)
    back = read_index_stream(path, cb.magnitudes.size)
    assert back == enc.indices
    lines = path.read_text().splitlines()
    assert all(line.isdigit() for line in lines)


@pytest.mark.parametrize(
    "n_m, message", [(0, "at least 1, got 0"), (-4, "at least 1, got -4"), (2.5, "an integer")]
)
def test_read_index_stream_rejects_bad_magnitude_counts(tmp_path, n_m, message):
    path = tmp_path / "stream.txt"
    path.write_text("5\n")
    with pytest.raises(ValueError, match=f"n_m must be {message}"):
        read_index_stream(path, n_m)


def test_index_stream_round_trip_with_one_magnitude_level(tmp_path):
    # With n_m = 1 the wire form is the direction index itself.
    cb = small_codebook(n_m=1)
    enc = encode_trace(gen_ar1(Ar1Params(n=4, beta=0.01, steps=40, seed=19)).points, cb)
    path = tmp_path / "stream.txt"
    write_index_stream(path, enc.indices, 1)
    assert path.read_text().split() == [str(i.direction_index) for i in enc.indices]
    assert read_index_stream(path, 1) == enc.indices


@pytest.mark.parametrize("line, message", [("-3", "nonnegative"), ("2.0", "invalid literal")])
def test_read_index_stream_rejects_bad_lines(tmp_path, line, message):
    path = tmp_path / "stream.txt"
    path.write_text(f"5\n{line}\n")
    with pytest.raises(ValueError, match=message):
        read_index_stream(path, 4)


def test_index_stream_rejects_reinit_gaps(tmp_path):
    with pytest.raises(ValueError, match="gap"):
        write_index_stream(tmp_path / "s.txt", [CodewordIndex(0, 0), None], 4)


def assert_checked_points(points):
    """Each point adopted unchecked passes the checked constructor unchanged."""
    for p in points:
        assert not p.coords.flags.writeable
        assert np.array_equal(GrassmannPoint(p.coords).coords, p.coords)


def state_points(state):
    return state.est_prev, state.est_curr, state.predicted


@pytest.mark.parametrize("mode", ["exact", "memoryless"])
def test_codec_outputs_pass_the_constructor_checks(mode):
    # encode_trace, decode_trace and initialize adopt the estimates and state
    # points they compute without the constructor checks.
    cb = ShapeGainCodebook(best_packing(4, 64), uniform_magnitude(8))
    points = gen_ar1(Ar1Params(n=4, beta=0.04, steps=300, seed=24)).points
    res = encode_trace(points, cb, mode)
    start = initialize(points[0], points[1], cb, mode)
    decoded, final = decode_trace(start, res.indices, cb)
    assert_checked_points(res.estimates + decoded)
    assert_checked_points(state_points(start) + state_points(res.state) + state_points(final))
    # A track-loss re-seed adopts the observations (exact) or codewords: the
    # third point is orthogonal to the first prediction.
    p = start.predicted.coords
    v = points[5].coords - np.vdot(p, points[5].coords) * p
    track_loss = [points[0], points[1], GrassmannPoint.from_vector(v)] + list(points[6:40])
    res = encode_trace(track_loss, cb, mode, on_track_loss="reinit")
    assert res.reinits == 1 and res.indices[0] is None
    assert_checked_points(res.estimates + state_points(res.state))


# ---------------------------------------------------------------------------
# reference: one codec session in plain Python floats
#
# Written from the formulas, with a complex number as a (re, im) pair of
# floats and a point as a list of such pairs.  Every sum over coordinates
# runs left to right and every operation is one IEEE 754 + - * / or sqrt, so
# the kernel must match it byte for byte, alone or in a batch.  The closed
# loop is chaotic: a one-ulp difference anywhere decorrelates a session
# within about a thousand steps, so any reordering of the arithmetic shows.


def cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def csub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def conj(x):
    return (x[0], -x[1])


def total(values):
    out = values[0] + values[1]
    for value in values[2:]:
        out = out + value
    return out


def dot(x, y):
    """x^H y."""
    terms = [cmul(conj(a), b) for a, b in zip(x, y)]
    return (total([t[0] for t in terms]), total([t[1] for t in terms]))


def norm2(v):
    return total([a[0] * a[0] + a[1] * a[1] for a in v])


def modulus(z):
    return math.sqrt(z[0] * z[0] + z[1] * z[1])


def unit(v):
    nrm = math.sqrt(norm2(v))
    return [(a[0] / nrm, a[1] / nrm) for a in v]


def pairs_of(row):
    return [(float(z.real), float(z.imag)) for z in row]


def row_of(point):
    return np.array([complex(*z) for z in point])


def ref_predict(prev, curr):
    """(|rho| + rho^*) curr - prev, normalized, with rho = prev^H curr."""
    rho = dot(prev, curr)
    a = modulus(rho)
    if a <= RHO_MIN:
        raise CutLocusError(a)
    coef = (a + rho[0], -rho[1])
    return unit([csub(cmul(coef, c), p) for p, c in zip(prev, curr)])


def ref_chord(x, y):
    """sqrt(1 - |rho|^2), or |rho| ||y/rho - x|| for nearly coincident lines."""
    rho = dot(x, y)
    aa = rho[0] * rho[0] + rho[1] * rho[1]
    v = 1.0 - min(aa, 1.0)
    if v > 1e-8 or aa == 0.0:
        return math.sqrt(v)
    w = []
    for a, b in zip(x, y):
        q = cmul(b, conj(rho))  # y / rho = y rho^* / |rho|^2
        w.append(csub((q[0] / aa, q[1] / aa), a))
    return math.sqrt(aa) * math.sqrt(norm2(w))


def ref_direction(base, c):
    """c - (base^H c) base and its norm."""
    u = dot(base, c)
    w = [csub(ck, cmul(u, bk)) for ck, bk in zip(c, base)]
    return w, math.sqrt(norm2(w))


def ref_step(base, c, cos, sin):
    """The geodesic from ``base`` along c's projected direction, for the arc
    of cosine ``cos`` and sine ``sin``."""
    w, wn = ref_direction(base, c)
    if sin == 0.0 or wn < PROJECTION_COLLAPSE_TOL:
        return base
    return unit([(b[0] * cos + a[0] / wn * sin, b[1] * cos + a[1] / wn * sin) for b, a in zip(base, w)])


def ref_projection(c, p, o, rho):
    """(h - g rho) / sqrt(||c||^2 - |g|^2) with g = c^H p and h = c^H o."""
    g, h = dot(c, p), dot(c, o)
    den = norm2(c) - (g[0] * g[0] + g[1] * g[1])
    if den <= PROJECTION_COLLAPSE_TOL**2:
        return (0.0, 0.0)
    num, root = csub(h, cmul(g, rho)), math.sqrt(den)
    return (num[0] / root, num[1] / root)


def ref_quantize(p, o, codebook):
    """First maximum of |cos(m) rho + sin(m) s_d|^2 in serialized order."""
    if ref_chord(p, o) < ZERO_TANGENT_TOL:
        return (0, 0)
    rho = dot(p, o)
    best, best_score = None, -1.0
    for d, entry in enumerate(codebook.directions.entries):
        s = ref_projection(pairs_of(entry), p, o, rho)
        for m, level in enumerate(codebook.magnitudes.entries):
            cos, sin = math.cos(level), math.sin(level)
            z = (cos * rho[0] + sin * s[0], cos * rho[1] + sin * s[1])
            score = z[0] * z[0] + z[1] * z[1]
            if score > best_score:
                best, best_score = (d, m), score
    return best


def ref_free(p, o, codebook):
    """The best direction with its continuously optimal magnitude m, as
    (d, cos m, sin m).  |cos(m) rho + sin(m) s|^2 = (bb + ss)/2 +
    half cos 2m + cross sin 2m peaks at (cos 2m, sin 2m) = (half, cross) / r
    when cross >= 0, else at m = 0 or pi/2; half-angle formulas give m's
    cosine and sine."""
    if ref_chord(p, o) < ZERO_TANGENT_TOL:
        return 0, 1.0, 0.0
    rho = dot(p, o)
    bb = rho[0] * rho[0] + rho[1] * rho[1]
    best, best_score = None, None
    for d, entry in enumerate(codebook.directions.entries):
        s = ref_projection(pairs_of(entry), p, o, rho)
        ss = s[0] * s[0] + s[1] * s[1]
        cross = rho[0] * s[0] + rho[1] * s[1]
        half = 0.5 * (bb - ss)
        r = math.sqrt(half * half + cross * cross)
        if cross < 0.0:
            score, arc = max(bb, ss), ((1.0, 0.0) if bb >= ss else (0.0, 1.0))
        elif r == 0.0:
            score, arc = 0.5 * (bb + ss) + r, (1.0, 0.0)
        else:
            score, c2, s2 = 0.5 * (bb + ss) + r, half / r, cross / r
            if c2 >= 0.0:
                cos = math.sqrt(0.5 * (1.0 + c2))
                arc = (cos, s2 / (2.0 * cos))
            else:
                sin = math.sqrt(0.5 * (1.0 - c2))
                arc = (s2 / (2.0 * sin), sin)
        if best_score is None or score > best_score:
            best, best_score = (d, *(arc if arc[1] > ZERO_TANGENT_TOL else (1.0, 0.0))), score
    return best


def ref_initialize(x0, x1, codebook, mode):
    """(previous, current, predicted) from two observed rows."""
    if mode == "exact":
        q0, q1 = pairs_of(x0), pairs_of(x1)
        return q0, q1, ref_predict(q0, q1)
    entries = codebook.directions.entries
    q0 = unit(pairs_of(entries[memoryless_quantize(GrassmannPoint(x0), codebook.directions)[0]]))
    scores = np.abs(entries.conj() @ x1) ** 2
    for i1 in np.argsort(-scores, kind="stable"):
        q1 = unit(pairs_of(entries[i1]))
        try:
            return q0, q1, ref_predict(q0, q1)
        except CutLocusError:
            pass
    raise CutLocusError(0.0, "no codeword for the second point can seed the predictor")


def ref_encode(rows, codebook, mode, free_magnitude):
    """One encoder session with re-seeding on track loss."""
    prev, curr, predicted = ref_initialize(rows[0], rows[1], codebook, mode)
    out = dict(indices=[], estimates=[], predictions=[], pred_err=[], est_err=[], reinits=0)
    entries, levels = codebook.directions.entries, codebook.magnitudes.entries
    for j in range(2, len(rows)):
        obs = pairs_of(rows[j])
        out["predictions"].append(predicted)
        out["pred_err"].append(ref_chord(predicted, obs))
        try:
            if modulus(dot(predicted, obs)) <= RHO_MIN:
                raise CutLocusError(0.0)
            if free_magnitude:
                index, (d, cos, sin) = None, ref_free(predicted, obs, codebook)
            else:
                index = ref_quantize(predicted, obs, codebook)
                level = float(levels[index[1]])
                d, cos, sin = index[0], math.cos(level), math.sin(level)
            estimate = ref_step(predicted, pairs_of(entries[d]), cos, sin)
            prev, curr, predicted = curr, estimate, ref_predict(curr, estimate)
        except CutLocusError:
            out["reinits"] += 1
            prev, curr, predicted = ref_initialize(rows[j - 1], rows[j], codebook, mode)
            index, estimate = None, curr
        out["indices"].append(None if index is None else CodewordIndex(*index))
        out["estimates"].append(estimate)
        out["est_err"].append(ref_chord(estimate, obs))
    out["state"] = (prev, curr, predicted)
    return out


def ref_decode(rows, indices, codebook, mode):
    prev, curr, predicted = ref_initialize(rows[0], rows[1], codebook, mode)
    estimates = []
    for index in indices:
        level = float(codebook.magnitudes.entries[index.magnitude_index])
        c = pairs_of(codebook.directions.entries[index.direction_index])
        estimate = ref_step(predicted, c, math.cos(level), math.sin(level))
        prev, curr, predicted = curr, estimate, ref_predict(curr, estimate)
        estimates.append(estimate)
    return estimates, (prev, curr, predicted)


def same_rows(xs, ys):
    """Byte identity of two sequences of coordinate rows."""
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(
        np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(xs, ys)
    )


def same_state(state, points):
    rows = (state.est_prev.coords, state.est_curr.coords, state.predicted.coords)
    return same_rows(rows, [row_of(p) for p in points])


def check_against_reference(points, codebook, mode, free_magnitude):
    rows = [p.coords for p in points]
    ref = ref_encode(rows, codebook, mode, free_magnitude)
    res = encode_trace(points, codebook, mode, free_magnitude, on_track_loss="reinit")
    assert res.indices == tuple(ref["indices"])
    assert same_rows([e.coords for e in res.estimates], [row_of(e) for e in ref["estimates"]])
    assert same_rows([res.prediction_errors], [np.array(ref["pred_err"])])
    assert same_rows([res.estimate_errors], [np.array(ref["est_err"])])
    assert same_state(res.state, ref["state"])
    assert res.state.time == len(rows)
    assert res.reinits == ref["reinits"]
    if free_magnitude or ref["reinits"]:
        return res
    start = initialize(points[0], points[1], codebook, mode)
    decoded, final = decode_trace(start, res.indices, codebook)
    ref_decoded, ref_final = ref_decode(rows, ref["indices"], codebook, mode)
    assert same_rows([e.coords for e in decoded], [row_of(e) for e in ref_decoded])
    assert same_state(final, ref_final)
    return res


def check_harvest_against_reference(points, codebook):
    rows = [p.coords for p in points]
    ref = ref_encode(rows, codebook, "exact", False)
    tangents = []
    for predicted, target in zip(ref["predictions"], points[2:]):
        try:
            tangents.append(log_map(GrassmannPoint(row_of(predicted)), target))
        except CutLocusError:
            pass
    ts = harvest_closed_loop(points, codebook)
    assert ts.skipped == ref["reinits"]
    assert same_rows([ts.magnitudes], [np.array([t.magnitude for t in tangents])])
    assert same_rows(ts.directions, [t.direction for t in tangents])


@pytest.mark.parametrize("beta", [0.001, 0.04])
@pytest.mark.parametrize("mode", ["exact", "memoryless"])
@pytest.mark.parametrize("free_magnitude", [False, True])
def test_array_loop_matches_object_reference(beta, mode, free_magnitude):
    cb = ShapeGainCodebook(best_packing(4, 64), uniform_magnitude(8))
    trace = gen_ar1(Ar1Params(n=4, beta=beta, steps=400, seed=21))
    check_against_reference(trace.points, cb, mode, free_magnitude)
    if mode == "exact" and not free_magnitude:
        check_harvest_against_reference(trace.points, cb)


@pytest.mark.parametrize("free_magnitude", [False, True])
def test_array_loop_matches_reference_through_track_loss(tmp_path, free_magnitude):
    # The third point is orthogonal to the prediction e2: the encoder
    # re-seeds, and the harvest skips that step's tangent.
    cb = small_codebook(n=3, n_d=4, n_m=2)
    points = [
        basis(3, 0),
        GrassmannPoint.from_vector([1.0, 1.0, 0.0]),
        basis(3, 0),
        GrassmannPoint.from_vector([1.0, 0.2, 0.1]),
        GrassmannPoint.from_vector([1.0, 0.3, 0.1]),
    ]
    res = check_against_reference(points, cb, "exact", free_magnitude)
    assert res.reinits == 1 and res.indices[0] is None
    assert res.state.time == 5
    check_harvest_against_reference(points, cb)
    # Neither stream has a wire form (with free_magnitude no step has an
    # index): the decoder and the stream writer name the first missing one.
    missing = "index 0 of the stream is None: a re-initialization gap or a free_magnitude"
    with pytest.raises(ValueError, match=missing):
        decode_trace(initialize(points[0], points[1], cb), res.indices, cb)
    with pytest.raises(ValueError, match=missing):
        write_index_stream(tmp_path / "stream.txt", res.indices, cb.magnitudes.size)


@pytest.mark.parametrize("mode", ["exact", "memoryless"])
@pytest.mark.parametrize("free_magnitude", [False, True])
def test_array_loop_matches_reference_on_repeated_point(mode, free_magnitude):
    # A stationary start makes the prediction coincide with the observation:
    # the joint search short-circuits to (0, 0), whose magnitude is nonzero.
    cb = ShapeGainCodebook(best_packing(4, 64), uniform_magnitude(8))
    assert cb.magnitudes.entries[0] > 0.0
    trace = gen_ar1(Ar1Params(n=4, beta=0.01, steps=60, seed=22))
    x = trace.points[0]
    res = check_against_reference([x, x, x] + list(trace.points), cb, mode, free_magnitude)
    if mode == "exact" and not free_magnitude:
        assert res.indices[0] == CodewordIndex(0, 0)
        assert res.estimate_errors[0] > 0.0
        check_harvest_against_reference([x, x, x] + list(trace.points), cb)


# ---------------------------------------------------------------------------
# sessions in a batch


def batch_traces():
    """24 unit-row traces (12 slow, 12 fast); the prediction at step 100 of
    trace 5 is made orthogonal to its observation, forcing a track loss."""
    cb = ShapeGainCodebook(best_packing(4, 64), uniform_magnitude(8))
    traces = [
        gen_ar1(Ar1Params(n=4, beta=beta, steps=300, seed=100 + k)).normalized
        for beta in (0.001, 0.04)
        for k in range(12)
    ]
    points = [GrassmannPoint(r) for r in traces[5]]
    alone = encode_trace(points, cb, "memoryless", on_track_loss="reinit")
    p = predict_one_step(alone.estimates[96], alone.estimates[97]).coords
    v = traces[5][100] - np.vdot(p, traces[5][100]) * p
    traces[5][100] = v / np.linalg.norm(v)
    return cb, np.array(traces)


@pytest.mark.parametrize("chunk", [24, 5])
def test_batched_sessions_match_sessions_alone(monkeypatch, chunk):
    monkeypatch.setattr(codec, "_CHUNK", chunk)
    cb, traces = batch_traces()
    batch = codec._encode_rows(traces, cb, "memoryless", reseed="memoryless")
    assert batch.reinits[5] >= 1 and sum(batch.reinits) == batch.reinits[5]
    for b, rows in enumerate(traces):
        points = [GrassmannPoint(r) for r in rows]
        alone = encode_trace(points, cb, "memoryless", on_track_loss="reinit")
        pairs = [None if d < 0 else CodewordIndex(d, m) for d, m in batch.pairs[b].tolist()]
        assert tuple(pairs) == alone.indices
        assert same_rows(batch.estimates[b], [e.coords for e in alone.estimates])
        assert batch.pred_err[b].tobytes() == alone.prediction_errors.tobytes()
        assert batch.est_err[b].tobytes() == alone.estimate_errors.tobytes()
        assert same_rows(batch.state[b], state_points_rows(alone.state))
        assert batch.reinits[b] == alone.reinits
        if not alone.reinits:
            start = initialize(points[0], points[1], cb, "memoryless")
            decoded, _ = decode_trace(start, alone.indices, cb)
            assert same_rows(batch.estimates[b], [e.coords for e in decoded])


def test_estimate_errors_are_chordal_distances_through_track_loss():
    # The encoder computes every estimate's error after its step loop; each
    # must be the chordal distance to its observation, re-init step included.
    _, traces = batch_traces()
    points = [GrassmannPoint(r) for r in traces[5]]
    cb = ShapeGainCodebook(best_packing(4, 64), uniform_magnitude(8))
    res = encode_trace(points, cb, "memoryless", on_track_loss="reinit")
    assert res.reinits >= 1 and None in res.indices
    for j, estimate in enumerate(res.estimates):
        expected = np.float64(chordal_distance(estimate, points[j + 2]))
        assert res.estimate_errors[j].tobytes() == expected.tobytes()


def state_points_rows(state):
    return [p.coords for p in state_points(state)]


def unit_rows(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def search_case(seed, sessions, n, n_d, n_m):
    """A random codebook and ``sessions`` (prediction, observation) rows.
    Session 0 observes its own prediction (a zero error tangent).  Codeword 0
    is e_0 and session 1 predicts a unit multiple of it, so that codeword's
    projection onto the tangent space there collapses exactly."""
    rng = np.random.default_rng(seed)
    gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # noqa: E731
    words = unit_rows(gauss(n_d, n))
    words[0] = np.eye(n)[0]
    cb = ShapeGainCodebook(DirectionCodebook(words), uniform_magnitude(n_m, 0.0, 1.2))
    predicted = unit_rows(gauss(sessions, n))
    spread = 10.0 ** rng.uniform(-7.0, 0.5, (sessions, 1))
    observed = unit_rows(predicted + spread * gauss(sessions, n))
    observed[0] = predicted[0]
    if sessions > 1:
        predicted[1] = rng.choice([1.0, -1.0, 1j, -1j]) * words[0]
    return cb, predicted, observed


def batch_columns(rows):
    return rows.real.T.copy(), rows.imag.T.copy()


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(
    sessions=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4]),
    n_d=st.sampled_from([2, 8, 64]),
    n_m=st.sampled_from([1, 4, 8]),
    chunk=st.integers(1, 300),
    margin=st.just(codec._MARGIN),
)
@example(sessions=300, seed=1, n=4, n_d=64, n_m=8, chunk=256, margin=codec._MARGIN)
@example(sessions=2, seed=2, n=3, n_d=8, n_m=4, chunk=1, margin=codec._MARGIN)
@example(sessions=3, seed=3, n=2, n_d=8, n_m=1, chunk=2, margin=codec._MARGIN)
@example(sessions=5, seed=4, n=8, n_d=64, n_m=1, chunk=3, margin=codec._MARGIN)
@example(sessions=4, seed=5, n=8, n_d=2, n_m=8, chunk=4, margin=codec._MARGIN)
@example(sessions=40, seed=6, n=4, n_d=64, n_m=32, chunk=16, margin=codec._MARGIN)
@example(sessions=30, seed=7, n=3, n_d=8, n_m=8, chunk=30, margin=10.0)  # every session verified
@example(sessions=6, seed=8, n=17, n_d=8, n_m=4, chunk=6, margin=codec._MARGIN)  # past the screen's n
def test_batched_search_matches_sessions_alone(sessions, seed, n, n_d, n_m, chunk, margin):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codec, "_MARGIN", margin)
        patch.setattr(codec, "_CHUNK", chunk)
        check_batched_search(sessions, seed, n, n_d, n_m, margin)


def check_batched_search(sessions, seed, n, n_d, n_m, margin):
    cb, predicted, observed = search_case(seed, sessions, n, n_d, n_m)
    book = _Book(cb)
    alone = []
    for b, (p_row, o_row) in enumerate(zip(predicted, observed)):
        p, o = _cols(p_row), _cols(o_row)
        rho = _inner(*p, *o)
        chord = _chord_cols(*p, *o, rho)
        if b == 1:  # the one-session search scores the collapsed codeword's s as 0
            assert not codec._projections(book, p, o, rho)[:, 0].any()
        alone.append((*_pick(book, p, o, rho, chord), *_pick_free(book, p, o, rho, chord)))
    d, m, free_d, cos, sin = (np.array(column) for column in zip(*alone))
    assert (d[0], m[0]) == (0, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a masked sqrt or division must not warn
        # One book at two batch widths: its workspace follows the width.
        for width in (sessions, max(1, sessions // 3)):
            p, o = batch_columns(predicted[:width]), batch_columns(observed[:width])
            rho = _inner(*p, *o)
            chord = _chord_cols(*p, *o, rho)
            if width > 1:
                assert not np.array(codec._projections(book, p, o, rho))[:, 0, 1].any()  # collapsed
                # Session 1 predicts codeword 0, whose den is below the
                # screen's floor: the fixed-order search must re-score it.
                unsure = codec._screen(book, p, o, rho)[1]
                assert unsure[1]
                assert unsure.all() or margin < 1.0
            batch_d, batch_m = _pick(book, p, o, rho, chord)
            assert batch_d.tolist() == d[:width].tolist()
            assert batch_m.tolist() == m[:width].tolist()
            batch_free = _pick_free(book, p, o, rho, chord)
            assert batch_free[0].tolist() == free_d[:width].tolist()
            assert batch_free[1].tobytes() == cos[:width].tobytes()
            assert batch_free[2].tobytes() == sin[:width].tobytes()
    # The whole encoder over short traces, split into chunks of ``_CHUNK``
    # sessions; session 0's trace stands still.
    steps = np.arange(5)[None, :, None]
    rows = unit_rows(predicted[:, None] + 0.05 * steps * (observed - predicted)[:, None])
    rows[0] = predicted[0]
    for free_magnitude in (False, True):
        batch = codec._encode_rows(rows, cb, "exact", free_magnitude, "exact")
        for b in range(sessions):
            one = codec._encode_rows(rows[b : b + 1], cb, "exact", free_magnitude, "exact")
            for field, got in zip(one, batch):
                if isinstance(field, np.ndarray):
                    assert got[b].tobytes() == field[0].tobytes()


@settings(derandomize=True, deadline=None, database=None, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4, 8, 16]),
    n_m=st.sampled_from([1, 8, 32]),
)
@example(seed=0, n=16, n_m=32)
def test_screened_scores_are_within_the_margin(seed, n, n_m):
    # Predictions near codewords (den down to the screen's floor and below)
    # and observations 1e-7 to 1 from them: wherever den >= _DEN_FLOOR, the
    # screened score of every (d, m) is within a sixteenth of the margin of
    # the fixed-order score, which the screen's bound needs within a half.
    rng = np.random.default_rng(seed)
    gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # noqa: E731
    sessions, n_d = 24, 16
    words = unit_rows(gauss(n_d, n))
    cb = ShapeGainCodebook(DirectionCodebook(words), uniform_magnitude(n_m, 0.0, 1.2))
    near = words[rng.integers(0, n_d, sessions)]
    predicted = unit_rows(near + 10.0 ** rng.uniform(-2.5, 0.0, (sessions, 1)) * gauss(sessions, n))
    observed = unit_rows(predicted + 10.0 ** rng.uniform(-7.0, 0.0, (sessions, 1)) * gauss(sessions, n))
    book = _Book(cb)
    p, o = batch_columns(predicted), batch_columns(observed)
    rho = _inner(*p, *o)
    codec._screen(book, p, o, rho)
    screened = book.screen(sessions)
    codec._search(book, p, o, rho)
    fixed = book.space(sessions).score.transpose(2, 0, 1)  # (B, N_d, N_m)
    kept = 1.0 - np.abs(predicted.conj() @ words.T) ** 2 >= codec._DEN_FLOOR  # den, (B, N_d)
    assert kept.any()
    gap = np.abs(screened.score.reshape(sessions, n_d, n_m) - fixed)[kept]
    assert gap.max() <= codec._MARGIN / 16


def tie_case(kind: str, sessions: int, seed: int):
    """A codebook and ``sessions`` (prediction, observation) rows on which
    two entries tie in exact arithmetic, so that rounding alone orders them.
    ``symmetric``: codewords 0 and 1 lie mirror-imaged about the plane of
    the prediction and the observation.  ``near``: codeword 0 lies 3e-5 from
    every prediction (den about 1e-9), and its projection there is
    codeword 1's direction."""
    rng = np.random.default_rng(seed)
    gauss = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)  # noqa: E731
    e = np.linalg.qr(gauss(4, 4))[0].T  # e[k] = U e_k for a random unitary U
    phase = lambda: np.exp(2j * np.pi * rng.uniform(size=(sessions, 1)))  # noqa: E731
    if kind == "symmetric":
        words = np.array([e[1], e[2], e[3], (e[1] - e[2]) / math.sqrt(2.0)])
        beta = rng.uniform(0.3, 1.2, (sessions, 1))
        predicted = phase() * (np.cos(beta) * e[0] + np.sin(beta) * phase() * e[3])
        away = np.repeat((e[1:2] + e[2:3]) / math.sqrt(2.0), sessions, axis=0)
    else:
        words = np.array([unit_rows(e[0] + 3e-5 * e[1]), e[1], e[2], e[3]])
        predicted = phase() * e[0]
        gamma = rng.uniform(0.0, 0.3, (sessions, 1))
        away = np.cos(gamma) * e[1] + np.sin(gamma) * e[2]
    alpha = rng.uniform(0.05, 0.5, (sessions, 1))
    observed = phase() * (np.cos(alpha) * predicted + np.sin(alpha) * away)
    cb = ShapeGainCodebook(DirectionCodebook(words), uniform_magnitude(8, 0.0, 1.2))
    return cb, unit_rows(predicted), unit_rows(observed)


@pytest.mark.parametrize("kind", ["symmetric", "near"])
def test_screen_leaves_rounding_ties_to_the_fixed_order(kind):
    # Exact-arithmetic ties (symmetric), and ties through a codeword whose
    # den is far below the screen's floor (near), which the screen scores
    # with errors far above its margin: every session must take the pick of
    # the fixed-order search, batched or alone.
    sessions = 64
    cb, predicted, observed = tie_case(kind, sessions, seed=5)
    book = _Book(cb)
    p, o = batch_columns(predicted), batch_columns(observed)
    rho = _inner(*p, *o)
    chord = _chord_cols(*p, *o, rho)
    d, m = _pick(book, p, o, rho, chord)
    assert (d * book.n_m + m).tolist() == codec._search(book, p, o, rho).tolist()
    assert set(d.tolist()) <= {0, 1}
    for b, (p_row, o_row) in enumerate(zip(predicted, observed)):
        q, x = _cols(p_row), _cols(o_row)
        rho_b = _inner(*q, *x)
        assert _pick(book, q, x, rho_b, _chord_cols(*q, *x, rho_b)) == (d[b], m[b])


def test_zero_tangent_threshold_in_the_joint_search():
    # A chord below ZERO_TANGENT_TOL short-circuits to (0, 0); at the
    # threshold and above it the search runs, alone and in a batch alike.
    cb = small_codebook()
    book = _Book(cb)
    x = random_point(4, rng_stream(4))
    y = exp_map(x, reconstruct_codeword(CodewordIndex(3, 2), x, cb))
    p, o = _cols(x.coords), _cols(y.coords)
    rho = _inner(*p, *o)
    searched = _pick(book, p, o, rho, _chord_cols(*p, *o, rho))
    assert searched == (3, 2)
    chords = [float(np.nextafter(ZERO_TANGENT_TOL, 0.0)), ZERO_TANGENT_TOL,
              float(np.nextafter(ZERO_TANGENT_TOL, 1.0))]
    expected = [(0, 0), searched, searched]
    assert [_pick(book, p, o, rho, chord) for chord in chords] == expected
    cols = lambda part: [np.full(3, v) for v in part]  # noqa: E731
    d, m = _pick(book, [cols(part) for part in p], [cols(part) for part in o],
                 tuple(np.full(3, v) for v in rho), np.array(chords))
    assert list(zip(d.tolist(), m.tolist())) == expected


def test_batched_along_at_its_thresholds():
    # Sessions 0-2 predict (1, t, 0, 0) for t just below, at and just above
    # PROJECTION_COLLAPSE_TOL, where codeword 0 = e_0 projects to a norm of
    # exactly t; sessions 3-5 step with sin just below, at and just above 0
    # from a prediction that _unit would change.  Only a kept projection with
    # sin > 0 leaves the prediction, in a batch and alone.
    words = best_packing(4, 8, draws=1000).entries.copy()
    words[0] = np.eye(4)[0]
    book = _Book(ShapeGainCodebook(DirectionCodebook(words), uniform_magnitude(4, 0.0, 1.2)))
    tol = PROJECTION_COLLAPSE_TOL
    q = np.array([0.5, 0.5, 0.5, 0.5 + 1e-15], dtype=np.complex128)
    assert np.array(_unit(*_cols(q))).tobytes() != np.array(_cols(q)).tobytes()
    tiny = math.ulp(0.0)
    sessions = [
        *((np.array([1.0, t, 0.0, 0.0], dtype=np.complex128), 0, *book.level(2))
          for t in (float(np.nextafter(tol, 0.0)), tol, float(np.nextafter(tol, 1.0)))),
        *((q, 1, 1.0, sin) for sin in (-tiny, 0.0, tiny)),
    ]
    moves = [False, True, True, False, False, True]
    rows = np.array([s[0] for s in sessions])
    d, cos, sin = (np.array([s[k] for s in sessions]) for k in (1, 2, 3))
    batch = _along(book, batch_columns(rows), d, cos, sin)
    got = np.array(batch[0]).T + 1j * np.array(batch[1]).T
    for b, (row, d_b, cos_b, sin_b) in enumerate(sessions):
        assert (got[b].tobytes() != row.tobytes()) == moves[b]
        alone = _along(book, _cols(row), int(d_b), float(cos_b), float(sin_b))
        assert _row(*alone).tobytes() == got[b].tobytes()


@pytest.mark.parametrize("scale, lost", [(1.0 - 1e-5, True), (1.0 + 1e-5, False)])
def test_cut_locus_guard_fires_at_rho_min_through_the_codec(scale, lost):
    # Session 2's observation at step 20 makes |rho| with its prediction just
    # below or just above RHO_MIN.  Below it, the encoder loses track at that
    # step alone and in a batch, or re-seeds that session once; above it,
    # the session keeps tracking.
    cb = ShapeGainCodebook(best_packing(4, 64), uniform_magnitude(8))
    params = Ar1Params(n=4, beta=0.01, steps=40, seed=0)
    rows = np.array([t.normalized for t in _ar1_traces(params, _innovations(params, [1, 2, 3, 4]))])
    k = 20
    predicted = codec._encode_rows(rows[2:3, :k], cb, "exact").state[0, 2]
    v = np.random.default_rng(0).standard_normal(4) + 1j * np.random.default_rng(1).standard_normal(4)
    v -= np.vdot(predicted, v) * predicted
    v /= np.linalg.norm(v)
    a = scale * RHO_MIN
    rows[2, k] = a * predicted + math.sqrt(1.0 - a * a) * v
    rr, ri = _inner(*_cols(predicted), *_cols(rows[2, k]))
    assert (math.sqrt(rr * rr + ri * ri) <= RHO_MIN) == lost
    points = [GrassmannPoint(r) for r in rows[2]]
    if lost:
        with pytest.raises(TrackingLostError) as alone:
            encode_trace(points, cb)
        with pytest.raises(TrackingLostError) as batch:
            codec._encode_rows(rows, cb, "exact")
        assert alone.value.step == batch.value.step == k
    else:
        assert encode_trace(points, cb).reinits == 0
        codec._encode_rows(rows, cb, "exact")
    run = codec._encode_rows(rows, cb, "exact", reseed="exact")
    assert run.reinits.tolist() == [0, 0, int(lost), 0]
    alone = encode_trace(points, cb, on_track_loss="reinit")
    assert alone.reinits == int(lost)
    assert (alone.indices[k - 2] is None) == lost


def test_cut_locus_guard_fires_at_rho_min_exactly():
    # Two seeds e_0 predict e_0 to the bit, so the observation
    # (RHO_MIN, sqrt(1 - RHO_MIN^2), 0, 0) puts |rho| exactly at RHO_MIN,
    # which the guard counts as lost, alone and in a batch.
    cb = ShapeGainCodebook(best_packing(4, 64), uniform_magnitude(8))
    e0 = np.eye(4, dtype=np.complex128)[0]
    edge = np.array([RHO_MIN, math.sqrt(1.0 - RHO_MIN * RHO_MIN), 0.0, 0.0], dtype=np.complex128)
    trace = np.array([e0, e0, edge, edge])
    with pytest.raises(TrackingLostError) as alone:
        encode_trace([GrassmannPoint(r) for r in trace], cb)
    assert alone.value.step == 2 and alone.value.rho_abs == RHO_MIN
    steady = np.array([e0, e0, e0, e0])
    with pytest.raises(TrackingLostError) as batch:
        codec._encode_rows(np.array([steady, trace, steady]), cb, "exact")
    assert batch.value.step == 2 and batch.value.rho_abs == RHO_MIN


def assert_unit_rows(rows):
    norms = np.sqrt(np.sum(rows.real**2 + rows.imag**2, axis=-1))
    assert np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL)


@settings(derandomize=True, deadline=None, database=None, max_examples=25)
@given(
    sessions=st.integers(2, 12),
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4]),
    n_d=st.sampled_from([4, 16, 64]),
    n_m=st.sampled_from([1, 4, 8]),
    hi=st.sampled_from([0.3, 1.0]),
    beta=st.sampled_from([0.001, 0.01, 0.04]),
    mode=st.sampled_from(["exact", "memoryless"]),
)
@example(sessions=16, seed=0, n=4, n_d=64, n_m=8, hi=1.0, beta=0.01, mode="exact")
@example(sessions=16, seed=0, n=4, n_d=64, n_m=8, hi=1.0, beta=0.01, mode="memoryless")
def test_batched_decoder_replays_each_session_alone(sessions, seed, n, n_d, n_m, hi, beta, mode):
    # The decoder steps a batch as the encoder does: its estimates are the
    # encoder's, byte for byte, and those of each session decoded alone, and
    # every estimate is a unit vector.
    rng = np.random.default_rng(seed)
    words = unit_rows(rng.standard_normal((n_d, n)) + 1j * rng.standard_normal((n_d, n)))
    cb = ShapeGainCodebook(DirectionCodebook(words), uniform_magnitude(n_m, 0.0, hi))
    params = Ar1Params(n=n, beta=beta, steps=40, seed=0)
    seeds = rng.integers(0, 2**63, sessions).tolist()
    rows = np.array([t.normalized for t in _ar1_traces(params, _innovations(params, seeds))])
    run = codec._encode_rows(rows, cb, mode)
    starts = [codec._seed(r[0], r[1], cb, mode) for r in rows]
    received = [tuple(step) for step in run.pairs.transpose(1, 2, 0)]  # (d, m) of (B,) each
    batch = codec._run(cb, codec._stack(starts), 2, pairs=received)
    assert batch.estimates.tobytes() == run.estimates.tobytes()
    assert batch.state.tobytes() == run.state.tobytes()
    for b, start in enumerate(starts):
        alone = codec._run(cb, start, 2, pairs=run.pairs[b].tolist())
        assert alone.estimates[0].tobytes() == run.estimates[b].tobytes()
        assert alone.state[0].tobytes() == run.state[b].tobytes()
    assert_unit_rows(run.estimates)
    assert_unit_rows(run.predictions)
    assert_unit_rows(codec._encode_rows(rows, cb, mode, True, reseed=mode).estimates)


FAULTS = """
import resource
import numpy as np
from grasspc import Ar1Params, ShapeGainCodebook, best_packing, gen_ar1, uniform_magnitude
from grasspc import codec
cb = ShapeGainCodebook(best_packing(4, 64), uniform_magnitude(8))
rows = np.array([gen_ar1(Ar1Params(n=4, beta=0.04, steps=62, seed=s)).normalized for s in range(160)])
codec._encode_rows(rows, cb, "memoryless", reseed="memoryless")  # warm up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run = codec._encode_rows(rows, cb, "memoryless", reseed="memoryless")
assert run.pairs.shape == (160, 60, 2)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="minor-fault counts as Linux reports them")
def test_batched_encode_does_not_page_fault_per_step():
    # The batched search computes into a workspace made once per call.  Were
    # its multi-megabyte temporaries allocated every step, the allocator
    # would hand them back to the kernel each time: hundreds of minor faults
    # per step at this width.  A fresh interpreter measures it, since the
    # allocator's thresholds adapt to whatever else this one has run.
    pytest.importorskip("resource")
    src = str(Path(codec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", FAULTS], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 4000


# ---------------------------------------------------------------------------
# replay under other BLAS and SIMD kernels

REPLAY = """
import sys
import numpy as np
from grasspc import (
    CodewordIndex, DirectionCodebook, GpcState, GrassmannPoint, MagnitudeCodebook,
    ShapeGainCodebook, decode_trace,
)
data = np.load(sys.argv[1])
cb = ShapeGainCodebook(DirectionCodebook(data["directions"]), MagnitudeCodebook(data["magnitudes"]))
state = GpcState(*(GrassmannPoint(r) for r in data["state"]), 2)
decoded, _ = decode_trace(state, [CodewordIndex(int(d), int(m)) for d, m in data["pairs"]], cb)
np.save(sys.argv[2], np.array([p.coords for p in decoded]))
"""


def numpy_blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy, or a build without the record
        return ""


def numpy_dispatch() -> str:
    """The SIMD features numpy dispatches to at run time, space-separated."""
    umath = getattr(getattr(np, "_core", None), "_multiarray_umath", None)
    return " ".join(getattr(umath, "__cpu_dispatch__", ()))


@pytest.mark.parametrize(
    "variable, value",
    [
        ("OPENBLAS_CORETYPE", "Haswell"),
        ("OPENBLAS_CORETYPE", "Prescott"),
        ("NPY_DISABLE_CPU_FEATURES", "all"),
    ],
    ids=["blas-Haswell", "blas-Prescott", "numpy-baseline-simd"],
)
def test_decoder_replays_under_other_kernels(tmp_path, variable, value):
    # The decoder loop makes no BLAS call and no complex ufunc multiply, so a
    # decoder whose dot products run on another OpenBLAS kernel, or whose
    # numpy runs without its dispatched SIMD loops, must still replay the
    # stream bit for bit.  (Seed indices may still use BLAS; the state is
    # sent as is.)
    if variable == "OPENBLAS_CORETYPE" and "openblas" not in numpy_blas().lower():
        pytest.skip(
            "OPENBLAS_CORETYPE picks a BLAS kernel only in OpenBLAS; this numpy uses "
            f"{numpy_blas() or 'an unknown BLAS'}, so the case would prove nothing"
        )
    if value == "all":
        value = numpy_dispatch()
        if not value:
            pytest.skip("this numpy reports no dispatched SIMD features to disable")
    cb = ShapeGainCodebook(best_packing(4, 64), uniform_magnitude(8))
    points = gen_ar1(Ar1Params(n=4, beta=0.01, steps=2500, seed=31)).points
    encoded = encode_trace(points, cb, mode="memoryless")
    state = initialize(points[0], points[1], cb, mode="memoryless")
    np.savez(
        tmp_path / "stream.npz",
        directions=cb.directions.entries,
        magnitudes=cb.magnitudes.entries,
        state=np.array([p.coords for p in state_points(state)]),
        pairs=np.array([(i.direction_index, i.magnitude_index) for i in encoded.indices]),
    )
    src = str(Path(codec.__file__).resolve().parents[1])
    env = dict(os.environ, **{variable: value})
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    out = tmp_path / "decoded.npy"
    result = subprocess.run(
        [sys.executable, "-c", REPLAY, str(tmp_path / "stream.npz"), str(out)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    decoded = np.load(out)
    assert len(decoded) == len(encoded.estimates) == 2498
    assert decoded.tobytes() == np.array([e.coords for e in encoded.estimates]).tobytes()
