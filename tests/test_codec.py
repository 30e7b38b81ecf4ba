"""Unit tests for the predictive encoder/decoder: quantization, state
management, symmetry, initialization, and index-stream serialization."""

import dataclasses

import numpy as np
import pytest

from grasspc import (
    PROJECTION_COLLAPSE_TOL,
    ZERO_TANGENT_TOL,
    Ar1Params,
    Ar2Params,
    CodewordIndex,
    CutLocusError,
    EncodeResult,
    GpcState,
    GrassmannPoint,
    ShapeGainCodebook,
    TangentVector,
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
from grasspc.codec import _direction_only


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
        p, o = predicted.coords, observed.coords
        chord = chordal_distance(predicted, observed)
        free_tangent = TangentVector(
            predicted, *_direction_only(p, o, np.vdot(p, o), chord, cb.directions.entries)
        )
        joint_idx = quantize_tangent(predicted, observed, cb)
        joint_tangent = reconstruct_codeword(joint_idx, predicted, cb)
        free_d = chordal_distance(exp_map(predicted, free_tangent), observed)
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
        cb = ShapeGainCodebook(directions, lloyd_magnitude(ts, n_m))
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


def test_index_stream_rejects_reinit_gaps(tmp_path):
    with pytest.raises(ValueError, match="gap"):
        write_index_stream(tmp_path / "s.txt", [CodewordIndex(0, 0), None], 4)


# ---------------------------------------------------------------------------
# reference: the per-step object codec that the array loop replaced
#
# Kept verbatim in spirit (same float operations, one object per value) so
# the array loop can be checked byte for byte against it.  The closed loop
# is chaotic: a one-ulp difference anywhere decorrelates a session within
# about a thousand steps, so any reordering of the arithmetic shows here.


def ref_projected_directions(entries, base):
    inners = entries @ base.conj()
    w = entries - np.outer(inners, base)
    norms = np.linalg.norm(w, axis=1)
    keep = norms > PROJECTION_COLLAPSE_TOL
    out = np.zeros_like(w)
    out[keep] = w[keep] / norms[keep, None]
    return out


def ref_quantize_tangent(predicted, observed, codebook):
    base = predicted.coords
    if chordal_distance(predicted, observed) < ZERO_TANGENT_TOL:
        return CodewordIndex(0, 0)
    b = np.vdot(base, observed.coords)
    s = ref_projected_directions(codebook.directions.entries, base).conj() @ observed.coords
    m = codebook.magnitudes.entries
    inner = np.cos(m)[None, :] * b + np.sin(m)[None, :] * s[:, None]
    return CodewordIndex(*divmod(int(np.argmax(np.abs(inner) ** 2)), m.size))


def ref_reconstruct_codeword(index, predicted, codebook):
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


def ref_direction_only_quantizer(predicted, observed, codebook, error):
    if error.is_zero:
        return TangentVector.zero(predicted), None
    base = predicted.coords
    b = np.vdot(base, observed.coords)
    proj = ref_projected_directions(codebook.directions.entries, base)
    s = proj.conj() @ observed.coords
    bb = abs(b) ** 2
    ss = np.abs(s) ** 2
    cross = (np.conj(b) * s).real
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


def ref_initialize(x0, x1, codebook, mode):
    if mode == "exact":
        return GpcState(x0, x1, predict_one_step(x0, x1), 2)
    _, q0 = memoryless_quantize(x0, codebook.directions)
    scores = np.abs(codebook.directions.entries.conj() @ x1.coords) ** 2
    for i1 in np.argsort(-scores, kind="stable"):
        q1 = GrassmannPoint.from_vector(codebook.directions.entries[i1])
        try:
            return GpcState(q0, q1, predict_one_step(q0, q1), 2)
        except CutLocusError:
            pass
    raise CutLocusError(0.0, "no codeword for the second point can seed the predictor")


def ref_advance(state, estimate):
    try:
        predicted = predict_one_step(state.est_curr, estimate)
    except CutLocusError as exc:
        raise TrackingLostError(exc.rho_abs, state.time) from exc
    return GpcState(state.est_curr, estimate, predicted, state.time + 1)


def ref_encode_step(state, observed, codebook, quantizer=None):
    try:
        error = log_map(state.predicted, observed)
    except CutLocusError as exc:
        raise TrackingLostError(exc.rho_abs, state.time) from exc
    if quantizer is None:
        index = ref_quantize_tangent(state.predicted, observed, codebook)
        tangent = ref_reconstruct_codeword(index, state.predicted, codebook)
    else:
        tangent, index = quantizer(state.predicted, observed, codebook, error)
    estimate = exp_map(state.predicted, tangent)
    return index, ref_advance(state, estimate), estimate


def ref_decode_step(state, index, codebook):
    tangent = ref_reconstruct_codeword(index, state.predicted, codebook)
    estimate = exp_map(state.predicted, tangent)
    return estimate, ref_advance(state, estimate)


def ref_encode_trace(points, codebook, mode, quantizer):
    """The object-path encode_trace loop with on_track_loss="reinit"."""
    state = ref_initialize(points[0], points[1], codebook, mode)
    indices, estimates, pred_err, est_err, reinits = [], [], [], [], 0
    for j, observed in enumerate(points[2:]):
        pred_err.append(chordal_distance(state.predicted, observed))
        try:
            index, state, estimate = ref_encode_step(state, observed, codebook, quantizer)
        except TrackingLostError:
            reinits += 1
            state = ref_initialize(points[j + 1], observed, codebook, mode)
            state = dataclasses.replace(state, time=j + 3)
            index, estimate = None, state.est_curr
        indices.append(index)
        estimates.append(estimate)
        est_err.append(chordal_distance(estimate, observed))
    return tuple(indices), estimates, np.array(pred_err), np.array(est_err), state, reinits


def ref_harvest_closed_loop(points, codebook):
    state = ref_initialize(points[0], points[1], codebook, "exact")
    tangents, skipped = [], 0
    for k in range(2, len(points)):
        try:
            tangents.append(log_map(state.predicted, points[k]))
            _, state, _ = ref_encode_step(state, points[k], codebook)
        except CutLocusError:
            skipped += 1
            state = ref_initialize(points[k - 1], points[k], codebook, "exact")
    return tangents, skipped


def same_rows(xs, ys):
    """Byte identity of two sequences of coordinate rows."""
    xs, ys = list(xs), list(ys)
    return len(xs) == len(ys) and all(
        np.asarray(x).tobytes() == np.asarray(y).tobytes() for x, y in zip(xs, ys)
    )


def same_state(a, b):
    return a.time == b.time and same_rows(
        (a.est_prev.coords, a.est_curr.coords, a.predicted.coords),
        (b.est_prev.coords, b.est_curr.coords, b.predicted.coords),
    )


def check_against_reference(points, codebook, mode, free_magnitude):
    points = list(points)
    quantizer = ref_direction_only_quantizer if free_magnitude else None
    indices, estimates, pred_err, est_err, state, reinits = ref_encode_trace(
        points, codebook, mode, quantizer
    )
    res = encode_trace(points, codebook, mode, free_magnitude, on_track_loss="reinit")
    assert res.indices == indices
    assert same_rows([e.coords for e in res.estimates], [e.coords for e in estimates])
    assert same_rows([res.prediction_errors], [pred_err])
    assert same_rows([res.estimate_errors], [est_err])
    assert same_state(res.state, state)
    assert res.reinits == reinits
    if free_magnitude or reinits:
        return res
    start = initialize(points[0], points[1], codebook, mode)
    decoded, final = decode_trace(start, res.indices, codebook)
    ref_state, ref_decoded = ref_initialize(points[0], points[1], codebook, mode), []
    for index in indices:
        estimate, ref_state = ref_decode_step(ref_state, index, codebook)
        ref_decoded.append(estimate)
    assert same_rows([e.coords for e in decoded], [e.coords for e in ref_decoded])
    assert same_state(final, ref_state)
    return res


def check_harvest_against_reference(points, codebook):
    points = list(points)
    tangents, skipped = ref_harvest_closed_loop(points, codebook)
    ts = harvest_closed_loop(points, codebook)
    assert ts.skipped == skipped
    assert same_rows([ts.magnitudes()], [np.array([t.magnitude for t in tangents])])
    assert same_rows([t.direction for t in ts.tangents], [t.direction for t in tangents])
    assert same_rows([t.base.coords for t in ts.tangents], [t.base.coords for t in tangents])


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
def test_array_loop_matches_reference_through_track_loss(free_magnitude):
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
