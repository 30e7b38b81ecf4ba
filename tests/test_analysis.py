"""Unit tests for the closed-form distortion bounds and metric helpers."""

import math

import numpy as np
import pytest
from scipy.special import beta

from grasspc import (
    Ar1Params,
    DirectionCodebook,
    DistortionBounds,
    MagnitudeCodebook,
    ShapeGainCodebook,
    ball_normalized_distortion,
    ball_volume,
    best_packing,
    chordal_distance,
    closed_loop_gain,
    closed_loop_gain_db,
    codebook_spacings,
    complex_gaussian,
    gen_ar1,
    gpc_bound_reduction,
    gpc_distortion_bounds,
    harvest_open_loop,
    memoryless_lower_bound,
    memoryless_squared_errors,
    mse_db,
    predict_one_step,
    rng_stream,
    uniform_magnitude,
)
from grasspc import GrassmannPoint, memoryless_quantize


def unit_rows(n_rows, n, rng):
    z = complex_gaussian(rng, (n_rows, n))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# ball geometry


def test_ball_volume_pins():
    assert abs(ball_volume(3, 0.5) - 0.0625) < 1e-12
    assert ball_volume(4, 1.0) == 1.0
    assert ball_volume(2, 0.0) == 0.0
    with pytest.raises(ValueError):
        ball_volume(1, 0.5)
    with pytest.raises(ValueError):
        ball_volume(3, 1.5)


def test_ball_normalized_distortion_pins():
    assert abs(ball_normalized_distortion(4, 0.2) - 0.03) < 1e-12
    assert ball_normalized_distortion(3, 0.0) == 0.0
    with pytest.raises(ValueError):
        ball_normalized_distortion(3, -0.1)


def test_ball_formulas_match_rejection_sampling():
    # Volume-uniform points in a radius-0.3 ball on G(3,1) by rejection from
    # the isotropic measure; checks both the ball volume (acceptance rate)
    # and the in-ball mean squared distance.
    rng = rng_stream(13, 0xBA)
    center = unit_rows(1, 3, rng)[0]
    rows = unit_rows(1_000_000, 3, rng)
    d2 = np.maximum(0.0, 1.0 - np.abs(rows @ center.conj()) ** 2)
    kept = d2[d2 < 0.3**2]
    assert kept.size > 5000
    frac = kept.size / rows.shape[0]
    assert abs(frac - ball_volume(3, 0.3)) < 0.05 * ball_volume(3, 0.3)
    expected = ball_normalized_distortion(3, 0.3)
    assert abs(np.mean(kept) - expected) < 0.02 * expected


# ---------------------------------------------------------------------------
# quantization bounds


def test_memoryless_lower_bound_pins():
    assert abs(memoryless_lower_bound(4, 512) - 0.09375) < 1e-12
    for size in (1, 2, 64):
        assert abs(memoryless_lower_bound(2, size) - 0.5 / size) < 1e-12
    for n in (2, 3, 4, 8):
        assert abs(memoryless_lower_bound(n, 1) - (n - 1) / n) < 1e-12
    with pytest.raises(ValueError):
        memoryless_lower_bound(4, 0)


def test_gpc_bound_reduction_is_a_fixed_fraction():
    for n_d in (16, 64, 512, 4096):
        ratio = gpc_bound_reduction(4, n_d) / memoryless_lower_bound(4, n_d)
        assert abs(ratio - 0.1875) < 1e-12
    assert abs(gpc_bound_reduction(2, 32) / memoryless_lower_bound(2, 32) - 0.125) < 1e-12
    for n in range(2, 9):
        for n_d in (4, 64):
            assert gpc_bound_reduction(n, n_d) < memoryless_lower_bound(n, n_d)


def test_memoryless_empirical_respects_lower_bound():
    rows = unit_rows(100_000, 4, rng_stream(11, 0x15))
    cb = best_packing(4, 512)
    sq = memoryless_squared_errors(rows, cb)
    assert float(np.mean(sq)) >= memoryless_lower_bound(4, 512)


def test_memoryless_squared_errors_matches_loop():
    rng = rng_stream(1)
    rows = unit_rows(200, 3, rng)
    cb = best_packing(3, 16, draws=500)
    sq = memoryless_squared_errors(rows, cb)
    for row, val in zip(rows, sq):
        p = GrassmannPoint(row)
        _, q = memoryless_quantize(p, cb)
        assert abs(val - chordal_distance(p, q) ** 2) < 1e-12
    with pytest.raises(ValueError, match="shape"):
        memoryless_squared_errors(rows[:, :2], cb)


@pytest.mark.parametrize("bits, n", [(6, 4), (9, 4), (4, 3)])
def test_memoryless_squared_errors_match_the_random_codebook_closed_form(bits, n):
    # Nearest of N = 2^B random unit codewords in C^n: the squared chordal
    # error has mean N B(N, n/(n-1)) (Jindal, IEEE Trans. IT 2006).  A fresh
    # codebook every 20 rows makes the 300 per-codebook means independent, so
    # their standard error is honest.
    rng = rng_stream(0, 0x6B)
    means = []
    for _ in range(300):
        rows = unit_rows(20, n, rng)
        codebook = DirectionCodebook(unit_rows(2**bits, n, rng))
        means.append(memoryless_squared_errors(rows, codebook).mean())
    exact = 2**bits * beta(2**bits, n / (n - 1))
    assert abs(np.mean(means) - exact) < 5.0 * np.std(means, ddof=1) / np.sqrt(len(means))


# ---------------------------------------------------------------------------
# codebook spacings and distortion bounds


def test_codebook_spacings_pins():
    cb = ShapeGainCodebook(
        DirectionCodebook(np.eye(2, dtype=np.complex128)),
        MagnitudeCodebook(np.array([0.1, 0.3, 0.5, 0.9])),
    )
    gamma_d, gamma_m, lambda_d, lambda_m = codebook_spacings(cb)
    assert abs(gamma_d - 1.0) < 1e-12 and abs(lambda_d - 1.0) < 1e-12
    assert abs(gamma_m - 0.2) < 1e-12 and abs(lambda_m - 0.8) < 1e-12


def test_codebook_spacings_brute_force():
    cb = ShapeGainCodebook(best_packing(3, 8, draws=500), uniform_magnitude(4, 0.0, 0.8))
    gamma_d, gamma_m, lambda_d, lambda_m = codebook_spacings(cb)
    points = [GrassmannPoint.from_vector(r) for r in cb.directions.entries]
    dists = [
        chordal_distance(a, b)
        for i, a in enumerate(points)
        for b in points[i + 1 :]
    ]
    assert abs(gamma_d - min(dists)) < 1e-12
    assert abs(lambda_d - max(dists)) < 1e-12
    m = cb.magnitudes.entries
    diffs = [abs(a - b) for i, a in enumerate(m) for b in m[i + 1 :]]
    assert abs(gamma_m - min(diffs)) < 1e-12
    assert abs(lambda_m - max(diffs)) < 1e-12


def test_codebook_spacings_requires_two_per_side():
    cb = ShapeGainCodebook(
        best_packing(3, 4, draws=200), MagnitudeCodebook(np.array([0.3]))
    )
    with pytest.raises(ValueError, match="at least two"):
        codebook_spacings(cb)


def test_gpc_distortion_bounds_pinned_and_generic():
    cb = ShapeGainCodebook(
        DirectionCodebook(np.eye(4, dtype=np.complex128)[:2]),
        MagnitudeCodebook(np.array([0.1, 0.3])),
    )
    bounds = gpc_distortion_bounds(4, cb)
    assert abs(bounds.gamma_lower - 0.2) < 1e-12
    assert abs(bounds.lower - 0.0075) < 1e-12  # (3/4) * (0.2 / 2)^2
    assert abs(bounds.lambda_upper - 1.0) < 1e-12
    assert abs(bounds.upper - 0.1875) < 1e-12
    generic = ShapeGainCodebook(best_packing(3, 8, draws=500), uniform_magnitude(4))
    gb = gpc_distortion_bounds(3, generic)
    gamma_d, gamma_m, lambda_d, lambda_m = codebook_spacings(generic)
    assert abs(gb.lower - (2 / 3) * (min(gamma_d, gamma_m) / 2) ** 2) < 1e-12
    assert abs(gb.upper - (2 / 3) * (min(max(lambda_d, lambda_m) / 2, 1.0)) ** 2) < 1e-12
    assert gb.lower <= gb.upper
    with pytest.raises(ValueError, match="match"):
        gpc_distortion_bounds(4, generic)


def test_gpc_distortion_bounds_collapse_when_spacings_tie():
    cb = ShapeGainCodebook(
        DirectionCodebook(np.eye(2, dtype=np.complex128)),
        MagnitudeCodebook(np.array([0.0, 1.0])),
    )
    bounds = gpc_distortion_bounds(2, cb)
    assert abs(bounds.lower - bounds.upper) < 1e-15


def test_distortion_bounds_container_validation():
    with pytest.raises(ValueError):
        DistortionBounds(lower=0.2, upper=0.1, gamma_lower=0.1, lambda_upper=0.5)
    with pytest.raises(ValueError):
        DistortionBounds(lower=0.1, upper=0.2, gamma_lower=0.6, lambda_upper=0.5)


# ---------------------------------------------------------------------------
# scalar metrics


def test_closed_loop_gain_pins():
    assert abs(closed_loop_gain([0.1] * 5) - 100.0) < 1e-9
    assert abs(closed_loop_gain_db([0.1] * 5) - 20.0) < 1e-9
    assert closed_loop_gain([0.0, 0.0]) == math.inf
    assert closed_loop_gain_db([0.0]) == math.inf
    with pytest.raises(ValueError):
        closed_loop_gain([])


def test_mse_db_pins():
    assert abs(mse_db([0.1] * 5) + 20.0) < 1e-12
    assert mse_db([0.0, 0.0]) == -math.inf
    with pytest.raises(ValueError):
        mse_db([])


def test_gain_from_chords_matches_gain_from_arcs_when_small():
    # chordal error = sin(arc error) exactly, so at small arcs the two gain
    # figures coincide; this validates quoting either in reports.
    trace = gen_ar1(Ar1Params(n=4, beta=0.01, steps=2000, seed=2))
    arcs = harvest_open_loop(trace.points).magnitudes
    pts = trace.points
    chords = [
        chordal_distance(predict_one_step(a, b), c) for a, b, c in zip(pts, pts[1:], pts[2:])
    ]
    g_arc = closed_loop_gain(arcs)
    g_chord = closed_loop_gain(chords)
    assert abs(g_chord - g_arc) < 0.05 * g_arc
    assert g_chord >= g_arc  # sin(m) <= m term by term
