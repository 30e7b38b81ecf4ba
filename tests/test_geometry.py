"""Unit tests for the manifold primitives: distances, log/exp maps,
parallel transport, prediction, and their exact identities."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasspc import (
    CutLocusError,
    DimensionMismatchError,
    GrassmannPoint,
    MagnitudeCodebook,
    TangentVector,
    chordal_distance,
    exp_map,
    inner_decomposition,
    log_map,
    parallel_transport,
    predict_one_step,
    random_point,
    rng_stream,
    sequence_correlation,
)
from grasspc.codebooks import _harvest_open_rows
from grasspc.geometry import (
    PHASE_EQ_TOL,
    RHO_MIN,
    _chord_cols,
    _cols,
    _inner,
    _offset,
    _sqnorm,
)


def basis(n, k):
    v = np.zeros(n, dtype=np.complex128)
    v[k] = 1.0
    return GrassmannPoint(v)


def correlated_pair(n, rng, min_rho=0.05):
    """A random pair with |rho| above the cut-locus test floor."""
    while True:
        x = random_point(n, rng)
        y = random_point(n, rng)
        if abs(np.vdot(x.coords, y.coords)) > min_rho:
            return x, y


# ---------------------------------------------------------------------------
# points and tangents


def test_point_requires_unit_norm():
    with pytest.raises(ValueError, match="unit norm"):
        GrassmannPoint(np.array([1.0, 1.0], dtype=np.complex128))


def test_point_requires_dimension_two_or_more():
    with pytest.raises(ValueError, match="n >= 2"):
        GrassmannPoint(np.array([1.0 + 0.0j]))


def test_point_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        GrassmannPoint(np.array([np.nan, 0.0], dtype=np.complex128))


def test_from_vector_normalizes():
    p = GrassmannPoint.from_vector([3.0, 4.0j])
    assert abs(np.linalg.norm(p.coords) - 1.0) < 1e-15
    assert abs(p.coords[0] - 0.6) < 1e-15


def test_from_vector_rejects_zero():
    with pytest.raises(ValueError, match="zero vector"):
        GrassmannPoint.from_vector([0.0, 0.0])


def test_point_coords_immutable():
    p = basis(3, 0)
    with pytest.raises(ValueError):
        p.coords[0] = 0.0


def test_point_equality_is_modulo_phase():
    x = random_point(4, rng_stream(1))
    assert x == GrassmannPoint(x.coords * np.exp(0.93j))
    assert x != basis(5, 0)  # different ambient dimension
    y = random_point(4, rng_stream(1, 99))
    assert (x == y) == (chordal_distance(x, y) < PHASE_EQ_TOL)


def test_tangent_magnitude_range():
    base = basis(2, 0)
    with pytest.raises(ValueError, match="magnitude"):
        TangentVector(base, -0.1, np.array([0.0, 1.0], dtype=np.complex128))
    with pytest.raises(ValueError, match="magnitude"):
        TangentVector(base, np.pi / 2 + 1e-6, np.array([0.0, 1.0], dtype=np.complex128))
    # The bound is pi/2 + 1e-12 exactly, for a tangent and a magnitude codebook:
    # it passes, and the next float above it does not.
    top = np.pi / 2 + 1e-12
    assert TangentVector(base, top, np.array([0.0, 1.0], dtype=np.complex128)).magnitude == top
    assert MagnitudeCodebook(np.array([0.0, top])).entries[-1] == top
    past = float(np.nextafter(top, np.inf))
    with pytest.raises(ValueError, match="magnitude"):
        TangentVector(base, past, np.array([0.0, 1.0], dtype=np.complex128))
    with pytest.raises(ValueError, match="pi/2"):
        MagnitudeCodebook(np.array([0.0, past]))


def test_tangent_direction_must_be_orthogonal_to_base():
    base = basis(2, 0)
    with pytest.raises(ValueError, match="orthogonal"):
        TangentVector(base, 0.3, np.array([1.0, 0.0], dtype=np.complex128))


def test_zero_tangent_convention():
    base = basis(3, 1)
    z = TangentVector.zero(base)
    assert z.is_zero
    assert not z.as_ambient().any()
    # any direction argument collapses to zeros at magnitude 0
    t = TangentVector(base, 0.0, np.ones(3, dtype=np.complex128))
    assert not t.direction.any()


# ---------------------------------------------------------------------------
# chordal distance


def test_distance_identical_points_is_zero():
    x = random_point(3, rng_stream(2))
    assert chordal_distance(x, x) < 1e-12


def test_distance_orthogonal_lines_is_one():
    assert chordal_distance(basis(4, 0), basis(4, 1)) == 1.0


def test_distance_is_phase_invariant():
    x = random_point(4, rng_stream(3))
    rotated = GrassmannPoint(x.coords * np.exp(1.7j))
    assert chordal_distance(x, rotated) < 1e-12


def test_distance_symmetry_and_range():
    rng = rng_stream(4)
    for _ in range(200):
        x, y = random_point(4, rng), random_point(4, rng)
        d = chordal_distance(x, y)
        assert abs(d - chordal_distance(y, x)) < 1e-15
        assert 0.0 <= d <= 1.0


def test_distance_accurate_for_nearly_coincident_lines():
    # Construct a pair separated by an exactly known tiny angle; the naive
    # 1 - |rho|^2 formula loses half the digits here.
    base = basis(4, 0)
    for angle in (1e-7, 1e-9, 1e-11):
        y = GrassmannPoint.from_vector(
            np.cos(angle) * base.coords + np.sin(angle) * np.eye(4)[1]
        )
        d = chordal_distance(base, y)
        assert abs(d - np.sin(angle)) < 1e-9 * np.sin(angle) + 1e-16


def test_chord_near_branch_switches_at_its_threshold():
    # _chord_cols takes the residual |rho| ||y / rho - x|| where 1 - |rho|^2
    # <= 1e-8, and sqrt(1 - |rho|^2) above.  For pairs x = e_0, y = (c, s)
    # near the threshold, 1 - |rho|^2 = 1 - fl(c^2) is a multiple of 2^-53 and
    # 1e-8 is not, so the pairs nearest the threshold lie just below and just
    # above it; among those whose two formulas differ in the last bits, the
    # nearest on each side shows which branch ran, alone and in a batch.
    c0 = math.sqrt(1.0 - 1e-8)
    nearest = {}
    for k in range(-64, 65):
        c = c0 + k * 2.0**-53
        x, y = ([1.0, 0.0], [0.0, 0.0]), ([c, math.sqrt((1.0 - c) * (1.0 + c))], [0.0, 0.0])
        rho = _inner(*x, *y)
        aa = rho[0] * rho[0] + rho[1] * rho[1]
        residual = math.sqrt(aa) * math.sqrt(_sqnorm(*_offset(*x, *y, *rho, aa)))
        root = math.sqrt(1.0 - aa)
        if residual == root:
            continue
        below = 1.0 - aa <= 1e-8
        gap = abs((1.0 - aa) - 1e-8)
        if below not in nearest or gap < nearest[below][0]:
            nearest[below] = (gap, x, y, residual if below else root)
    assert sorted(nearest) == [False, True]
    (_, xb, yb, near), (_, xa, ya, far) = nearest[True], nearest[False]
    assert nearest[True][0] < 1e-15 and nearest[False][0] < 1e-15
    assert _chord_cols(*xb, *yb, _inner(*xb, *yb)) == near
    assert _chord_cols(*xa, *ya, _inner(*xa, *ya)) == far
    batch = [[np.array(pair) for pair in zip(b, a)] for b, a in zip((*xb, *yb), (*xa, *ya))]
    assert _chord_cols(*batch, _inner(*batch)).tolist() == [near, far]


def test_distance_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        chordal_distance(basis(3, 0), basis(4, 0))


def test_inner_decomposition_identity():
    rng = rng_stream(5)
    for _ in range(100):
        x, y = random_point(3, rng), random_point(3, rng)
        dec = inner_decomposition(x, y)
        assert abs(abs(dec.rho) ** 2 + dec.chord**2 - 1.0) < 1e-12
        assert 0.0 <= dec.angle <= np.pi / 2


def exact_angle(x, y) -> float:
    """The principal angle between the lines through the float vectors x and
    y exactly as stored (neither assumed unit norm): sin^2 in rationals, then
    arcsin's series in 50-digit decimals.  For angles below ~1e-3."""
    xs = [(Fraction(v.real), Fraction(v.imag)) for v in x.tolist()]
    ys = [(Fraction(v.real), Fraction(v.imag)) for v in y.tolist()]
    rr = sum(a * c + b * d for (a, b), (c, d) in zip(xs, ys))
    ri = sum(a * d - b * c for (a, b), (c, d) in zip(xs, ys))
    xx = sum(a * a + b * b for a, b in xs)
    yy = sum(c * c + d * d for c, d in ys)
    sin2 = 1 - (rr * rr + ri * ri) / (xx * yy)
    with localcontext() as ctx:
        ctx.prec = 50
        s = (Decimal(sin2.numerator) / Decimal(sin2.denominator)).sqrt()
        # arcsin s = sum_k (2k)! / (4^k (k!)^2 (2k + 1)) s^(2k + 1)
        angle, term, k = Decimal(0), s, 0
        while term > s * Decimal("1e-45"):
            angle += term / (2 * k + 1)
            k += 1
            term = term * s * s * (2 * k - 1) / (2 * k)
        return float(angle)


def test_inner_decomposition_accurate_for_nearly_coincident_lines():
    # The chord is chordal_distance's, not 1 - |rho|^2, which cancels to 0
    # below ~1e-8; the angle follows it instead of arccos |rho|.  The reference
    # is the exact angle of the pair as built: rounding the unit inputs moves
    # it by up to 2^-53 from the nominal separation (1.9e-6 relative at
    # 1e-11 for n = 2), so that term is allowed on top of 1e-6 relative.
    rng = rng_stream(6)
    for n in (2, 4):
        x, d = correlated_pair(n, rng)
        d = GrassmannPoint.from_vector(d.coords - np.vdot(x.coords, d.coords) * x.coords)
        for separation in 10.0 ** -np.arange(5, 12):
            y = GrassmannPoint.from_vector(
                np.cos(separation) * x.coords + np.sin(separation) * d.coords
            )
            dec = inner_decomposition(x, y)
            assert dec.chord == chordal_distance(x, y)
            magnitude = log_map(x, y).magnitude
            assert abs(dec.angle - magnitude) <= 1e-12 * magnitude
            exact = exact_angle(x.coords, y.coords)
            assert abs(dec.angle - exact) <= 1e-6 * exact + 2.0**-53


# ---------------------------------------------------------------------------
# log map


def test_log_map_pinned_value():
    x = basis(2, 0)
    y = GrassmannPoint.from_vector([1.0, 1.0])
    e = log_map(x, y)
    assert abs(e.magnitude - np.pi / 4) < 1e-12
    assert abs(abs(e.direction[1]) - 1.0) < 1e-12
    assert abs(e.direction[0]) < 1e-12


def test_log_map_magnitude_is_arc_length():
    rng = rng_stream(6)
    for n in (2, 3, 4, 8):
        for _ in range(200):
            x, y = correlated_pair(n, rng)
            e = log_map(x, y)
            rho = min(abs(np.vdot(x.coords, y.coords)), 1.0)
            assert abs(e.magnitude - np.arccos(rho)) < 1e-12


def test_log_map_zero_for_coincident_points():
    x = random_point(4, rng_stream(7))
    assert log_map(x, GrassmannPoint(x.coords * np.exp(0.4j))).is_zero


def test_log_map_cut_locus_error():
    with pytest.raises(CutLocusError) as exc:
        log_map(basis(3, 0), basis(3, 2))
    assert exc.value.rho_abs <= RHO_MIN


# ---------------------------------------------------------------------------
# exp map


def test_exp_map_inverts_log_map():
    rng = rng_stream(8)
    for n in (2, 3, 4, 8):
        for _ in range(200):
            x, y = correlated_pair(n, rng)
            back = exp_map(x, log_map(x, y))
            assert chordal_distance(back, y) < 1e-10
            assert abs(np.linalg.norm(back.coords) - 1.0) < 1e-12


def test_exp_map_half_step_pinned():
    x = basis(2, 0)
    e = log_map(x, GrassmannPoint.from_vector([1.0, 1.0]))
    mid = exp_map(x, e, 0.5)
    expected = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8)], dtype=np.complex128)
    assert chordal_distance(mid, GrassmannPoint(expected)) < 1e-12


def test_exp_map_zero_time_returns_base():
    x = random_point(3, rng_stream(9))
    e = log_map(x, random_point(3, rng_stream(10)))
    assert chordal_distance(exp_map(x, e, 0.0), x) < 1e-12


def test_exp_map_geodesic_isometry():
    rng = rng_stream(11)
    for _ in range(50):
        x, y = correlated_pair(4, rng)
        e = log_map(x, y)
        for t in (0.1, 0.25, 0.5, 0.75, 1.0):
            d = chordal_distance(x, exp_map(x, e, t))
            assert abs(d - np.sin(e.magnitude * t)) < 1e-10


def test_exp_map_rejects_foreign_base():
    rng = rng_stream(12)
    x, y = correlated_pair(4, rng)
    e = log_map(x, y)
    z = random_point(4, rng)
    with pytest.raises(ValueError, match="not based"):
        exp_map(z, e)


def test_exp_map_rejects_negative_time():
    x = basis(2, 0)
    e = log_map(x, GrassmannPoint.from_vector([1.0, 1.0]))
    with pytest.raises(ValueError, match="non-negative"):
        exp_map(x, e, -0.5)


# ---------------------------------------------------------------------------
# parallel transport


def test_parallel_transport_pinned_value():
    x1 = basis(2, 0)
    x2 = GrassmannPoint.from_vector([1.0, 1.0])
    t = parallel_transport(x1, x2)
    assert abs(t.magnitude - np.pi / 4) < 1e-12
    expected = np.array([-1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
    assert abs(abs(np.vdot(expected, t.direction)) - 1.0) < 1e-12


def test_parallel_transport_preserves_magnitude_and_tangency():
    rng = rng_stream(13)
    for _ in range(300):
        x1, x2 = correlated_pair(4, rng)
        t = parallel_transport(x1, x2)
        assert abs(t.magnitude - log_map(x1, x2).magnitude) < 1e-12
        assert abs(np.vdot(x2.coords, t.as_ambient())) < 1e-10
        assert t.base is x2 or chordal_distance(t.base, x2) < 1e-12


def test_parallel_transport_cut_locus():
    with pytest.raises(CutLocusError):
        parallel_transport(basis(3, 0), basis(3, 1))


# ---------------------------------------------------------------------------
# one-step prediction


def test_prediction_pinned_45_degree_rotation():
    x_prev = basis(2, 0)
    x_curr = GrassmannPoint.from_vector([1.0, 1.0])
    pred = predict_one_step(x_prev, x_curr)
    assert chordal_distance(pred, basis(2, 1)) < 1e-12


def test_prediction_of_stationary_pair_is_the_point():
    x = random_point(4, rng_stream(14))
    assert chordal_distance(predict_one_step(x, x), x) < 1e-12


def test_prediction_preserves_step_size_and_unit_norm():
    rng = rng_stream(15)
    for _ in range(500):
        x, y = correlated_pair(4, rng)
        pred = predict_one_step(x, y)
        assert abs(np.linalg.norm(pred.coords) - 1.0) < 1e-12
        assert abs(chordal_distance(y, pred) - chordal_distance(x, y)) < 1e-10


def test_prediction_cut_locus():
    with pytest.raises(CutLocusError):
        predict_one_step(basis(2, 0), basis(2, 1))


def test_phase_invariance_of_log_and_exp():
    # Rotating either input by an independent unit-modulus scalar leaves the
    # geodesic (as a curve of lines) unchanged.
    rng = rng_stream(16)
    x, y = correlated_pair(4, rng)
    xr = GrassmannPoint(x.coords * np.exp(0.3j))
    yr = GrassmannPoint(y.coords * np.exp(-1.1j))
    assert abs(log_map(xr, yr).magnitude - log_map(x, y).magnitude) < 1e-12
    e, er = log_map(x, y), log_map(xr, yr)
    for t in (0.25, 0.5, 1.0):
        assert chordal_distance(exp_map(x, e, t), exp_map(xr, er, t)) < 1e-10


def test_prediction_phase_behavior():
    # The predictor is covariant under a common phase rotation of both
    # inputs.  Under a *relative* phase change the defining identities
    # (unit norm, step-size preservation) still hold exactly, which is what
    # the closed-loop codec relies on.
    rng = rng_stream(16, 1)
    x, y = correlated_pair(4, rng)
    common = GrassmannPoint(np.exp(0.9j) * x.coords), GrassmannPoint(
        np.exp(0.9j) * y.coords
    )
    assert (
        chordal_distance(predict_one_step(*common), predict_one_step(x, y)) < 1e-10
    )
    yr = GrassmannPoint(y.coords * np.exp(-1.1j))
    skew = predict_one_step(x, yr)
    assert abs(np.linalg.norm(skew.coords) - 1.0) < 1e-12
    assert abs(chordal_distance(yr, skew) - chordal_distance(x, y)) < 1e-10


# ---------------------------------------------------------------------------
# sequence correlation


def test_sequence_self_correlation_at_zero_lag():
    rng = rng_stream(17)
    xs = [random_point(3, rng) for _ in range(20)]
    assert sequence_correlation(xs, xs, 0) < 1e-12


def test_sequence_correlation_requires_overlap():
    # Lags 5 and -5 leave exactly zero pairs; lags 4 and -4 leave one.
    rng = rng_stream(18)
    xs = [random_point(3, rng) for _ in range(5)]
    for lag in (7, 5, -5):
        with pytest.raises(ValueError, match="overlap"):
            sequence_correlation(xs, xs, lag)
    assert sequence_correlation(xs, xs, 4) == chordal_distance(xs[0], xs[4])
    assert sequence_correlation(xs, xs, -4) == chordal_distance(xs[4], xs[0])


def test_sequence_correlation_matches_isotropic_mean_distance():
    # For independent Haar lines in C^4 the chordal distance has density
    # 6 d^5 on [0, 1], so the mean is 6/7.
    rng = rng_stream(19)
    xs = [random_point(4, rng) for _ in range(20_000)]
    zeta = sequence_correlation(xs, xs, 1)
    assert abs(zeta - 6.0 / 7.0) < 0.02 * 6.0 / 7.0


def test_sequence_correlation_grows_with_lag_on_correlated_traces():
    from grasspc import Ar1Params, gen_ar1

    trace = gen_ar1(Ar1Params(n=4, beta=0.01, steps=10_000, seed=20))
    z1 = sequence_correlation(trace.points, trace.points, 1)
    z5 = sequence_correlation(trace.points, trace.points, 5)
    assert z1 <= z5


def test_random_point_unit_norm_and_deterministic():
    a = random_point(5, rng_stream(21, 1))
    b = random_point(5, rng_stream(21, 1))
    assert abs(np.linalg.norm(a.coords) - 1.0) < 1e-12
    assert np.array_equal(a.coords, b.coords)


def test_operation_outputs_pass_the_constructor_checks():
    # Operations adopt the points and tangents they compute without running
    # the constructor checks again; the checked constructors must accept every
    # one of them unchanged, including nearly coincident and identical pairs.
    rng = rng_stream(23)
    for n in (2, 3, 8):
        for scale in (1.0, 1e-6, 1e-11, 0.0):
            x, d = correlated_pair(n, rng)
            y = GrassmannPoint.from_vector(x.coords + scale * d.coords)
            tangents = [log_map(x, y), parallel_transport(x, y)]
            points = [random_point(n, rng), predict_one_step(x, y)]
            points += [exp_map(x, tangents[0], t) for t in (0.5, 1.0, 1.7)]
            for p in points:
                assert not p.coords.flags.writeable
                assert np.array_equal(GrassmannPoint(p.coords).coords, p.coords)
            for e in tangents:
                assert not e.direction.flags.writeable
                rebuilt = TangentVector(e.base, e.magnitude, e.direction)
                assert rebuilt.magnitude == e.magnitude
                assert np.array_equal(rebuilt.direction, e.direction)


def pair_in_regime(seed, n, regime, shape):
    """A pair (x, y) drawn from ``seed``: independent Haar points ("random"),
    a pair at chord 10^-(8.5 + 5.5 shape) ("near"), or one with |rho| a
    factor 1 + 10^(-6 shape) above RHO_MIN ("cut"); y carries a random
    phase."""
    rng = rng_stream(seed)
    x, t = random_point(n, rng), random_point(n, rng)
    phase = np.exp(2j * np.pi * rng.random())
    if regime == "random":
        return x, GrassmannPoint.from_vector(phase * t.coords)
    d = GrassmannPoint.from_vector(t.coords - np.vdot(x.coords, t.coords) * x.coords).coords
    if regime == "near":
        sep = 10.0 ** -(8.5 + 5.5 * shape)
        c, s = np.cos(sep), np.sin(sep)
    else:
        c = RHO_MIN * (1.0 + 10.0 ** (-6.0 * shape))
        s = np.sqrt(1.0 - c * c)
    return x, GrassmannPoint.from_vector(phase * (c * x.coords + s * d))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([2, 3, 4, 8]),
    regime=st.sampled_from(["random", "near", "cut"]),
    shape=st.floats(0.0, 1.0),
)
def test_public_geometry_shares_the_kernel_arithmetic(seed, n, regime, shape):
    # The public operations, the training harvests and the codec kernel run
    # one arithmetic, so they agree bit for bit, one pair alone or in a batch.
    x, y = pair_in_regime(seed, n, regime, shape)
    xc, yc = _cols(x.coords), _cols(y.coords)
    rho = _inner(*xc, *yc)
    chord = chordal_distance(x, y)
    assert chord == _chord_cols(*xc, *yc, rho)
    batch = [[np.array([v, v]) for v in column] for column in (*xc, *yc)]
    assert _chord_cols(*batch, _inner(*batch)).tolist() == [chord, chord]
    if regime == "near":
        assert chord < 1e-8
    dec = inner_decomposition(x, y)
    assert (dec.rho, dec.chord) == (complex(*rho), chord)
    assert 0.0 <= dec.angle <= np.pi / 2

    # log_map against the tangent the open-loop harvest records at the same
    # base: the harvest predicts from (x, x), which lands next to x.
    base = predict_one_step(x, x)
    rows = [x.coords, x.coords, y.coords]
    try:
        tangent = log_map(base, y)
    except CutLocusError:
        assert regime == "cut"
        with pytest.raises(ValueError, match="straddled the cut locus"):
            _harvest_open_rows(rows)
    else:
        harvested = _harvest_open_rows(rows)
        assert harvested.magnitudes.tolist() == [tangent.magnitude]
        assert harvested.directions.tobytes() == tangent.direction.tobytes()
        TangentVector(base, tangent.magnitude, tangent.direction)
        GrassmannPoint(exp_map(base, tangent).coords)
    try:
        moved = parallel_transport(x, y)
    except CutLocusError:
        assert regime == "cut"
    else:
        TangentVector(y, moved.magnitude, moved.direction)
