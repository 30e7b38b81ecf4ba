"""Unit tests for zero-forcing beamforming, SINR/rate accounting, and the
sum-rate comparison harness."""

import math

import numpy as np
import pytest
from scipy.special import exp1

from grasspc import mumimo
from grasspc import (
    Beamformers,
    CompositeChannel,
    RankDeficientError,
    SumRateConfig,
    SumRateResult,
    complex_gaussian,
    default_gpc_codebook,
    evaluate_sum_rate,
    per_user_sinr,
    rng_stream,
    run_sumrate_experiment,
    sum_rate,
    zf_beamformers,
)


def random_channel(users, n_t, rng):
    return CompositeChannel(complex_gaussian(rng, (users, n_t)))


# ---------------------------------------------------------------------------
# containers


def test_composite_channel_validation():
    rng = rng_stream(1)
    with pytest.raises(ValueError, match="more users"):
        CompositeChannel(complex_gaussian(rng, (5, 4)))
    with pytest.raises(ValueError, match="finite"):
        bad = complex_gaussian(rng, (2, 4))
        bad[0, 0] = np.nan
        CompositeChannel(bad)
    with pytest.raises(ValueError, match="nonzero"):
        bad = complex_gaussian(rng, (2, 4))
        bad[1] = 0.0
        CompositeChannel(bad)
    ch = random_channel(3, 4, rng)
    assert ch.users == 3 and ch.n_t == 4
    assert np.allclose(np.linalg.norm(ch.directions, axis=1), 1.0)
    assert np.allclose(ch.gains, np.linalg.norm(ch.rows, axis=1))


def test_beamformers_validation():
    rng = rng_stream(2)
    cols = complex_gaussian(rng, (4, 2))
    with pytest.raises(ValueError, match="unit norm"):
        Beamformers(cols)
    ok = Beamformers(cols / np.linalg.norm(cols, axis=0, keepdims=True))
    assert ok.users == 2


# ---------------------------------------------------------------------------
# zero forcing


def test_zf_identity_channel_gives_identity_beamformers():
    ch = CompositeChannel(np.eye(4, dtype=np.complex128))
    beams = zf_beamformers(ch)
    assert np.allclose(np.abs(beams.columns), np.eye(4), atol=1e-12)


def test_zf_nulls_cross_terms_for_random_channels():
    rng = rng_stream(3)
    for _ in range(100):
        users = int(rng.integers(2, 5))
        n_t = int(rng.integers(users, 7))
        ch = random_channel(users, n_t, rng)
        beams = zf_beamformers(ch)
        cross = np.abs(ch.rows.conj() @ beams.columns)
        off = cross[~np.eye(users, dtype=bool)]
        assert np.max(off) < 1e-9
        assert np.allclose(np.linalg.norm(beams.columns, axis=0), 1.0, atol=1e-12)


def test_zf_single_user_is_matched_filter():
    rng = rng_stream(4)
    ch = random_channel(1, 4, rng)
    beams = zf_beamformers(ch)
    aligned = np.abs(ch.directions[0].conj() @ beams.columns[:, 0])
    assert abs(aligned - 1.0) < 1e-12


def test_zf_rank_deficient_raises():
    row = complex_gaussian(rng_stream(5), (1, 4))
    stack = np.vstack([row, row])
    with pytest.raises(RankDeficientError, match="singular"):
        zf_beamformers(CompositeChannel(stack))


# Test-local references: the zero-forcing columns from np.linalg.pinv, and
# the window mean of one trial at a time.  The stacked code must give the
# same bits.


def zf_columns_reference(h):
    pinv = np.linalg.pinv(h.conj())
    return pinv / np.linalg.norm(pinv, axis=-2, keepdims=True)


def window_mean_reference(true_steps, quantized_steps, powers_per_user):
    a, signal, interference = mumimo._sinr_terms(true_steps, zf_columns_reference(quantized_steps))
    pa = powers_per_user[:, None] * a[:, None]
    sinr = pa * signal[:, None] / (1.0 + pa * interference[:, None])
    totals = np.zeros(len(powers_per_user))
    for rates in np.log2(1.0 + sinr).sum(axis=2):
        totals += rates
    return totals / len(true_steps)


@pytest.mark.parametrize("users", [1, 3, 4])
def test_zf_columns_match_normalized_pinv_bit_for_bit(users):
    h = complex_gaussian(rng_stream(11, users), (200, users, 4))
    columns = mumimo._zf_columns(h)
    assert columns.tobytes() == zf_columns_reference(h).tobytes()
    single = zf_beamformers(CompositeChannel(h[7])).columns
    assert single.tobytes() == zf_columns_reference(h[7]).tobytes()


def test_zf_columns_rank_deficient_stack_raises():
    h = complex_gaussian(rng_stream(12), (30, 3, 4))
    h[17, 2] = 2.0 * h[17, 0]
    with pytest.raises(RankDeficientError, match="smallest singular value"):
        mumimo._zf_columns(h)


@pytest.mark.parametrize("users", [1, 3, 4])
def test_stacked_window_means_match_the_per_trial_loop(users):
    trials, window = 9, 13
    rng = rng_stream(13, users)
    true = complex_gaussian(rng, (trials * window, users, 4))
    quantized = true + 0.1 * complex_gaussian(rng, true.shape)
    powers = np.array([10.0 ** (s / 10.0) / users for s in (0.0, 7.0, 30.0)])
    stacked = mumimo._window_mean_rates(true, quantized, powers, window)
    assert stacked.shape == (trials, 3)
    per_trial = [
        window_mean_reference(true[k * window : (k + 1) * window], quantized[k * window : (k + 1) * window], powers)
        for k in range(trials)
    ]
    assert stacked.tobytes() == np.array(per_trial).tobytes()


# ---------------------------------------------------------------------------
# SINR and rate


def test_sinr_identity_channel_pinned():
    ch = CompositeChannel(np.eye(4, dtype=np.complex128))
    beams = zf_beamformers(ch)
    sinr = per_user_sinr(ch, beams, 10.0)
    assert np.allclose(sinr, 2.5, atol=1e-12)  # (10 / 4) * 1 / (1 + 0)
    result = evaluate_sum_rate(ch, beams, 10.0)
    assert abs(result.sum_rate - 4 * np.log2(3.5)) < 1e-12
    assert abs(result.sum_rate - 7.2294) < 1e-3


def test_sinr_zero_when_beamformer_orthogonal_to_channel():
    ch = CompositeChannel(np.eye(2, dtype=np.complex128)[:1])
    beams = Beamformers(np.array([[0.0], [1.0]], dtype=np.complex128))
    sinr = per_user_sinr(ch, beams, 20.0)
    assert sinr[0] == 0.0


def test_quantized_csi_leaves_residual_interference():
    rng = rng_stream(6)
    ch = random_channel(4, 4, rng)
    perturbed = CompositeChannel(
        ch.rows + 0.05 * complex_gaussian(rng, ch.rows.shape)
    )
    beams = zf_beamformers(perturbed)  # steered by imperfect CSI
    _, signal, interference = __import__(
        "grasspc.mumimo", fromlist=["_sinr_terms"]
    )._sinr_terms(ch.rows, beams.columns)
    assert np.all(interference > 0.0)
    true_beams = zf_beamformers(ch)
    sinr_true = per_user_sinr(ch, true_beams, 20.0)
    sinr_quant = per_user_sinr(ch, beams, 20.0)
    assert np.all(sinr_quant <= sinr_true + 1e-9)


def test_sum_rate_pins_and_validation():
    assert sum_rate([0.0, 0.0]) == 0.0
    assert abs(sum_rate([1.0, 3.0]) - (1.0 + 2.0)) < 1e-12
    with pytest.raises(ValueError):
        sum_rate([-0.5])
    with pytest.raises(ValueError):
        sum_rate([np.inf])
    assert sum_rate([1.0, 1.0]) < sum_rate([1.0, 2.0])  # monotone


def test_sum_rate_result_consistency_enforced():
    with pytest.raises(ValueError, match="sum_rate"):
        SumRateResult(
            per_user_sinr=np.array([1.0, 1.0]),
            per_user_rate=np.array([1.0, 1.0]),
            sum_rate=3.0,
            snr_db=10.0,
        )
    with pytest.raises(ValueError, match="1-D"):
        SumRateResult(
            per_user_sinr=np.array([1.0]),
            per_user_rate=np.array([1.0, 1.0]),
            sum_rate=2.0,
            snr_db=10.0,
        )


# ---------------------------------------------------------------------------
# experiment configuration and driver


def test_sumrate_config_validation():
    with pytest.raises(ValueError, match="users"):
        SumRateConfig(n_t=4, users=5)
    with pytest.raises(ValueError, match="direction bit"):
        SumRateConfig(bits=3, magnitude_bits=3)
    with pytest.raises(ValueError, match="schemes"):
        SumRateConfig(schemes=("oracle",))
    with pytest.raises(ValueError, match="fdts"):
        SumRateConfig(fdts_grid=(0.0,))
    with pytest.raises(ValueError, match="trials"):
        SumRateConfig(trials=1)
    with pytest.raises(ValueError, match="steps"):
        SumRateConfig(steps=20, discard=20)
    assert SumRateConfig().window == 40


@pytest.mark.parametrize(
    "field, value", [("trials", 3.5), ("users", 2.0), ("bits", 5.5), ("steps", 60.0), ("seed", 1.5)]
)
def test_sumrate_config_rejects_non_integer_fields(field, value):
    # These were accepted and failed deep in the run with a TypeError.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SumRateConfig(**{field: value})


def test_sumrate_config_stores_numpy_integers_as_ints():
    config = SumRateConfig(users=np.int64(3), trials=np.uint8(5), seed=np.uint64(2**64 - 1))
    assert (type(config.users), type(config.trials), type(config.seed)) == (int, int, int)


def test_default_gpc_codebook_split():
    config = SumRateConfig(bits=9, magnitude_bits=3)
    cb = default_gpc_codebook(config)
    assert cb.directions.size == 64
    assert cb.magnitudes.size == 8
    assert cb.n == 4
    assert cb.bits == 9


def test_run_sumrate_experiment_smoke():
    config = SumRateConfig(
        bits=6,
        magnitude_bits=2,
        snr_db_grid=(0.0, 10.0, 30.0),
        fdts_grid=(0.001, 0.04),
        trials=3,
        steps=26,
        discard=20,
    )
    rows = run_sumrate_experiment(config)
    assert len(rows) == (1 + 1 + 2) * 3  # perfect, memoryless, gpc x 2 Dopplers
    by_scheme = {}
    for row in rows:
        by_scheme.setdefault(row.scheme, []).append(row)
        assert row.trial_count == 3
        assert row.sum_rate_mean > 0.0
        assert row.sum_rate_stderr >= 0.0
    assert all(r.bits == 0 and r.fdts == 0.0 for r in by_scheme["perfect_csi"])
    assert all(r.bits == 6 and r.fdts == 0.0 for r in by_scheme["memoryless_random"])
    assert sorted({r.fdts for r in by_scheme["gpc"]}) == [0.001, 0.04]
    perfect_30 = next(
        r for r in by_scheme["perfect_csi"] if r.snr_db == 30.0
    ).sum_rate_mean
    memoryless_30 = next(
        r for r in by_scheme["memoryless_random"] if r.snr_db == 30.0
    ).sum_rate_mean
    assert perfect_30 > memoryless_30  # quantized CSI is interference limited
    again = run_sumrate_experiment(config)
    assert again == rows  # bit-for-bit deterministic


def test_run_sumrate_rejects_mismatched_codebook():
    from grasspc import ShapeGainCodebook, best_packing, uniform_magnitude

    config = SumRateConfig(
        n_t=4,
        bits=6,
        magnitude_bits=2,
        snr_db_grid=(10.0,),
        trials=2,
        steps=24,
        discard=20,
    )
    wrong = ShapeGainCodebook(best_packing(3, 16), uniform_magnitude(4))
    with pytest.raises(ValueError, match="n_t"):
        run_sumrate_experiment(config, wrong)


def test_perfect_csi_rows_match_the_zero_forcing_closed_form():
    # With perfect CSI and M = U antennas and users, each user's zero-forcing
    # gain |h_u^H v_u|^2 is Exp(1), so the ergodic sum rate at linear SNR rho
    # is U e^{U/rho} E1(U/rho) / ln 2.
    config = SumRateConfig(
        schemes=("perfect_csi",), snr_db_grid=(0, 10, 20, 30), trials=200, steps=40, discard=20
    )
    assert config.n_t == config.users == 4
    for row in run_sumrate_experiment(config):
        x = config.users / 10.0 ** (row.snr_db / 10.0)
        exact = config.users * math.exp(x) * exp1(x) / math.log(2.0)
        assert abs(row.sum_rate_mean - exact) < 5.0 * row.sum_rate_stderr, (row, exact)
