"""The benchmark's output checks accept well-formed output and reject each
kind of corruption.  Run with ``python3 -m pytest bench``.

The well-formed outputs are built here from the checks' own reference
computations, so no test depends on a figure from an earlier run.
"""

from __future__ import annotations

import copy
import math

import numpy as np
import pytest

import checks
import workloads
from tracer import entropy_bits, layer_metrics

# ---------------------------------------------------------------------------
# mse


def mse_rows():
    spec = workloads.MSE
    rows = []
    for i, beta in enumerate(spec["beta_grid"]):
        rows.append({"scheme": "gpc", "bits": 9.0, "beta": beta, "mse_db": -26.0 + 7.0 * i})
        for bits in spec["memoryless_bits_grid"]:
            bound = checks.db(checks.memoryless_bound(spec["n"], 2**bits))
            rows.append({"scheme": "memoryless", "bits": float(bits), "beta": beta, "mse_db": bound + 0.6})
    return rows


def find(rows, **match):
    return next(r for r in rows if all(r[k] == v for k, v in match.items()))


def test_mse_accepts_well_formed_rows():
    assert checks.check_mse(mse_rows(), workloads.MSE) == []


def below_bound(rows):
    find(rows, scheme="memoryless", bits=9.0, beta=0.04)["mse_db"] = -10.5


def coarse_not_worse(rows):
    find(rows, scheme="memoryless", bits=6.0, beta=0.01)["mse_db"] = -10.0


def predictive_falls(rows):
    find(rows, scheme="gpc", beta=0.04)["mse_db"] = -30.0


def gap_too_small(rows):
    find(rows, scheme="gpc", beta=0.001)["mse_db"] = -21.0


def row_missing(rows):
    rows.pop()


@pytest.mark.parametrize(
    "corrupt", [below_bound, coarse_not_worse, predictive_falls, gap_too_small, row_missing]
)
def test_mse_rejects(corrupt):
    rows = mse_rows()
    corrupt(rows)
    assert checks.check_mse(rows, workloads.MSE)


# ---------------------------------------------------------------------------
# sumrate


@pytest.fixture(scope="module")
def reference():
    spec = workloads.SUMRATE
    return checks.zf_reference(spec["n_t"], spec["users"], spec["snr_db_grid"], 4000, 7)


def sumrate_rows(reference):
    spec = workloads.SUMRATE
    ref_mean, _ = reference
    shares = {("memoryless_random", 0.0): 0.5, ("gpc", spec["fdts_grid"][0]): 0.95}
    shares[("gpc", spec["fdts_grid"][1])] = 0.7
    rows = []
    for key, share in [(("perfect_csi", 0.0), 1.0), *shares.items()]:
        for snr, mean in zip(spec["snr_db_grid"], ref_mean):
            rows.append(
                {
                    "scheme": key[0],
                    "snr_db": snr,
                    "fdts": key[1],
                    "bits": 0.0 if key[0] == "perfect_csi" else 9.0,
                    "trial_count": float(spec["trials"]),
                    "sum_rate_mean": share * mean,
                    "sum_rate_stderr": 0.05,
                }
            )
    return rows


def test_sumrate_accepts_well_formed_rows(reference):
    assert checks.check_sumrate(sumrate_rows(reference), workloads.SUMRATE, reference) == []


def drops_with_snr(rows):
    find(rows, scheme="memoryless_random", snr_db=20.0)["sum_rate_mean"] = 0.1


def perfect_off_reference(rows):
    find(rows, scheme="perfect_csi", snr_db=10.0)["sum_rate_mean"] += 1.0


def fast_beats_slow(rows):
    find(rows, scheme="gpc", fdts=0.04, snr_db=30.0)["sum_rate_mean"] += 10.0


def fast_level_with_slow_at_20_db(rows):
    # Within the 10 dB allowance, but from 20 dB up the ordering is strict.
    slow = find(rows, scheme="gpc", fdts=0.001, snr_db=20.0)["sum_rate_mean"]
    find(rows, scheme="gpc", fdts=0.04, snr_db=20.0)["sum_rate_mean"] = slow + 0.01


def memoryless_beats_tracking(rows):
    for row in rows:
        if row["scheme"] == "memoryless_random":
            row["sum_rate_mean"] *= 1.99


def wrong_trial_count(rows):
    rows[3]["trial_count"] = 39.0


def missing_row(rows):
    rows.pop(5)


@pytest.mark.parametrize(
    "corrupt",
    [
        drops_with_snr,
        perfect_off_reference,
        fast_beats_slow,
        fast_level_with_slow_at_20_db,
        memoryless_beats_tracking,
        wrong_trial_count,
        missing_row,
    ],
)
def test_sumrate_rejects(reference, corrupt):
    rows = sumrate_rows(reference)
    corrupt(rows)
    assert checks.check_sumrate(rows, workloads.SUMRATE, reference)


def test_sumrate_allows_noise_at_10_db_only(reference):
    rows = sumrate_rows(reference)
    slow = find(rows, scheme="gpc", fdts=0.001, snr_db=10.0)["sum_rate_mean"]
    fast = find(rows, scheme="gpc", fdts=0.04, snr_db=10.0)
    # Both rows have a standard error of 0.05, so 3 combined are about 0.21.
    fast["sum_rate_mean"] = slow + 0.15
    assert checks.check_sumrate(rows, workloads.SUMRATE, reference) == []
    fast["sum_rate_mean"] = slow + 0.3
    assert checks.check_sumrate(rows, workloads.SUMRATE, reference)


def test_zf_reference_matches_unit_gain_closed_form():
    # With U = N_t the ZF gain is Exp(1), so at 0 SNR (linear power p -> 0)
    # the mean rate per user approaches p / ln 2.
    mean, err = checks.zf_reference(4, 4, (-40.0,), 20_000, 3)
    p = 10 ** -4 / 4
    assert mean[0] == pytest.approx(4 * p / math.log(2), rel=0.05)
    assert err[0] > 0


# ---------------------------------------------------------------------------
# feedback-link


def unit_rows(rng, count, n):
    v = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def sessions():
    spec = workloads.FEEDBACK
    rng = np.random.default_rng(0)
    out = {}
    for beta in spec["betas"]:
        for trial in range(spec["trials"]):
            observed = unit_rows(rng, spec["steps"], spec["n"])
            encoded = observed[2:] + 0.01 * unit_rows(rng, spec["steps"] - 2, spec["n"])
            encoded /= np.linalg.norm(encoded, axis=1, keepdims=True)
            sent = rng.integers(0, [spec["n_d"], spec["n_m"]], size=(spec["steps"] - 2, 2))
            out[f"b{beta}-t{trial}"] = {
                "beta": np.float64(beta),
                "observed": observed,
                "encoded": encoded,
                "decoded": encoded.copy(),
                "errors": checks.chordal(encoded, observed[2:]),
                "sent": sent,
                "received": sent.copy(),
            }
    return out


def test_feedback_accepts_well_formed_sessions():
    assert checks.check_feedback(sessions(), workloads.FEEDBACK) == []


def first(s):
    return s[min(s)]


def index_changed(s):
    first(s)["received"][17, 0] ^= 1


def decoder_diverged(s):
    first(s)["decoded"][100] *= 1j


def decoded_short(s):
    first(s)["decoded"] = first(s)["decoded"][:-1]


def not_unit_norm(s):
    first(s)["encoded"][5] *= 1 + 1e-9
    first(s)["decoded"][5] *= 1 + 1e-9


def errors_mismatch(s):
    first(s)["errors"][42] += 1e-6


def tracking_worse_than_memoryless(s):
    for tag, session in s.items():
        if session["beta"] == min(workloads.FEEDBACK["betas"]):
            rng = np.random.default_rng(1)
            session["encoded"] = unit_rows(rng, *session["encoded"].shape)
            session["decoded"] = session["encoded"].copy()
            session["errors"] = checks.chordal(session["encoded"], session["observed"][2:])


def session_missing(s):
    del s[min(s)]


@pytest.mark.parametrize(
    "corrupt",
    [
        index_changed,
        decoder_diverged,
        decoded_short,
        not_unit_norm,
        errors_mismatch,
        tracking_worse_than_memoryless,
        session_missing,
    ],
)
def test_feedback_rejects(corrupt):
    s = sessions()
    corrupt(s)
    assert checks.check_feedback(s, workloads.FEEDBACK)


def test_chordal_matches_definition():
    rng = np.random.default_rng(2)
    x, y = unit_rows(rng, 50, 4), unit_rows(rng, 50, 4)
    expected = np.sqrt(1.0 - np.abs(np.sum(np.conj(x) * y, axis=1)) ** 2)
    np.testing.assert_allclose(checks.chordal(x, y), expected, atol=1e-12)


# ---------------------------------------------------------------------------
# tracing arithmetic


def test_self_time_subtracts_children():
    dump = {
        "names": ["cli.main", "codec.encode_trace", "geometry.log_map"],
        # name, parent, start, end
        "spans": [[0, -1, 0.0, 10.0], [1, 0, 1.0, 7.0], [2, 1, 2.0, 3.0], [2, 1, 4.0, 6.0]],
        "counts": {"encode_steps": 2},
        "slowest_index_counts": [1, 1],
    }
    metrics = layer_metrics(copy.deepcopy(dump))
    assert metrics["cli.self_s"] == pytest.approx(4.0)
    assert metrics["codec.encode_us_per_step"] == pytest.approx(3e6)
    assert metrics["codec.index_entropy_bits"] == pytest.approx(1.0)
    assert metrics["mumimo.zf_calls"] == 0


def test_entropy_bits():
    assert entropy_bits([4]) == 0.0
    assert entropy_bits([1] * 512) == pytest.approx(9.0)
