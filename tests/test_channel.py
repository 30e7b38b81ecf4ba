"""Unit tests for the temporally correlated channel models and trace I/O."""

import importlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from grasspc import (
    Ar1Params,
    Ar2Params,
    ChannelTrace,
    bessel_j0,
    chordal_distance,
    complex_gaussian,
    gen_ar1,
    gen_ar2,
    load_trace,
    rng_stream,
    save_trace,
    sequence_correlation,
)
from grasspc.channel import _ar1_traces, _innovations, ar1_from_innovations
from grasspc.cli import COMMANDS, EXIT_CONFIG
from grasspc.commands import _traces


# ---------------------------------------------------------------------------
# primitives


def test_bessel_j0_pinned_values():
    assert bessel_j0(0.0) == 1.0
    assert abs(bessel_j0(2.404825557695773)) < 1e-9  # first zero
    assert abs(bessel_j0(1.0) - 0.7651976865579666) < 1e-10


def test_bessel_j0_vectorized():
    out = bessel_j0(np.array([0.0, 1.0]))
    assert out.shape == (2,)
    assert abs(out[1] - 0.7651976865579666) < 1e-10


def test_bessel_j0_matches_scipy_on_0_to_20():
    special = pytest.importorskip("scipy.special")
    x = np.linspace(0.0, 20.0, 20_001)
    assert np.max(np.abs(bessel_j0(x) - special.j0(x))) < 1e-13
    assert np.array_equal(bessel_j0(-x), bessel_j0(x))


def test_rng_stream_determinism_and_key_separation():
    a = rng_stream(42, 7).standard_normal(8)
    b = rng_stream(42, 7).standard_normal(8)
    c = rng_stream(42, 8).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_complex_gaussian_moments():
    z = complex_gaussian(rng_stream(1), 200_000)
    assert z.shape == (200_000,)
    assert z.dtype == np.complex128
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01  # unit variance per entry
    assert abs(np.mean(z.real**2) - 0.5) < 0.01
    assert abs(np.mean(z)) < 0.01


def test_ar1_innovation_filter_matches_direct_recursion():
    rng = rng_stream(2)
    z = complex_gaussian(rng, (50, 3))
    alpha = 0.97
    h = ar1_from_innovations(z, alpha)
    ref = np.empty_like(z)
    ref[0] = z[0]
    for k in range(1, len(z)):
        ref[k] = alpha * ref[k - 1] + np.sqrt(1 - alpha**2) * z[k]
    assert np.allclose(h, ref, atol=1e-12)
    assert np.array_equal(ar1_from_innovations(z, 0.0)[0], z[0])


@pytest.mark.parametrize("alpha", [0.0, 0.5, 0.97, 0.99997, -0.3])
@pytest.mark.parametrize("shape", [(50, 3), (2, 4), (30, 4, 2)])
def test_ar1_innovation_recursion_matches_lfilter_bitwise(alpha, shape):
    from scipy.signal import lfilter

    z = complex_gaussian(rng_stream(5), shape)
    scale = np.sqrt(max(0.0, 1.0 - alpha * alpha))
    x = np.concatenate([z[:1], scale * z[1:]], axis=0)
    ref = lfilter([1.0], [1.0, -alpha], x, axis=0)
    h = ar1_from_innovations(z, alpha)
    assert h.dtype == ref.dtype and h.shape == ref.shape
    assert h.tobytes() == ref.tobytes()


SCIPY_FREE_RUN = """
import sys
from pathlib import Path
import grasspc.cli
work = Path(sys.argv[1])
configs = {
    "gen-trace": "[gen-trace]\\nsteps = 20\\n",
    "sumrate": "[sumrate]\\nbits = 5\\nmagnitude_bits = 2\\nsnr_db_grid = 10\\n"
    "fdts_grid = 0.01\\ntrials = 2\\nsteps = 24\\n",
}
for command, text in configs.items():
    (work / "c.ini").write_text(text)
    argv = [command, "--config", str(work / "c.ini"), "--seed", "0", "--out", str(work / "out")]
    assert grasspc.cli.main(argv) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_import_leaves_out_scipy_signal(tmp_path):
    # Importing the CLI and running commands, α = J0(2π β) included, loads no scipy.
    import grasspc

    src = str(Path(grasspc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_RUN, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip().splitlines()[-1] == "[]"


IMPORT_GUARD = """
import configparser, json, sys
import grasspc
loaded = {"package": sorted(name for name in sys.modules if name.startswith("grasspc."))}
import grasspc.cli
validated = []
for path in sys.argv[2:]:
    sections = configparser.ConfigParser(interpolation=None)
    sections.read(path, encoding="utf-8")
    for command in sections.sections():
        grasspc.cli.load_config(command, path, 0, None, "unused")
        validated.append(command)
loaded["validated"] = validated
bad = sys.argv[1] + "/bad.ini"
with open(bad, "w", encoding="utf-8") as fh:
    fh.write("[mse]\\nbits = 3\\nmagnitude_bits = 3\\n")
argv = ["mse", "--config", bad, "--seed", "0", "--out", sys.argv[1] + "/out.csv"]
loaded["exit"] = grasspc.cli.main(argv)
loaded["numpy"] = sorted(name for name in sys.modules if name.split(".")[0] == "numpy")
loaded["cli"] = sorted(name for name in sys.modules if name.startswith("grasspc."))
print(json.dumps(loaded))
"""


def test_config_validation_imports_no_numpy(tmp_path):
    # ``import grasspc`` loads no submodule, and the CLI validates every
    # section of the shipped configs, and rejects a bad one, on the
    # standard library alone.
    import grasspc

    configs = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.ini"))
    src = str(Path(grasspc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, str(tmp_path), *map(str, configs)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    assert loaded["package"] == []
    assert configs and set(loaded["validated"]) == set(COMMANDS)
    assert loaded["exit"] == EXIT_CONFIG
    assert loaded["numpy"] == []
    assert loaded["cli"] == ["grasspc.cli", "grasspc.params"]


def test_package_exports_resolve_to_their_modules():
    # The lazy package namespace lists exactly the submodules' public names,
    # and each resolves to the object the submodules hold.
    import grasspc

    modules = [
        importlib.import_module(f"grasspc.{name}")
        for name in ("geometry", "channel", "codebooks", "codec", "analysis", "mumimo")
    ]
    assert sorted(grasspc.__all__) == sorted({n for m in modules for n in m.__all__})
    for module in modules:
        for name in module.__all__:
            assert getattr(grasspc, name) is getattr(module, name), name
    assert set(grasspc.__all__) <= set(dir(grasspc))
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        grasspc.nope  # noqa: B018


# ---------------------------------------------------------------------------
# parameter validation


def test_ar1_params_validation():
    with pytest.raises(ValueError):
        Ar1Params(n=1, beta=0.01, steps=100, seed=0)
    with pytest.raises(ValueError):
        Ar1Params(n=4, beta=-0.1, steps=100, seed=0)
    with pytest.raises(ValueError):
        Ar1Params(n=4, beta=0.01, steps=2, seed=0)


@pytest.mark.parametrize(
    "make, name",
    [
        (lambda: Ar1Params(n=4, beta=0.01, steps=30, seed=1.5), "seed"),
        (lambda: Ar1Params(n=4.0, beta=0.01, steps=30, seed=1), "n"),
        (lambda: Ar1Params(n=4, beta=0.01, steps=30.0, seed=1), "steps"),
        (lambda: Ar2Params(n=3, a1=0.9, a2=0.75, noise_std=0.01, steps=30, seed=2.5), "seed"),
        (lambda: Ar2Params(n=3.0, a1=0.9, a2=0.75, noise_std=0.01, steps=30, seed=2), "n"),
        (lambda: Ar2Params(n=3, a1=0.9, a2=0.75, noise_std=0.01, steps="30", seed=2), "steps"),
        (lambda: rng_stream(1.5), "seed"),
        (lambda: rng_stream(1, 0x50, 2.0), "key"),
    ],
)
def test_non_integer_counts_and_seeds_are_rejected(make, name):
    # A float seed was truncated (seed 1.5 gave seed 1's trace); a float
    # count failed later with a TypeError, or not at all.
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        make()


def test_numpy_integer_counts_and_seeds_are_stored_as_ints():
    p = Ar1Params(n=np.int64(4), beta=0.01, steps=np.uint16(30), seed=np.uint64(2**63 + 5))
    assert (type(p.n), type(p.steps), type(p.seed)) == (int, int, int)
    assert p.seed == 2**63 + 5
    q = Ar1Params(n=4, beta=0.01, steps=30, seed=2**63 + 5)
    assert gen_ar1(p).raw.tobytes() == gen_ar1(q).raw.tobytes()
    a = rng_stream(np.uint64(7), np.int32(3)).standard_normal(4)
    assert a.tobytes() == rng_stream(7, 3).standard_normal(4).tobytes()


def test_ar1_alpha_is_bessel_of_doppler():
    p = Ar1Params(n=4, beta=0.02, steps=10, seed=0)
    assert abs(p.alpha - bessel_j0(2 * np.pi * 0.02)) < 1e-15


def test_ar2_params_validation():
    with pytest.raises(ValueError):
        Ar2Params(n=1, a1=0.9, a2=0.75, noise_std=0.01, steps=100, seed=0)
    with pytest.raises(ValueError):
        Ar2Params(n=3, a1=0.9, a2=0.75, noise_std=-1.0, steps=100, seed=0)
    with pytest.raises(ValueError):
        Ar2Params(n=3, a1=np.nan, a2=0.75, noise_std=0.01, steps=100, seed=0)


# ---------------------------------------------------------------------------
# AR(1) traces


def test_gen_ar1_shape_norms_and_determinism():
    params = Ar1Params(n=4, beta=0.01, steps=50, seed=3)
    t1, t2 = gen_ar1(params), gen_ar1(params)
    assert t1.raw.shape == (50, 4)
    assert np.array_equal(t1.raw, t2.raw)
    assert np.array_equal(t1.normalized, t2.normalized)
    norms = np.linalg.norm(t1.normalized, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    assert len(t1) == 50 and t1.n == 4
    assert len(t1.points) == 50


def one_trace_reference(params, seed):
    """(raw, normalized) of one AR(1) trace, generated on its own: one
    recursion over one trace's innovations, normalized row by row, each row
    divided (as a complex number) by the root of |h_0|^2 + |h_1|^2 + ...
    summed left to right."""
    z = complex_gaussian(rng_stream(seed), (params.steps, params.n))
    h = ar1_from_innovations(z, params.alpha)
    normalized = np.empty_like(h)
    for k, row in enumerate(h.tolist()):
        total = 0.0
        for v in row:
            total += v.real * v.real + v.imag * v.imag
        normalized[k] = h[k] / complex(math.sqrt(total))
    return h, normalized


@pytest.mark.parametrize(
    "n, beta, steps, count", [(4, 0.01, 500, 7), (2, 0.04, 3, 3), (5, 0.0, 40, 2), (3, 0.3, 60, 1)]
)
def test_stacked_ar1_traces_match_traces_generated_alone(n, beta, steps, count):
    params = Ar1Params(n=n, beta=beta, steps=steps, seed=0)
    seeds = [int(rng_stream(9, 0x5E, k).integers(0, 2**63)) for k in range(count)]
    stacked = _ar1_traces(params, _innovations(params, seeds))
    through_cli = next(_traces((params,), 9, 0x5E, count))
    for seed, trace, cli_trace in zip(seeds, stacked, through_cli, strict=True):
        raw, normalized = one_trace_reference(params, seed)
        alone = gen_ar1(Ar1Params(n=n, beta=beta, steps=steps, seed=seed))
        for t in (trace, cli_trace, alone):
            assert t.raw.tobytes() == raw.tobytes()
            assert t.normalized.tobytes() == normalized.tobytes()


def test_gen_ar1_lag_one_correlation_matches_alpha():
    params = Ar1Params(n=2, beta=0.001, steps=100_000, seed=4)
    trace = gen_ar1(params)
    raw = trace.raw
    corr = np.real(np.sum(raw[1:].conj() * raw[:-1])) / np.sum(
        np.abs(raw[:-1]) ** 2
    )
    assert abs(corr - params.alpha) < 0.01


def test_gen_ar1_zero_doppler_is_constant():
    trace = gen_ar1(Ar1Params(n=3, beta=0.0, steps=20, seed=5))
    for p in trace.points[1:]:
        assert chordal_distance(trace.points[0], p) < 1e-12


def test_gen_ar1_correlation_decays_with_doppler():
    zetas = []
    for beta in (0.001, 0.01, 0.02, 0.04):
        trace = gen_ar1(Ar1Params(n=4, beta=beta, steps=10_000, seed=6))
        zetas.append(sequence_correlation(trace.points, trace.points, 1))
    assert all(a <= b for a, b in zip(zetas, zetas[1:]))


def test_gen_ar1_uncorrelated_limit_is_isotropic():
    # beta at the first Bessel zero gives alpha ~ 0, so consecutive points
    # are independent Haar lines; mean distance on G(4,1) is 6/7.
    beta = 2.404825557695773 / (2 * np.pi)
    trace = gen_ar1(Ar1Params(n=4, beta=beta, steps=30_000, seed=7))
    zeta = sequence_correlation(trace.points, trace.points, 1)
    assert abs(zeta - 6.0 / 7.0) < 0.02 * 6.0 / 7.0


def test_gen_ar1_prediction_residual_vs_step_size():
    # One-step prediction on an AR(1) trace: the innovations are nearly
    # white, so the residual arc is ~sqrt(2) times the step arc, not
    # smaller.  The codec's advantage comes from quantizing small tangents,
    # not from the predictor beating persistence on this model.
    from grasspc import harvest_open_loop, log_map

    trace = gen_ar1(Ar1Params(n=4, beta=0.01, steps=10_000, seed=8))
    ts = harvest_open_loop(trace.points)
    resid = np.mean(ts.magnitudes)
    steps = np.mean(
        [
            log_map(a, b).magnitude
            for a, b in zip(trace.points[:-1], trace.points[1:])
        ]
    )
    assert 1.2 < resid / steps < 1.6


# ---------------------------------------------------------------------------
# AR(2) traces


def test_gen_ar2_deterministic_and_unit_norm_despite_growth():
    params = Ar2Params(n=3, a1=0.9, a2=0.75, noise_std=0.01, steps=6000, seed=9)
    t1, t2 = gen_ar2(params), gen_ar2(params)
    assert np.array_equal(t1.normalized, t2.normalized)
    norms = np.linalg.norm(t1.normalized, axis=1)
    assert np.max(np.abs(norms - 1.0)) < 1e-12  # exact even after saturation
    with np.errstate(over="ignore"):
        gains = t1.gains
    assert np.all(np.isfinite(gains[:100]))  # early rows still representable


def test_gen_ar2_unit_root_pair_is_constant():
    # h[k] = h[k-1] exactly; only the independent initial row differs.
    trace = gen_ar2(Ar2Params(n=3, a1=1.0, a2=0.0, noise_std=0.0, steps=30, seed=10))
    for p in trace.points[2:]:
        assert chordal_distance(trace.points[1], p) < 1e-12


def test_gen_ar2_reference_setting_is_strongly_correlated():
    params = Ar2Params(n=3, a1=0.9, a2=0.75, noise_std=0.01, steps=10_000, seed=11)
    trace = gen_ar2(params)
    zeta = sequence_correlation(trace.points, trace.points, 1)
    assert zeta < 0.05


def test_gen_ar2_degenerate_recursion_raises():
    with pytest.raises(ArithmeticError, match="collapsed"):
        gen_ar2(Ar2Params(n=3, a1=0.0, a2=0.0, noise_std=0.0, steps=10, seed=12))


# ---------------------------------------------------------------------------
# trace container and I/O


def test_channel_trace_rejects_non_unit_normalized_rows():
    raw = complex_gaussian(rng_stream(13), (5, 3))
    with pytest.raises(ValueError):
        ChannelTrace(raw=raw, normalized=raw)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_channel_trace_rejects_non_finite_normalized_rows(bad):
    trace = gen_ar1(Ar1Params(n=3, beta=0.01, steps=3, seed=13))
    normalized = trace.normalized.copy()
    normalized[1, 2] = bad
    with pytest.raises(ValueError, match="finite and unit norm"):
        ChannelTrace(raw=trace.raw, normalized=normalized)


def test_channel_trace_points_adopt_a_checked_copy_of_the_rows():
    trace = gen_ar1(Ar1Params(n=4, beta=0.01, steps=20, seed=13))
    points = trace.points
    assert [p.coords.tobytes() for p in points] == [r.tobytes() for r in trace.normalized]
    assert not any(p.coords.flags.writeable for p in points)
    trace.normalized[0] = np.nan  # the points keep their own copy
    assert not np.isnan(points[0].coords).any()
    fresh = ChannelTrace(raw=trace.raw, normalized=gen_ar1(Ar1Params(4, 0.01, 20, 13)).normalized)
    fresh.normalized[3] *= 2.0  # a row broken after construction is caught at .points
    with pytest.raises(ValueError, match="finite and unit norm"):
        fresh.points


def test_save_load_round_trip(tmp_path):
    trace = gen_ar1(Ar1Params(n=4, beta=0.01, steps=40, seed=14))
    path = tmp_path / "trace.csv"
    save_trace(trace, path, model="ar1", seed=14, extra={"beta": 0.01})
    loaded = load_trace(path)
    assert np.array_equal(loaded.raw, trace.raw)
    assert np.array_equal(loaded.normalized, trace.normalized)
    header = path.read_text().splitlines()[0]
    assert header.startswith("#") and "n=4" in header and "model=ar1" in header


def test_load_trace_rejects_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1.0,0.0,0.0,0.0\n")
    with pytest.raises(ValueError, match="header"):
        load_trace(path)


def test_load_trace_rejects_wrong_column_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# n=3 model=ar1 seed=0\n1.0,0.0,0.0,0.0\n")
    with pytest.raises(ValueError):
        load_trace(path)
