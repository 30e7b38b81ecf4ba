"""End-to-end tests for the ``grasspc`` command-line experiment driver.

Each test invokes :func:`grasspc.cli.main` in-process with an INI config
written to a temporary directory, then checks the exit code, the console
text, and the artifact written to ``--out``.
"""

import hashlib

import numpy as np
import pytest

from grasspc.channel import load_trace
from grasspc.cli import _SCHEMAS, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, _parser_for, main
from grasspc.codebooks import load_codebook


def run_cli(tmp_path, command, config_text, *, seed="0", out_name="out.csv", extra=()):
    """Write ``config_text`` to a temp file and invoke the CLI in-process."""
    config = tmp_path / "config.ini"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / out_name
    argv = [command, "--config", str(config), "--seed", seed, "--out", str(out), *extra]
    return main(argv), out


def read_csv(path):
    """Split a CSV artifact into (provenance lines, column names, data rows)."""
    lines = path.read_text(encoding="utf-8").splitlines()
    provenance = [line for line in lines if line.startswith("#")]
    body = [line for line in lines if not line.startswith("#")]
    return provenance, body[0].split(","), [line.split(",") for line in body[1:]]


def column(rows, columns, name, *, as_float=False):
    i = columns.index(name)
    return [float(r[i]) if as_float else r[i] for r in rows]


# ---------------------------------------------------------------------------
# Config validation: every rejected input exits 2 with a "config error" line.


def test_missing_config_file(tmp_path, capsys):
    out = tmp_path / "out.csv"
    code = main(["mse", "--config", str(tmp_path / "nope.ini"), "--seed", "0", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "cannot read config file" in err


def test_unknown_key_is_rejected_with_valid_choices(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "mse", "[mse]\nbogus = 3\n")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown key 'bogus'" in err
    assert "valid keys" in err


def test_unknown_section_is_rejected(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "mse", "[mse]\n\n[extra]\nx = 1\n")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown section(s)" in err
    assert "valid sections" in err


def test_default_section_is_rejected(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "mse", "[DEFAULT]\nsteps = 5\n\n[mse]\n")
    assert code == EXIT_CONFIG
    assert "[DEFAULT] section is not supported" in capsys.readouterr().err


def test_missing_command_section(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "mse", "[gains]\n")
    assert code == EXIT_CONFIG
    assert "has no [mse] section" in capsys.readouterr().err


def test_wrongly_typed_value_names_the_key(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "mse", "[mse]\ntrials = soon\n")
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "[mse] trials" in err
    assert "expected an integer" in err


def test_model_key_must_match_the_model(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "gen-trace", "[gen-trace]\nmodel = ar2\nbeta = 0.01\n")
    assert code == EXIT_CONFIG
    assert "does not apply to model" in capsys.readouterr().err


def test_codebook_sizes_must_be_powers_of_two(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "train", "[train]\nn_d = 12\n")
    assert code == EXIT_CONFIG
    assert "powers of two" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, key",
    [
        ("mse", "memoryless_bits_grid = 0"),
        ("gains", "n_d = 1"),
        ("distortion", "n_d = 1"),
        ("distortion", "n_m_grid = 1"),
        ("gen-trace", "beta = -0.1"),
        ("train", "beta = -1"),
        ("gen-trace", "model = ar2\nnoise_std = -1"),
        ("distortion", "noise_std = -1"),
        ("mse", "n = 1"),
        ("gains", "n = 1"),
        ("train", "lloyd_iters = 0"),
    ],
)
def test_single_codeword_sizes_are_config_errors(tmp_path, capsys, command, key):
    # Out-of-range sizes and model values: each would otherwise reach a
    # packing, a spacing, a trace generator or a Lloyd loop and escape as a
    # traceback.  The error names the section.
    code, _ = run_cli(tmp_path, command, f"[{command}]\n{key}\n")
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: [{command}] ")


@pytest.mark.parametrize("command", sorted(_SCHEMAS))
def test_every_default_parses_from_its_ini_text(command):
    # Each key's parser comes from its default's type, so a default whose
    # type has no parser would otherwise fail only when a user sets the key.
    for key, default in _SCHEMAS[command].items():
        text = ", ".join(map(str, default)) if isinstance(default, tuple) else str(default)
        assert _parser_for(default)(text) == default, key


def test_unwritable_output_path(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "mse", "[mse]\n", out_name="missing-dir/out.csv")
    assert code == EXIT_CONFIG
    assert "cannot write output path" in capsys.readouterr().err


def test_bad_seed_is_an_argparse_error(tmp_path):
    config = tmp_path / "config.ini"
    config.write_text("[mse]\n", encoding="utf-8")
    with pytest.raises(SystemExit) as exc:
        main(["mse", "--config", str(config), "--seed", "banana", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_unknown_command_is_an_argparse_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--config", "x", "--seed", "0", "--out", "y"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# Numerical failures exit 3 with a diagnostic rather than a traceback.


def test_collapsing_model_reports_numerical_failure(tmp_path, capsys):
    config = "[gen-trace]\nmodel = ar2\na1 = 0\na2 = 0\nnoise_std = 0\nsteps = 10\n"
    code, _ = run_cli(tmp_path, "gen-trace", config)
    assert code == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "collapsed" in err


# ---------------------------------------------------------------------------
# gen-trace


def test_gen_trace_round_trip_and_determinism(tmp_path, capsys):
    config = "[gen-trace]\nmodel = ar1\nn = 3\nbeta = 0.02\nsteps = 50\n"
    code, out = run_cli(tmp_path, "gen-trace", config, seed="3", out_name="a.trace")
    assert code == EXIT_OK
    assert "wrote 50 x 3 ar1 trace" in capsys.readouterr().out

    trace = load_trace(out)
    assert trace.n == 3 and len(trace) == 50
    assert np.allclose(np.linalg.norm(trace.normalized, axis=1), 1.0, atol=1e-12)
    header = out.read_text(encoding="utf-8").splitlines()[0]
    for token in ("n=3", "model=ar1", "seed=3", "model_beta=0.02"):
        assert token in header

    # The trace header carries no argv, so a rerun with the same seed is
    # byte-identical even at a different output path; a new seed is not.
    _, again = run_cli(tmp_path, "gen-trace", config, seed="3", out_name="b.trace")
    assert again.read_bytes() == out.read_bytes()
    _, other = run_cli(tmp_path, "gen-trace", config, seed="4", out_name="c.trace")
    assert other.read_bytes() != out.read_bytes()


# ---------------------------------------------------------------------------
# train


def test_train_writes_a_loadable_codebook(tmp_path, capsys):
    config = (
        "[train]\nmodel = ar1\nn = 3\nbeta = 0.02\nsteps = 400\n"
        "n_d = 8\nn_m = 4\nlloyd_iters = 30\n"
    )
    code, out = run_cli(tmp_path, "train", config, out_name="trained.cbk")
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "stage 1" in text and "stage 2" in text
    assert "wrote 8 x 4" in text

    codebook = load_codebook(out)
    assert codebook.n == 3
    assert codebook.directions.size == 8
    assert codebook.magnitudes.size == 4
    assert codebook.bits == 5


def test_train_on_a_stationary_trace_warns_but_succeeds(tmp_path, capsys):
    config = "[train]\nmodel = ar1\nn = 3\nbeta = 0.0\nsteps = 60\nn_d = 8\nn_m = 4\n"
    code, out = run_cli(tmp_path, "train", config, out_name="flat.cbk")
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "falling back to a random-packing direction codebook" in text
    assert "degenerate all-zero magnitude codebook" in text
    codebook = load_codebook(out)
    assert float(np.max(codebook.magnitudes.entries)) == 0.0


# ---------------------------------------------------------------------------
# CSV experiments at desk scale


def test_distortion_columns_and_closed_form_bounds(tmp_path):
    config = "[distortion]\nn = 3\nn_d = 8\nn_m_grid = 4, 8\nsteps = 300\ntrials = 2\n"
    code, out = run_cli(tmp_path, "distortion", config)
    assert code == EXIT_OK

    provenance, columns, rows = read_csv(out)
    assert [line.split(":")[0] for line in provenance] == [
        "# command",
        "# config_sha256",
        "# seed",
        "# version",
    ]
    assert provenance[0].startswith("# command: grasspc distortion ")
    sha = hashlib.sha256((tmp_path / "config.ini").read_bytes()).hexdigest()
    assert provenance[1] == f"# config_sha256: {sha}"
    assert provenance[2] == "# seed: 0"

    assert columns == ["n_m", "bits", "operational", "d_lower", "d_upper", "memoryless_bound"]
    assert column(rows, columns, "n_m") == ["4", "8"]
    assert column(rows, columns, "bits") == ["5", "6"]
    for row in rows:
        values = dict(zip(columns, (float(v) for v in row)))
        # The memoryless reference is the closed form (n-1)/n * N^(-1/(n-1)).
        expected = (2.0 / 3.0) * (2.0 ** values["bits"]) ** -0.5
        assert values["memoryless_bound"] == pytest.approx(expected, rel=1e-9)
        assert 0.0 < values["d_lower"] < values["d_upper"]
        assert values["operational"] > 0.0


def test_gains_emits_quantized_and_unquantized_rows(tmp_path):
    config = (
        "[gains]\nn = 3\nn_d = 8\nn_m_grid = 4\nbeta_grid = 0.01, 0.04\n"
        "steps = 300\ntrials = 2\ninclude_unquantized = true\n"
    )
    code, out = run_cli(tmp_path, "gains", config)
    assert code == EXIT_OK
    _, columns, rows = read_csv(out)
    assert columns == ["beta", "n_m", "gclp_db"]
    assert column(rows, columns, "n_m") == ["4", "0", "4", "0"]  # 0 marks unquantized
    for gain_db in column(rows, columns, "gclp_db", as_float=True):
        assert np.isfinite(gain_db) and gain_db > 0.0


def test_mse_predictive_coder_beats_memoryless_when_slow(tmp_path):
    config = (
        "[mse]\nn = 3\nbits = 6\nmagnitude_bits = 2\nmemoryless_bits_grid = 6\n"
        "beta_grid = 0.001\nsteps = 800\ntrials = 3\n"
    )
    code, out = run_cli(tmp_path, "mse", config)
    assert code == EXIT_OK
    _, columns, rows = read_csv(out)
    assert columns == ["scheme", "bits", "beta", "mse_db"]
    by_scheme = dict(
        zip(column(rows, columns, "scheme"), column(rows, columns, "mse_db", as_float=True))
    )
    assert set(by_scheme) == {"gpc", "memoryless"}
    assert by_scheme["gpc"] < by_scheme["memoryless"] - 3.0


def test_sumrate_rows_and_snr_monotonicity(tmp_path):
    config = (
        "[sumrate]\nbits = 6\nmagnitude_bits = 2\nsnr_db_grid = 0, 10\n"
        "fdts_grid = 0.01\nschemes = perfect_csi, memoryless_random, gpc\n"
        "trials = 2\nsteps = 24\ndiscard = 20\n"
    )
    code, out = run_cli(tmp_path, "sumrate", config)
    assert code == EXIT_OK
    _, columns, rows = read_csv(out)
    assert columns == [
        "scheme",
        "snr_db",
        "fdts",
        "bits",
        "trial_count",
        "sum_rate_mean",
        "sum_rate_stderr",
    ]
    assert len(rows) == 6  # three schemes, one fdts each, two SNR points
    means = {
        (r[0], float(r[1])): float(r[columns.index("sum_rate_mean")]) for r in rows
    }
    assert means[("perfect_csi", 10.0)] > means[("perfect_csi", 0.0)]
    assert means[("perfect_csi", 10.0)] > means[("memoryless_random", 10.0)]
    assert all(v > 0.0 for v in means.values())
    assert all(r[columns.index("trial_count")] == "2" for r in rows)
