"""Command-line experiment driver.

``grasspc <command> --config <path> --seed <u64> [--threads N] --out <path>``

Commands: ``train`` (two-stage codebook training), ``distortion``
(operational distortion vs. closed-form bounds), ``gains`` (closed-loop
prediction gain curves), ``mse`` (tracking error vs. memoryless
quantization), ``sumrate`` (multiuser zero-forcing comparison), and
``gen-trace`` (channel trace export).

Configuration files are INI-style ``key = value`` sections, one section
per command; the full schema lives in ``docs/config.md``.  Unknown keys
or sections are rejected before any computation.  Exit codes: 0 success,
2 configuration error, 3 numerical failure.  Every CSV opens with
``#``-prefixed provenance lines (command, config hash, seed, version)
and contains no timestamps, so a re-run with the same arguments is
byte-identical.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (
    gpc_distortion_bounds,
    memoryless_lower_bound,
    memoryless_squared_errors,
)
from .channel import Ar1Params, Ar2Params, gen_ar1, gen_ar2, rng_stream, save_trace
from .codebooks import (
    ShapeGainCodebook,
    _is_pow2,
    best_packing,
    harvest_closed_loop,
    harvest_open_loop,
    lloyd_direction,
    lloyd_magnitude,
    save_codebook,
    uniform_magnitude,
)
from .codec import encode_trace
from .mumimo import SumRateConfig, run_sumrate_experiment

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "main"]

COMMANDS = ("train", "distortion", "gains", "mse", "sumrate", "gen-trace")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """Invalid or contradictory experiment configuration."""


# ---------------------------------------------------------------------------
# Config parsing


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text!r}")
    return value


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected true/false, got {text!r}")


def _parse_str(text: str) -> str:
    return text.strip()


def _list_of(item_parser):
    def parse(text: str):
        items = [piece.strip() for piece in text.split(",") if piece.strip()]
        if not items:
            raise ConfigError("expected a comma-separated list with at least one item")
        return tuple(item_parser(piece) for piece in items)

    return parse


def _parser_for(default):
    """The parser for values of the default's type (tuples parse as lists)."""
    if isinstance(default, tuple):
        return _list_of(_parser_for(default[0]))
    return {int: _parse_int, float: _parse_float, str: _parse_str}[type(default)]


_MODEL_KEYS = {
    "model": (_parse_str, "ar1"),
    "n": (_parse_int, 4),
    "steps": (_parse_int, 10_000),
    "beta": (_parse_float, 0.01),
    "a1": (_parse_float, 0.9),
    "a2": (_parse_float, 0.75),
    "noise_std": (_parse_float, 0.01),
}

_SCHEMAS: dict[str, dict] = {
    "gen-trace": dict(_MODEL_KEYS),
    "train": {
        **_MODEL_KEYS,
        "n_d": (_parse_int, 16),
        "n_m": (_parse_int, 8),
        "lloyd_iters": (_parse_int, 100),
        "min_magnitude": (_parse_float, 0.0),
    },
    "distortion": {
        "n": (_parse_int, 3),
        "a1": (_parse_float, 0.9),
        "a2": (_parse_float, 0.75),
        "noise_std": (_parse_float, 0.01),
        "n_d": (_parse_int, 16),
        "n_m_grid": (_list_of(_parse_int), (4, 8, 16, 32)),
        "steps": (_parse_int, 10_000),
        "trials": (_parse_int, 10),
    },
    "gains": {
        "n": (_parse_int, 4),
        "n_d": (_parse_int, 64),
        "n_m_grid": (_list_of(_parse_int), (4, 8, 16, 32)),
        "beta_grid": (_list_of(_parse_float), (0.001, 0.01, 0.02, 0.04)),
        "steps": (_parse_int, 6_000),
        "trials": (_parse_int, 8),
        "include_unquantized": (_parse_bool, True),
    },
    "mse": {
        "n": (_parse_int, 4),
        "bits": (_parse_int, 9),
        "magnitude_bits": (_parse_int, 3),
        "memoryless_bits_grid": (_list_of(_parse_int), (6, 9)),
        "beta_grid": (_list_of(_parse_float), (0.001, 0.01, 0.02, 0.04)),
        "steps": (_parse_int, 10_000),
        "trials": (_parse_int, 20),
    },
    # SumRateConfig is the one source of these defaults; the seed is --seed.
    "sumrate": {
        f.name: (_parser_for(f.default), f.default)
        for f in dataclasses.fields(SumRateConfig)
        if f.name != "seed"
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated command invocation: typed options plus provenance."""

    command: str
    options: dict
    seed: int
    threads: int
    out: str
    config_sha256: str
    argv: tuple

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; choose from {COMMANDS}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")


def _require_pow2(options: dict, *keys: str):
    for key in keys:
        values = options[key] if isinstance(options[key], tuple) else (options[key],)
        for value in values:
            if not _is_pow2(value):
                raise ConfigError(f"{key} entries must be powers of two, got {value}")


def _validate_model(options: dict, explicit: set):
    if options["model"] not in ("ar1", "ar2"):
        raise ConfigError(f"model must be 'ar1' or 'ar2', got {options['model']!r}")
    foreign = {"ar1": ("a1", "a2", "noise_std"), "ar2": ("beta",)}[options["model"]]
    for key in foreign:
        if key in explicit:
            raise ConfigError(f"key '{key}' does not apply to model = {options['model']}")
    if options["n"] < 2:
        raise ConfigError(f"n must be >= 2, got {options['n']}")
    if options["steps"] < 3:
        raise ConfigError(f"steps must be >= 3, got {options['steps']}")


def _validate_options(command: str, options: dict, explicit: set):
    if command in ("gen-trace", "train"):
        _validate_model(options, explicit)
    if command == "train":
        _require_pow2(options, "n_d", "n_m")
        if options["steps"] < 4:
            raise ConfigError("training needs steps >= 4 to harvest at least one tangent")
    if command == "distortion":
        _require_pow2(options, "n_d", "n_m_grid")
        # The closed-form bounds need two codewords on each side.
        if options["n_d"] < 2 or min(options["n_m_grid"]) < 2:
            raise ConfigError("n_d and n_m_grid entries must be >= 2")
        if options["n"] < 2:
            raise ConfigError(f"n must be >= 2, got {options['n']}")
        if options["trials"] < 1 or options["steps"] < 3:
            raise ConfigError("need trials >= 1 and steps >= 3")
    if command == "gains":
        _require_pow2(options, "n_d", "n_m_grid")
        if options["n_d"] < 2:
            raise ConfigError(f"n_d must be >= 2 for a packing, got {options['n_d']}")
        if min(options["beta_grid"]) <= 0:
            raise ConfigError("beta_grid values must be positive")
        if options["trials"] < 1 or options["steps"] < 3:
            raise ConfigError("need trials >= 1 and steps >= 3")
    if command == "mse":
        if options["bits"] <= options["magnitude_bits"] or options["magnitude_bits"] < 0:
            raise ConfigError(
                f"bits ({options['bits']}) must exceed magnitude_bits "
                f"({options['magnitude_bits']}), which must be >= 0"
            )
        if min(options["memoryless_bits_grid"]) < 1:
            raise ConfigError("memoryless_bits_grid values must be >= 1")
        if min(options["beta_grid"]) <= 0:
            raise ConfigError("beta_grid values must be positive")
        if options["trials"] < 1 or options["steps"] < 3:
            raise ConfigError("need trials >= 1 and steps >= 3")
    if command == "sumrate":
        try:
            options["sumrate_config"] = SumRateConfig(
                **{key: options[key] for key in _SCHEMAS["sumrate"]}
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def load_config(command: str, path, seed: int, threads: int, out, argv=()) -> ExperimentConfig:
    """Read and validate the command's section of an INI config file."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; choose from {COMMANDS}")
    try:
        with open(path, "rb") as fh:
            raw_bytes = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(raw_bytes.decode("utf-8"))
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if parser.defaults():
        raise ConfigError("a [DEFAULT] section is not supported; use the command section")
    unknown_sections = set(parser.sections()) - set(COMMANDS)
    if unknown_sections:
        raise ConfigError(
            f"unknown section(s) {sorted(unknown_sections)}; valid sections: {COMMANDS}"
        )
    if command not in parser.sections():
        raise ConfigError(f"config file {path} has no [{command}] section")

    schema = _SCHEMAS[command]
    options = {key: default for key, (_, default) in schema.items()}
    explicit = set()
    for key, text in parser.items(command):
        if key not in schema:
            raise ConfigError(
                f"unknown key '{key}' in [{command}]; valid keys: {sorted(schema)}"
            )
        item_parser = schema[key][0]
        try:
            options[key] = item_parser(text)
        except ConfigError as exc:
            raise ConfigError(f"[{command}] {key}: {exc}") from None
        explicit.add(key)
    _validate_options(command, options, explicit)
    return ExperimentConfig(
        command=command,
        options=options,
        seed=seed,
        threads=threads,
        out=str(out),
        config_sha256=hashlib.sha256(raw_bytes).hexdigest(),
        argv=tuple(argv),
    )


# ---------------------------------------------------------------------------
# Shared helpers


def _child_seed(seed: int, *key: int) -> int:
    """A derived 63-bit stream seed, deterministic in (seed, key)."""
    return int(rng_stream(seed, *key).integers(0, 2**63))


def _model_trace(options: dict, seed: int, steps: int | None = None):
    steps = options["steps"] if steps is None else steps
    if options["model"] == "ar1":
        return gen_ar1(Ar1Params(n=options["n"], beta=options["beta"], steps=steps, seed=seed))
    return gen_ar2(
        Ar2Params(
            n=options["n"],
            a1=options["a1"],
            a2=options["a2"],
            noise_std=options["noise_std"],
            steps=steps,
            seed=seed,
        )
    )


def _write_csv(config: ExperimentConfig, columns, rows):
    """Write rows with the provenance header; floats use repr-stable %.10g."""

    def fmt(value):
        if isinstance(value, float):
            return f"{value:.10g}"
        return str(value)

    with open(config.out, "w", encoding="utf-8") as fh:
        fh.write(f"# command: grasspc {' '.join(config.argv)}\n")
        fh.write(f"# config_sha256: {config.config_sha256}\n")
        fh.write(f"# seed: {config.seed}\n")
        fh.write(f"# version: {__version__}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


def _pooled_mse_db(squared_errors) -> float:
    mean = float(np.mean(np.concatenate(squared_errors)))
    return -math.inf if mean == 0.0 else 10.0 * math.log10(mean)


def _train_two_stage(trace, options: dict, seed: int, log=lambda line: None):
    """Open-loop Lloyd training, then a magnitude-only refit on the
    closed-loop tangent statistics of the stage-1 codebook.

    The direction codebook is kept from stage 1: direction samples
    harvested inside the quantized loop are dominated by feedback noise,
    while the magnitude statistics shift systematically (the closed loop
    undershoots), so only the magnitudes are refit.  Returns (stage-1
    codebook, stage-2 codebook).
    """
    n, n_d, n_m, iters = options["n"], options["n_d"], options["n_m"], options["lloyd_iters"]
    ts1 = harvest_open_loop(trace.points)
    log(
        f"stage 1: {len(ts1)} open-loop tangents harvested "
        f"({ts1.skipped} skipped at the cut locus)"
    )
    if ts1.directions(options.get("min_magnitude", 0.0)).shape[0] < n_d:
        log(
            "warning: too few usable direction samples (stationary trace?); "
            "falling back to a random-packing direction codebook"
        )
        directions = best_packing(n, n_d)
    else:
        directions, dir_hist = lloyd_direction(
            ts1,
            n_d,
            iters,
            seed,
            min_magnitude=options.get("min_magnitude", 0.0),
            return_history=True,
        )
        log(
            f"stage 1: direction distortion {dir_hist[-1]:.6g} "
            f"after {len(dir_hist)} Lloyd iterations"
        )
    mags1, mag_hist = lloyd_magnitude(ts1, n_m, iters, return_history=True)
    log(
        f"stage 1: magnitude distortion {mag_hist[-1]:.6g} "
        f"after {len(mag_hist)} Lloyd iterations"
    )
    stage1 = ShapeGainCodebook(directions, mags1)

    ts2 = harvest_closed_loop(trace.points, stage1)
    log(
        f"stage 2: {len(ts2)} closed-loop tangents harvested "
        f"({ts2.skipped} skipped at the cut locus)"
    )
    mags2, mag_hist2 = lloyd_magnitude(ts2, n_m, iters, return_history=True)
    log(
        f"stage 2: magnitude distortion {mag_hist2[-1]:.6g} "
        f"after {len(mag_hist2)} Lloyd iterations"
    )
    stage2 = ShapeGainCodebook(directions, mags2)
    if float(np.max(mags2.entries)) == 0.0:
        log("warning: degenerate all-zero magnitude codebook (stationary training trace?)")
    return stage1, stage2


def _closed_loop_mse_db(points, codebook: ShapeGainCodebook) -> float:
    result = encode_trace(points, codebook, mode="exact", on_track_loss="reinit")
    return _pooled_mse_db([result.estimate_errors**2])


# ---------------------------------------------------------------------------
# Commands


def cmd_gen_trace(config: ExperimentConfig):
    options = config.options
    trace = _model_trace(options, config.seed)
    extra = {"model_" + k: options[k] for k in ("beta",) if options["model"] == "ar1"}
    if options["model"] == "ar2":
        extra = {"model_" + k: options[k] for k in ("a1", "a2", "noise_std")}
    save_trace(trace, config.out, model=options["model"], seed=config.seed, extra=extra)
    print(f"wrote {len(trace)} x {trace.n} {options['model']} trace to {config.out}")


def cmd_train(config: ExperimentConfig):
    options = config.options
    trace = _model_trace(options, config.seed)
    stage1, stage2 = _train_two_stage(trace, options, config.seed, log=print)
    mse1 = _closed_loop_mse_db(trace.points, stage1)
    mse2 = _closed_loop_mse_db(trace.points, stage2)
    print(f"stage 1: training-trace tracking error {mse1:.3f} dB")
    print(f"stage 2: training-trace tracking error {mse2:.3f} dB")
    save_codebook(stage2, config.out)
    print(
        f"wrote {stage2.directions.size} x {stage2.magnitudes.size} codeword "
        f"(n = {stage2.n}) codebook to {config.out}"
    )


def cmd_distortion(config: ExperimentConfig):
    """Operational closed-loop distortion against the annular-sector bounds.

    Codebooks follow the figure's construction: a fixed chordal packing for
    directions and uniform [0, 1] magnitude levels, so the bound columns are
    closed-form functions of the grid.
    """
    options = config.options
    n, n_d = options["n"], options["n_d"]
    model = {
        "model": "ar2",
        "n": n,
        "a1": options["a1"],
        "a2": options["a2"],
        "noise_std": options["noise_std"],
    }
    directions = best_packing(n, n_d)
    traces = [
        _model_trace(model, _child_seed(config.seed, 0xE7, trial), options["steps"])
        for trial in range(options["trials"])
    ]
    rows = []
    for n_m in options["n_m_grid"]:
        codebook = ShapeGainCodebook(directions, uniform_magnitude(n_m))
        squared = [
            encode_trace(t.points, codebook, mode="exact", on_track_loss="reinit")
            .estimate_errors
            ** 2
            for t in traces
        ]
        operational = float(np.mean(np.concatenate(squared)))
        bounds = gpc_distortion_bounds(n, codebook)
        bits = codebook.bits
        rows.append(
            (
                n_m,
                bits,
                operational,
                bounds.lower,
                bounds.upper,
                memoryless_lower_bound(n, 2**bits),
            )
        )
    _write_csv(
        config,
        ("n_m", "bits", "operational", "d_lower", "d_upper", "memoryless_bound"),
        rows,
    )


def cmd_gains(config: ExperimentConfig):
    options = config.options
    packing = best_packing(options["n"], options["n_d"])
    curves = [(n_m, ShapeGainCodebook(packing, uniform_magnitude(n_m))) for n_m in options["n_m_grid"]]
    rows = []
    for beta in options["beta_grid"]:
        traces = [
            _model_trace(
                {"model": "ar1", "n": options["n"], "beta": beta},
                _child_seed(config.seed, 0x6A, trial),
                options["steps"],
            )
            for trial in range(options["trials"])
        ]
        for n_m, codebook in curves:
            squared = [
                encode_trace(t.points, codebook, mode="exact", on_track_loss="reinit")
                .prediction_errors
                ** 2
                for t in traces
            ]
            rows.append((beta, n_m, -_pooled_mse_db(squared)))
        if options["include_unquantized"]:
            squared = [
                encode_trace(
                    t.points,
                    curves[0][1],
                    mode="exact",
                    free_magnitude=True,
                    on_track_loss="reinit",
                ).prediction_errors
                ** 2
                for t in traces
            ]
            rows.append((beta, 0, -_pooled_mse_db(squared)))
    _write_csv(config, ("beta", "n_m", "gclp_db"), rows)


def cmd_mse(config: ExperimentConfig):
    options = config.options
    n = options["n"]
    gpc_codebook = ShapeGainCodebook(
        best_packing(n, 2 ** (options["bits"] - options["magnitude_bits"])),
        uniform_magnitude(2 ** options["magnitude_bits"]),
    )
    memoryless = {b: best_packing(n, 2**b) for b in options["memoryless_bits_grid"]}
    rows = []
    for beta in options["beta_grid"]:
        traces = [
            _model_trace(
                {"model": "ar1", "n": n, "beta": beta},
                _child_seed(config.seed, 0x5E, trial),
                options["steps"],
            )
            for trial in range(options["trials"])
        ]
        gpc_sq = [
            encode_trace(t.points, gpc_codebook, mode="exact", on_track_loss="reinit")
            .estimate_errors
            ** 2
            for t in traces
        ]
        rows.append(("gpc", options["bits"], beta, _pooled_mse_db(gpc_sq)))
        for bits, codebook in memoryless.items():
            mem_sq = [memoryless_squared_errors(t.normalized, codebook) for t in traces]
            rows.append(("memoryless", bits, beta, _pooled_mse_db(mem_sq)))
    _write_csv(config, ("scheme", "bits", "beta", "mse_db"), rows)


def cmd_sumrate(config: ExperimentConfig):
    sumrate_config = dataclasses.replace(config.options["sumrate_config"], seed=config.seed)
    rows = [
        (
            cell.scheme,
            cell.snr_db,
            cell.fdts,
            cell.bits,
            cell.trial_count,
            cell.sum_rate_mean,
            cell.sum_rate_stderr,
        )
        for cell in run_sumrate_experiment(sumrate_config)
    ]
    _write_csv(
        config,
        ("scheme", "snr_db", "fdts", "bits", "trial_count", "sum_rate_mean", "sum_rate_stderr"),
        rows,
    )


_DISPATCH = {
    "gen-trace": cmd_gen_trace,
    "train": cmd_train,
    "distortion": cmd_distortion,
    "gains": cmd_gains,
    "mse": cmd_mse,
    "sumrate": cmd_sumrate,
}


# ---------------------------------------------------------------------------
# Entry point


def _seed_u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _threads_positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("threads must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasspc",
        description="Grassmannian predictive-coding experiment driver (CSV output only).",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="INI config file (see docs/config.md)")
    parser.add_argument("--seed", required=True, type=_seed_u64, help="u64 master seed")
    parser.add_argument(
        "--threads",
        type=_threads_positive,
        default=1,
        help="worker budget; the current implementation always runs "
        "single-threaded so results never depend on scheduling",
    )
    parser.add_argument("--out", required=True, help="output path (CSV, codebook, or trace)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.command, args.config, args.seed, args.threads, args.out, argv)
        with open(config.out, "a", encoding="utf-8"):
            pass
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: cannot write output path {args.out}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        _DISPATCH[config.command](config)
    except (ArithmeticError, FloatingPointError, AssertionError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
