"""Command-line experiment driver.

``grasspc <command> --config <path> --seed <u64> --out <path>``

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
from .channel import Ar1Params, Ar2Params, _ar1_traces, _innovations, gen_ar1, gen_ar2
from .channel import rng_stream, save_trace
from .codebooks import (
    ShapeGainCodebook,
    _harvest_closed_rows,
    _harvest_open_rows,
    _is_pow2,
    best_packing,
    lloyd_direction,
    lloyd_magnitude,
    save_codebook,
    uniform_magnitude,
)
from .codec import _encode_rows
from .mumimo import SumRateConfig, SumRateTableRow, run_sumrate_experiment

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


_PARSERS = {bool: _parse_bool, int: _parse_int, float: _parse_float, str: _parse_str}


def _parser_for(default):
    """The parser for values of the default's type (tuples parse as lists)."""
    if isinstance(default, tuple):
        return _list_of(_parser_for(default[0]))
    return _PARSERS[type(default)]


# The channel keys each model reads; setting another model's key is an error.
_MODEL_ONLY = {"ar1": ("beta",), "ar2": ("a1", "a2", "noise_std")}

_MODEL_KEYS = dict(model="ar1", n=4, steps=10_000, beta=0.01, a1=0.9, a2=0.75, noise_std=0.01)

# Each command's keys and defaults; a key's parser follows its default's type.
_SCHEMAS: dict[str, dict] = {
    "gen-trace": dict(_MODEL_KEYS),
    "train": {**_MODEL_KEYS, "n_d": 16, "n_m": 8},
    "distortion": {
        "n": 3,
        "a1": 0.9,
        "a2": 0.75,
        "noise_std": 0.01,
        "n_d": 16,
        "n_m_grid": (4, 8, 16, 32),
        "steps": 10_000,
        "trials": 10,
    },
    "gains": {
        "n": 4,
        "n_d": 64,
        "n_m_grid": (4, 8, 16, 32),
        "beta_grid": (0.001, 0.01, 0.02, 0.04),
        "steps": 6_000,
        "trials": 8,
    },
    "mse": {
        "n": 4,
        "bits": 9,
        "magnitude_bits": 3,
        "memoryless_bits_grid": (6, 9),
        "beta_grid": (0.001, 0.01, 0.02, 0.04),
        "steps": 10_000,
        "trials": 20,
    },
    # SumRateConfig is the one source of these defaults; the seed is --seed.
    "sumrate": {f.name: f.default for f in dataclasses.fields(SumRateConfig) if f.name != "seed"},
}

# Bounds that no library object checks before the run:
# (key, least value, whether each value must be a power of two).
_BOUNDS = {
    "train": (("n_d", 2, True), ("n_m", 1, True), ("steps", 4, False)),
    # The closed-form bounds need two codewords on each side.
    "distortion": (("n_d", 2, True), ("n_m_grid", 2, True), ("trials", 1, False)),
    "gains": (("n_d", 2, True), ("n_m_grid", 1, True), ("trials", 1, False)),
    "mse": (("magnitude_bits", 0, False), ("memoryless_bits_grid", 1, False), ("trials", 1, False)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated command invocation: typed options plus provenance."""

    command: str
    options: dict
    seed: int
    out: str
    config_sha256: str
    argv: tuple

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}; choose from {COMMANDS}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")


def _validate(command: str, options: dict, explicit: set):
    """Check the CLI-only bounds, then build the library objects the command
    runs on, whose constructors check every other value."""
    if "model" in options:
        if options["model"] not in _MODEL_ONLY:
            raise ConfigError(f"model must be 'ar1' or 'ar2', got {options['model']!r}")
        foreign = [k for m, keys in _MODEL_ONLY.items() if m != options["model"] for k in keys]
        for key in foreign:
            if key in explicit:
                raise ConfigError(f"key '{key}' does not apply to model = {options['model']}")
    for key, least, pow2 in _BOUNDS.get(command, ()):
        values = options[key] if isinstance(options[key], tuple) else (options[key],)
        for value in values:
            if value < least or (pow2 and not _is_pow2(value)):
                kind = "powers of two " if pow2 else ""
                raise ConfigError(f"{key} must be {kind}>= {least}, got {value}")
    if command == "mse" and options["bits"] <= options["magnitude_bits"]:
        raise ConfigError(
            f"bits ({options['bits']}) must exceed magnitude_bits ({options['magnitude_bits']})"
        )
    if "beta_grid" in options and min(options["beta_grid"]) <= 0.0:
        raise ConfigError("beta_grid values must be positive")

    if command == "sumrate":
        options["sumrate_config"] = SumRateConfig(**{k: options[k] for k in _SCHEMAS[command]})
        return
    # The parameters of the command's traces, at seed 0; each trace replaces the seed.
    n, steps = options["n"], options["steps"]
    if "beta_grid" in options:
        options["trace_params"] = tuple(
            Ar1Params(n=n, beta=beta, steps=steps, seed=0) for beta in options["beta_grid"]
        )
    elif options.get("model") == "ar1":
        options["trace_params"] = Ar1Params(n=n, beta=options["beta"], steps=steps, seed=0)
    else:  # model = ar2, or [distortion], which is always second-order
        a1, a2, noise_std = options["a1"], options["a2"], options["noise_std"]
        options["trace_params"] = Ar2Params(n, a1, a2, noise_std, steps, seed=0)


def load_config(command: str, path, seed: int, threads, out, argv=()) -> ExperimentConfig:
    """Read and validate the command's section of an INI config file.

    ``threads`` is ignored: every command runs single-threaded.
    """
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
    options = dict(schema)
    explicit = set()
    for key, text in parser.items(command):
        if key not in schema:
            raise ConfigError(
                f"unknown key '{key}' in [{command}]; valid keys: {sorted(schema)}"
            )
        try:
            options[key] = _parser_for(schema[key])(text)
        except ConfigError as exc:
            raise ConfigError(f"[{command}] {key}: {exc}") from None
        explicit.add(key)
    try:
        _validate(command, options, explicit)
    except ValueError as exc:
        raise ConfigError(f"[{command}] {exc}") from None
    return ExperimentConfig(
        command=command,
        options=options,
        seed=seed,
        out=str(out),
        config_sha256=hashlib.sha256(raw_bytes).hexdigest(),
        argv=tuple(argv),
    )


# ---------------------------------------------------------------------------
# Shared helpers


def _trace(params, seed: int):
    """The trace of ``params`` (AR(1) or AR(2)) at ``seed``."""
    generate = gen_ar1 if isinstance(params, Ar1Params) else gen_ar2
    return generate(dataclasses.replace(params, seed=seed))


def _traces(grid, seed: int, tag: int, trials: int):
    """For each AR(1) or AR(2) parameters of ``grid``, in turn, ``trials``
    traces, each at a 63-bit seed derived from (seed, tag, trial).  The seeds
    do not depend on the parameters, so the AR(1) entries, which differ only
    in beta, share one innovation block, drawn once, and run one recursion
    each over it."""
    seeds = [int(rng_stream(seed, tag, trial).integers(0, 2**63)) for trial in range(trials)]
    z = None
    for params in grid:
        if isinstance(params, Ar1Params):
            z = _innovations(params, seeds) if z is None else z
            yield _ar1_traces(params, z)
        else:
            yield [_trace(params, s) for s in seeds]


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


def _db(mean: float) -> float:
    return -math.inf if mean == 0.0 else 10.0 * math.log10(mean)


def _pooled_mse(traces, codebook, errors="est_err", free_magnitude=False) -> float:
    """Mean squared chordal ``errors`` (``est_err`` or ``pred_err``) of the
    closed loop from an exact start, re-initialized on track loss, pooled
    over ``traces``, which are encoded as one batch."""
    rows = np.array([t.normalized for t in traces])
    run = _encode_rows(rows, codebook, "exact", free_magnitude, "exact")
    return float(np.mean(getattr(run, errors).ravel() ** 2))


def _train_two_stage(trace, options: dict, seed: int, log=lambda line: None):
    """Open-loop Lloyd training, then a magnitude-only refit on the
    closed-loop tangent statistics of the stage-1 codebook.

    The direction codebook is kept from stage 1: direction samples
    harvested inside the quantized loop are dominated by feedback noise,
    while the magnitude statistics shift systematically (the closed loop
    undershoots), so only the magnitudes are refit.  Returns (stage-1
    codebook, stage-2 codebook).
    """
    n, n_d, n_m = options["n"], options["n_d"], options["n_m"]

    def fit(label, lloyd, *args, **kwargs):
        codebook, history = lloyd(*args, return_history=True, **kwargs)
        log(f"{label} distortion {history[-1]:.6g} after {len(history)} Lloyd iterations")
        return codebook

    ts1 = _harvest_open_rows(trace.normalized)
    log(
        f"stage 1: {len(ts1)} open-loop tangents harvested "
        f"({ts1.skipped} skipped at the cut locus)"
    )
    usable = ts1.directions[ts1.magnitudes > 0.0]  # zero tangents have no direction
    if usable.shape[0] < n_d:
        log(
            "warning: too few usable direction samples (stationary trace?); "
            "falling back to a random-packing direction codebook"
        )
        directions = best_packing(n, n_d)
    else:
        directions = fit("stage 1: direction", lloyd_direction, usable, n_d, seed=seed)
    mags1 = fit("stage 1: magnitude", lloyd_magnitude, ts1.magnitudes, n_m)
    stage1 = ShapeGainCodebook(directions, mags1)

    ts2 = _harvest_closed_rows(trace.normalized, stage1)
    log(
        f"stage 2: {len(ts2)} closed-loop tangents harvested "
        f"({ts2.skipped} skipped at the cut locus)"
    )
    mags2 = fit("stage 2: magnitude", lloyd_magnitude, ts2.magnitudes, n_m)
    stage2 = ShapeGainCodebook(directions, mags2)
    if float(np.max(mags2.entries)) == 0.0:
        log("warning: degenerate all-zero magnitude codebook (stationary training trace?)")
    return stage1, stage2


# ---------------------------------------------------------------------------
# Commands


def cmd_gen_trace(config: ExperimentConfig):
    options = config.options
    trace = _trace(options["trace_params"], config.seed)
    extra = {"model_" + k: options[k] for k in _MODEL_ONLY[options["model"]]}
    save_trace(trace, config.out, model=options["model"], seed=config.seed, extra=extra)
    print(f"wrote {len(trace)} x {trace.n} {options['model']} trace to {config.out}")


def cmd_train(config: ExperimentConfig):
    trace = _trace(config.options["trace_params"], config.seed)
    stage1, stage2 = _train_two_stage(trace, config.options, config.seed, log=print)
    print(f"stage 1: training-trace tracking error {_db(_pooled_mse([trace], stage1)):.3f} dB")
    print(f"stage 2: training-trace tracking error {_db(_pooled_mse([trace], stage2)):.3f} dB")
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
    n = options["n"]
    directions = best_packing(n, options["n_d"])
    traces = next(_traces((options["trace_params"],), config.seed, 0xE7, options["trials"]))
    rows = []
    for n_m in options["n_m_grid"]:
        codebook = ShapeGainCodebook(directions, uniform_magnitude(n_m))
        bounds = gpc_distortion_bounds(n, codebook)
        operational = _pooled_mse(traces, codebook)
        reference = memoryless_lower_bound(n, 2**codebook.bits)
        rows.append((n_m, codebook.bits, operational, bounds.lower, bounds.upper, reference))
    _write_csv(
        config, ("n_m", "bits", "operational", "d_lower", "d_upper", "memoryless_bound"), rows
    )


def cmd_gains(config: ExperimentConfig):
    options = config.options
    packing = best_packing(options["n"], options["n_d"])
    curves = [(m, ShapeGainCodebook(packing, uniform_magnitude(m))) for m in options["n_m_grid"]]
    rows = []
    grid = options["trace_params"]
    for params, traces in zip(grid, _traces(grid, config.seed, 0x6A, options["trials"])):
        for n_m, codebook in curves:
            mse = _pooled_mse(traces, codebook, "pred_err")
            rows.append((params.beta, n_m, -_db(mse)))
        mse = _pooled_mse(traces, curves[0][1], "pred_err", free_magnitude=True)
        rows.append((params.beta, 0, -_db(mse)))
    _write_csv(config, ("beta", "n_m", "gclp_db"), rows)


def cmd_mse(config: ExperimentConfig):
    options = config.options
    n, bits = options["n"], options["bits"]
    gpc_codebook = ShapeGainCodebook(
        best_packing(n, 2 ** (bits - options["magnitude_bits"])),
        uniform_magnitude(2 ** options["magnitude_bits"]),
    )
    memoryless = {b: best_packing(n, 2**b) for b in options["memoryless_bits_grid"]}
    rows = []
    grid = options["trace_params"]
    for params, traces in zip(grid, _traces(grid, config.seed, 0x5E, options["trials"])):
        rows.append(("gpc", bits, params.beta, _db(_pooled_mse(traces, gpc_codebook))))
        for b, packing in memoryless.items():
            squared = [memoryless_squared_errors(t.normalized, packing) for t in traces]
            mse = float(np.mean(np.concatenate(squared)))
            rows.append(("memoryless", b, params.beta, _db(mse)))
    _write_csv(config, ("scheme", "bits", "beta", "mse_db"), rows)


def cmd_sumrate(config: ExperimentConfig):
    cells = run_sumrate_experiment(
        dataclasses.replace(config.options["sumrate_config"], seed=config.seed)
    )
    columns = [f.name for f in dataclasses.fields(SumRateTableRow)]
    _write_csv(config, columns, [dataclasses.astuple(cell) for cell in cells])


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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasspc",
        description="Grassmannian predictive-coding experiment driver (CSV output only).",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="INI config file (see docs/config.md)")
    parser.add_argument("--seed", required=True, type=_seed_u64, help="u64 master seed")
    parser.add_argument("--out", required=True, help="output path (CSV, codebook, or trace)")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.command, args.config, args.seed, None, args.out, argv)
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
