"""Command-line experiment driver.

``grasspc <command> --config <path> --seed <u64> --out <path>``

Commands: ``train`` (two-stage codebook training), ``distortion``
(operational distortion vs. closed-form bounds), ``gains`` (closed-loop
prediction gain curves), ``mse`` (tracking error vs. memoryless
quantization), ``sumrate`` (multiuser zero-forcing comparison), and
``gen-trace`` (channel trace export).

Configuration files are INI-style ``key = value`` sections, one section
per command; the full schema lives in ``docs/config.md``.  Unknown keys
or sections are rejected before any computation: this module and the
parameter objects it builds (``grasspc.params``) use the standard library
only, and ``main`` imports the command bodies (``grasspc.commands``), and
with them numpy, only once the config is valid.  Exit codes: 0 success,
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

from .params import Ar1Params, Ar2Params, SumRateConfig, _is_pow2

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
    from . import commands  # numpy and the compute modules load only for a valid config

    try:
        commands.DISPATCH[config.command](config)
    except commands.NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
