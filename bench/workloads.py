"""The three benchmark workloads: their inputs, made from the seed, and the
checks on their outputs.

``mse`` and ``sumrate`` run the ``grasspc`` command of the same name on an
INI config and pass the benchmark seed as ``--seed``.  ``feedback-link``
drives the library API over AR(1) traces described by ``[gen-trace]``
configs, with one trace seed per trial drawn from the benchmark seed.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import checks

NAMES = ("mse", "feedback-link", "sumrate")

# Published codebooks (9-bit predictive = 64 directions x 8 magnitudes, 6-
# and 9-bit memoryless packings) over far fewer trace steps than published:
# the 512-word packing search dominates the run.  Many short traces rather
# than a few long ones, because at beta = 0.001 a trace this short holds
# about one independent direction, and the memoryless rows sit only ~0.4
# per-sample standard deviations above the fixed-rate bound, so the bound
# check needs ~100 independent directions per beta to hold on every seed.
MSE = {
    "n": 4,
    "bits": 9,
    "magnitude_bits": 3,
    "memoryless_bits_grid": (6, 9),
    "beta_grid": (0.001, 0.01, 0.04),
    "steps": 50,
    "trials": 120,
}

# All three schemes, two Doppler values, four SNR points.
SUMRATE = {
    "n_t": 4,
    "users": 4,
    "bits": 9,
    "magnitude_bits": 3,
    "snr_db_grid": (0.0, 10.0, 20.0, 30.0),
    "fdts_grid": (0.001, 0.04),
    "schemes": ("perfect_csi", "memoryless_random", "gpc"),
    "trials": 40,
    "steps": 60,
    "discard": 20,
}

# Per trial and Doppler: encode, write and read the index stream, decode.
FEEDBACK = {
    "n": 4,
    "betas": (0.001, 0.04),
    "steps": 2500,
    "trials": 2,
    "n_d": 64,
    "n_m": 8,
}

# Channel uses in the independent perfect-CSI zero-forcing reference.
ZF_REFERENCE_USES = 20_000


def _ini(section: str, options: dict) -> str:
    def text(value):
        return ", ".join(str(v) for v in value) if isinstance(value, tuple) else str(value)

    return f"[{section}]\n" + "".join(f"{k} = {text(v)}\n" for k, v in options.items())


def feedback_configs(work: Path) -> list[Path]:
    return [work / f"feedback-{i}.ini" for i in range(len(FEEDBACK["betas"]))]


def prepare(name: str, seed: int, work: Path) -> list[tuple[str, Path]]:
    """Write the workload's inputs under ``work``; returns the (command,
    config path) pairs that set-up validates."""
    if name == "mse":
        path = work / "mse.ini"
        path.write_text(_ini("mse", MSE), encoding="utf-8")
        return [("mse", path)]
    if name == "sumrate":
        path = work / "sumrate.ini"
        path.write_text(_ini("sumrate", SUMRATE), encoding="utf-8")
        return [("sumrate", path)]
    paths = feedback_configs(work)
    for path, beta in zip(paths, FEEDBACK["betas"]):
        options = {"model": "ar1", "n": FEEDBACK["n"], "beta": beta, "steps": FEEDBACK["steps"]}
        path.write_text(_ini("gen-trace", options), encoding="utf-8")
    seeds = np.random.SeedSequence([seed, 0xFB]).generate_state(FEEDBACK["trials"], np.uint64)
    (work / "inputs.json").write_text(
        json.dumps({"trace_seeds": [int(s) for s in seeds]}), encoding="utf-8"
    )
    return [("gen-trace", path) for path in paths]


def reference(name: str, seed: int):
    """Values the checks compare against, computed apart from the program."""
    if name != "sumrate":
        return None
    return checks.zf_reference(
        SUMRATE["n_t"], SUMRATE["users"], SUMRATE["snr_db_grid"], ZF_REFERENCE_USES, seed
    )


def load_sessions(path: Path) -> dict:
    sessions: dict = {}
    with np.load(path) as arrays:
        for key in arrays.files:
            tag, field = key.split("__")
            sessions.setdefault(tag, {})[field] = arrays[key]
    return sessions


def verify(name: str, out: Path, ref) -> tuple[list[str], list[str]]:
    """Check one round's outputs in ``out``; returns (failures, data rows)."""
    text = (out / "rows.csv").read_text(encoding="utf-8")
    if name == "mse":
        failures = checks.check_mse(checks.parse_csv(text), MSE)
    elif name == "sumrate":
        failures = checks.check_sumrate(checks.parse_csv(text), SUMRATE, ref)
    else:
        failures = checks.check_feedback(load_sessions(out / "sessions.npz"), FEEDBACK)
    return failures, checks.data_rows(text)
