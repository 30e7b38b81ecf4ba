"""The bodies of the ``grasspc`` commands, run on a validated config.

:func:`grasspc.cli.main` imports this module only once a config has passed
validation, so numpy and the compute modules load only for a run that
computes something.  Each ``cmd_*`` takes the ``ExperimentConfig`` that
:func:`grasspc.cli.load_config` built and writes the command's output.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import __version__
from .analysis import (
    gpc_distortion_bounds,
    memoryless_lower_bound,
    memoryless_squared_errors,
)
from .channel import Ar1Params, _ar1_traces, _innovations, gen_ar1, gen_ar2
from .channel import rng_stream, save_trace
from .cli import _MODEL_ONLY, ExperimentConfig
from .codebooks import (
    ShapeGainCodebook,
    _harvest_closed_rows,
    _harvest_open_rows,
    best_packing,
    lloyd_direction,
    lloyd_magnitude,
    save_codebook,
    uniform_magnitude,
)
from .codec import _encode_rows
from .mumimo import SumRateTableRow, run_sumrate_experiment

#: The failures that ``main`` reports as numerical (exit code 3).
NUMERICAL_ERRORS = (ArithmeticError, FloatingPointError, AssertionError, np.linalg.LinAlgError)


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


DISPATCH = {
    "gen-trace": cmd_gen_trace,
    "train": cmd_train,
    "distortion": cmd_distortion,
    "gains": cmd_gains,
    "mse": cmd_mse,
    "sumrate": cmd_sumrate,
}
