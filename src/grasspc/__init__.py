"""Predictive coding of beamforming directions on the Grassmann manifold G(n, 1).

The package bundles the differential-geometric primitives (log/exp maps,
parallel transport, one-step geodesic prediction), a predictive
encoder/decoder pair driven by shape-gain tangent codebooks, Lloyd-style
codebook training, closed-form distortion bounds, correlated channel
simulation, and a limited-feedback multiuser zero-forcing sum-rate harness.

Importing the package loads none of this: each public name below is looked
up in its defining module on first use (PEP 562), so ``grasspc.cli`` can
validate a config before numpy is imported.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "geometry": (
        "UNIT_NORM_TOL",
        "ORTHOGONALITY_TOL",
        "RHO_MIN",
        "ZERO_TANGENT_TOL",
        "PHASE_EQ_TOL",
        "DimensionMismatchError",
        "CutLocusError",
        "GrassmannPoint",
        "TangentVector",
        "InnerProductDecomposition",
        "chordal_distance",
        "inner_decomposition",
        "log_map",
        "exp_map",
        "parallel_transport",
        "predict_one_step",
        "sequence_correlation",
        "random_point",
    ),
    "params": (
        "Ar1Params",
        "Ar2Params",
        "SumRateConfig",
    ),
    "channel": (
        "ChannelTrace",
        "bessel_j0",
        "rng_stream",
        "complex_gaussian",
        "gen_ar1",
        "ar1_from_innovations",
        "gen_ar2",
        "save_trace",
        "load_trace",
    ),
    "codebooks": (
        "FILE_NORM_TOL",
        "SAME_LINE_CHORD",
        "DirectionCodebook",
        "MagnitudeCodebook",
        "ShapeGainCodebook",
        "TrainingSet",
        "canonical_phase",
        "harvest_open_loop",
        "harvest_closed_loop",
        "lloyd_direction",
        "lloyd_magnitude",
        "uniform_magnitude",
        "best_packing",
        "save_codebook",
        "load_codebook",
    ),
    "codec": (
        "PROJECTION_COLLAPSE_TOL",
        "TrackingLostError",
        "CodewordIndex",
        "GpcState",
        "EncodeResult",
        "initialize",
        "memoryless_quantize",
        "quantize_tangent",
        "reconstruct_codeword",
        "encode_trace",
        "decode_trace",
        "write_index_stream",
        "read_index_stream",
    ),
    "analysis": (
        "DistortionBounds",
        "ball_volume",
        "ball_normalized_distortion",
        "codebook_spacings",
        "gpc_distortion_bounds",
        "memoryless_lower_bound",
        "gpc_bound_reduction",
        "closed_loop_gain",
        "closed_loop_gain_db",
        "mse_db",
        "memoryless_squared_errors",
    ),
    "mumimo": (
        "RankDeficientError",
        "CompositeChannel",
        "Beamformers",
        "SumRateResult",
        "SumRateTableRow",
        "zf_beamformers",
        "per_user_sinr",
        "sum_rate",
        "evaluate_sum_rate",
        "default_gpc_codebook",
        "run_sumrate_experiment",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
