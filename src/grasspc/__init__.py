"""Predictive coding of beamforming directions on the Grassmann manifold G(n, 1).

The package bundles the differential-geometric primitives (log/exp maps,
parallel transport, one-step geodesic prediction), a predictive
encoder/decoder pair driven by shape-gain tangent codebooks, Lloyd-style
codebook training, closed-form distortion bounds, correlated channel
simulation, and a limited-feedback multiuser zero-forcing sum-rate harness.
"""

from .geometry import (
    UNIT_NORM_TOL,
    ORTHOGONALITY_TOL,
    RHO_MIN,
    ZERO_TANGENT_TOL,
    PHASE_EQ_TOL,
    DimensionMismatchError,
    CutLocusError,
    GrassmannPoint,
    TangentVector,
    InnerProductDecomposition,
    chordal_distance,
    inner_decomposition,
    log_map,
    exp_map,
    parallel_transport,
    predict_one_step,
    sequence_correlation,
    random_point,
)
from .channel import (
    Ar1Params,
    Ar2Params,
    ChannelTrace,
    bessel_j0,
    rng_stream,
    complex_gaussian,
    gen_ar1,
    ar1_from_innovations,
    gen_ar2,
    save_trace,
    load_trace,
)
from .codebooks import (
    FILE_NORM_TOL,
    SAME_LINE_CHORD,
    DirectionCodebook,
    MagnitudeCodebook,
    ShapeGainCodebook,
    TrainingSet,
    canonical_phase,
    harvest_open_loop,
    harvest_closed_loop,
    lloyd_direction,
    lloyd_magnitude,
    uniform_magnitude,
    best_packing,
    save_codebook,
    load_codebook,
)
from .codec import (
    PROJECTION_COLLAPSE_TOL,
    TrackingLostError,
    CodewordIndex,
    GpcState,
    EncodeResult,
    initialize,
    memoryless_quantize,
    quantize_tangent,
    reconstruct_codeword,
    encode_trace,
    decode_trace,
    write_index_stream,
    read_index_stream,
)
from .analysis import (
    DistortionBounds,
    ball_volume,
    ball_normalized_distortion,
    codebook_spacings,
    gpc_distortion_bounds,
    memoryless_lower_bound,
    gpc_bound_reduction,
    closed_loop_gain,
    closed_loop_gain_db,
    mse_db,
    memoryless_squared_errors,
)
from .mumimo import (
    RankDeficientError,
    CompositeChannel,
    Beamformers,
    SumRateResult,
    SumRateConfig,
    SumRateTableRow,
    zf_beamformers,
    per_user_sinr,
    sum_rate,
    evaluate_sum_rate,
    default_gpc_codebook,
    run_sumrate_experiment,
)

__version__ = "0.1.0"
