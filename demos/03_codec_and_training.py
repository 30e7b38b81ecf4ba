"""
Predictive coding of a fading direction
=======================================

The codec keeps an identical state machine on both ends of the feedback
link: predict the next direction from the two latest estimates, quantize
the tangent-space error with a shape-gain codebook, and step the estimate
along the chosen geodesic.  The decoder replays the index stream and
lands on bit-identical estimates.
"""

import numpy as np

from grasspc import (
    Ar1Params,
    ShapeGainCodebook,
    best_packing,
    decode_trace,
    encode_trace,
    gen_ar1,
    harvest_closed_loop,
    harvest_open_loop,
    initialize,
    lloyd_direction,
    lloyd_magnitude,
    mse_db,
    read_index_stream,
    uniform_magnitude,
    write_index_stream,
)

# A 9-bit codebook: 64 packed directions (6 bits) x 8 magnitudes (3 bits).
trace = gen_ar1(Ar1Params(n=4, beta=0.001, steps=4000, seed=21))
codebook = ShapeGainCodebook(best_packing(4, 64), uniform_magnitude(8))

# Encode the whole trace.  Tracking error is far below the step size.
result = encode_trace(trace.points, codebook, mode="memoryless")
print(f"tracking error: {mse_db(result.estimate_errors):.2f} dB "
      f"over {len(result.indices)} steps")

# The decoder sees only the initialization and the index stream.
state0 = initialize(trace.points[0], trace.points[1], codebook, mode="memoryless")
estimates, _ = decode_trace(state0, result.indices, codebook)
exact = all(
    np.array_equal(a.coords, b.coords) for a, b in zip(estimates, result.estimates)
)
print(f"decoder matches encoder bit for bit: {exact}")

# Indices serialize to a plain text stream and back.
write_index_stream("/tmp/demo_indices.txt", result.indices, codebook.magnitudes.size)
again = read_index_stream("/tmp/demo_indices.txt", codebook.magnitudes.size)
print(f"index stream round trip: {again == result.indices}")

# Training replaces the fixed codebook with one fit to the channel's own
# error statistics: Lloyd on open-loop tangents first, then a magnitude
# refit on closed-loop tangents (the quantized loop undershoots, so its
# magnitude statistics differ from the open-loop ones).
# A training set holds plain arrays: zero tangents carry no direction.
ts1 = harvest_open_loop(trace.points)
directions = lloyd_direction(ts1.directions[ts1.magnitudes > 0], 16, seed=0)
stage1 = ShapeGainCodebook(directions, lloyd_magnitude(ts1.magnitudes, 8))
ts2 = harvest_closed_loop(trace.points, stage1)
stage2 = ShapeGainCodebook(directions, lloyd_magnitude(ts2.magnitudes, 8))

held_out = gen_ar1(Ar1Params(n=4, beta=0.001, steps=4000, seed=22))
for name, cb in (("stage 1 (open loop)", stage1), ("stage 2 (refit)", stage2)):
    r = encode_trace(held_out.points, cb, mode="memoryless")
    print(f"{name}: held-out tracking error {mse_db(r.estimate_errors):.2f} dB "
          f"({cb.directions.size} x {cb.magnitudes.size} codewords)")
