"""Span tracing for the benchmark's traced run, kept outside the program.

``Tracer.install`` wraps the public functions of each grasspc layer in the
module namespaces where their callers look them up (``grasspc.cli`` calls
``encode_trace`` through its own import, ``grasspc.codec`` calls
``log_map`` through its own, and so on).  Every call records a span
(name, parent span, start, end) in memory; ``Tracer.dump`` writes the spans
and counters out once the workload is done, and ``layer_metrics`` turns a
dump into the per-layer metrics.  A target that a later version of the
program no longer has is skipped, so its metrics read 0 instead of failing
the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
from collections import Counter
from functools import cached_property
from time import perf_counter

# Span name -> the (module, attribute) pairs through which callers reach it.
TARGETS = {
    "cli.main": [("grasspc.cli", "main")],
    "cli.load_config": [("grasspc.cli", "load_config")],
    "channel.gen_ar1": [("grasspc.cli", "gen_ar1"), ("grasspc.channel", "gen_ar1")],
    "channel.ar1_from_innovations": [("grasspc.mumimo", "ar1_from_innovations")],
    "codebooks.best_packing": [
        ("grasspc.cli", "best_packing"),
        ("grasspc.mumimo", "best_packing"),
        ("grasspc.codebooks", "best_packing"),
    ],
    "codec.encode_trace": [
        ("grasspc.cli", "encode_trace"),
        ("grasspc.mumimo", "encode_trace"),
        ("grasspc.codec", "encode_trace"),
    ],
    "codec.decode_trace": [("grasspc.codec", "decode_trace")],
    "codec.quantize_tangent": [("grasspc.codec", "quantize_tangent")],
    "codec.reconstruct_codeword": [("grasspc.codec", "reconstruct_codeword")],
    "codec.write_index_stream": [("grasspc.codec", "write_index_stream")],
    "codec.read_index_stream": [("grasspc.codec", "read_index_stream")],
    "geometry.predict_one_step": [("grasspc.codec", "predict_one_step")],
    "geometry.log_map": [("grasspc.codec", "log_map")],
    "geometry.exp_map": [("grasspc.codec", "exp_map")],
    "geometry.chordal_distance": [("grasspc.codec", "chordal_distance")],
    "analysis.memoryless_squared_errors": [("grasspc.cli", "memoryless_squared_errors")],
    "mumimo.run_sumrate_experiment": [("grasspc.cli", "run_sumrate_experiment")],
    "mumimo.zf_beamformers": [("grasspc.mumimo", "zf_beamformers")],
    "mumimo.window_mean_rates": [("grasspc.mumimo", "_window_mean_rates")],
}

GENERATORS = ("channel.gen_ar1", "channel.ar1_from_innovations")


def _argument(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else args[position]


class Tracer:
    """In-memory span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []  # [name index, parent span index or -1, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        # Lag-1 coefficient of the channel being generated most recently,
        # which is the channel the next encode_trace call tracks.
        self.alpha = math.nan
        self.encoded: dict[float, Counter] = {}

    def wrap(self, name: str, fn, after=None):
        names, spans, stack = self.names, self.spans, self.stack
        if name not in names:
            names.append(name)
        key = names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [key, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    # -- hooks: counters read from arguments and results --------------------

    def _after_gen_ar1(self, args, kwargs, result):
        self.alpha = float(_argument(args, kwargs, 0, "params").alpha)

    def _after_innovations(self, args, kwargs, result):
        self.alpha = float(_argument(args, kwargs, 1, "alpha"))

    def _after_encode(self, args, kwargs, result):
        self.counts["encode_steps"] += len(result.indices)
        self.counts["reinits"] += int(getattr(result, "reinits", 0))
        usage = self.encoded.setdefault(self.alpha, Counter())
        usage.update(
            (i.direction_index, i.magnitude_index) for i in result.indices if i is not None
        )

    def _after_decode(self, args, kwargs, result):
        self.counts["decode_steps"] += len(result[0])

    def _after_window(self, args, kwargs, result):
        self.counts["channel_uses"] += len(_argument(args, kwargs, 0, "true_steps"))

    def _packing_hook(self):
        codebooks = importlib.import_module("grasspc.codebooks")
        cache_info = getattr(getattr(codebooks, "_best_packing_cached", None), "cache_info", None)
        misses = [cache_info().misses if cache_info else 0]

        def after(args, kwargs, result):
            # Only a cache miss searches; without a cache every call does.
            now = cache_info().misses if cache_info else misses[0] + 1
            if now > misses[0]:
                draws = kwargs.get("draws", args[3] if len(args) > 3 else 10_000)
                self.counts["packing_candidates"] += int(draws)
            misses[0] = now

        return after

    def _counting_init(self, cls, counter: str):
        original = cls.__post_init__
        counts = self.counts

        @functools.wraps(original)
        def post_init(obj):
            counts[counter] += 1
            original(obj)

        cls.__post_init__ = post_init

    # -- installation and output ---------------------------------------------

    def install(self):
        """Wrap every target the imported program still has."""
        hooks = {
            "channel.gen_ar1": self._after_gen_ar1,
            "channel.ar1_from_innovations": self._after_innovations,
            "codec.encode_trace": self._after_encode,
            "codec.decode_trace": self._after_decode,
            "mumimo.window_mean_rates": self._after_window,
            "codebooks.best_packing": self._packing_hook(),
        }
        for name, sites in TARGETS.items():
            for module_name, attribute in sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attribute, None)
                if callable(fn):
                    setattr(module, attribute, self.wrap(name, fn, hooks.get(name)))
        geometry = importlib.import_module("grasspc.geometry")
        self._counting_init(geometry.GrassmannPoint, "points_built")
        self._counting_init(geometry.TangentVector, "tangents_built")
        channel = importlib.import_module("grasspc.channel")
        points = channel.ChannelTrace.__dict__.get("points")
        if isinstance(points, cached_property):
            wrapped = cached_property(self.wrap("channel.points", points.func))
            wrapped.__set_name__(channel.ChannelTrace, "points")
            channel.ChannelTrace.points = wrapped

    def dump(self, path):
        slowest = max(self.encoded, default=None, key=lambda a: -math.inf if math.isnan(a) else a)
        usage = self.encoded.get(slowest, Counter())
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": self.names,
                    "spans": self.spans,
                    "counts": dict(self.counts),
                    "slowest_index_counts": sorted(usage.values()),
                },
                fh,
            )


def entropy_bits(counts) -> float:
    """Empirical entropy, in bits, of a histogram given as its counts."""
    total = sum(counts)
    return -sum(c / total * math.log2(c / total) for c in counts if c) if total else 0.0


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics from a tracer dump; absent layers read 0."""
    names = dump["names"]
    total, self_time, calls = Counter(), Counter(), Counter()
    children = [0.0] * len(dump["spans"])
    for key, parent, start, end in dump["spans"]:
        if parent >= 0:
            children[parent] += end - start
    for (key, parent, start, end), inner in zip(dump["spans"], children):
        name = names[key]
        total[name] += end - start
        self_time[name] += end - start - inner
        calls[name] += 1
    counts = Counter(dump["counts"])

    def per(numerator, denominator, scale=1.0):
        return numerator / denominator * scale if denominator else 0.0

    def us_per_call(name):
        return per(total[name], calls[name], 1e6)

    return {
        "cli.config_s": total["cli.load_config"],
        "cli.self_s": self_time["cli.main"],
        "channel.traces": sum(calls[g] for g in GENERATORS),
        "channel.gen_s": sum(total[g] for g in GENERATORS),
        "channel.points_s": total["channel.points"],
        "geometry.points_built": counts["points_built"],
        "geometry.tangents_built": counts["tangents_built"],
        "geometry.predict_us": us_per_call("geometry.predict_one_step"),
        "geometry.log_map_us": us_per_call("geometry.log_map"),
        "geometry.exp_map_us": us_per_call("geometry.exp_map"),
        "geometry.chordal_us": us_per_call("geometry.chordal_distance"),
        "codebooks.best_packing_s": total["codebooks.best_packing"],
        "codebooks.packing_candidates": counts["packing_candidates"],
        "codebooks.packing_us_per_candidate": per(
            total["codebooks.best_packing"], counts["packing_candidates"], 1e6
        ),
        "codec.encode_steps": counts["encode_steps"],
        "codec.encode_us_per_step": per(total["codec.encode_trace"], counts["encode_steps"], 1e6),
        "codec.quantize_us": us_per_call("codec.quantize_tangent"),
        "codec.reconstruct_us": us_per_call("codec.reconstruct_codeword"),
        "codec.decode_steps": counts["decode_steps"],
        "codec.decode_us_per_step": per(total["codec.decode_trace"], counts["decode_steps"], 1e6),
        "codec.stream_io_s": total["codec.write_index_stream"] + total["codec.read_index_stream"],
        "codec.reinits": counts["reinits"],
        "codec.index_entropy_bits": entropy_bits(dump["slowest_index_counts"]),
        "analysis.memoryless_s": total["analysis.memoryless_squared_errors"],
        "mumimo.zf_calls": calls["mumimo.zf_beamformers"],
        "mumimo.zf_us_per_use": per(
            total["mumimo.window_mean_rates"], counts["channel_uses"], 1e6
        ),
        "mumimo.experiment_self_s": self_time["mumimo.run_sumrate_experiment"],
    }
