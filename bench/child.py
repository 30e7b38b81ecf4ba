"""One workload round in a fresh interpreter.

    python bench/child.py <workload> <seed> <work dir> <out dir> [<trace file>]

Reads the inputs ``workloads.prepare`` wrote to the work dir, runs the
workload through grasspc and writes its outputs (``rows.csv``, plus
``sessions.npz`` for ``feedback-link``) to the out dir.  With a trace file
the layers are wrapped by ``tracer.Tracer`` and the spans are written there
at the end.  Exits with the workload's exit code.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import grasspc.cli

import workloads


def run_cli(command: str, seed: int, work: Path, out: Path) -> int:
    argv = [command, "--config", str(work / f"{command}.ini"), "--seed", str(seed)]
    return grasspc.cli.main(argv + ["--out", str(out / "rows.csv")])


def coords(points, n: int) -> np.ndarray:
    return np.array([p.coords for p in points]).reshape(-1, n)


def pairs(indices) -> np.ndarray:
    return np.array([(i.direction_index, i.magnitude_index) for i in indices])


def run_feedback_link(seed: int, work: Path, out: Path) -> int:
    from grasspc import channel, codebooks, codec

    spec = workloads.FEEDBACK
    trace_seeds = json.loads((work / "inputs.json").read_text(encoding="utf-8"))["trace_seeds"]
    configs = [
        grasspc.cli.load_config("gen-trace", path, seed, 1, out / "unused")
        for path in workloads.feedback_configs(work)
    ]
    book = codebooks.ShapeGainCodebook(
        codebooks.best_packing(spec["n"], spec["n_d"]), codebooks.uniform_magnitude(spec["n_m"])
    )
    rows = ["beta,trial,steps,mse,index_sha256,estimate_sha256"]
    arrays = {}
    for config in configs:
        o = config.options
        for trial, trace_seed in enumerate(trace_seeds):
            params = channel.Ar1Params(n=o["n"], beta=o["beta"], steps=o["steps"], seed=trace_seed)
            trace = channel.gen_ar1(params)
            points = trace.points
            encoded = codec.encode_trace(points, book, mode="memoryless")
            stream = out / f"b{o['beta']}-t{trial}.idx"
            codec.write_index_stream(stream, encoded.indices, spec["n_m"])
            received = codec.read_index_stream(stream, spec["n_m"])
            state = codec.initialize(points[0], points[1], book, mode="memoryless")
            decoded, _ = codec.decode_trace(state, received, book)

            tag = f"b{o['beta']}-t{trial}"
            session = {
                "beta": np.float64(o["beta"]),
                "observed": trace.normalized,
                "encoded": coords(encoded.estimates, o["n"]),
                "decoded": coords(decoded, o["n"]),
                "errors": encoded.estimate_errors,
                "sent": pairs(encoded.indices),
                "received": pairs(received),
            }
            arrays.update({f"{tag}__{k}": v for k, v in session.items()})
            rows.append(
                f"{o['beta']},{trial},{len(decoded)},"
                f"{float(np.mean(encoded.estimate_errors**2))!r},"
                f"{hashlib.sha256(stream.read_bytes()).hexdigest()},"
                f"{hashlib.sha256(session['encoded'].tobytes()).hexdigest()}"
            )
    np.savez(out / "sessions.npz", **arrays)
    (out / "rows.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")
    return 0


def main(argv) -> int:
    name, seed, work, out = argv[0], int(argv[1]), Path(argv[2]), Path(argv[3])
    trace_file = argv[4] if len(argv) > 4 else None
    if trace_file:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = run_feedback_link(seed, work, out) if name == "feedback-link" else run_cli(name, seed, work, out)
    if trace_file:
        tracer.dump(trace_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
