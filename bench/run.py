"""grasspc benchmark: one workload per invocation, run from the repo root.

    python3 bench/run.py --workload {mse,feedback-link,sumrate} --seed N
                         --seconds S --trace {0,1}

With ``--trace 0`` it times one cold set-up (a fresh interpreter importing
``grasspc.cli`` and validating the workload's configs with
``load_config``), then runs whole workload rounds, each in a fresh child
process, until ``--seconds`` have passed.  It reports the median wall time,
CPU time and peak RSS of the rounds.  With ``--trace 1`` it runs one plain
and one traced round and reports the per-layer metrics instead.  Every
round's outputs are checked; the last line of stdout is the JSON result.
Metric names and units come from BENCHMARK.json.  See bench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread for the children (and this process): a 2-core machine
# shared with other work times steadier single-threaded.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracer import layer_metrics  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = Path(__file__).resolve().parent / "child.py"
# No new round starts when it would likely end past this, so that a run
# stays well inside its 180 s limit.
DEADLINE_S = 150.0

SETUP_CODE = (
    "import sys, grasspc.cli as cli\n"
    "for command, path in zip(sys.argv[1::2], sys.argv[2::2]):\n"
    "    cli.load_config(command, path, 0, 1, path)\n"
    "print(cli.__file__)\n"
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Round:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    failures: list = field(default_factory=list)
    rows: list = field(default_factory=list)


def spawn(argv, log: Path) -> tuple[int, float, object]:
    """Run a fresh interpreter from the repo root; returns its exit code,
    wall time and resource usage.  stdout and stderr go to ``log``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "w", encoding="utf-8") as sink:
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=sink, stderr=subprocess.STDOUT,
        ) as proc:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def time_setup(configs, work: Path) -> float:
    argv = ["-c", SETUP_CODE] + [str(item) for pair in configs for item in pair]
    code, wall, _ = spawn(argv, work / "setup.log")
    log = (work / "setup.log").read_text(encoding="utf-8")
    if code != 0:
        raise BenchError(f"set-up failed with exit code {code}:\n{log}")
    loaded = log.strip().splitlines()[-1]
    if not Path(loaded).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"grasspc was imported from {loaded}, not from {SRC}")
    return wall


def run_round(name: str, seed: int, work: Path, ref, index: int, trace: Path | None = None) -> Round:
    out = work / f"round-{index}"
    out.mkdir()
    argv = [str(CHILD), name, str(seed), str(work), str(out)] + ([str(trace)] if trace else [])
    code, wall, usage = spawn(argv, out / "child.log")
    result = Round(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if code != 0:
        log = (out / "child.log").read_text(encoding="utf-8")
        print(f"round {index} exited with {code}:\n{log[-2000:]}", file=sys.stderr)
    else:
        result.failures, result.rows = workloads.verify(name, out, ref)
    return result


def import_breakdown() -> dict:
    """Fresh-interpreter import cost of grasspc.cli, and scipy's own share,
    from ``python -X importtime``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import grasspc.cli"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    )
    own, cumulative = {}, {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or "self [us]" in line:
            continue
        name = parts[2].strip()
        own[name] = own.get(name, 0) + int(parts[0].split(":")[1])
        cumulative[name] = int(parts[1])
    return {
        "import.grasspc_s": cumulative.get("grasspc.cli", 0) / 1e6,
        "import.scipy_s": sum(v for k, v in own.items() if k.split(".")[0] == "scipy") / 1e6,
    }


def timed_run(args, work: Path, configs, ref) -> tuple[list[Round], dict]:
    setup_s = time_setup(configs, work)
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(args.workload, args.seed, work, ref, len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds or elapsed + rounds[-1].wall_s > DEADLINE_S:
            break
    ok = [r for r in rounds if r.code == 0]
    if not ok:
        raise BenchError("no round completed")
    metrics = {
        key: statistics.median(getattr(r, key) for r in ok)
        for key in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    metrics["setup_s"] = setup_s
    return rounds, metrics


def traced_run(args, work: Path, configs, ref) -> tuple[list[Round], dict]:
    trace_file = work / "trace.json"
    rounds = [
        run_round(args.workload, args.seed, work, ref, 0),
        run_round(args.workload, args.seed, work, ref, 1, trace=trace_file),
    ]
    if any(r.code != 0 for r in rounds):
        raise BenchError("the traced run needs both rounds to complete")
    with open(trace_file, encoding="utf-8") as fh:
        metrics = layer_metrics(json.load(fh))
    metrics.update(import_breakdown())
    metrics["trace.overhead_s"] = rounds[1].wall_s - rounds[0].wall_s
    return rounds, metrics


def machine() -> dict:
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {}).get(
            "version", "unknown"
        ),
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (SRC / "grasspc" / "__init__.py").is_file():
            raise BenchError(f"no grasspc sources under {SRC}")
        work = OUT / args.workload
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        configs = workloads.prepare(args.workload, args.seed, work)
        ref = workloads.reference(args.workload, args.seed)
        run = traced_run if args.trace else timed_run
        rounds, values = run(args, work, configs, ref)
    except (BenchError, OSError, subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    failures = [f for r in rounds for f in r.failures]
    completed = [r.rows for r in rounds if r.code == 0]
    if any(rows != completed[0] for rows in completed):
        failures.append("data rows differ between rounds of one invocation")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not failures,
        "attempted": len(rounds),
        "failed": sum(r.code != 0 for r in rounds),
        "metrics": metrics,
    }
    (work / "result.json").write_text(
        json.dumps(
            {
                **result,
                "workload": args.workload,
                "seed": args.seed,
                "rounds": [vars(r) for r in rounds],
                "machine": machine(),
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    for name, m in metrics.items():
        print(f"{args.workload:14s} {name:36s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
