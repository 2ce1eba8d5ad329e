"""Benchmark runner for confprod: one workload, one seed, one run.

    python3 perfbench/run.py --workload catalog_2k --seed 1 --seconds 60 --trace 0

Run from the repository root.  Every iteration is a fresh interpreter
(perfbench/worker.py) importing confprod from `src/`, so jet caches start
cold as they do for a `confprod` user.  A run first starts SETUP_PROBES
workers that only import and build inputs, then starts iterations until the
next one would end after `--seconds` from the start of the run.  With
`--trace 0` the iterations are untraced and the end-to-end metrics are
reported; with `--trace 1` untraced and traced iterations alternate and the
per-layer metrics are reported, plus `trace.overhead_s`, the fastest traced
minus the fastest untraced `run_norm_s`.

Every end-to-end timing is CPU time of the worker's main thread, scaled to
a fixed processor speed by the speed samples of perfbench/speed.py: on a
shared host neither the time the worker waits for a processor nor the
drift of the processor's speed counts.  A timing metric is the lowest over
the run's iterations, because load from other tenants only ever slows an
iteration, and slows the program more than the speed loop shows.  The raw
CPU and wall times are printed and recorded beside them.

Every operation's output is checked; the last stdout line is the JSON
result.  The full record (machine facts, per-iteration timings, every
scenario's verdict and measured constants) is written to
.perfbench/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog_2k", "dim_sweep")
SETUP_PROBES = 3
WORKER_TIMEOUT_S = 150
BLAS_THREADS = "1"

END_TO_END = {
    "run_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_norm_p50_ms": "ms",
    "query_norm_p99_ms": "ms",
}


class BenchError(Exception):
    pass


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("reuse_ratio"):
        return "ratio"
    return "count"


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def spawn(args, mode: str, tmp: Path) -> dict:
    """Run one worker to completion and return its record."""
    workdir = Path(tempfile.mkdtemp(dir=tmp))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])),
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    started = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), args.workload,
         str(args.seed), args.size, repr(started), str(workdir), mode],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise BenchError(f"{mode} worker exited with code {code}")
    record = json.loads((workdir / "record.json").read_text())
    record["wall_s"] = time.monotonic() - started
    if "latencies_s" in record:
        record["p50_ms"] = nearest_rank(record["latencies_s"], 0.50) * 1e3
        record["p99_ms"] = nearest_rank(record["latencies_s"], 0.99) * 1e3
    record["mode"] = mode
    return record


def machine_facts() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": model,
        "python": platform.python_version(),
        "blas_threads_requested": int(BLAS_THREADS),
        "src_lines": src_lines,
    }


def measure(args, tmp: Path) -> tuple[list[dict], list[dict]]:
    began = time.monotonic()
    setups = [spawn(args, "setup", tmp) for _ in range(SETUP_PROBES)]
    iterations: list[dict] = []
    longest = 0.0
    while True:
        mode = "traced" if args.trace and len(iterations) % 2 else "plain"
        record = spawn(args, mode, tmp)
        iterations.append(record)
        setups.append(record)
        longest = max(longest, record["wall_s"])
        enough = len(iterations) >= (2 if args.trace else 1)
        if enough and time.monotonic() - began + longest > args.seconds:
            return setups, iterations


def summarise(args, setups: list[dict], iterations: list[dict]) -> dict[str, float]:
    plain = [r for r in iterations if r["mode"] == "plain"]
    if not args.trace:
        return {
            "run_norm_s": min(r["run_s"] for r in plain),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "query_norm_p50_ms": min(r["p50_ms"] for r in plain),
            "query_norm_p99_ms": min(r["p99_ms"] for r in plain),
        }
    traced = [r for r in iterations if r["mode"] == "traced"]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    metrics["cli.report_bytes"] = statistics.median(r["report_bytes"] for r in traced)
    metrics["trace.overhead_s"] = (min(r["run_s"] for r in traced)
                                   - min(r["run_s"] for r in plain))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for smoke tests")
    args = parser.parse_args(argv)
    # a terminated run still stops its worker, in spawn's finally clause
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "confprod" / "__init__.py").is_file():
        print(f"error: no confprod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            setups, iterations = measure(args, Path(tmp))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = summarise(args, setups, iterations)
    plain = [r for r in iterations if r["mode"] == "plain"]
    wall = {"run_cpu_s": statistics.median(r["run_cpu_s"] for r in plain),
            "run_wall_s": statistics.median(r["run_wall_s"] for r in plain),
            "setup_cpu_s": statistics.median(r["setup_cpu_s"] for r in setups),
            "setup_wall_s": statistics.median(r["setup_wall_s"] for r in setups)}
    attempted = sum(r["attempted"] for r in iterations)
    failed = sum(r["failed"] for r in iterations)

    facts = machine_facts()
    facts.update(numpy=iterations[0]["numpy"], blas_threads=iterations[0]["blas_threads"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": facts,
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "metrics": metrics, "wall": wall,
        "setups": [{k: r[k] for k in ("setup_s", "setup_cpu_s", "setup_wall_s", "loop_s")}
                   for r in setups],
        "iterations": [{k: r[k] for k in ("mode", "setup_s", "setup_cpu_s", "setup_wall_s",
                                          "run_s", "p50_ms", "p99_ms", "run_cpu_s",
                                          "run_wall_s", "wall_s",
                                          "loop_s", "speed_samples", "core_hops", "peak_rss_mb",
                                          "attempted", "failed", "failures")}
                       for r in iterations],
        "scenarios": iterations[0]["scenarios"],
    }
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")

    units = END_TO_END if not args.trace else {m: per_layer_unit(m) for m in metrics}
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    for name, value in wall.items():
        print(f"{name} = {value!r} s (not scaled, not a metric)")
    print(f"failed_frac = {failed / attempted!r} ({failed}/{attempted} operations)")
    for r in iterations:
        for note in r["failures"]:
            print(f"failure: {note}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
