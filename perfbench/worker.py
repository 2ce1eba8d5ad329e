"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED SIZE SPAWNED_AT WORKDIR MODE

MODE is `setup` (build the inputs and stop), `plain` or `traced`.
`setup_s` is the CPU time the main thread spent from its start until the
inputs were ready (interpreter start, imports and input generation),
`run_s` that of the timed section and `latencies_s` that of each
operation, all in seconds at reference speed (`speed.Speedometer`).  CPU
time leaves out the time a shared host makes the process wait for a
processor, and the speed samples take out the drift of the processor's own
speed.  Raw CPU and wall times are recorded too: `setup_cpu_s`,
`setup_wall_s` (from SPAWNED_AT, the parent's `time.monotonic()` just
before it started this process), `run_cpu_s` and `run_wall_s`.  The
record goes to WORKDIR/record.json.  A fresh interpreter per iteration
means confprod's compiled-jet caches start cold, as they do for every
`confprod` command.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

from speed import Speedometer


def blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str]) -> int:
    name, seed, size, spawned_at, workdir, mode = argv
    workdir = Path(workdir)
    with Speedometer() as speed:
        import numpy as np
        import workloads
        import spans

        inputs = workloads.WORKLOADS[name](int(seed), size)
        setup_end = time.thread_time()
        setup_wall_s = time.monotonic() - float(spawned_at)
        if mode != "setup":
            tracer = spans.Tracer() if mode == "traced" else None
            with tracer or contextlib.nullcontext():
                start, start_wall = time.thread_time(), time.perf_counter()
                raw = workloads.run_checks(inputs, workdir)
                end, run_wall_s = time.thread_time(), time.perf_counter() - start_wall
    record: dict = {"setup_s": speed.normalise(0.0, setup_end), "setup_cpu_s": setup_end,
                    "setup_wall_s": setup_wall_s, "loop_s": speed.loop_s(),
                    "speed_samples": speed.samples, "core_hops": speed.hops}
    if mode != "setup":
        outcome = workloads.check_reports(inputs, raw, workdir)
        record.update(
            run_s=speed.normalise(start, end),
            run_cpu_s=end - start,
            run_wall_s=run_wall_s,
            latencies_s=[speed.normalise(a, b) for _, a, b in raw],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            attempted=outcome.attempted,
            failed=outcome.failed,
            failures=outcome.failures,
            scenarios=outcome.scenarios,
            report_bytes=outcome.report_bytes,
            numpy=np.__version__,
            blas_threads=blas_threads(),
        )
        if tracer is not None:
            record["layers"] = tracer.metrics()
    (workdir / "record.json").write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
