"""Compare the reports two source trees write for the same inputs.

    python3 tools/compare_reports.py OLD_TREE NEW_TREE --seed 2 --seed 3

Each tree is a checkout with confprod under `src/`.  For every seed, both
benchmark workloads of perfbench/workloads.py (catalog_2k and dim_sweep, at
`--size`) are run on each tree in a fresh interpreter, and so is the whole
catalog (200 samples at full size, 20 at tiny).  Every report and each run's
standard output are then compared byte for byte, the `generated_at` line
excepted.  The workload inputs come from this checkout's perfbench/, which
is only imported.  Three counts are printed per run for each tree: the
curvature batches it computes (calls of geometry._compute_batch, scope hits
excluded), the rows of the jet tapes it builds (summed over every jet
plan's derivative tape; the plan caches are cleared before each run, so a
run builds its tapes as a fresh `confprod` command does) and the kept batch
bytes (the largest total, over the scenarios, of the distinct arrays held
by the batches of a scenario's evaluation scope when it closes).

Exit code 0 when every file is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import io
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog_2k", "dim_sweep")
CATALOG_SAMPLES = {"full": 200, "tiny": 20}
COUNTS = ("computed batches", "jet-tape rows", "kept batch bytes")
_GENERATED_AT = re.compile(r'^\s*"generated_at": "[^"]*",\n', re.MULTILINE)


def _run_tree(tree: str, out: str, seed: int, size: str) -> None:
    """Child process: write every report and stdout of one tree under `out`."""
    sys.path[:0] = [str(Path(tree).resolve() / "src"), str(HERE / "perfbench")]
    import workloads
    from confprod import catalog, cli, geometry

    counts: dict = {}
    compute, program = geometry._compute_batch, geometry._JetPlan._program
    scope = catalog.evaluation_scope

    def counting(*args):
        counts[name]["computed batches"] += 1
        return compute(*args)

    def counting_rows(plan, order):
        built = program(plan, order)
        if order == 2:
            counts[name]["jet-tape rows"] += len(built.tape)
        return built

    @contextlib.contextmanager
    def measuring_scope():
        with scope() as kept:
            try:
                yield kept
            finally:
                arrays = {id(a): a for batch in kept.values() for a in vars(batch).values()}
                total = sum(a.nbytes for a in arrays.values())
                counts[name]["kept batch bytes"] = max(counts[name]["kept batch bytes"], total)

    geometry._compute_batch = counting
    geometry._JetPlan._program = counting_rows
    catalog.evaluation_scope = measuring_scope
    runs = {name: workloads.WORKLOADS[name](seed, size) for name in WORKLOADS}
    runs["catalog"] = None
    for name, checks in runs.items():
        workdir = Path(out) / "reports" / name
        workdir.mkdir(parents=True)
        counts[name] = dict.fromkeys(COUNTS, 0)
        for cached in vars(geometry).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            if checks is None:
                cli.main(["check", "--samples", str(CATALOG_SAMPLES[size]),
                          "--report", str(workdir / "report.json")])
            else:
                workloads.run_checks(checks, workdir)
        (workdir / "stdout.txt").write_text(printed.getvalue())
    (Path(out) / "counts.json").write_text(json.dumps(counts))


def _deterministic(path: Path) -> list[str]:
    return _GENERATED_AT.sub("", path.read_text()).splitlines(keepends=True)


def diff_trees(old: Path, new: Path) -> list[str]:
    """Unified diffs of every file that differs (or exists on one side only)."""
    names = sorted({p.relative_to(root) for root in (old, new)
                    for p in root.rglob("*") if p.is_file()})
    out = []
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            out.append(f"only in {old if a.is_file() else new}: {name}\n")
            continue
        lines = list(difflib.unified_diff(_deterministic(a), _deterministic(b),
                                          str(a), str(b), n=1))
        out += lines[:40]
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--seed", type=int, action="append", help="repeatable (default 2)")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--run-tree", nargs=2, metavar=("TREE", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seeds = args.seed or [2]
    if args.run_tree:
        _run_tree(*args.run_tree, seeds[0], args.size)
        return 0

    differing = 0
    with tempfile.TemporaryDirectory() as scratch:
        for seed in seeds:
            outs = []
            for label, tree in (("old", args.old), ("new", args.new)):
                out = Path(scratch) / f"seed{seed}" / label
                subprocess.run(
                    [sys.executable, __file__, args.old, args.new, "--run-tree", tree, str(out),
                     "--seed", str(seed), "--size", args.size],
                    check=True)
                outs.append(out)
            counts = [json.loads((out / "counts.json").read_text()) for out in outs]
            lines = diff_trees(*(out / "reports" for out in outs))
            files = sum(1 for p in (outs[0] / "reports").rglob("*") if p.is_file())
            print(f"seed {seed}: {files} files, {'identical' if not lines else 'DIFFERENT'}")
            for name in counts[0]:
                print(f"  {name}: " + ", ".join(
                    f"{what} {counts[0][name][what]} -> {counts[1][name][what]}" for what in COUNTS))
            sys.stdout.writelines(lines)
            differing += bool(lines)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
