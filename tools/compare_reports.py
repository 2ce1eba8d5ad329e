"""Compare the reports two source trees write for the same inputs.

    python3 tools/compare_reports.py OLD_TREE NEW_TREE --seed 2 --seed 3

Each tree is a checkout with confprod under `src/`.  For every seed, both
benchmark workloads of perfbench/workloads.py (catalog_2k and dim_sweep, at
`--size`) are run on each tree in a fresh interpreter, and so is the whole
catalog (200 samples at full size, 20 at tiny).  Every report and each run's
standard output are then compared byte for byte, the `generated_at` line
excepted.  For a report that differs, each leaf that moved is printed: a
number with its absolute and relative change, any other value as it was and
is, with a moved `verdict`, `matched` or `expected` flagged MOVED; any other
file that differs, or a report whose leaves all hold but whose text moved,
is printed as a unified diff.  The workload inputs come
from this checkout's perfbench/, which is only imported.  Each tree's `src/`
and `tests/` line counts (newlines in their `.py` files, as `wc -l` counts
them) are printed first, side by side, so code moved from the library to the
tests shows as a move; then thirteen counts per run for each tree:

- computed batches: calls of geometry._compute_batch, scope hits excluded;
- jet-tape rows: the rows of every jet plan's second-order (jet) program,
  summed;
- tape registers: the registers created on every expressions.Tape, point
  columns excluded (one tape per chart in an evaluation scope, one per
  program outside one);
- kept batch bytes: the largest total, over the scenarios, of the distinct
  arrays held by the batches of a scenario's evaluation scope when it closes;
- contraction products: the products of the symbolic programs of the
  computed batches, per point (each geometry._contract call's len(step.a),
  summed over its program's steps, weighted by its slice's share of the
  batch's points);
- MetricSpec constructions;
- field programs: the programs built for scalar fields' jet plans, of
  any order;
- field tape passes: tape evaluations of a scalar field's program, of any
  order (reads of the rows a scope keeps do not count);
- symbolic programs: the programs the symbolic phase builds (calls of
  geometry._contraction that miss its cache);
- symbolic table rows: those programs' table rows (_Contraction.rows), summed;
- symbolic derivative calls: calls of expressions.differentiate, its own
  recursive calls included (0 in a tree without one: the symbolic
  differentiator is now the tests' oracle, tests/symbolic.py);
- dense scratch bytes: the bytes of the dense arrays geometry.Rows.dense,
  the one dense builder, builds from compact rows, summed over its calls
  (geometry._dense in a tree from before Rows);
- dense jet bytes: the bytes of every array with more than two axes that a
  jet plan hands out (geometry._JetPlan._run, whose outputs serve values(),
  gradients() and jets()), summed: a dense field Hessian or metric
  derivative, where a tree scatters one; a Rows has no axes of its own.

A closing summary line counts, over every seed, the moved leaves, the moved
`verdict`, `matched` and `expected` flags, and the largest relative move of
a constant: a scenario's `measured` values and each `constants` entry's
`measured` (inf for a constant that leaves 0).

The plan caches of geometry and the builder memo of constructions are
cleared before each run, so a run builds its plans, tapes and metrics as a
fresh `confprod` command does.  The jet programs are counted where the
tree builds them: in the `jet_program` property of geometry._JetPlan, the
plan's one program, or in `_JetPlan._program(order)` in a tree from
before that, which built a plan's value, gradient and jet programs apart.

Exit code 0 when every file is identical, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import functools
import io
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("catalog_2k", "dim_sweep")
CATALOG_SAMPLES = {"full": 200, "tiny": 20}
COUNTS = ("computed batches", "jet-tape rows", "tape registers", "kept batch bytes",
          "contraction products", "MetricSpec constructions", "field programs",
          "field tape passes", "symbolic programs", "symbolic table rows",
          "symbolic derivative calls", "dense scratch bytes", "dense jet bytes")
FLAGGED = ("verdict", "matched", "expected")
_CONSTANT = re.compile(r"^scenarios\[\d+\]\.(measured\.[^.]+|constants\[\d+\]\.measured)$")
_GENERATED_AT = re.compile(r'^\s*"generated_at": "[^"]*",\n', re.MULTILINE)


def _run_tree(tree: str, out: str, seed: int, size: str) -> None:
    """Child process: write every report and stdout of one tree under `out`."""
    sys.path[:0] = [str(Path(tree).resolve() / "src"), str(HERE / "perfbench")]
    import workloads
    from confprod import catalog, checkers, cli, constructions, expressions, geometry

    counts: dict = {}
    compute, jet_plan = geometry._compute_batch, geometry._JetPlan
    # a tree from before one program per plan builds each order's program
    # in _JetPlan._program
    per_order = hasattr(jet_plan, "_program")
    build = jet_plan._program if per_order else jet_plan.jet_program.func
    contraction, contract = geometry._contraction, geometry._contract
    # a tree from before Rows builds its dense arrays in geometry._dense
    dense_owner, dense_name = ((geometry.Rows, "dense") if hasattr(geometry, "Rows")
                               else (geometry, "_dense"))
    dense = getattr(dense_owner, dense_name)
    run = jet_plan._run
    slices = []    # per _contract call of the batch being computed: products x points
    tapes = []     # every Tape of the run
    post_init, tape_init = geometry.MetricSpec.__post_init__, expressions.Tape.__init__
    scope = catalog.evaluation_scope

    def counting(metric, pts):
        slices.clear()
        batch = compute(metric, pts)
        counts[name]["computed batches"] += 1
        counts[name]["contraction products"] += sum(slices) // max(1, len(pts))
        return batch

    def counting_products(built, table):
        slices.append(sum(len(step.a) for step in built.steps) * table.shape[1])
        return contract(built, table)

    def counting_dense(*args, **kwargs):
        built = dense(*args, **kwargs)
        counts[name]["dense scratch bytes"] += built.nbytes
        return built

    def counting_jets(plan, order, points):
        outs = run(plan, order, points)
        counts[name]["dense jet bytes"] += sum(out.nbytes for out in outs
                                               if getattr(out, "ndim", 0) > 2)
        return outs

    def counting_specs(spec):
        counts[name]["MetricSpec constructions"] += 1
        post_init(spec)

    def counting_tapes(tape, coords):
        tape_init(tape, coords)
        tapes.append(tape)

    def counting_programs(*key):
        misses = contraction.cache_info().misses
        built = contraction(*key)
        if contraction.cache_info().misses > misses:
            counts[name]["symbolic programs"] += 1
            counts[name]["symbolic table rows"] += built.rows
        return built

    counting_programs.cache_clear = contraction.cache_clear
    differentiate = getattr(expressions, "differentiate", None)

    def counting_derivatives(e, coord):
        counts[name]["symbolic derivative calls"] += 1
        return differentiate(e, coord)

    def counting_rows(plan, order=2):
        built = build(plan, order) if per_order else build(plan)
        if order == 2:
            counts[name]["jet-tape rows"] += len(built.keys)
        if plan.shape == ():
            counts[name]["field programs"] += 1
            fn = built.fn

            def counting_passes(points):
                counts[name]["field tape passes"] += 1
                return fn(points)

            built = built._replace(fn=counting_passes)
        return built

    @contextlib.contextmanager
    def measuring_scope():
        with scope() as kept:
            try:
                yield kept
            finally:
                # a batch's tensors are Rows, (rows, slots) tuples, in a tree that has them
                arrays = {id(a): a for batch in kept.values() for value in vars(batch).values()
                          for a in (value if isinstance(value, tuple) else (value,))}
                total = sum(a.nbytes for a in arrays.values())
                counts[name]["kept batch bytes"] = max(counts[name]["kept batch bytes"], total)

    for module in (expressions, geometry, checkers):
        if differentiate is not None and getattr(module, "differentiate", None) is differentiate:
            module.differentiate = counting_derivatives
    geometry._compute_batch = counting
    geometry._contraction = counting_programs
    geometry._contract = counting_products
    setattr(dense_owner, dense_name, counting_dense)
    jet_plan._run = counting_jets
    if per_order:
        jet_plan._program = counting_rows
    else:
        jet_plan.jet_program = functools.cached_property(counting_rows)
        jet_plan.jet_program.__set_name__(jet_plan, "jet_program")
    expressions.Tape.__init__ = counting_tapes
    geometry.MetricSpec.__post_init__ = counting_specs
    catalog.evaluation_scope = measuring_scope
    runs = {name: workloads.WORKLOADS[name](seed, size) for name in WORKLOADS}
    runs["catalog"] = None
    for name, checks in runs.items():
        workdir = Path(out) / "reports" / name
        workdir.mkdir(parents=True)
        counts[name] = dict.fromkeys(COUNTS, 0)
        for cached in [*vars(geometry).values(), *vars(constructions).values()]:
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            if checks is None:
                cli.main(["check", "--samples", str(CATALOG_SAMPLES[size]),
                          "--report", str(workdir / "report.json")])
            else:
                workloads.run_checks(checks, workdir)
        counts[name]["tape registers"] = sum(len(t.keys) - t.dim for t in tapes)
        tapes.clear()
        (workdir / "stdout.txt").write_text(printed.getvalue())
    (Path(out) / "counts.json").write_text(json.dumps(counts))


def py_lines(tree: str | Path, where: str) -> int:
    """Lines of the Python files under the tree's directory `where`."""
    return sum(p.read_bytes().count(b"\n") for p in (Path(tree) / where).rglob("*.py"))


def _deterministic(path: Path) -> list[str]:
    return _GENERATED_AT.sub("", path.read_text()).splitlines(keepends=True)


def _leaves(doc, path: str = ""):
    """(path, value) of every leaf of a JSON document, in document order."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for k, value in enumerate(doc):
            yield from _leaves(value, f"{path}[{k}]")
    else:
        yield path, doc


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def new_tally() -> dict:
    """The running totals of the summary line."""
    return {"leaves": 0, "flagged": 0, "constant": 0.0}


def summary(tally: dict) -> str:
    return (f"summary: {tally['leaves']} moved leaves, {tally['flagged']} "
            f"verdict/matched/expected moves, largest relative move of a constant "
            f"{tally['constant']:.3g}\n")


def leaf_changes(name, old_text: str, new_text: str, tally: dict | None = None) -> list[str]:
    """One line per leaf of two JSON reports that moved, `generated_at`
    excepted; each is also counted in `tally` when one is given."""
    old, new = dict(_leaves(json.loads(old_text))), dict(_leaves(json.loads(new_text)))
    tally = new_tally() if tally is None else tally
    out = []
    for path in {**old, **new}:
        a, b = old.get(path, "(none)"), new.get(path, "(none)")
        if path == "generated_at" or repr(a) == repr(b):    # repr tells -0.0 from 0.0
            continue
        tally["leaves"] += 1
        line = f"{name}: {path}: {a!r} -> {b!r}"
        if _number(a) and _number(b):
            change = b - a
            rel = abs(change) / abs(a) if a else math.inf
            line += f" (abs {change:.3g}, rel {rel:.3g})"
            if _CONSTANT.match(path):
                tally["constant"] = max(tally["constant"], rel)
        if path.rsplit(".", 1)[-1] in FLAGGED:
            tally["flagged"] += 1
            line = "MOVED " + line
        out.append(line + "\n")
    return out


def diff_trees(old: Path, new: Path, tally: dict | None = None) -> list[str]:
    """Every moved leaf of each report that differs (a unified diff when no
    leaf moved), a unified diff of every other file that differs, and each
    file on one side only; moved leaves are counted in `tally` when given."""
    names = sorted({p.relative_to(root) for root in (old, new)
                    for p in root.rglob("*") if p.is_file()})
    out = []
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            out.append(f"only in {old if a.is_file() else new}: {name}\n")
        elif _deterministic(a) != _deterministic(b):
            moved = (leaf_changes(name, a.read_text(), b.read_text(), tally)
                     if name.suffix == ".json" else [])
            out += moved or list(difflib.unified_diff(_deterministic(a), _deterministic(b),
                                                      str(a), str(b), n=1))[:40]
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

    print(", ".join(f"{where}/ lines: {py_lines(args.old, where)} -> {py_lines(args.new, where)}"
                    for where in ("src", "tests")))
    differing, tally = 0, new_tally()
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
            lines = diff_trees(*(out / "reports" for out in outs), tally)
            files = sum(1 for p in (outs[0] / "reports").rglob("*") if p.is_file())
            print(f"seed {seed}: {files} files, {'identical' if not lines else 'DIFFERENT'}")
            for name in counts[0]:
                print(f"  {name}: " + ", ".join(
                    f"{what} {counts[0][name][what]} -> {counts[1][name][what]}" for what in COUNTS))
            sys.stdout.writelines(lines)
            differing += bool(lines)
    print(summary(tally), end="")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
