"""tools/compare_reports.py: reports compared byte for byte, the timestamp
excepted, each moved leaf of a report listed, with each tree's src/ and
tests/ lines, computed batches, jet-tape rows, tape registers, kept batch
bytes, contraction products, MetricSpec constructions, field programs,
field tape passes, symbolic programs, their table rows, symbolic derivative
calls, dense scratch bytes and dense jet bytes counted, and a closing summary
of the moves."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_reports",
                                               ROOT / "tools" / "compare_reports.py")
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)


def _report(path: Path, stamp: str, value: float) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"generated_at": stamp, "scenarios": [{"measured": {"a": value}}]}
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def test_diff_ignores_only_the_timestamp(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    _report(old / "w" / "report.json", "2026-01-01", 1.0)
    _report(new / "w" / "report.json", "2026-02-02", 1.0)
    assert compare_reports.diff_trees(old, new) == []

    _report(new / "w" / "report.json", "2026-02-02", 1.0000000000000002)
    assert compare_reports.diff_trees(old, new) == [
        "w/report.json: scenarios[0].measured.a: 1.0 -> 1.0000000000000002 "
        "(abs 2.22e-16, rel 2.22e-16)\n"]

    # a zero's sign, and a layout with every leaf in place, are differences too
    _report(new / "w" / "report.json", "2026-02-02", -0.0)
    _report(old / "w" / "report.json", "2026-01-01", 0.0)
    assert compare_reports.diff_trees(old, new) == [
        "w/report.json: scenarios[0].measured.a: 0.0 -> -0.0 (abs -0, rel inf)\n"]
    doc = {"generated_at": "2026-02-02", "scenarios": [{"measured": {"a": 0.0}}]}
    (new / "w" / "report.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    assert any(line.startswith("+ ") for line in compare_reports.diff_trees(old, new))

    (new / "w" / "stdout.txt").write_text("PASS\n")
    assert any("only in" in line for line in compare_reports.diff_trees(old, new))


def test_a_tree_matches_itself(capsys):
    code = compare_reports.main([str(ROOT), str(ROOT), "--size", "tiny"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "identical" in out and "catalog_2k: computed batches" in out
    src, tests = (sum(len(p.read_text().splitlines()) for p in (ROOT / where).rglob("*.py"))
                  for where in ("src", "tests"))
    assert out.startswith(f"src/ lines: {src} -> {src}, tests/ lines: {tests} -> {tests}\n")
    # each jet tape holds each distinct expression once; one row per slot,
    # as before the tapes were deduplicated, gave 115 rows here; the kept
    # batches held 24 816 bytes with dense g, ginv and ricci; with each check
    # rebuilding its product and running one jet pass per field helper, the
    # run made 30 MetricSpecs and 26 field jet passes; one table row per
    # slot formed 404 contraction products; with constants written beside
    # the tapes, they held 64 rows; while batches were computed per product
    # factor, each factor of a split metric was a MetricSpec with a tape of
    # its own, factors of different metrics shared programs, and each
    # metric's batches had slot arrays of their own: 77 tape rows, 11 832
    # kept bytes, 16 MetricSpecs, and 4 programs with 112 table rows; while
    # the tapes held derivative expressions, a derivative that folded to
    # -0.0 had a row of its own: 72 rows; with a tape of its own per jet
    # program, the run created 306 tape registers, and with no field rows
    # kept by the scope every gradient or jet request ran its program: 14
    # field jet passes; while batches scattered a dense g for the
    # positive-definite test and dense g^-1 and Ricci for the scalar, and the
    # field traces a dense g^-1, the run built 66 560 dense scratch bytes, and
    # 23 040 while the checks scattered dense g and Ricci from the rows to form
    # their residuals; a passing run now builds none.  While a plan built a
    # value, a gradient and a jet program apart, only the jet programs' 71
    # rows were counted, the fields had 14 programs, and their 14 tape passes
    # counted 5 gradient or jet passes ("field jet passes"); every plan's one
    # program is now its jets.  While a field's Hessian was scattered dense,
    # the run's jet plans handed out 20 480 dense jet bytes here; a Hessian
    # is now Rows
    assert ("dim_sweep: computed batches 7 -> 7, jet-tape rows 85 -> 85, "
            "tape registers 183 -> 183, "
            "kept batch bytes 11768 -> 11768, contraction products 248 -> 248, "
            "MetricSpec constructions 8 -> 8, field programs 9 -> 9, "
            "field tape passes 9 -> 9, "
            "symbolic programs 6 -> 6, symbolic table rows 136 -> 136, "
            "symbolic derivative calls 0 -> 0, dense scratch bytes 0 -> 0, "
            "dense jet bytes 0 -> 0") in out
    assert out.endswith("summary: 0 moved leaves, 0 verdict/matched/expected moves, "
                        "largest relative move of a constant 0\n")


def test_moved_leaves_are_listed_and_verdicts_flagged():
    old = {"generated_at": "a", "s": [{"verdict": "pass", "sup": 2.0, "n": 3, "ok": True}]}
    new = {"generated_at": "b", "s": [{"verdict": "fail", "sup": 3.0, "n": 3, "ok": 1,
                                       "extra": None}]}
    tally = compare_reports.new_tally()
    assert compare_reports.leaf_changes("r.json", json.dumps(old), json.dumps(new), tally) == [
        "MOVED r.json: s[0].verdict: 'pass' -> 'fail'\n",
        "r.json: s[0].sup: 2.0 -> 3.0 (abs 1, rel 0.5)\n",
        "r.json: s[0].ok: True -> 1\n",
        "r.json: s[0].extra: '(none)' -> None\n",
    ]
    # a sup is not a constant
    assert compare_reports.summary(tally) == (
        "summary: 4 moved leaves, 1 verdict/matched/expected moves, "
        "largest relative move of a constant 0\n")


def test_summary_takes_the_largest_move_of_a_measured_constant():
    old = {"scenarios": [{"measured": {"a1": 2.0, "b1": 0.0}, "matched": True,
                          "constants": [{"measured": 4.0, "delta": 1e-16}]}]}
    new = {"scenarios": [{"measured": {"a1": 2.0 + 4e-15, "b1": 0.0}, "matched": False,
                          "constants": [{"measured": 4.0 + 4e-15, "delta": 3e-16}]}]}
    tally = compare_reports.new_tally()
    compare_reports.leaf_changes("r.json", json.dumps(old), json.dumps(new), tally)
    # a1 moved the most; the delta's relative move, 2, is not a constant's
    assert tally == {"leaves": 4, "flagged": 1, "constant": ((2.0 + 4e-15) - 2.0) / 2.0}
    new["scenarios"][0]["measured"]["b1"] = 1e-17
    compare_reports.leaf_changes("r.json", json.dumps(old), json.dumps(new), tally)
    assert tally["constant"] == float("inf")
