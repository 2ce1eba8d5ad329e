"""tools/compare_reports.py: reports compared byte for byte, the timestamp
excepted, with each tree's src/ lines, computed batches, jet-tape rows, kept
batch bytes, contraction products, MetricSpec constructions, field jet
passes, symbolic programs and their table rows counted."""

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
    assert any("1.0000000000000002" in line for line in compare_reports.diff_trees(old, new))

    (new / "w" / "stdout.txt").write_text("PASS\n")
    assert any("only in" in line for line in compare_reports.diff_trees(old, new))


def test_a_tree_matches_itself(capsys):
    code = compare_reports.main([str(ROOT), str(ROOT), "--size", "tiny"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "identical" in out and "catalog_2k: computed batches" in out
    lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert out.startswith(f"src/ lines: {lines} -> {lines}\n")
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
    # kept bytes, 16 MetricSpecs, and 4 programs with 112 table rows
    assert ("dim_sweep: computed batches 7 -> 7, jet-tape rows 72 -> 72, "
            "kept batch bytes 11768 -> 11768, contraction products 248 -> 248, "
            "MetricSpec constructions 8 -> 8, field jet passes 14 -> 14, "
            "symbolic programs 6 -> 6, symbolic table rows 136 -> 136") in out
