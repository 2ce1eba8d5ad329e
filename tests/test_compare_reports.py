"""tools/compare_reports.py: reports compared byte for byte, the timestamp
excepted, with each tree's computed batches, jet-tape rows and kept batch
bytes counted."""

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
    # each jet tape holds each distinct expression once; one row per slot,
    # as before the tapes were deduplicated, gave 115 rows here; the kept
    # batches held 24 816 bytes with dense g, ginv and ricci
    assert ("dim_sweep: computed batches 7 -> 7, jet-tape rows 64 -> 64, "
            "kept batch bytes 11832 -> 11832") in out
