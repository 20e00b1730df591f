"""The demo, fallback-case and benchmark artifacts still have their golden bytes.

Every other byte check compares two runs of one checkout.  This one compares
a fresh in-process run against the digests committed in
``tests/golden_digests.json`` (see ``tests/golden.py``), so a drift that
reaches every run at once, such as a numpy upgrade that reorders a sum,
fails here.  A change that moves bytes on purpose rewrites the file with
``python tests/golden.py --write`` and says which bytes moved and why.
"""

import json

import golden
from pairtrader.cli import OUT_DIR_ENV


def test_artifacts_match_the_golden_digests(tmp_path, monkeypatch):
    monkeypatch.delenv(OUT_DIR_ENV, raising=False)
    expected = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    found = golden.problems(expected, golden.regenerate(tmp_path))
    assert not found, "\n".join(found)


def test_problems_name_drifted_inputs_and_changed_outputs():
    expected = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    actual = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    assert golden.problems(expected, actual) == []
    actual["demo"]["inputs"]["data/AMBER.csv"] = "0" * 64
    actual["demo"]["outputs"]["metals/scan/pvalue_matrix.csv"] = "0" * 64
    del actual["demo"]["outputs"]["report/summary.csv"]
    wide = actual["perfbench"]["sector_scan_wide"]
    wide["inputs"] = "0" * 64
    wide["outputs"]["wide/scan/selected_pairs.json"] = "0" * 64
    wide["artifact_tree_sha256"] = "0" * 64
    actual["fallback_cases"] = "0" * 64
    assert golden.problems(expected, actual) == [
        "generator drift: pairtrader.synthetic wrote other demo inputs: data/AMBER.csv (changed)",
        "demo outputs differ: metals/scan/pvalue_matrix.csv (changed), "
        "report/summary.csv (missing)",
        "tests/fallback_cases.py printed other lag orders, taus or faults",
        "generator drift: perfbench/gen.py wrote other inputs for sector_scan_wide seed 1",
        "perfbench sector_scan_wide seed 1 outputs differ (artifact_tree_sha256 000000000000..., "
        f"golden {expected['perfbench']['sector_scan_wide']['artifact_tree_sha256'][:12]}...): "
        "wide/scan/selected_pairs.json (changed)",
    ]
