"""The benchmark's trace targets still name callables of the package.

``perfbench/tracelaunch.py`` wraps pipeline functions by module and attribute
name and records a renamed one as absent instead of failing, and so does a
counting hook that no longer fits the result it reads.  These tests resolve
every target and run the traced demo commands, so either fails here at once.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import golden
from conftest import blas_env

TRACELAUNCH = Path(__file__).resolve().parents[1] / "perfbench" / "tracelaunch.py"


def load_tracelaunch():
    spec = importlib.util.spec_from_file_location("perfbench_tracelaunch", TRACELAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = [(module, attr) for module, attr, _, _ in load_tracelaunch().TARGETS]


@pytest.mark.parametrize("module_name,attr", TARGETS + [("pairtrader.cli", "staged_dir")],
                         ids=lambda value: value)
def test_trace_target_resolves_to_a_callable(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


def test_trace_hooks_count_the_demo_commands(synth_dir, tmp_path):
    counts = {}
    for argv in golden.DEMO_COMMANDS:
        spans = tmp_path / f"{argv[0]}.jsonl"
        subprocess.run([sys.executable, str(TRACELAUNCH), str(spans), "--", *argv,
                        "--config", str(synth_dir / "config.json"), "--out", str(tmp_path / "out")],
                       env=blas_env(), capture_output=True, check=True)
        summary = json.loads(spans.read_text(encoding="utf-8").splitlines()[-1])["summary"]
        assert (summary["exit"], summary["absent"]) == (0, []), argv
        for key, value in summary["counts"].items():
            counts[key] = counts.get(key, 0) + value
    assert counts["pairscan.pairs_tested"] == 45
    assert {"marketdata.rows_parsed", "pairscan.pairs_selected", "signalgen.frame_rows",
            "backtest.ledger_rows", "svgchart.points", "cli.write_files"} <= counts.keys()
