"""The benchmark's trace targets still name callables of the package.

``perfbench/tracelaunch.py`` wraps pipeline functions by module and attribute
name and records a renamed one as absent instead of failing.  This test
resolves every target, so a rename fails here at once.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
