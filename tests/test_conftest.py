"""The shared test setup: a failing Hypothesis example is reported, not an internal error."""

import shutil
import subprocess
import sys
from pathlib import Path

from conftest import blas_env

FAILING_PROPERTY = """
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


@pytest.mark.filterwarnings("error")
@settings(database=None, derandomize=True)
@given(st.integers())
def test_small(x):
    assert x < 5
"""


def test_failing_hypothesis_example_under_error_filter_is_reported(tmp_path):
    # Hypothesis's failure reporter imports libcst, whose import warns; under
    # the "error" mark this once ended the run in INTERNALERROR, exit 3.
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY)
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "test_property.py"], cwd=tmp_path, env=blas_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "FAILED test_property.py::test_small" in done.stdout
