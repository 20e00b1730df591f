"""Shared fixtures: quick series builders and the synthetic demo sector."""

import csv
import io
import os
import warnings
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from pairtrader.marketdata import AlignedPanel
from pairtrader.signalgen import TradingFrame
from pairtrader.synthetic import write_sector

# Hypothesis imports its failure reporter, and with it libcst, when an
# example first fails, and libcst's import of mypy_extensions warns.  Under a
# test's filterwarnings("error") mark that warning escaped pytest's report
# hook: the run ended in INTERNALERROR, exit 3, with no failure named.  The
# reporter is imported once here with that one warning silenced, so each
# "error" filter still applies to the code under test.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: Hypothesis then reports without it
        pass

# ``pytest --hypothesis-profile=deep``: 20 times the default 100 examples for
# the tests that take their count from the profile, such as the loader's
# long-file property in test_marketdata.py and the power-of-two scale
# property in test_unitroot.py, which a CI step reruns under it.
settings.register_profile("deep", max_examples=2000)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def blas_env(**values):
    """This process's environment without either BLAS thread variable, plus ``values``.

    ``PYTHONPATH`` points at the source tree, so a child imports this checkout.
    """
    env = {key: value for key, value in os.environ.items() if key not in BLAS_VARS}
    return dict(env, PYTHONPATH=str(SRC_DIR), **values)


def assert_no_child_left():
    """Fail if this process has a child, running or unreaped: asked of the OS itself."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def tree_bytes(root):
    """Every file under ``root``, by relative POSIX path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# Distribution-tail checks: statistics from 0 through subnormal, ordinary and
# huge values, and degrees of freedom up to the longest regressions the
# package fits.
TAIL_STATS = (0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.96, 3.5, 40.0, 1e4, 1e150, 1.7e308)
TAIL_DFS = (1, 4, 19, 99, 782, 3749)


def make_series(ticker, closes, start=date(2021, 1, 1)):
    """One-ticker panel on consecutive calendar days starting at ``start``."""
    dates = tuple(start + timedelta(days=i) for i in range(len(closes)))
    return AlignedPanel(tickers=(ticker,), dates=dates,
                        closes=np.asarray(closes, dtype=float)[np.newaxis])


def row_means(panel):
    """Each ticker's mean over its row of ``panel``, as ``coint_matrix`` keys.

    These are the tickers' ``training_mean``s when each has exactly the
    panel's dates in the training window, as in the synthetic sectors here.
    """
    return [float(np.mean(row)) for row in panel.closes]


def make_pair(close1, close2, start=date(2021, 1, 1)):
    """Two-ticker pair panel ("A", "B") on consecutive calendar days."""
    dates = tuple(start + timedelta(days=i) for i in range(len(close1)))
    return AlignedPanel(tickers=("A", "B"), dates=dates,
                        closes=np.vstack([close1, close2]))


def read_frame_csv(data, ticker1, ticker2):
    """A ``trading_frame.csv`` artifact's bytes as the frame its columns describe, and its rows.

    The frame is rebuilt from the date, close, z-score and band columns only;
    the file's signal and position columns stay in the raw rows, for
    comparison with the ones the frame derives.
    """
    rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"), newline="")))
    frame = TradingFrame(
        pair=AlignedPanel(
            tickers=(ticker1, ticker2),
            dates=tuple(date.fromisoformat(r["date"]) for r in rows),
            closes=[[float(r[asset]) for r in rows] for asset in ("asset1", "asset2")],
        ),
        zscore=[float(r["z_score"]) for r in rows],
        upper_limit=float(rows[0]["upper_limit"]),
        lower_limit=float(rows[0]["lower_limit"]),
    )
    return frame, rows


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    """Synthetic ten-ticker sector with one engineered cointegrated pair."""
    out = tmp_path_factory.mktemp("synth")
    write_sector(out)
    return out
