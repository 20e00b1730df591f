"""Shared fixtures: quick series builders and the synthetic demo sector."""

from datetime import date, timedelta

import numpy as np
import pytest

from pairtrader.marketdata import AlignedPanel
from pairtrader.synthetic import write_sector


def make_series(ticker, closes, start=date(2021, 1, 1)):
    """One-ticker panel on consecutive calendar days starting at ``start``."""
    dates = tuple(start + timedelta(days=i) for i in range(len(closes)))
    return AlignedPanel(tickers=(ticker,), dates=dates,
                        closes=np.asarray(closes, dtype=float)[:, np.newaxis])


def make_pair(close1, close2, start=date(2021, 1, 1)):
    """Two-ticker pair panel ("A", "B") on consecutive calendar days."""
    dates = tuple(start + timedelta(days=i) for i in range(len(close1)))
    return AlignedPanel(tickers=("A", "B"), dates=dates,
                        closes=np.column_stack([close1, close2]))


@pytest.fixture(scope="session")
def synth_dir(tmp_path_factory):
    """Synthetic ten-ticker sector with one engineered cointegrated pair."""
    out = tmp_path_factory.mktemp("synth")
    write_sector(out)
    return out
