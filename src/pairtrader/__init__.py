"""Cointegration-based pair-trading toolkit.

Pipeline stages: load and align daily closes (``marketdata``), screen
correlations and fit the no-intercept hedge model (``econometrics``), test
for unit roots and cointegration (``unitroot``), scan and select pairs
(``pairscan``), build z-score band signals (``signalgen``), and account the
two-leg portfolio (``backtest``).  The ``cli`` module ties the stages into
the scan / analyze / backtest / report commands.  The submodules are the
API: import names from them, not from the package.
"""

__version__ = "0.1.0"
