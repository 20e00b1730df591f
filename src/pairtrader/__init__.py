"""Cointegration-based pair-trading toolkit.

Pipeline stages: load and align daily closes (``marketdata``), screen
correlations and fit the no-intercept hedge model (``econometrics``), test
for unit roots and cointegration (``unitroot``), scan and select pairs
(``pairscan``), build z-score band signals (``signalgen``), and account the
two-leg portfolio (``backtest``).  The ``cli`` module ties the stages into
the scan / analyze / backtest / report commands.
"""

from .backtest import (
    BacktestLedger,
    PairSummary,
    SectorReport,
    annual_return_pct,
    run_ledger,
    sector_report,
    size_shares,
    summarize_pair,
)
from .econometrics import (
    CorrelationMatrix,
    OlsOriginReport,
    correlation_matrix,
    durbin_watson,
    jarque_bera,
    ols_through_origin,
    omnibus_k2,
)
from .marketdata import (
    AlignedPanel,
    align_panel,
    load_csv,
    slice_window,
)
from .pairscan import (
    PairModel,
    PValueMatrix,
    SelectedPair,
    coint_matrix,
    fit_pair,
    order_pair,
    select_pairs,
)
from .signalgen import (
    RatioStats,
    TradingFrame,
    Trigger,
    build_trading_frame,
    extract_triggers,
    fit_ratio_stats,
    gen_positions,
    gen_signals,
)
from .unitroot import (
    AdfResult,
    MacKinnonTables,
    adf_test,
    engle_granger,
    mackinnon_crit,
    mackinnon_pvalue,
)

__version__ = "0.1.0"

__all__ = [
    "AdfResult",
    "AlignedPanel",
    "BacktestLedger",
    "CorrelationMatrix",
    "MacKinnonTables",
    "OlsOriginReport",
    "PValueMatrix",
    "PairModel",
    "PairSummary",
    "RatioStats",
    "SectorReport",
    "SelectedPair",
    "TradingFrame",
    "Trigger",
    "adf_test",
    "align_panel",
    "annual_return_pct",
    "build_trading_frame",
    "coint_matrix",
    "correlation_matrix",
    "durbin_watson",
    "engle_granger",
    "extract_triggers",
    "fit_pair",
    "fit_ratio_stats",
    "gen_positions",
    "gen_signals",
    "jarque_bera",
    "load_csv",
    "mackinnon_crit",
    "mackinnon_pvalue",
    "ols_through_origin",
    "omnibus_k2",
    "order_pair",
    "run_ledger",
    "sector_report",
    "select_pairs",
    "size_shares",
    "slice_window",
    "summarize_pair",
]
