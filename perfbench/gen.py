"""Seeded input generator for the benchmark workloads.

Each ticker is a geometric random walk rounded to cents on a weekday
calendar, except the engineered pairs: the second leg is a multiple of the
first plus an AR(1) spread, so the pair is cointegrated by construction.
Tickers skip a few dates of a shared holiday pool, and some of those rows
carry NA or unparseable cells instead, so the loader's dropped-row path and
the panel inner join both run.  The engineered pairs are written out as
ground truth.

In a "separated" sector every non-engineered pair is drawn until the
Engle-Granger statistic of its regression residual, computed on the rows
the scan will see, sits well clear of the selection region.  That keeps the
number of selected pairs, and so the number of commands in a pass, the same
for every seed.  This generator shares no code with the package under test.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

CALENDAR_START = date(2001, 1, 1)
CAPITAL_PER_LEG = "100000"

#: Residual t-ratio every non-engineered pair of a separated sector stays
#: above.  The two-series Engle-Granger statistic is about -3.2 at p = 0.07
#: (0.05 plus the default near-miss margin) and about -3.9 at p = 0.01.
TAU_CLEAR = -2.8

#: Replacement cells for a holiday row that is kept but cannot be parsed.
BAD_CELLS = (("close", "NA"), ("close", ""), ("close", "null"), ("close", "n/a"),
             ("close", "#N/A"), ("date", "not-a-date"))


@dataclass(frozen=True)
class SectorShape:
    """A sector of ``n_tickers`` holding ``n_pairs`` engineered pairs."""

    name: str
    n_tickers: int
    n_pairs: int


@dataclass(frozen=True)
class WorkloadShape:
    sectors: tuple[SectorShape, ...]
    train_days: int
    test_days: int
    threshold: float
    near_eps: float
    #: No non-engineered pair comes near selection (see TAU_CLEAR).
    separated: bool
    #: Pair commands run on this many of the lowest-p pairs, or on all (None).
    pair_limit: int | None
    #: The pass ends with the cross-sector report.
    report: bool
    #: Add a sector with a second share class for the fault probe.
    probe: bool


WORKLOADS = {
    "sector_scan_wide": WorkloadShape(
        sectors=(SectorShape("wide", 100, 3),), train_days=750, test_days=250,
        threshold=0.05, near_eps=0.02, separated=False, pair_limit=2, report=False,
        probe=False,
    ),
    "paper_reproduction": WorkloadShape(
        sectors=(SectorShape("energy", 8, 1), SectorShape("metals", 9, 1),
                 SectorShape("tech", 10, 1)),
        train_days=783, test_days=261,
        threshold=0.05, near_eps=0.02, separated=True, pair_limit=None, report=True,
        probe=True,
    ),
    "long_history": WorkloadShape(
        sectors=(SectorShape("history", 20, 2),), train_days=3750, test_days=1250,
        threshold=0.01, near_eps=0.0, separated=True, pair_limit=None, report=True,
        probe=False,
    ),
}


def weekdays(start: date, count: int) -> list[date]:
    days = []
    day = start
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day)
        day += timedelta(days=1)
    return days


def _walk(rng: np.random.Generator, n: int) -> np.ndarray:
    """Cent-rounded geometric random walk that stays above one dollar."""
    while True:
        steps = rng.normal(0.0, rng.uniform(0.01, 0.025), size=n)
        steps[0] = 0.0
        path = np.round(rng.uniform(20.0, 300.0) * np.exp(np.cumsum(steps)), 2)
        if path.min() >= 1.0:
            return path


def _cointegrated_leg(rng: np.random.Generator, lead: np.ndarray) -> np.ndarray | None:
    """``beta * lead`` plus an AR(1) spread, or None if it dips below a dollar."""
    n = lead.size
    beta = rng.uniform(0.5, 2.0)
    shocks = rng.normal(0.0, 0.01 * beta * lead[0], size=n)
    spread = np.empty(n)
    spread[0] = shocks[0]
    for t in range(1, n):
        spread[t] = 0.5 * spread[t - 1] + shocks[t]
    leg = np.round(beta * lead + spread, 2)
    return leg if leg.min() >= 1.0 else None


def _adf_tau(u: np.ndarray, lags: int | None) -> float:
    """ADF t-ratio of ``u`` without deterministic terms.

    ``lags=None`` picks the lag order by AIC over 0..floor(12 (n/100)^0.25)
    on a common sample and refits it on its own longest sample.
    """
    du = np.diff(u)

    def design(k: int) -> tuple[np.ndarray, np.ndarray]:
        cols = [u[k:-1]] + [du[k - i:du.size - i] for i in range(1, k + 1)]
        return np.column_stack(cols), du[k:]

    if lags is None:
        max_lag = int(12 * (u.size / 100) ** 0.25)
        X, y = design(max_lag)
        q, _ = np.linalg.qr(X)
        ssr = y @ y - np.cumsum((q.T @ y) ** 2)
        aic = y.size * np.log(ssr / y.size) + 2 * np.arange(1, max_lag + 2)
        lags = int(np.argmin(aic))
    X, y = design(lags)
    coef, ssr, _, _ = np.linalg.lstsq(X, y, rcond=None)
    sigma2 = float(ssr[0]) / (y.size - X.shape[1])
    return float(coef[0] / np.sqrt(sigma2 * np.linalg.inv(X.T @ X)[0, 0]))


def residual_tau(a: np.ndarray, b: np.ndarray, lags: int | None) -> float:
    """Engle-Granger t-ratio: ADF on the residual of the lower-mean leg on the other."""
    x, y = (a, b) if a.mean() >= b.mean() else (b, a)
    dx = x - x.mean()
    return _adf_tau(y - y.mean() - (dx @ (y - y.mean())) / (dx @ dx) * dx, lags)


def _clear_of(path: np.ndarray, others: list[np.ndarray], fit: np.ndarray) -> bool:
    """True when no pair of ``path`` with another looks cointegrated on the ``fit`` rows.

    A one-lag statistic rejects most draws cheaply; survivors are checked
    again with the lag order chosen by AIC, as the scan chooses it.
    """
    x = path[fit]
    fits = [other[fit] for other in others]
    return (all(residual_tau(x, f, 1) > TAU_CLEAR for f in fits)
            and all(residual_tau(x, f, None) > TAU_CLEAR for f in fits))


def build_sector(
    rng: np.random.Generator, names: list[str], n_pairs: int, n_days: int,
    fit: np.ndarray | None,
) -> tuple[dict[str, np.ndarray], list[tuple[str, str]]]:
    """Price paths by ticker and the engineered (lead, follower) pairs.

    With ``fit`` given, the sector is separated on those rows.
    """
    paths: dict[str, np.ndarray] = {}
    pairs: list[tuple[str, str]] = []
    for k in range(n_pairs):
        lead_name, follow_name = names[2 * k], names[2 * k + 1]
        while True:
            lead = _walk(rng, n_days)
            follow = _cointegrated_leg(rng, lead)
            if follow is None:
                continue
            others = list(paths.values())
            if fit is None or (_clear_of(lead, others, fit) and _clear_of(follow, others, fit)):
                break
        paths[lead_name], paths[follow_name] = lead, follow
        pairs.append((lead_name, follow_name))
    for name in names[2 * n_pairs:]:
        while True:
            path = _walk(rng, n_days)
            if fit is None or _clear_of(path, list(paths.values()), fit):
                break
        paths[name] = path
    return paths, pairs


def _spoils(rng: np.random.Generator, holidays: np.ndarray) -> dict[int, tuple[str, str] | None]:
    """Holiday rows one ticker omits (None) or writes with a bad cell."""
    spoiled: dict[int, tuple[str, str] | None] = {}
    for i in holidays:
        roll = rng.random()
        if roll < 0.35:
            spoiled[int(i)] = None
        elif roll < 0.5:
            spoiled[int(i)] = BAD_CELLS[rng.integers(len(BAD_CELLS))]
    return spoiled


def _ticker_rows(calendar: list[date], closes: np.ndarray,
                 spoiled: dict[int, tuple[str, str] | None]) -> list[list[str]]:
    rows = []
    for i, (day, close) in enumerate(zip(calendar, closes)):
        cells = [day.isoformat(), f"{close:.2f}"]
        if i in spoiled:
            bad = spoiled[i]
            if bad is None:
                continue
            cells[0 if bad[0] == "date" else 1] = bad[1]
        rows.append(cells)
    return rows


def _write_csv(path: Path, rows: list[list[str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["Date", "Close"])
        writer.writerows(rows)


def _doubled(rows: list[list[str]]) -> list[list[str]]:
    """A second share class: every parseable close doubled, in cents."""
    out = []
    for day, close in rows:
        try:
            cents = round(float(close) * 100)
        except ValueError:
            out.append([day, close])
            continue
        out.append([day, f"{2 * cents / 100:.2f}"])
    return out


def _config(sectors: dict[str, list[str]], calendar: list[date], shape: WorkloadShape,
            out_dir: str) -> dict:
    return {
        "sectors": {
            name: [{"ticker": t, "csv": f"data/{t}.csv"} for t in tickers]
            for name, tickers in sectors.items()
        },
        "train_window": [calendar[0].isoformat(), calendar[shape.train_days - 1].isoformat()],
        "test_window": [calendar[shape.train_days].isoformat(), calendar[-1].isoformat()],
        "coint_threshold": shape.threshold,
        "near_eps": shape.near_eps,
        "capital_per_leg": CAPITAL_PER_LEG,
        "out_dir": out_dir,
    }


@dataclass(frozen=True)
class Inputs:
    config: Path
    probe_config: Path | None
    probe_sector: str | None
    sectors: dict[str, list[str]]
    engineered: dict[str, list[tuple[str, str]]]
    out_dir: Path


def write_inputs(workload: str, seed: int, root: Path) -> Inputs:
    """Write CSVs, configs and ground truth for one workload under ``root``."""
    shape = WORKLOADS[workload]
    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    n_days = shape.train_days + shape.test_days
    calendar = weekdays(CALENDAR_START, n_days)
    pool = max(2, n_days // 150)
    holidays = rng.choice(np.arange(5, n_days - 5), size=pool, replace=False)

    data = root / "data"
    data.mkdir(parents=True, exist_ok=True)
    sectors: dict[str, list[str]] = {}
    engineered: dict[str, list[tuple[str, str]]] = {}
    first_rows: tuple[str, list[list[str]]] | None = None
    for sector in shape.sectors:
        names = [f"{sector.name[:2].upper()}{i:03d}" for i in range(sector.n_tickers)]
        spoils = [_spoils(rng, holidays) for _ in names]
        # The scan sees the training rows that no ticker of the sector lost.
        lost = {i for spoiled in spoils for i in spoiled}
        fit = np.array([i for i in range(shape.train_days) if i not in lost])
        paths, pairs = build_sector(rng, names, sector.n_pairs, n_days,
                                    fit if shape.separated else None)
        sectors[sector.name] = names
        engineered[sector.name] = pairs
        for ticker, spoiled in zip(names, spoils):
            rows = _ticker_rows(calendar, paths[ticker], spoiled)
            _write_csv(data / f"{ticker}.csv", rows)
            if first_rows is None:
                first_rows = (ticker, rows)

    config = root / "config.json"
    config.write_text(json.dumps(_config(sectors, calendar, shape, "out"), indent=2) + "\n",
                      encoding="utf-8")
    (root / "ground_truth.json").write_text(
        json.dumps({"engineered_pairs": engineered}, indent=2) + "\n", encoding="utf-8")

    probe_config = probe_sector = None
    if shape.probe:
        base, rows = first_rows
        twin = f"{base}B"
        _write_csv(data / f"{twin}.csv", _doubled(rows))
        probe_sector = "probe"
        probe = {probe_sector: sectors[shape.sectors[0].name] + [twin]}
        probe_config = root / "probe_config.json"
        probe_config.write_text(
            json.dumps(_config(probe, calendar, shape, "probe_out"), indent=2) + "\n",
            encoding="utf-8")
    return Inputs(config=config, probe_config=probe_config, probe_sector=probe_sector,
                  sectors=sectors, engineered=engineered, out_dir=root / "out")
