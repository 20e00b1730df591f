"""Output checks run after every pass; none of them is timed.

Each check returns a list of problems, empty when the check holds.
"""

from __future__ import annotations

import csv
import hashlib
import json
from decimal import Decimal
from pathlib import Path


def tree_sha256(root: Path) -> str:
    """Digest of every file's relative path and bytes under ``root``."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def selected_pairs(scan_dir: Path) -> list[dict]:
    return json.loads((scan_dir / "selected_pairs.json").read_text(encoding="utf-8"))["pairs"]


def pairs_tested(scan_dir: Path) -> int:
    return len(json.loads((scan_dir / "pvalue_matrix.json").read_text(encoding="utf-8"))["pairs"])


def engineered_selected(scan_dir: Path, engineered: list[tuple[str, str]],
                        threshold: float) -> list[str]:
    """Every engineered pair is selected with a p-value below the threshold."""
    below = {frozenset((p["predictor_ticker"], p["target_ticker"]))
             for p in selected_pairs(scan_dir) if p["coint_p"] < threshold}
    return [f"{scan_dir}: engineered pair {a},{b} not selected below {threshold}"
            for a, b in engineered if frozenset((a, b)) not in below]


def ledger_identity(backtest_dir: Path) -> list[str]:
    """``total = cash1 + cash2 + holdings1 + holdings2`` on every ledger row."""
    bad = []
    with open(backtest_dir / "ledger.csv", newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            parts = sum(Decimal(row[k]) for k in ("cash1", "cash2", "holdings1", "holdings2"))
            if parts != Decimal(row["total"]):
                bad.append(f"total {row['total']} != {parts} on {row['date']}")
    if bad:
        return [f"{backtest_dir}: {len(bad)} ledger rows break the identity, first: {bad[0]}"]
    return []


def profit_matches(backtest_dir: Path, capital: Decimal) -> list[str]:
    """``profit`` equals the final ledger total minus both legs' capital."""
    summary = json.loads((backtest_dir / "summary.json").read_text(encoding="utf-8"))
    with open(backtest_dir / "ledger.csv", newline="", encoding="utf-8") as handle:
        final = Decimal(list(csv.DictReader(handle))[-1]["total"])
    if Decimal(summary["profit"]) != final - 2 * capital:
        return [f"{backtest_dir}: profit {summary['profit']} != {final} - 2 * {capital}"]
    return []


def report_counts(report_dir: Path, backtests: dict[str, int]) -> list[str]:
    """Per-sector and cross-sector pair counts equal the backtests run."""
    problems = []
    for sector, expected in sorted(backtests.items()):
        data = json.loads((report_dir / f"sector_{sector}.json").read_text(encoding="utf-8"))
        if data["n_pairs"] != expected or len(data["rows"]) != expected:
            problems.append(f"{report_dir}: sector {sector} reports {data['n_pairs']} pairs, "
                            f"{expected} were backtested")
    overview = json.loads((report_dir / "summary.json").read_text(encoding="utf-8"))
    counts = {row["sector"]: row["n_pairs"] for row in overview}
    if counts != backtests:
        problems.append(f"{report_dir}: overview counts {counts} != backtests {backtests}")
    return problems
