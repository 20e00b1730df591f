"""Daily close-price ingestion, validation, alignment, and windowing.

One CSV file per ticker (common finance-site export shape: a ``Date`` column
plus ``Close`` and optionally ``Adj Close``).  A price column lives in one
container, the ``AlignedPanel``: ``load_csv`` yields a one-ticker panel per
file and ``align_panel`` inner-joins panels on their dates (non-common
trading days are dropped, never forward-filled); every later stage reads
price columns from a panel's array.  That array is ticker-major:
``closes[j]`` is ``tickers[j]``'s closes, one C-contiguous row, so a sum over
it rounds as over any contiguous copy of those closes, and no stage copies
or transposes a panel to read a column.
"""

from __future__ import annotations

import csv
import logging
from bisect import bisect_left, bisect_right
import math
import operator
from dataclasses import dataclass
from datetime import date

import numpy as np

from .errors import (
    DuplicateDate,
    DuplicateTicker,
    EmptyIntersection,
    EmptySeries,
    EmptyWindow,
    MissingColumn,
    NonPositivePrice,
    UnreadableFile,
)

logger = logging.getLogger(__name__)

#: Close-column preference when several candidates exist in a CSV.
CLOSE_COLUMN_PREFERENCE = ("Close", "Adj Close")


def readonly_copy(values) -> np.ndarray:
    """A read-only, C-contiguous float array copy of ``values``.

    Containers store these, so building one never freezes or aliases the
    caller's own array.  The copy is C-ordered even when ``values`` is not
    (an F-ordered array, a fancy-indexed or strided view), so each row is
    contiguous.
    """
    array = np.array(values, dtype=float, order="C")
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class AlignedPanel:
    """Close prices for one or more tickers on one common calendar.

    ``closes[j, i]`` is the close of ``tickers[j]`` on ``dates[i]``, so
    ``closes[j]`` is ticker j's price column.  Dates are strictly increasing,
    and every cell is populated (inner-join alignment) with a finite,
    positive close, and no ticker appears twice.  The closes are a read-only,
    C-contiguous copy of the array passed in.  Panels compare by identity:
    the closes are an array, which has no single truth value.
    """

    tickers: tuple[str, ...]
    dates: tuple[date, ...]
    closes: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.tickers)) != len(self.tickers):
            seen = set()
            dupe = next(t for t in self.tickers if t in seen or seen.add(t))
            raise DuplicateTicker(f"ticker {dupe!r} appears more than once")
        closes = readonly_copy(self.closes)
        if closes.shape != (len(self.tickers), len(self.dates)):
            raise ValueError("closes shape does not match tickers x dates")
        if not all(map(operator.lt, self.dates, self.dates[1:])):
            at = next(b for a, b in zip(self.dates, self.dates[1:]) if b <= a)
            raise DuplicateDate(f"{'/'.join(self.tickers)}: dates not strictly increasing at {at}")
        bad = ~(np.isfinite(closes) & (closes > 0.0))
        if bad.any():
            i, j = np.argwhere(bad.T)[0]  # the earliest date first
            raise NonPositivePrice(
                f"{self.tickers[j]}: close {float(closes[j, i])!r} on {self.dates[i]}"
            )
        object.__setattr__(self, "closes", closes)

    def __len__(self) -> int:
        return len(self.dates)


def check_pair(panel: AlignedPanel) -> None:
    """Reject a panel that is not a two-ticker pair panel."""
    if len(panel.tickers) != 2:
        raise ValueError(f"a pair panel holds 2 tickers, not {len(panel.tickers)}")


def _read_rows(reader, path, close_column: str | None):
    """Parsed (date, close) rows of one CSV and the count of dropped rows.

    The first record is the header; a name it repeats reads its last column.
    Blank records are skipped and a short record's missing cells read as
    empty.
    """
    header = next(reader, None)
    if header is None:
        raise EmptySeries(f"{path}: file is empty")
    index = {name: i for i, name in enumerate(header)}
    if "Date" not in index:
        raise MissingColumn(f"{path}: no 'Date' column (found {header})")
    if close_column is not None:
        if close_column not in index:
            raise MissingColumn(f"{path}: no {close_column!r} column")
        close_col = close_column
    else:
        for candidate in CLOSE_COLUMN_PREFERENCE:
            if candidate in index:
                close_col = candidate
                break
        else:
            raise MissingColumn(
                f"{path}: none of {CLOSE_COLUMN_PREFERENCE} present (found {header})"
            )
    date_i, close_i = index["Date"], index[close_col]
    width = max(date_i, close_i) + 1

    rows: list[tuple[date, float]] = []
    dropped = 0
    for row in reader:
        if not row:
            continue
        if len(row) < width:
            row += [""] * (width - len(row))
        raw_date = row[date_i].strip()
        raw_close = row[close_i].strip()
        try:
            day = date.fromisoformat(raw_date)
        except ValueError:
            dropped += 1
            continue
        try:
            close = float(raw_close)
        except ValueError:
            dropped += 1
            continue
        if math.isnan(close):
            dropped += 1
            continue
        if not math.isfinite(close) or close <= 0.0:
            raise NonPositivePrice(
                f"{path}:{reader.line_num}: close {raw_close!r} on {day} is not positive"
            )
        rows.append((day, close))
    return rows, dropped


def load_csv(path, ticker: str, close_column: str | None = None) -> AlignedPanel:
    """Load one ticker's daily closes from a CSV file.

    The file must have a header row with a ``Date`` column (ISO-8601
    ``YYYY-MM-DD``) and a close column; ``Close`` is preferred over
    ``Adj Close`` unless ``close_column`` names one explicitly.  Rows whose
    date or close cannot be parsed (holiday gaps, vendor NA markers) are
    dropped with a logged count; a close that parses to a non-positive or
    non-finite number is an error naming the file's physical line (blank
    lines count; a quoted field that spans lines is named by its last line).
    Rows may appear in any date order.  A file that cannot be opened, is not
    UTF-8, or holds an oversized CSV field raises ``UnreadableFile``.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows, dropped = _read_rows(csv.reader(handle), path, close_column)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UnreadableFile(f"{path}: cannot read ({exc})") from None

    if dropped:
        logger.warning("%s: dropped %d rows with missing/unparseable cells", path, dropped)
    if not rows:
        raise EmptySeries(f"{path}: no valid rows")

    rows.sort(key=lambda item: item[0])
    for (d1, _), (d2, _) in zip(rows, rows[1:]):
        if d1 == d2:
            raise DuplicateDate(f"{path}: date {d1} appears more than once")

    return AlignedPanel(
        tickers=(ticker,),
        dates=tuple(d for d, _ in rows),
        closes=np.array([c for _, c in rows])[np.newaxis],
    )


def align_panel(panels: list[AlignedPanel]) -> AlignedPanel:
    """Inner-join several panels onto their common calendar.

    Panel dates are the intersection of all input date sets, ascending.
    Columns follow the input panels' tickers in input order.
    """
    if len(panels) < 2:
        raise ValueError("align_panel needs at least 2 panels")
    tickers = [t for p in panels for t in p.tickers]
    common = set(panels[0].dates).intersection(*(p.dates for p in panels[1:]))
    if not common:
        raise EmptyIntersection(f"no common dates across {tickers}")
    # Every calendar ascends, so a panel's rows on common dates are in order.
    rows = [p.closes[:, np.fromiter(map(common.__contains__, p.dates), bool, len(p))]
            for p in panels]
    return AlignedPanel(tickers=tuple(tickers), dates=tuple(sorted(common)),
                        closes=np.vstack(rows))


def slice_window(panel: AlignedPanel, start: date, end: date) -> AlignedPanel:
    """Restrict a panel to ``start <= date <= end``.

    The dates ascend, so the window is one range of them, found by bisection.
    """
    if start > end:
        raise ValueError(f"window start {start} after end {end}")
    lo, hi = bisect_left(panel.dates, start), bisect_right(panel.dates, end)
    if lo >= hi:
        raise EmptyWindow(f"panel: no observations in [{start}, {end}]")
    return AlignedPanel(tickers=panel.tickers, dates=panel.dates[lo:hi],
                        closes=panel.closes[:, lo:hi])
