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

A panel's dates are one read-only ``datetime64[D]`` array of day numbers,
which the join and the windows search and compare as integers.  Dates leave
it, as ``datetime.date`` objects (``dates.tolist()``), only where they are
written out.

``load_csv`` reads a file's bytes once.  A file that holds no ``"``, no NUL,
no carriage return outside a CRLF and no line longer than
``csv.field_size_limit()`` has fields that no CSV quoting can change: its
records and fields are split at newline and comma positions, and its plain
cells are parsed, by whole-array passes (``_parse_plain``).  Every other
file goes through ``csv.reader`` (``_read_rows``), which both paths agree
with on every input.
"""

from __future__ import annotations

import csv
import io
import logging
import math
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

_DAY = "datetime64[D]"


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
    ``closes[j]`` is ticker j's price column.  ``dates`` is a read-only
    ``datetime64[D]`` array, converted from any sequence of dates passed in;
    its ``tolist()`` gives ``datetime.date`` objects.  Dates are strictly
    increasing, and every cell is populated (inner-join alignment) with a
    finite, positive close, and no ticker appears twice.  The dates and
    closes are read-only copies of what is passed in, the closes
    C-contiguous.  Panels compare by identity: the closes are an array,
    which has no single truth value.
    """

    tickers: tuple[str, ...]
    dates: np.ndarray
    closes: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.tickers)) != len(self.tickers):
            seen = set()
            dupe = next(t for t in self.tickers if t in seen or seen.add(t))
            raise DuplicateTicker(f"ticker {dupe!r} appears more than once")
        dates = np.array(self.dates, dtype=_DAY)
        dates.setflags(write=False)
        closes = readonly_copy(self.closes)
        if dates.ndim != 1 or closes.shape != (len(self.tickers), len(dates)):
            raise ValueError("closes shape does not match tickers x dates")
        # Written to fail on NaT as well as on a repeat or a step back.
        stepped = ~(dates[1:] > dates[:-1])
        if stepped.any():
            at = dates[np.argmax(stepped) + 1].tolist()
            raise DuplicateDate(f"{'/'.join(self.tickers)}: dates not strictly increasing at {at}")
        bad = ~(np.isfinite(closes) & (closes > 0.0))
        if bad.any():
            i, j = np.argwhere(bad.T)[0]  # the earliest date first
            raise NonPositivePrice(
                f"{self.tickers[j]}: close {float(closes[j, i])!r} on {dates[i].tolist()}"
            )
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "closes", closes)

    def __len__(self) -> int:
        return len(self.dates)


def parse_date(text: str) -> date:
    """The date ``text`` writes as ``YYYY-MM-DD``, the one form a date may take.

    ``date.fromisoformat`` alone also reads ``20210104`` and ISO week dates
    such as ``2021-W01-1`` on Python 3.11 and later, but not on 3.10, so
    any other form is a ``ValueError`` here, on every Python.
    """
    if len(text) != 10 or text[4] != "-" or text[7] != "-":
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")
    return date.fromisoformat(text)


def check_pair(panel: AlignedPanel) -> None:
    """Reject a panel that is not a two-ticker pair panel."""
    if len(panel.tickers) != 2:
        raise ValueError(f"a pair panel holds 2 tickers, not {len(panel.tickers)}")


def _columns(header: list[str] | None, path, close_column: str | None) -> tuple[int, int]:
    """The Date and close column indices of ``header``; a repeated name reads its last column."""
    if header is None:
        raise EmptySeries(f"{path}: file is empty")
    index = {name: i for i, name in enumerate(header)}
    if "Date" not in index:
        raise MissingColumn(f"{path}: no 'Date' column (found {header})")
    if close_column is not None:
        if close_column not in index:
            raise MissingColumn(f"{path}: no {close_column!r} column")
        return index["Date"], index[close_column]
    for candidate in CLOSE_COLUMN_PREFERENCE:
        if candidate in index:
            return index["Date"], index[candidate]
    raise MissingColumn(f"{path}: none of {CLOSE_COLUMN_PREFERENCE} present (found {header})")


def _read_row(raw_date: str, raw_close: str, path, line: int) -> tuple[date, float] | None:
    """One record's date and close by the scalar rule, or None for a dropped row.

    ``raw_date`` and ``raw_close`` are its stripped cells.  A row whose date
    does not parse is dropped before its close is judged; a close that does
    not parse, or parses to NaN, drops the row; a non-positive or non-finite
    close is an error naming the file's physical ``line``.
    """
    try:
        day = parse_date(raw_date)
        close = float(raw_close)
    except ValueError:
        return None
    if math.isnan(close):
        return None
    if not math.isfinite(close) or close <= 0.0:
        raise NonPositivePrice(f"{path}:{line}: close {raw_close!r} on {day} is not positive")
    return day, close


def _read_rows(reader, path, close_column: str | None):
    """The dates and closes of one CSV's parsed rows, in file order, and the dropped count.

    The first record is the header; a name it repeats reads its last column.
    Blank records are skipped and a short record's missing cells read as
    empty.
    """
    date_i, close_i = _columns(next(reader, None), path, close_column)
    width = max(date_i, close_i) + 1

    days: list[date] = []
    closes: list[float] = []
    dropped = 0
    for row in reader:
        if not row:
            continue
        if len(row) < width:
            row += [""] * (width - len(row))
        parsed = _read_row(row[date_i].strip(), row[close_i].strip(), path, reader.line_num)
        if parsed is None:
            dropped += 1
            continue
        days.append(parsed[0])
        closes.append(parsed[1])
    return days, closes, dropped


#: ``_POW10[k]`` is 10**k, an exact double for every k a plain close can need.
_POW10 = np.array([float(10**k) for k in range(16)])
#: A plain close has at most this many digits, so its mantissa is below 2**53.
_PLAIN_DIGITS = 15
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _column(buf: np.ndarray, begin: np.ndarray, end: np.ndarray, k: int) -> np.ndarray:
    """Byte k of each cell ``buf[begin:end]``, or 0 past its end (a file here holds no NUL)."""
    at = begin + k
    return np.where(at < end, buf[np.minimum(at, buf.size - 1)], 0)


def _plain_days(buf: np.ndarray, begin: np.ndarray, end: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's day number, and whether it is a plain date.

    A plain date is exactly the ten bytes ``DDDD-DD-DD`` of a real calendar
    day from year 1, a cell ``parse_date`` reads with no space around it.
    Its day number, from 1970-01-01, is Hinnant's days-from-civil count in
    integers.
    """
    plain = end - begin == 10
    numbers = []
    for first, last in ((0, 4), (5, 7), (8, 10)):
        number = np.zeros(begin.size, dtype=np.int64)
        for k in range(first, last):
            digit = _column(buf, begin, end, k) - np.uint8(ord("0"))  # wraps below "0"
            plain &= digit < 10
            number = number * 10 + digit
        numbers.append(number)
    for k in (4, 7):
        plain &= _column(buf, begin, end, k) == ord("-")
    year, month, day = numbers
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.clip(month - 1, 0, 11)] + ((month == 2) & leap)
    plain &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
    shifted = year - (month <= 2)
    era = shifted // 400
    year_of_era = shifted - era * 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    day_of_era = year_of_era * 365 + year_of_era // 4 - year_of_era // 100 + day_of_year
    return era * 146097 + day_of_era - 719468, plain


def _plain_closes(buf: np.ndarray, begin: np.ndarray, end: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's close, and whether it is a plain decimal.

    A plain decimal is 1 to 15 ASCII digits with at most one ``.`` among
    them, and nothing else.  Its value is ``mantissa / 10.0**frac``, the
    digits read as one integer (Horner's rule, one byte column at a time)
    over 10 to the number of digits after the point: both are exact doubles
    (below 2**53, and 10**k for k <= 22), so the quotient, rounded once, is
    the double nearest the decimal, the one ``float`` reads (Clinger 1990).
    """
    length = end - begin
    plain = (length >= 1) & (length <= _PLAIN_DIGITS + 1)
    mantissa = np.zeros(begin.size, dtype=np.int64)
    digits = np.zeros(begin.size, dtype=np.int64)
    frac = np.zeros(begin.size, dtype=np.int64)
    points = np.zeros(begin.size, dtype=np.int64)
    for k in range(min(int(length.max(initial=0)), _PLAIN_DIGITS + 1)):
        byte = _column(buf, begin, end, k)
        digit = byte - np.uint8(ord("0"))  # wraps below "0"
        numeral = digit < 10
        point = byte == ord(".")
        plain &= numeral | point | (byte == 0)
        mantissa = np.where(numeral, mantissa * 10 + digit, mantissa)
        digits += numeral
        frac += numeral & (points > 0)
        points += point
    plain &= (points <= 1) & (digits >= 1) & (digits <= _PLAIN_DIGITS)
    return mantissa / _POW10[np.minimum(frac, _PLAIN_DIGITS)], plain


def _parse_plain(raw: bytes, path, close_column: str | None):
    """``_read_rows``' result for a file of UTF-8 ``raw`` bytes, or None for ``csv.reader``.

    None when a byte could make ``csv.reader`` split the file otherwise
    than at its commas and newlines: a quote, a NUL (which Python 3.10's
    reader rejects and later ones accept), a carriage return outside a
    CRLF, or a line longer than ``csv.field_size_limit()``.  Otherwise a
    record is a line without its CRLF or LF, a blank one is skipped, and
    each field runs from one comma to the next, a short record's missing
    cells reading as empty.  A row whose two cells are plain
    (``_plain_days``, ``_plain_closes``) is read by whole-array passes;
    every other row, and the first with a plain close of 0, by the scalar
    rule ``_read_row``, in file order, up to the first error.  The dates
    are a ``datetime64[D]`` array.
    """
    if b'"' in raw or b"\0" in raw:
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    if np.count_nonzero(buf == ord("\r")) != np.count_nonzero(buf[newlines[newlines > 0] - 1]
                                                              == ord("\r")):
        return None
    starts = np.concatenate(([0], newlines + 1))
    ends = np.append(newlines, buf.size)
    if starts[-1] == buf.size:  # no record after the last newline
        starts, ends = starts[:-1], ends[:-1]
    if starts.size and (ends - starts).max() > csv.field_size_limit():
        return None
    # Every CR here is followed by an LF, so a line ending in one ends in a CRLF.
    ends = ends - ((ends > starts) & (buf[np.maximum(ends - 1, 0)] == ord("\r")))
    header = None
    if starts.size:
        line = raw[starts[0]:ends[0]].decode()
        header = line.split(",") if line else []
    date_i, close_i = _columns(header, path, close_column)

    filled = np.flatnonzero(ends[1:] > starts[1:]) + 1
    starts, ends = starts[filled], ends[filled]
    commas = np.flatnonzero(buf == ord(","))
    first = np.searchsorted(commas, starts)
    count = np.searchsorted(commas, ends) - first
    stops = np.append(commas, buf.size)

    def field(k: int) -> tuple[np.ndarray, np.ndarray]:
        begin = starts if k == 0 else stops[np.minimum(first + k - 1, commas.size)] + 1
        end = np.where(count > k, stops[np.minimum(first + k, commas.size)], ends)
        return np.where(count >= k, begin, 0), np.where(count >= k, end, 0)

    date_begin, date_end = field(date_i)
    close_begin, close_end = field(close_i)
    days, plain_day = _plain_days(buf, date_begin, date_end)
    closes, plain_close = _plain_closes(buf, close_begin, close_end)
    plain = plain_day & plain_close
    keep = plain & (closes > 0.0)

    scalar = np.flatnonzero(~keep).tolist()
    zero = np.flatnonzero(plain & ~keep)
    if zero.size:
        scalar = [row for row in scalar if row <= zero[0]]
    dropped = 0
    for row in scalar:
        parsed = _read_row(raw[date_begin[row]:date_end[row]].decode().strip(),
                           raw[close_begin[row]:close_end[row]].decode().strip(),
                           path, int(filled[row]) + 1)
        if parsed is None:
            dropped += 1
            continue
        keep[row] = True
        days[row] = np.datetime64(parsed[0], "D").astype(np.int64)
        closes[row] = parsed[1]
    return days[keep].view(_DAY), closes[keep], dropped


def load_csv(path, ticker: str, close_column: str | None = None) -> AlignedPanel:
    """Load one ticker's daily closes from a CSV file.

    The file must have a header row with a ``Date`` column (``YYYY-MM-DD``,
    see ``parse_date``) and a close column; ``Close`` is preferred over
    ``Adj Close`` unless ``close_column`` names one explicitly.  Rows whose
    date or close cannot be parsed (holiday gaps, vendor NA markers) are
    dropped with a logged count; a close that parses to a non-positive or
    non-finite number is an error naming the file's physical line (blank
    lines count; a quoted field that spans lines is named by its last line).
    Rows may appear in any date order.  A file that cannot be opened, is not
    UTF-8, or holds an oversized CSV field raises ``UnreadableFile``.

    The bytes are read once, and parsed by ``_parse_plain`` or, where it
    declines the file, by ``_read_rows`` on ``csv.reader``.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
        text = raw[3:] if raw.startswith(b"\xef\xbb\xbf") else raw
        try:
            text.decode()
        except UnicodeDecodeError:
            parsed = None  # raised below, where the message matches a read of the text
        else:
            parsed = _parse_plain(text, path, close_column)
        if parsed is None:
            with io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8-sig", newline="") as handle:
                rows, values, dropped = _read_rows(csv.reader(handle), path, close_column)
            parsed = np.array(rows, dtype=_DAY), np.array(values, dtype=float), dropped
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UnreadableFile(f"{path}: cannot read ({exc})") from None
    days, closes, dropped = parsed

    if dropped:
        logger.warning("%s: dropped %d rows with missing/unparseable cells", path, dropped)
    if not days.size:
        raise EmptySeries(f"{path}: no valid rows")

    # Dates that strictly increase are in order and repeat none, as in most
    # exports; only other files are sorted (stably) and searched for a repeat.
    if not (days[1:] > days[:-1]).all():
        order = np.argsort(days, kind="stable")
        days, closes = days[order], closes[order]
        repeats = np.flatnonzero(days[1:] == days[:-1])
        if repeats.size:
            raise DuplicateDate(f"{path}: date {days[repeats[0]].tolist()} appears more than once")

    return AlignedPanel(tickers=(ticker,), dates=days, closes=closes[np.newaxis])


def align_panel(panels: list[AlignedPanel]) -> AlignedPanel:
    """Inner-join several panels onto their common calendar.

    Panel dates are the intersection of all input date sets, ascending:
    the days from the latest first date to the earliest last date that
    every panel marks in one boolean array over that span.  Columns follow
    the input panels' tickers in input order.
    """
    if len(panels) < 2:
        raise ValueError("align_panel needs at least 2 panels")
    tickers = [t for p in panels for t in p.tickers]
    if not all(len(p) for p in panels):
        raise EmptyIntersection("no common dates")
    days = [p.dates.view(np.int64) for p in panels]
    lo, hi = max(d[0] for d in days), min(d[-1] for d in days)
    if lo > hi:
        raise EmptyIntersection("no common dates")
    # Each panel's days in [lo, hi], as offsets into the span.
    spans = [(np.searchsorted(d, lo), np.searchsorted(d, hi, side="right")) for d in days]
    offsets = [d[start:stop] - lo for d, (start, stop) in zip(days, spans)]
    common = np.ones(hi - lo + 1, dtype=bool)
    for offset in offsets:
        marked = np.zeros_like(common)
        marked[offset] = True
        common &= marked
    if not common.any():
        raise EmptyIntersection("no common dates")
    rows = [p.closes[:, start:stop][:, common[offset]]
            for p, (start, stop), offset in zip(panels, spans, offsets)]
    return AlignedPanel(tickers=tuple(tickers), dates=(np.flatnonzero(common) + lo).view(_DAY),
                        closes=np.vstack(rows))


def slice_window(panel: AlignedPanel, start: date, end: date) -> AlignedPanel:
    """Restrict a panel to ``start <= date <= end``.

    ``start`` and ``end`` are dates or ``datetime64`` days.  The dates
    ascend, so the window is one range of them, found by binary search.
    """
    lo_day, hi_day = np.datetime64(start, "D"), np.datetime64(end, "D")
    if lo_day > hi_day:
        raise ValueError(f"window start {start} after end {end}")
    lo = np.searchsorted(panel.dates, lo_day, side="left")
    hi = np.searchsorted(panel.dates, hi_day, side="right")
    if lo >= hi:
        raise EmptyWindow(f"no observations in [{start}, {end}]")
    return AlignedPanel(tickers=panel.tickers, dates=panel.dates[lo:hi],
                        closes=panel.closes[:, lo:hi])
