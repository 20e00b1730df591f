import csv
import math
import re
import tempfile
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairtrader.errors import (
    DataError,
    DuplicateDate,
    DuplicateTicker,
    EmptyIntersection,
    EmptySeries,
    EmptyWindow,
    MissingColumn,
    NonPositivePrice,
    UnreadableFile,
)
from pairtrader.marketdata import (
    CLOSE_COLUMN_PREFERENCE,
    AlignedPanel,
    align_panel,
    load_csv,
    slice_window,
)
from pairtrader.pairscan import order_pair

from conftest import make_series


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


#: Cells a price CSV might hold, good and bad.
_cells = st.one_of(
    st.dates(date(2020, 1, 1), date(2020, 1, 31)).map(lambda d: d.isoformat().encode()),
    st.floats().map(lambda x: repr(x).encode()),
    st.sampled_from([b"", b"NA", b"nan", b"0", b"-1", b'"1,5"', b'"1\n5"', b"\x00"]),
    st.text(max_size=4).map(str.encode),
)

#: Files shaped like price CSVs: a header, then rows of arbitrary cells.
_csv_like = st.builds(
    lambda header, rows, newline: header + newline + newline.join(b",".join(r) for r in rows),
    st.sampled_from([b"Date,Close", b"\xef\xbb\xbfDate,Adj Close", b"Close,Date,Volume",
                     b"Date,Close,Close", b"Date"]),
    st.lists(st.lists(_cells, max_size=3), max_size=8),
    st.sampled_from([b"\n", b"\r\n", b"\r"]),
)


#: The reference loader's "no price" cells, as the package once defined them.
_MISSING_TOKENS = frozenset({"", "na", "n/a", "nan", "null", "none"})


def _reference_read_rows(reader, path, close_column):
    """``_read_rows`` as it was on ``csv.DictReader``, frozen as the loader's reference.

    Its one known fault is the line number: it counts records, not lines.
    """
    header = reader.fieldnames
    if header is None:
        raise EmptySeries(f"{path}: file is empty")
    if "Date" not in header:
        raise MissingColumn(f"{path}: no 'Date' column (found {header})")
    if close_column is not None:
        if close_column not in header:
            raise MissingColumn(f"{path}: no {close_column!r} column")
        close_col = close_column
    else:
        for candidate in CLOSE_COLUMN_PREFERENCE:
            if candidate in header:
                close_col = candidate
                break
        else:
            raise MissingColumn(
                f"{path}: none of {CLOSE_COLUMN_PREFERENCE} present (found {header})"
            )

    rows = []
    dropped = 0
    for line_no, row in enumerate(reader, start=2):
        raw_date = (row.get("Date") or "").strip()
        raw_close = (row.get(close_col) or "").strip()
        if raw_close.lower() in _MISSING_TOKENS:
            dropped += 1
            continue
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
                f"{path}:{line_no}: close {raw_close!r} on {day} is not positive"
            )
        rows.append((day, close))
    return rows, dropped


def reference_load_csv(path, ticker, close_column=None):
    """``load_csv`` as it was on ``csv.DictReader``, frozen (without its log line)."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            rows, dropped = _reference_read_rows(csv.DictReader(handle), path, close_column)
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise UnreadableFile(f"{path}: cannot read ({exc})") from None

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


def load_outcome(loader, path):
    """What ``loader`` makes of ``path``: its dates and close bytes, or its error.

    The line number in an error message is blanked: the frozen loader counts
    records where ``load_csv`` counts physical lines.
    """
    try:
        panel = loader(path, "A")
    except DataError as exc:
        return type(exc), re.sub(r":\d+: close ", ":<line>: close ", str(exc))
    return panel.dates, panel.closes.tobytes()


class TestLoadCsv:
    def test_two_rows_parse(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         "Date,Close\n2021-01-01,100.0\n2021-01-04,101.5\n")
        series = load_csv(path, "A")
        assert isinstance(series, AlignedPanel)
        assert series.tickers == ("A",)
        assert len(series) == 2
        assert series.dates == (date(2021, 1, 1), date(2021, 1, 4))
        assert series.closes.tolist() == [[100.0, 101.5]]

    def test_out_of_order_rows_sorted(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         "Date,Close\n2021-01-04,101.5\n2021-01-01,100.0\n")
        series = load_csv(path, "A")
        assert series.dates == (date(2021, 1, 1), date(2021, 1, 4))
        assert series.closes[0].tolist() == [100.0, 101.5]

    def test_zero_close_rejected_naming_row(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         "Date,Close\n2021-01-01,100.0\n2021-01-04,0\n")
        with pytest.raises(NonPositivePrice, match="2021-01-04"):
            load_csv(path, "A")

    def test_negative_close_rejected(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", "Date,Close\n2021-01-01,-5\n")
        with pytest.raises(NonPositivePrice):
            load_csv(path, "A")

    def test_missing_close_column(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", "Date,Open\n2021-01-01,100.0\n")
        with pytest.raises(MissingColumn):
            load_csv(path, "A")

    def test_missing_date_column(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", "Day,Close\n2021-01-01,100.0\n")
        with pytest.raises(MissingColumn):
            load_csv(path, "A")

    def test_duplicate_date(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         "Date,Close\n2021-01-01,100.0\n2021-01-01,101.0\n")
        with pytest.raises(DuplicateDate):
            load_csv(path, "A")

    def test_nan_rows_dropped_not_fatal(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         "Date,Close\n2021-01-01,100.0\n2021-01-02,\n"
                         "2021-01-03,null\n2021-01-04,102.0\n")
        series = load_csv(path, "A")
        assert len(series) == 2

    def test_all_rows_invalid_is_empty(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", "Date,Close\n2021-01-01,\n")
        with pytest.raises(EmptySeries):
            load_csv(path, "A")

    def test_close_preferred_over_adj_close(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         "Date,Close,Adj Close\n2021-01-01,100.0,90.0\n2021-01-04,101.0,91.0\n")
        assert load_csv(path, "A").closes[0].tolist() == [100.0, 101.0]
        assert load_csv(path, "A", close_column="Adj Close").closes[0].tolist() == [90.0, 91.0]

    def test_missing_file_names_path(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(UnreadableFile, match="absent.csv"):
            load_csv(path, "A")

    def test_non_utf8_bytes_name_path(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"Date,Close\n2021-01-01,100.0\n2021-01-04,\xe9\xff\n")
        with pytest.raises(UnreadableFile, match="latin1.csv"):
            load_csv(path, "A")

    def test_oversized_field_names_path(self, tmp_path):
        path = write_csv(tmp_path / "huge.csv",
                         "Date,Close\n2021-01-01," + "9" * 131073 + "\n")
        with pytest.raises(UnreadableFile, match="huge.csv"):
            load_csv(path, "A")

    @settings(max_examples=300, deadline=None)
    @given(_csv_like | st.binary(max_size=300))
    def test_arbitrary_bytes_give_series_or_data_error(self, content):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.csv"
            path.write_bytes(content)
            outcome = load_outcome(load_csv, path)
            assert outcome == load_outcome(reference_load_csv, path)
            try:
                series = load_csv(path, "A")
            except DataError:
                return
        assert isinstance(series, AlignedPanel)
        assert series.tickers == ("A",) and series.closes.shape == (1, len(series))

    def test_error_names_the_physical_line(self, tmp_path):
        path = write_csv(tmp_path / "blank.csv",
                         "Date,Close\n\n2020-01-01,5\n\n\n2020-01-02,-1\n")
        with pytest.raises(NonPositivePrice, match=r"blank\.csv:6: close '-1'"):
            load_csv(path, "A")

    def test_quoted_newline_is_named_by_its_last_line(self, tmp_path):
        path = write_csv(tmp_path / "quoted.csv",
                         'Date,Note,Close\n2020-01-01,"two\nlines",-1\n')
        with pytest.raises(NonPositivePrice, match=r"quoted\.csv:3: close '-1'"):
            load_csv(path, "A")

    def test_repeated_column_reads_its_last_cell(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         "Date,Close,Close\n2021-01-01,1.0,2.0\n2021-01-04,3.0\n")
        series = load_csv(path, "A")
        assert series.dates == (date(2021, 1, 1),)
        assert series.closes[0].tolist() == [2.0]

    def test_extra_columns_ignored(self, tmp_path):
        path = write_csv(
            tmp_path / "a.csv",
            "Date,Open,High,Low,Close,Adj Close,Volume\n"
            "2021-01-01,99,101,98,100.0,99.5,1000\n"
            "2021-01-04,100,103,99,102.0,101.4,1200\n",
        )
        assert load_csv(path, "A").closes[0].tolist() == [100.0, 102.0]


class TestAlignedPanelInvariants:
    def test_non_increasing_dates_rejected(self):
        with pytest.raises(DuplicateDate):
            AlignedPanel(("A",), (date(2021, 1, 2), date(2021, 1, 1)), [[1.0, 2.0]])

    def test_non_positive_close_rejected(self):
        with pytest.raises(NonPositivePrice):
            make_series("A", [1.0, 0.0])

    def test_non_finite_close_rejected(self):
        with pytest.raises(NonPositivePrice):
            make_series("A", [1.0, math.inf])

    def test_hand_built_pair_panel_checked(self):
        dates = (date(2021, 1, 1), date(2021, 1, 2), date(2021, 1, 3))
        with pytest.raises(NonPositivePrice, match="B: close -2.0 on 2021-01-02"):
            AlignedPanel(("A", "B"), dates, [[1.0, 1.0, 1.0], [2.0, -2.0, math.nan]])
        with pytest.raises(NonPositivePrice, match="B: close nan"):
            AlignedPanel(("A", "B"), dates, [[1.0, 1.0, 1.0], [2.0, 2.0, math.nan]])
        with pytest.raises(NonPositivePrice, match="B: close -2.0 on 2021-01-02"):
            AlignedPanel(("A", "B"), dates, [[1.0, 1.0, -1.0], [2.0, -2.0, 2.0]])
        with pytest.raises(DuplicateDate, match="A/B"):
            AlignedPanel(("A", "B"), (dates[0], dates[2], dates[2]), np.ones((2, 3)))
        with pytest.raises(ValueError, match="shape"):
            AlignedPanel(("A", "B"), dates, np.ones((3, 2)))

    def test_repeated_ticker_rejected(self):
        with pytest.raises(DuplicateTicker, match="ticker 'A' appears more than once"):
            AlignedPanel(("A", "A"), (date(2021, 1, 1),), [[1.0, 2.0]])
        with pytest.raises(DuplicateTicker, match="'B'"):
            AlignedPanel(("A", "B", "C", "B"), (date(2021, 1, 1),), [[1.0, 2.0, 3.0, 4.0]])

    def test_closes_are_a_read_only_copy(self):
        closes = np.ones((2, 2))
        panel = AlignedPanel(("A", "B"), (date(2021, 1, 1), date(2021, 1, 2)), closes)
        assert closes.flags.writeable
        closes[0, 0] = 5.0
        assert panel.closes.tolist() == [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(ValueError):
            panel.closes[0, 0] = 5.0


class TestAlignPanel:
    def test_intersection(self):
        d = [date(2021, 1, i) for i in range(1, 5)]
        a = make_series("A", [1.0, 2.0, 3.0], start=d[0])
        b = make_series("B", [4.0, 5.0, 6.0], start=d[1])
        panel = align_panel([a, b])
        assert panel.dates == (d[1], d[2])
        assert panel.closes.tolist() == [[2.0, 3.0], [4.0, 5.0]]

    def test_identical_calendars(self):
        a = make_series("A", [1, 2, 3])
        b = make_series("B", [4, 5, 6])
        panel = align_panel([a, b])
        assert panel.dates == a.dates

    def test_disjoint_calendars(self):
        a = make_series("A", [1, 2], start=date(2021, 1, 1))
        b = make_series("B", [3, 4], start=date(2022, 1, 1))
        with pytest.raises(EmptyIntersection):
            align_panel([a, b])

    def test_duplicate_ticker(self):
        with pytest.raises(DuplicateTicker):
            align_panel([make_series("A", [1, 2]), make_series("A", [3, 4])])

    def test_needs_two_panels(self):
        with pytest.raises(ValueError, match="at least 2"):
            align_panel([make_series("A", [1, 2])])

    def test_joins_multi_column_panels_in_input_order(self):
        ab = align_panel([make_series("A", [1, 2, 3]), make_series("B", [4, 5, 6])])
        c = make_series("C", [7, 8, 9], start=ab.dates[1])
        panel = align_panel([c, ab])
        assert panel.tickers == ("C", "A", "B")
        assert panel.dates == ab.dates[1:]
        assert panel.closes.tolist() == [[7.0, 8.0], [2.0, 3.0], [5.0, 6.0]]
        with pytest.raises(DuplicateTicker):
            align_panel([ab, make_series("B", [1, 2, 3])])

    def test_order_insensitive_up_to_column_order(self):
        a = make_series("A", [1, 2, 3])
        b = make_series("B", [4, 5, 6])
        c = make_series("C", [7, 8, 9])
        p1 = align_panel([a, b, c])
        p2 = align_panel([c, a, b])
        assert p1.dates == p2.dates
        for ticker in ("A", "B", "C"):
            assert np.array_equal(p1.closes[p1.tickers.index(ticker)],
                                  p2.closes[p2.tickers.index(ticker)])

    def test_distinct_panels_compare_without_raising(self):
        series = [make_series("A", [1, 2, 3]), make_series("B", [4, 5, 6])]
        p1, p2 = align_panel(series), align_panel(series)
        assert p1 == p1 and p1 != p2
        assert len({p1, p2}) == 2


def pair_of(closes, start=date(2021, 1, 1)):
    """Two-ticker panel: A holds ``closes``, B ten times them."""
    return align_panel([make_series("A", closes, start),
                        make_series("B", [10 * c for c in closes], start)])


def same_panel(p, q):
    return (p.tickers, p.dates, p.closes.tolist()) == (q.tickers, q.dates, q.closes.tolist())


class TestSliceWindow:
    def test_full_window_identity(self):
        p = pair_of([1, 2, 3])
        assert same_panel(slice_window(p, p.dates[0], p.dates[-1]), p)

    def test_single_date(self):
        p = pair_of([1, 2, 3])
        out = slice_window(p, p.dates[1], p.dates[1])
        assert out.closes.tolist() == [[2.0], [20.0]]

    def test_window_before_all_dates(self):
        p = pair_of([1, 2, 3], start=date(2021, 6, 1))
        with pytest.raises(EmptyWindow):
            slice_window(p, date(2020, 1, 1), date(2020, 12, 31))

    def test_backwards_window_invalid(self):
        p = pair_of([1, 2, 3])
        with pytest.raises(ValueError):
            slice_window(p, p.dates[-1], p.dates[0])

    def test_idempotence(self):
        p = pair_of(list(range(1, 21)))
        a, b = p.dates[3], p.dates[15]
        once = slice_window(p, a, b)
        assert same_panel(slice_window(once, a, b), once)

    def test_panel_slice(self):
        panel = align_panel([make_series("A", [1, 2, 3]), make_series("B", [4, 5, 6])])
        out = slice_window(panel, panel.dates[1], panel.dates[2])
        assert isinstance(out, AlignedPanel)
        assert out.dates == panel.dates[1:]
        assert out.closes.tolist() == [[2.0, 3.0], [5.0, 6.0]]

    def test_panel_empty_window(self):
        panel = align_panel([make_series("A", [1, 2]), make_series("B", [4, 5])])
        with pytest.raises(EmptyWindow):
            slice_window(panel, date(1999, 1, 1), date(1999, 1, 2))

    @settings(max_examples=200, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=60), min_size=1, max_size=25),
           st.integers(min_value=-5, max_value=65), st.integers(min_value=0, max_value=70))
    def test_window_is_every_date_in_range(self, days, first, span):
        # Windows that start or end on, between, before or after the dates.
        origin = date(2021, 1, 1)
        dates = tuple(origin + timedelta(days=d) for d in sorted(days))
        panel = AlignedPanel(("A", "B"), dates, [np.arange(1.0, len(dates) + 1),
                                                 np.arange(2.0, len(dates) + 2)])
        start, end = origin + timedelta(days=first), origin + timedelta(days=first + span)
        keep = [i for i, d in enumerate(dates) if start <= d <= end]
        if not keep:
            with pytest.raises(EmptyWindow):
                slice_window(panel, start, end)
            return
        out = slice_window(panel, start, end)
        assert out.dates == tuple(dates[i] for i in keep)
        assert out.closes.tolist() == panel.closes[:, keep].tolist()


def assert_ticker_major(panel):
    """``panel.closes`` is a read-only, C-contiguous (tickers, dates) array."""
    closes = panel.closes
    assert closes.shape == (len(panel.tickers), len(panel.dates))
    assert closes.flags.c_contiguous
    assert not closes.flags.writeable


class TestPanelLayout:
    DATES = (date(2021, 1, 1), date(2021, 1, 2), date(2021, 1, 3))
    WIDE = np.arange(1.0, 25.0).reshape(4, 6)

    @pytest.mark.parametrize("closes", [
        [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
        np.asfortranarray([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        WIDE[::2, 1::2],
        WIDE[:2, [5, 0, 3]],
        WIDE[:3, :2].T,
    ], ids=["list", "f-ordered", "strided-view", "fancy-indexed", "transposed"])
    def test_every_input_layout_is_stored_ticker_major(self, closes):
        panel = AlignedPanel(("A", "B"), self.DATES, closes)
        assert_ticker_major(panel)
        assert panel.closes.tolist() == np.asarray(closes).tolist()

    def test_pipeline_panels_are_ticker_major(self, tmp_path):
        path = write_csv(tmp_path / "a.csv",
                         "Date,Close\n2021-01-03,3.0\n2021-01-01,1.0\n2021-01-02,2.0\n")
        loaded = load_csv(path, "A")
        joined = align_panel([make_series("B", [9.0, 8.0, 7.0, 6.0]), loaded,
                              make_series("C", [5.0, 6.0, 7.0])])
        window = slice_window(joined, loaded.dates[1], loaded.dates[2])
        pair = align_panel([make_series("B", [1.0, 2.0, 3.0]), make_series("A", [5.0, 6.0, 7.0])])
        swapped = order_pair(pair, (pair.dates[0], pair.dates[-1]))
        assert swapped.tickers == ("A", "B")
        for panel in (loaded, joined, window, swapped):
            assert_ticker_major(panel)
        assert joined.closes.tolist() == [[9.0, 8.0, 7.0], [1.0, 2.0, 3.0], [5.0, 6.0, 7.0]]
        assert window.closes.tolist() == [[8.0, 7.0], [2.0, 3.0], [6.0, 7.0]]
        assert swapped.closes.tolist() == [[5.0, 6.0, 7.0], [1.0, 2.0, 3.0]]
