"""The shared table reader, exercised through every reader built on it."""

import io

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from adasfleet import catalog
from adasfleet.catalog import Catalog, Table, load_catalog, text_lines
from adasfleet.datasets import (
    FarsIngest, ingest_activation_csv, ingest_adoption_csv, ingest_fars_csv, ingest_fleet_csv,
)
from adasfleet.errors import AdasFleetError, BadEnumValue, SchemaError
from adasfleet.vpic import load_variable_map

READERS = {
    "adoption": (ingest_adoption_csv, "feature,model_year,std_frac,opt_frac"),
    "fleet": (ingest_fleet_csv, "feature,calendar_year,equipped_frac"),
    "activation": (ingest_activation_csv, "feature,rate,source,donor"),
    "catalog": (load_catalog, "make,model,model_year,feature,availability"),
    "fars": (lambda path: ingest_fars_csv(path, Catalog(())), "vin,crash_year,make,model,model_year"),
    "variable_map": (load_variable_map, "variable,feature"),
}

CELLS = st.one_of(
    st.sampled_from([
        "", "#", "1", "2020", "99999999999999999999", "0.5", "1.5", "NaN", "adaptive_cruise_control",
        "standard", "observed", "assumed_from_similar", "acme", "1ATCDEFG7MA000000",
    ]),
    st.text(max_size=6),
)


def file_bytes(header: str):
    """Arbitrary bytes, and header-led rows of plausible and arbitrary cells with arbitrary bytes after."""
    rows = st.lists(st.lists(CELLS, min_size=1, max_size=6).map(",".join), max_size=8)
    table = rows.map(lambda lines: "\n".join([header, *lines]).encode("utf-8"))
    return st.one_of(st.binary(max_size=200), table, st.tuples(table, st.binary(max_size=16)).map(b"".join))


@pytest.mark.parametrize("kind", sorted(READERS))
def test_non_utf8_file_is_a_schema_error(kind, tmp_path):
    read, header = READERS[kind]
    path = tmp_path / "input.csv"
    path.write_bytes(header.encode() + b"\n\xff\n")
    with pytest.raises(SchemaError, match="not UTF-8"):
        read(path)


# Year and fraction cells that Python's int() and Decimal() read, as literals with "_" or in other digits.
LITERAL_FORMS = [
    ("adoption", "lane_keep_assist,2_020,0.15,0.2", "model_year '2_020' is not an integer year"),
    ("adoption", "lane_keep_assist,2020,0.1_5,0.2", "std_frac '0.1_5' is not a decimal fraction"),
    ("adoption", "lane_keep_assist,2020,0.15,\u0660.\u0662", "opt_frac '\u0660.\u0662' is not a decimal fraction"),
    ("fleet", "lane_keep_assist,\uff12\uff10\uff12\uff11,0.5",
     "calendar_year '\uff12\uff10\uff12\uff11' is not an integer year"),
    ("fleet", "lane_keep_assist,2021,0_5", "equipped_frac '0_5' is not a decimal fraction"),
    ("activation", "lane_keep_assist,\u0660.\u0665,observed,", "rate '\u0660.\u0665' is not a decimal fraction"),
    ("catalog", "acme,alpha,2_021,lane_keep_assist,standard", "model_year '2_021' is not an integer year"),
    ("catalog", "acme,alpha,\u0662\u0660\u0662\u0661,lane_keep_assist,standard",
     "model_year '\u0662\u0660\u0662\u0661' is not an integer year"),
    ("fars", "1ATCDEFG7MA000000,20_21,acme,alpha,", "crash_year '20_21' is not an integer year"),
    ("fars", "1ATCDEFG7MA000000,2021,acme,alpha,1_980", "model_year '1_980' is not an integer year"),
]


@pytest.mark.parametrize("kind, row, message", LITERAL_FORMS, ids=[f"{k}-{m.split()[0]}" for k, _, m in LITERAL_FORMS])
def test_year_and_fraction_cells_are_ascii_without_underscores(tmp_path, kind, row, message):
    read, header = READERS[kind]
    path = tmp_path / "input.csv"
    path.write_text(f"{header}\n{row}\n", encoding="utf-8")
    with pytest.raises(SchemaError) as raised:
        read(path)
    assert str(raised.value) == f"row 2: {message}"


def outcome(read, source):
    """What a reader makes of a source: its result, comparable by value, or its error's class and text."""
    try:
        result = read(source)
    except AdasFleetError as exc:
        return type(exc), str(exc)
    return (result.records.by_key, result.warnings) if isinstance(result, FarsIngest) else result


LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\u2028", "\x0b"])


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), read_size=st.integers(1, 9), batch_rows=st.integers(1, 3))
def test_an_open_stream_reads_as_its_path_does_at_tiny_reads(kind, data, read_size, batch_rows, tmp_path_factory):
    """The same rows or the same error, read through a path and through `io.StringIO(text, newline="")`."""
    read, header = READERS[kind]
    lines = data.draw(st.lists(st.lists(CELLS, min_size=1, max_size=6).map(",".join), max_size=8))
    breaks = data.draw(st.lists(LINE_BREAKS, min_size=9, max_size=9))
    text = data.draw(st.sampled_from(["", "\ufeff"])) + "".join(map(str.__add__, [header, *lines], breaks))
    path = tmp_path_factory.mktemp(kind) / "input.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(catalog, "DEFAULT_BUFFER_SIZE", read_size)
        mp.setattr(catalog, "BATCH_ROWS", batch_rows)
        assert outcome(read, io.StringIO(text, newline="")) == outcome(read, path)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=60, deadline=1000)
@given(data=st.data())
def test_arbitrary_bytes_parse_or_raise_a_package_error(kind, data, tmp_path_factory):
    read, header = READERS[kind]
    path = tmp_path_factory.mktemp(kind) / "input.csv"
    path.write_bytes(data.draw(file_bytes(header)))
    try:
        read(path)
    except AdasFleetError:
        pass


@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
@pytest.mark.parametrize("opened", [False, True], ids=["path", "stream"])
def test_row_errors_keep_their_class_and_gain_the_row(tmp_path, bom, opened):
    """A leading byte-order mark is dropped: the comment line after it is still a comment, and rows keep their numbers."""
    text = bom + "# note\nmake,model,model_year,feature,availability\n\nacme,alpha,2021,warp_drive,standard\n"
    path = tmp_path / "catalog.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(BadEnumValue, match=r"^row 4: unknown feature name 'warp_drive'$"):
        load_catalog(io.StringIO(text, newline="") if opened else path)


# Every character str.strip removes that a str.splitlines() line can hold, by kind: the three
# ASCII ones and two others.
PADDING = st.text(alphabet=" \t\x1f\xa0\u3000", max_size=2)
PADDED_CELL = st.builds(lambda left, core, right: left + core + right,
                        PADDING, st.sampled_from(["", "a", "1", "#", "# x", "é", "a b"]), PADDING)
ROW_LINE = st.one_of(
    st.lists(PADDED_CELL, min_size=3, max_size=3),  # as wide as the header; the first cell may be blank
    st.lists(PADDED_CELL, min_size=1, max_size=4),
).map(",".join)
SKIPPED_LINE = st.one_of(PADDING, st.just("  # x"), st.builds("{}#{}".format, PADDING, PADDED_CELL))


def naive_table(text: str, columns: tuple[str, ...], optional: tuple[str, ...] | None):
    """(rows, first error) the plain way: split as str.splitlines splits, every cell stripped,
    blank and '#' lines skipped. The first line read is the header, which is taken as valid."""
    rows, header = [], None
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.strip().startswith("#"):
            continue
        cells = [cell.strip() for cell in line.split(",")]
        if header is None:
            header = cells
        elif len(cells) != len(header):
            return rows, f"row {lineno}: expected {len(header)} columns, got {len(cells)}"
        elif optional is None:
            rows.append(tuple(cells))
        else:
            rows.append(tuple(cells[header.index(name)] if name in header else "" for name in columns + optional))
    return rows, None


@pytest.mark.parametrize("columns, optional", [(("a", "b", "c"), None), (("a", "b"), ("c", "z"))],
                         ids=["exact", "optional"])
@settings(max_examples=300, deadline=None)
@given(pads=st.lists(st.tuples(PADDING, PADDING), min_size=3, max_size=3), before=st.lists(SKIPPED_LINE, max_size=2),
       after=st.lists(st.one_of(ROW_LINE, SKIPPED_LINE), max_size=8),
       breaks=st.lists(st.sampled_from(["\n", "\r\n", "\r", "\u2028"]), min_size=11, max_size=11))
def test_table_reads_as_a_naive_reader_does(columns, optional, pads, before, after, breaks):
    """At the default batch size and at the small ones, whose blocks split rows, faults and comments apart."""
    header = ",".join(left + name + right for (left, right), name in zip(pads, "abc"))
    text = "".join(line + brk for line, brk in zip([*before, header, *after], breaks))
    for batch_rows in (catalog.BATCH_ROWS, 1, 2, 3):
        rows = []
        try:
            with pytest.MonkeyPatch.context() as mp, Table(io.StringIO(text, newline=""), columns, optional) as table:
                mp.setattr(catalog, "BATCH_ROWS", batch_rows)
                rows.extend(table)
            error = None
        except SchemaError as exc:
            error = str(exc)
        assert (rows, error) == naive_table(text, columns, optional), batch_rows


@pytest.mark.parametrize("batch_rows", [1, 2, catalog.BATCH_ROWS])
@pytest.mark.parametrize("text, columns, rows", [
    ("a,b\n1,2\n#3,4\n5,6\n", ("a", "b"), [("1", "2"), ("5", "6")]),  # a comment as wide as the header
    ("a\n1\n\n2\n", ("a",), [("1",), ("2",)]),  # a blank line in a file one column wide
], ids=["comment", "blank"])
def test_skipped_lines_of_a_clean_block_stay_skipped(monkeypatch, batch_rows, text, columns, rows):
    """Lines the naive-reader property cannot make: ASCII, nothing to strip, and the header's width."""
    monkeypatch.setattr(catalog, "BATCH_ROWS", batch_rows)
    with Table(io.StringIO(text, newline=""), columns) as table:
        assert list(table) == rows


@pytest.mark.parametrize("shift", range(-3, 3))
@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
def test_file_lines_split_as_the_whole_text_splits_across_read_blocks(tmp_path, shift, bom):
    """A file or an open stream is read in blocks: a line break that ends one block or straddles two ("\r"
    then "\n") still ends exactly one line, and no line is lost or split. So too for any short text read
    from a stream a few characters at a time, where a "\r\n" is not read as "\n" first."""
    breaks = ["\r\n", "\r", "\n", "\u2028", "\r\r\n", "\n\n", "\x0b"]
    text = "".join("x" * (io.DEFAULT_BUFFER_SIZE - 1 + shift) + brk + "é" * 3 for brk in breaks) + "\r"
    path = tmp_path / "lines.csv"
    path.write_text(bom + text, encoding="utf-8", newline="")
    assert list(text_lines(path)) == text.splitlines()
    assert list(text_lines(io.StringIO(bom + text, newline=""))) == text.splitlines()

    @settings(max_examples=50, deadline=None)
    @given(short=st.lists(st.sampled_from(["a", "b", ",", "\n", "\r", "\r\n", " ", "\x0b", "é", "\ufeff", "\u2028"]))
           .map("".join), read_size=st.integers(1, 9))
    def stream_splits_as_its_text_splits(short, read_size):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(catalog, "DEFAULT_BUFFER_SIZE", read_size)
            lines = list(text_lines(io.StringIO(bom + short, newline="")))
        assert lines == (bom + short).removeprefix("\ufeff").splitlines()

    stream_splits_as_its_text_splits()
