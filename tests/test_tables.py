"""The shared table reader, exercised through every reader built on it."""

import io

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from adasfleet import catalog
from adasfleet.catalog import Catalog, Table, load_catalog, text_lines
from adasfleet.datasets import ingest_activation_csv, ingest_adoption_csv, ingest_fars_csv, ingest_fleet_csv
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
    """A file is read in blocks: a line break that ends one block or straddles two ("\r" then "\n")
    still ends exactly one line, and no line is lost or split."""
    breaks = ["\r\n", "\r", "\n", "\u2028", "\r\r\n", "\n\n", "\x0b"]
    text = "".join("x" * (io.DEFAULT_BUFFER_SIZE - 1 + shift) + brk + "é" * 3 for brk in breaks) + "\r"
    path = tmp_path / "lines.csv"
    path.write_text(bom + text, encoding="utf-8", newline="")
    assert list(text_lines(path)) == text.splitlines()
