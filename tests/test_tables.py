"""The shared table reader, exercised through every reader built on it."""

import io

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from adasfleet.catalog import Catalog, load_catalog
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
