import io

import pytest
from hypothesis import given
import hypothesis.strategies as st

from adasfleet.catalog import (
    Availability,
    Catalog,
    DEFAULT_COVERAGE_FLOOR,
    FeatureId,
    MANDATE_ANNOUNCED,
    PRIORITY_FEATURES,
    load_catalog,
)
from adasfleet.errors import BadEnumValue, DuplicateKey, SchemaError

from oracles import oracle_availability

HEADER = "make,model,model_year,feature,availability"


def write_catalog(tmp_path, rows):
    path = tmp_path / "catalog.csv"
    path.write_text("\n".join([HEADER, *rows]) + "\n", encoding="utf-8")
    return path


WELL_FORMED = [
    "acme,alpha,2021,lane_centering_assist,standard",
    "acme,alpha,2021,adaptive_cruise_control,optional",
    "acme,beta,2019,lane_centering_assist,not_available",
]


def test_well_formed_file_loads(tmp_path):
    catalog = load_catalog(write_catalog(tmp_path, WELL_FORMED))
    assert len(catalog) == 3


def test_duplicate_key_rejected(tmp_path):
    path = write_catalog(tmp_path, [WELL_FORMED[0], WELL_FORMED[0]])
    with pytest.raises(DuplicateKey):
        load_catalog(path)


def test_duplicate_row_names_its_row(tmp_path):
    path = write_catalog(tmp_path, [*WELL_FORMED, " ACME , Alpha ,2021,lane_centering_assist,optional"])
    with pytest.raises(DuplicateKey) as info:
        load_catalog(path)
    assert str(info.value) == "row 5: duplicate catalog entry for ACME/Alpha/2021/lane_centering_assist"


def test_bad_availability_enum(tmp_path):
    path = write_catalog(tmp_path, ["acme,alpha,2021,lane_centering_assist,sometimes"])
    with pytest.raises(BadEnumValue):
        load_catalog(path)


def test_bad_feature_name(tmp_path):
    path = write_catalog(tmp_path, ["acme,alpha,2021,flux_capacitor,standard"])
    with pytest.raises(BadEnumValue):
        load_catalog(path)


def test_embedded_comma_changes_column_count(tmp_path):
    path = write_catalog(tmp_path, ['"acme, inc",alpha,2021,lane_centering_assist,standard'])
    with pytest.raises(SchemaError):
        load_catalog(path)


def test_wrong_header(tmp_path):
    path = tmp_path / "catalog.csv"
    path.write_text("make,model,year,feature,availability\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_catalog(path)


def test_row_errors_name_the_row(tmp_path):
    path = write_catalog(tmp_path, [WELL_FORMED[0], "acme,alpha,20x1,lane_centering_assist,standard"])
    with pytest.raises(SchemaError, match="row 3"):
        load_catalog(path)


class TestLookup:
    @pytest.fixture()
    def catalog(self, tmp_path):
        return load_catalog(write_catalog(tmp_path, WELL_FORMED))

    def test_stored_hit(self, catalog):
        got = catalog.lookup_availability("acme", "alpha", 2021, FeatureId.LANE_CENTERING_ASSIST)
        assert got is Availability.STANDARD

    def test_miss_below_coverage_floor_is_unknown(self, catalog):
        got = catalog.lookup_availability("acme", "alpha", 2015, FeatureId.LANE_CENTERING_ASSIST)
        assert got is Availability.UNKNOWN

    def test_miss_at_or_above_floor_is_not_available(self, catalog):
        got = catalog.lookup_availability("acme", "alpha", 2019, FeatureId.LANE_CENTERING_ASSIST)
        assert got is Availability.NOT_AVAILABLE

    def test_case_insensitive_keys(self, catalog):
        got = catalog.lookup_availability("ACME", "Alpha", 2021, FeatureId.LANE_CENTERING_ASSIST)
        assert got is Availability.STANDARD

    def test_every_loaded_row_round_trips(self, catalog):
        for rec in catalog.records:
            assert catalog.lookup_availability(rec.make, rec.model, rec.model_year, rec.feature) is rec.availability

    @given(
        make=st.text(min_size=1, max_size=8),
        year=st.integers(min_value=2017, max_value=2100),
        feature=st.sampled_from(list(FeatureId)),
    )
    def test_never_unknown_at_or_above_floor(self, make, year, feature):
        catalog = Catalog(())
        assert catalog.lookup_availability(make, "m", year, feature) is not Availability.UNKNOWN


def test_priority_features_are_the_first_six():
    assert len(PRIORITY_FEATURES) == 6
    assert PRIORITY_FEATURES[0] is FeatureId.ADAPTIVE_CRUISE_CONTROL
    assert PRIORITY_FEATURES[-1] is FeatureId.PEDESTRIAN_AUTOMATIC_EMERGENCY_BRAKING


def test_bundled_mandate_row():
    assert MANDATE_ANNOUNCED == {FeatureId.ELECTRONIC_STABILITY_CONTROL: 2006}


def test_catalog_rejects_duplicates_in_records():
    row = ("a", "b", 2020, FeatureId.LANE_CENTERING_ASSIST, Availability.STANDARD)
    with pytest.raises(DuplicateKey) as info:
        Catalog((row, row))
    assert str(info.value) == "duplicate catalog entry for a/b/2020/lane_centering_assist"


class TestInvariance:
    """Row order, the case and padding of make and model, and whether the
    names are interned never change a lookup."""

    MAKES = ("acme", "Bolt Motors", "cirrus")
    MODELS = ("alpha", "Beta 2", "gamma")
    YEARS = range(2014, 2021)  # straddles the default coverage floor, 2017

    rows = st.lists(
        st.tuples(
            st.sampled_from(MAKES),
            st.sampled_from(MODELS),
            st.sampled_from(YEARS),
            st.sampled_from([f.value for f in FeatureId]),
            st.sampled_from(["standard", "optional", "not_available"]),
        ),
        max_size=40,
        unique_by=lambda row: row[:4],
    )

    @staticmethod
    def respell(rng, name):
        cased = "".join(c.upper() if rng.random() < 0.5 else c.lower() for c in name)
        return rng.choice(["", " ", "\t"]) + cased + rng.choice(["", " ", "  "])

    @staticmethod
    def csv(rows):
        return io.StringIO("\n".join([HEADER, *(",".join(map(str, row)) for row in rows)]) + "\n")

    @staticmethod
    def typed(rows):
        return tuple((m, mo, y, FeatureId(f), Availability(a)) for m, mo, y, f, a in rows)

    @given(rows, st.randoms())
    def test_lookups_ignore_order_case_padding_and_interning(self, rows, rng):
        shuffled = rng.sample(rows, len(rows))
        respelled = [(self.respell(rng, m), self.respell(rng, mo), y, f, a) for m, mo, y, f, a in rows]
        # Names joined at run time are new string objects, never interned.
        runtime = [("".join(list(m.upper())), "".join(list(mo)), y, f, a) for m, mo, y, f, a in shuffled]
        catalogs = [
            load_catalog(self.csv(rows)),
            load_catalog(self.csv(shuffled)),
            load_catalog(self.csv(respelled)),
            Catalog(self.typed(respelled)),
            Catalog(self.typed(runtime)),
        ]
        for make in self.MAKES:
            for model in self.MODELS:
                built = "".join(list(make)), "".join(list(model))
                assert built[0] is not make and built[1] is not model
                spellings = [(make, model), (self.respell(rng, make), self.respell(rng, model)), built]
                for year in self.YEARS:
                    for feature in FeatureId:
                        expected = oracle_availability(rows, make, model, year, feature.value)
                        for catalog in catalogs:
                            for spelled_make, spelled_model in spellings:
                                got = catalog.lookup_availability(spelled_make, spelled_model, year, feature)
                                assert got.value == expected

    @given(rows.filter(bool), st.randoms(), st.data())
    def test_duplicates_differing_in_case_or_padding_are_rejected(self, rows, rng, data):
        make, model, year, feature, _ = data.draw(st.sampled_from(rows))
        twin = (self.respell(rng, make), self.respell(rng, model), year, feature,
                data.draw(st.sampled_from(["standard", "optional", "not_available"])))
        with_twin = rng.sample(rows + [twin], len(rows) + 1)
        with pytest.raises(DuplicateKey):
            load_catalog(self.csv(with_twin))
        with pytest.raises(DuplicateKey):
            Catalog(self.typed(with_twin))


class TestRecordsView:
    """`records` is rebuilt from the index, in normalized spelling, and feeds
    `Catalog` back to the same lookups."""

    @staticmethod
    def assert_round_trips(catalog, data_rows):
        assert len(catalog) == len(catalog.records) == data_rows
        rebuilt = Catalog((r.make, r.model, r.model_year, r.feature, r.availability) for r in catalog.records)
        probes = [(rec.make, rec.model, rec.model_year, rec.feature) for rec in catalog.records]
        for year in (DEFAULT_COVERAGE_FLOOR - 1, DEFAULT_COVERAGE_FLOOR):
            probes += [("nobody", "none", year, feature) for feature in FeatureId]
        for probe in probes:
            assert rebuilt.lookup_availability(*probe) is catalog.lookup_availability(*probe)

    def test_bundled_catalog(self, bundled_dir):
        path = bundled_dir / "catalog.csv"
        lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line and not line.startswith("#")]
        self.assert_round_trips(load_catalog(path), len(lines) - 1)

    @given(TestInvariance.rows, st.randoms())
    def test_generated_catalog(self, rows, rng):
        respelled = [(TestInvariance.respell(rng, m), TestInvariance.respell(rng, mo), *rest) for m, mo, *rest in rows]
        catalog = load_catalog(TestInvariance.csv(respelled))
        for rec in catalog.records:
            assert rec.make == rec.make.strip().lower() and rec.model == rec.model.strip().lower()
        self.assert_round_trips(catalog, len(rows))
