import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
import hypothesis.strategies as st

from adasfleet.catalog import PRIORITY_FEATURES, Availability, Catalog, FeatureId, load_catalog
from adasfleet.cli import main
from adasfleet.datasets import (
    ActivationSource,
    AdoptionPoint,
    AdoptionSeries,
    VehicleRecord,
    FleetSeries,
    bundled_data_dir,
    fars_adoption_series,
    fars_availability_fraction,
    ingest_activation_csv,
    ingest_adoption_csv,
    ingest_fars_csv,
    ingest_fleet_csv,
    missing_activation,
)
from adasfleet.estimator import fleet_any_feature_share
from adasfleet.errors import (
    BadEnumValue,
    DuplicateKey,
    EmptyCohort,
    FractionOutOfRange,
    SchemaError,
)
from adasfleet.vin import compute_check_digit

from oracles import (
    oracle_cohort_counts,
    oracle_cohort_series,
    oracle_crash_records,
    write_adoption_csv,
    write_fleet_csv,
)

ACC = FeatureId.ADAPTIVE_CRUISE_CONTROL
LCA = FeatureId.LANE_CENTERING_ASSIST
PAEB = FeatureId.PEDESTRIAN_AUTOMATIC_EMERGENCY_BRAKING


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestAdoptionIngestion:
    def test_single_row(self, tmp_path):
        path = write(tmp_path, "a.csv", "feature,model_year,std_frac,opt_frac\nadaptive_cruise_control,2020,0.15,0.55\n")
        series = ingest_adoption_csv(path)
        assert series[ACC].points[2020] == AdoptionPoint(Decimal("0.15"), Decimal("0.55"))

    def test_fraction_sum_above_one(self, tmp_path):
        path = write(tmp_path, "a.csv", "feature,model_year,std_frac,opt_frac\nadaptive_cruise_control,2020,0.70,0.40\n")
        with pytest.raises(FractionOutOfRange, match="row 2"):
            ingest_adoption_csv(path)

    @pytest.mark.parametrize("std, opt, over", [
        ("0.5", "0.50000000000000000000000000001", True),  # the default 28-digit sum rounds to 1
        ("0.50000000000000000000000000001", "0.5", True),
        ("1", "1E-999999999", True),
        ("5000000000e-1000000000", "1", True),
        ("0.5", "0.5", False),
        ("0.5", "0.49999999999999999999999999999999", False),
        ("1E-999999999", "0.99", False),
        ("0e999999999", "1", False),
        ("0.3333333333333333333333333333333", "0.6666666666666666666666666666667", False),
    ])
    def test_fraction_sum_is_checked_exactly(self, tmp_path, std, opt, over):
        path = write(tmp_path, "a.csv", f"feature,model_year,std_frac,opt_frac\nlane_keep_assist,2020,{std},{opt}\n")
        result = CliRunner().invoke(main, ["ingest", "--kind", "adoption", str(path)])
        if over:
            assert result.exit_code == 1
            assert result.output == f"error: row 2: std {Decimal(std)} + opt {Decimal(opt)} must stay within [0, 1]\n"
        else:
            assert result.exit_code == 0, result.output
            point = ingest_adoption_csv(path)[FeatureId.LANE_KEEP_ASSIST].points[2020]
            assert point == AdoptionPoint(Decimal(std), Decimal(opt))

    def test_header_only_is_empty(self, tmp_path):
        path = write(tmp_path, "a.csv", "feature,model_year,std_frac,opt_frac\n")
        assert ingest_adoption_csv(path) == {}

    def test_fraction_above_one(self, tmp_path):
        path = write(tmp_path, "a.csv", "feature,model_year,std_frac,opt_frac\nadaptive_cruise_control,2020,1.2,0\n")
        with pytest.raises(FractionOutOfRange):
            ingest_adoption_csv(path)

    def test_gap_years_are_read(self, tmp_path):
        path = write(
            tmp_path, "a.csv",
            "feature,model_year,std_frac,opt_frac\n"
            "electronic_stability_control,2003,0.18,0.13\n"
            "electronic_stability_control,2008,0.61,0.14\n",
        )
        series = ingest_adoption_csv(path)
        assert sorted(series[FeatureId.ELECTRONIC_STABILITY_CONTROL].points) == [2003, 2008]

    def test_huge_year_gap_is_counted_not_listed(self, tmp_path):
        path = write(
            tmp_path, "a.csv",
            "feature,model_year,std_frac,opt_frac\n"
            "adaptive_cruise_control,1,0.10,0.40\n"
            f"adaptive_cruise_control,{10**20},0.15,0.55\n",
        )
        result = CliRunner().invoke(main, ["ingest", "--kind", "adoption", str(path)])
        assert result.exit_code == 0 and result.stdout == "ok: 1 adoption series, 2 points\n"
        missing = 10**20 - 2
        assert result.stderr == (
            "note: adoption series for adaptive_cruise_control is missing years "
            f"[2, 3, 4, 5, 6, 7, 8, 9, 10, 11] and {missing - 10} more\n"
        )

    def test_contiguous_years_accepted(self, tmp_path):
        path = write(
            tmp_path, "a.csv",
            "feature,model_year,std_frac,opt_frac\n"
            "adaptive_cruise_control,2019,0.10,0.40\n"
            "adaptive_cruise_control,2020,0.15,0.55\n",
        )
        assert len(ingest_adoption_csv(path)[ACC].points) == 2

    def test_duplicate_year_rejected(self, tmp_path):
        path = write(
            tmp_path, "a.csv",
            "feature,model_year,std_frac,opt_frac\n"
            "adaptive_cruise_control,2020,0.15,0.55\n"
            "adaptive_cruise_control,2020,0.15,0.55\n",
        )
        with pytest.raises(DuplicateKey):
            ingest_adoption_csv(path)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = write(
            tmp_path, "a.csv",
            "# leading note\nfeature,model_year,std_frac,opt_frac\n\n# row note\nadaptive_cruise_control,2020,0.15,0.55\n",
        )
        assert len(ingest_adoption_csv(path)) == 1

    def test_unknown_feature(self, tmp_path):
        path = write(tmp_path, "a.csv", "feature,model_year,std_frac,opt_frac\nwarp_drive,2020,0.1,0.2\n")
        with pytest.raises(BadEnumValue):
            ingest_adoption_csv(path)


class TestFleetIngestion:
    def test_rows(self, tmp_path):
        path = write(
            tmp_path, "f.csv",
            "feature,calendar_year,equipped_frac\n"
            "lane_departure_warning,2020,0.16\n"
            "rear_parking_sensors,2014,0.15\n",
        )
        series = ingest_fleet_csv(path)
        assert series[FeatureId.LANE_DEPARTURE_WARNING].points[2020] == Decimal("0.16")
        assert series[FeatureId.REAR_PARKING_SENSORS].points[2014] == Decimal("0.15")

    def test_fraction_out_of_range(self, tmp_path):
        path = write(tmp_path, "f.csv", "feature,calendar_year,equipped_frac\nlane_departure_warning,2020,1.2\n")
        with pytest.raises(FractionOutOfRange):
            ingest_fleet_csv(path)

    def test_gap_years_are_read(self, tmp_path):
        path = write(
            tmp_path, "f.csv",
            "feature,calendar_year,equipped_frac\n"
            "electronic_stability_control,2004,0.08\n"
            "electronic_stability_control,2009,0.25\n",
        )
        series = ingest_fleet_csv(path)
        assert series[FeatureId.ELECTRONIC_STABILITY_CONTROL].points == {2004: Decimal("0.08"), 2009: Decimal("0.25")}


years_strategy = st.integers(min_value=1990, max_value=2030)
frac_strategy = st.integers(min_value=0, max_value=100).map(lambda n: Decimal(n) / 100)


@st.composite
def adoption_series_sets(draw):
    result = {}
    for feature in draw(st.sets(st.sampled_from(list(FeatureId)), min_size=1, max_size=3)):
        start = draw(years_strategy)
        points = {}
        for offset in range(draw(st.integers(min_value=1, max_value=5))):
            std = draw(frac_strategy)
            opt = draw(st.integers(min_value=0, max_value=100).map(lambda n, s=std: min(Decimal(n) / 100, 1 - s)))
            points[start + offset] = AdoptionPoint(std, opt)
        result[feature] = AdoptionSeries(feature, points)
    return result


@st.composite
def fleet_series_sets(draw):
    result = {}
    for feature in draw(st.sets(st.sampled_from(list(FeatureId)), min_size=1, max_size=3)):
        start = draw(years_strategy)
        points = {start + i: draw(frac_strategy) for i in range(draw(st.integers(min_value=1, max_value=5)))}
        result[feature] = FleetSeries(feature, points)
    return result


class TestRoundTrip:
    @given(series_set=adoption_series_sets())
    def test_adoption_write_then_ingest(self, series_set, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "a.csv"
        write_adoption_csv(series_set, path)
        assert ingest_adoption_csv(path) == series_set

    @given(series_set=fleet_series_sets())
    def test_fleet_write_then_ingest(self, series_set, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "f.csv"
        write_fleet_csv(series_set, path)
        assert ingest_fleet_csv(path) == series_set


class TestActivationIngestion:
    def test_bundled_table_loads_with_sources(self, bundled_dir):
        entries = ingest_activation_csv(bundled_dir / "activation.csv")
        assert missing_activation(entries) == []
        assert entries[ACC].rate == Decimal("0.57")
        assert entries[ACC].source is ActivationSource.OBSERVED
        lca = entries[LCA]
        assert lca.source is ActivationSource.ASSUMED_FROM_SIMILAR
        assert lca.donor is ACC
        assert entries[FeatureId.LANE_DEPARTURE_PREVENTION].source is ActivationSource.DISPUTED

    def test_assumed_requires_donor(self, tmp_path):
        path = write(tmp_path, "act.csv", "feature,rate,source,donor\nlane_centering_assist,0.57,assumed_from_similar,\n")
        with pytest.raises(BadEnumValue):
            ingest_activation_csv(path)

    def test_bad_source(self, tmp_path):
        path = write(tmp_path, "act.csv", "feature,rate,source,donor\nlane_centering_assist,0.57,guessed,\n")
        with pytest.raises(BadEnumValue):
            ingest_activation_csv(path)


def catalog_for(rows):
    text = "make,model,model_year,feature,availability\n" + "\n".join(rows) + "\n"
    import io

    return load_catalog(io.StringIO(text))


def vin_for_year_code(code: str, serial: int) -> str:
    draft = f"1ATCDEFG0{code}A{serial:06d}"
    return draft[:8] + compute_check_digit(draft) + draft[9:]


class TestFarsIngestion:
    def test_bad_vin_is_warned_not_dropped(self, tmp_path):
        good = vin_for_year_code("M", 1)
        rows = "\n".join(
            [
                "vin,crash_year,make,model",
                f"{good},2021,acme,alpha",
                f"{vin_for_year_code('M', 2)},2021,acme,alpha",
                f"{vin_for_year_code('M', 3)},2021,acme,alpha",
                "NOTAVIN,2021,acme,alpha",
            ]
        )
        path = write(tmp_path, "fars.csv", rows + "\n")
        result = ingest_fars_csv(path, catalog_for(["acme,alpha,2021,lane_centering_assist,standard"]))
        assert len(result.records) == 4
        assert len(result.warnings) == 1

    def test_catalog_flags_pass_through(self, tmp_path):
        vin = vin_for_year_code("M", 7)
        path = write(tmp_path, "fars.csv", f"vin,crash_year,make,model\n{vin},2021,acme,alpha\n")
        result = ingest_fars_csv(path, catalog_for(["acme,alpha,2021,lane_centering_assist,standard"]))
        assert list(result.records.by_key) == [("acme", "alpha", 2021)]
        flags, rows = result.records.by_key["acme", "alpha", 2021]
        assert flags[LCA] is Availability.STANDARD
        assert (rows, len(result.records), result.warnings) == (1, 1, [])

    def test_missing_vin_column(self, tmp_path):
        path = write(tmp_path, "fars.csv", "vehicle,crash_year\nx,2021\n")
        with pytest.raises(SchemaError):
            ingest_fars_csv(path, Catalog(()))

    def test_model_year_override_column_wins(self, tmp_path):
        vin = vin_for_year_code("M", 9)
        path = write(tmp_path, "fars.csv", f"vin,crash_year,make,model,model_year\n{vin},2021,acme,alpha,2019\n")
        result = ingest_fars_csv(path, Catalog(()))
        assert [(key, rows) for key, (_, rows) in result.records.by_key.items()] == [(("acme", "alpha", 2019), 1)]
        assert (len(result.records), result.warnings) == (1, [])

    def test_minimal_schema_gives_empty_flags_without_warnings(self, tmp_path):
        vin = vin_for_year_code("M", 11)
        path = write(tmp_path, "fars.csv", f"vin,crash_year\n{vin},2021\n")
        result = ingest_fars_csv(path, Catalog(()))
        assert result.records.by_key == {("", "", 2021): ({}, 1)}
        assert (len(result.records), result.warnings) == (1, [])

    def test_accepted_plus_warned_covers_all_rows(self, tmp_path):
        rows = ["vin,crash_year", "BAD1,2021", "BAD2,2021", f"{vin_for_year_code('M', 13)},2021"]
        path = write(tmp_path, "fars.csv", "\n".join(rows) + "\n")
        result = ingest_fars_csv(path, Catalog(()))
        assert len(result.records) == 3
        assert len(result.warnings) == 2


    @pytest.mark.parametrize("header, column", [
        ("vin,crash_year,vin", "vin"),
        ("vin,crash_year,make,model,make", "make"),
    ])
    def test_column_read_twice_is_rejected(self, tmp_path, header, column):
        cells = ",".join([vin_for_year_code("M", 15), "2021"] + ["xx"] * (header.count(",") - 1))
        path = write(tmp_path, "fars.csv", f"{header}\n{cells}\n")
        with pytest.raises(SchemaError, match=rf"^file must have one '{column}' column, got \[.*\]$"):
            ingest_fars_csv(path, Catalog(()))

    def test_ignored_column_may_repeat(self, tmp_path):
        path = write(tmp_path, "fars.csv", f"vin,crash_year,note,note\n{vin_for_year_code('M', 17)},2021,a,b\n")
        result = ingest_fars_csv(path, Catalog(()))
        assert result.records.by_key == {("", "", 2021): ({}, 1)}
        assert (len(result.records), result.warnings) == (1, [])

    def test_bad_crash_year_is_an_error_naming_its_row(self, tmp_path):
        path = write(tmp_path, "fars.csv", "vin,crash_year\n1ATCDEFG7MA000000,twenty\n")
        with pytest.raises(SchemaError) as exc_info:
            ingest_fars_csv(path, Catalog(()))
        assert str(exc_info.value) == "row 2: crash_year 'twenty' is not an integer year"

    def test_records_from_an_open_stream_equal_those_from_its_path(self, tmp_path):
        rows = ["vin,crash_year,make,model", f"{vin_for_year_code('M', 19)},2021,ACME,Alpha", "NOTAVIN,2021,acme,",
                f"{vin_for_year_code('U', 21)},2022,acme,alpha", f"{vin_for_year_code('L', 23)},2021,zeta,omega"]
        path = write(tmp_path, "fars.csv", "\ufeff" + "\r\n".join(rows) + "\r\n")
        catalog = catalog_for(["acme,alpha,2021,lane_centering_assist,standard"])
        from_path = ingest_fars_csv(path, catalog)
        with open(path, encoding="utf-8", newline="") as stream:
            from_stream = ingest_fars_csv(stream, catalog)
        assert len(from_stream.records) == len(from_path.records) == 4
        assert from_stream.warnings == from_path.warnings
        assert from_stream.records.by_key == from_path.records.by_key
        assert from_stream.records.by_key[("ACME", "Alpha", 2021)][0][LCA] is Availability.STANDARD


def cohort_record(feature_flags, model_year=2021):
    return VehicleRecord(vin="", crash_year=2021, model_year=model_year, feature_flags=feature_flags)


class TestFarsFractions:
    def make_cohort(self, standard, optional, not_available, unknown=0):
        records = []
        records += [cohort_record({LCA: Availability.STANDARD}) for _ in range(standard)]
        records += [cohort_record({LCA: Availability.OPTIONAL}) for _ in range(optional)]
        records += [cohort_record({LCA: Availability.NOT_AVAILABLE}) for _ in range(not_available)]
        records += [cohort_record({LCA: Availability.UNKNOWN}) for _ in range(unknown)]
        return records

    def test_published_cohort_proportions(self):
        std, opt, n = fars_availability_fraction(self.make_cohort(23, 2, 75), LCA, 2021)
        assert (std, opt, n) == (Fraction(23, 100), Fraction(2, 100), 100)

    def test_unknown_excluded_from_denominator(self):
        std, opt, n = fars_availability_fraction(self.make_cohort(23, 2, 75, unknown=40), LCA, 2021)
        assert n == 100
        assert std == Fraction(23, 100)

    def test_empty_cohort(self):
        with pytest.raises(EmptyCohort):
            fars_availability_fraction(self.make_cohort(1, 0, 0), LCA, 1999)

    def test_all_unknown_is_empty(self):
        with pytest.raises(EmptyCohort):
            fars_availability_fraction(self.make_cohort(0, 0, 0, unknown=5), LCA, 2021)

    def test_permutation_invariant(self):
        records = self.make_cohort(23, 2, 75)
        expected = fars_availability_fraction(records, LCA, 2021)
        rng = random.Random(7)
        for _ in range(5):
            rng.shuffle(records)
            assert fars_availability_fraction(records, LCA, 2021) == expected

    @given(
        std=st.integers(min_value=0, max_value=30),
        opt=st.integers(min_value=0, max_value=30),
        na=st.integers(min_value=0, max_value=30),
    )
    def test_fractions_sum_within_one(self, std, opt, na):
        if std + opt + na == 0:
            return
        s, o, n = fars_availability_fraction(self.make_cohort(std, opt, na), LCA, 2021)
        assert s + o <= 1
        assert n == std + opt + na

    def test_series_from_cohorts(self):
        records = self.make_cohort(1, 0, 1) + [
            cohort_record({LCA: Availability.STANDARD}, model_year=2020),
            cohort_record({LCA: Availability.UNKNOWN}, model_year=2015),
        ]
        series = fars_adoption_series(records, LCA)
        assert sorted(series.points) == [2020, 2021]
        assert series.points[2021].std == Fraction(1, 2)


@st.composite
def crash_cohorts(draw):
    """Records over a few model years (some None), each flag missing, unknown or known."""
    flags = st.dictionaries(st.sampled_from([LCA, PAEB]), st.sampled_from(list(Availability)))
    years = st.one_of(st.none(), st.integers(min_value=2018, max_value=2021))
    return [cohort_record(draw(flags), model_year=draw(years)) for _ in range(draw(st.integers(0, 25)))]


class TestCohortPassAgainstOracle:
    @given(records=crash_cohorts(), feature=st.sampled_from([LCA, PAEB]),
           year=st.integers(min_value=2017, max_value=2022), rng=st.randoms())
    def test_matches_per_cohort_scan_and_ignores_order_and_duplication(self, records, feature, year, rng):
        expected = oracle_cohort_series(records, feature)
        shuffled = list(records)
        rng.shuffle(shuffled)
        for variant, copies in ((records, 1), (shuffled, 1), (records + shuffled, 2)):
            if expected:
                series = fars_adoption_series(variant, feature)
                assert list(series.points) == list(expected)
                assert series.points == {
                    y: AdoptionPoint(Fraction(s, n), Fraction(o, n)) for y, (s, o, n) in expected.items()
                }
            else:
                with pytest.raises(EmptyCohort) as exc_info:
                    fars_adoption_series(variant, feature)
                assert str(exc_info.value) == f"no {feature.value} cohorts with known availability in the records"

            standard, optional, known = oracle_cohort_counts(records, feature, year)
            if known:
                assert fars_availability_fraction(variant, feature, year) == (
                    Fraction(standard, known), Fraction(optional, known), known * copies
                )
            else:
                with pytest.raises(EmptyCohort) as exc_info:
                    fars_availability_fraction(variant, feature, year)
                assert str(exc_info.value) == (
                    f"no {feature.value} records with known availability for model year {year}"
                )


CRASH_MAKES = ("acme", "bolt")
CRASH_MODELS = ("alpha", "beta")
CASE_VARIANTS = (str.lower, str.upper, str.title)
# 2012-2021 in the 2010-2039 cycle (position 7 is a letter), and three codes no model year has.
CRASH_YEAR_CODES = "CDEFGHJKLM" + "UZ0"


@st.composite
def crash_files(draw):
    """(catalog rows, crash CSV text): keys repeated under case variants, blank makes or models,
    an optional model_year column, wrong check digits, U/Z/0 year codes and keys the catalog
    lacks on both sides of the 2017 coverage floor."""
    identities = st.tuples(st.sampled_from(CRASH_MAKES), st.sampled_from(CRASH_MODELS), st.integers(2012, 2021))
    catalog_keys = draw(st.lists(identities, unique=True, max_size=6))
    catalog_rows = []
    for make, model, year in catalog_keys:
        spelled = draw(st.sampled_from(CASE_VARIANTS))
        for feature in draw(st.lists(st.sampled_from(list(FeatureId)), unique=True, max_size=4)):
            availability = draw(st.sampled_from(["standard", "optional", "not_available"]))
            catalog_rows.append((spelled(make), spelled(model), year, feature.value, availability))
    with_year_column = draw(st.booleans())
    lines = ["vin,crash_year,make,model" + (",model_year" if with_year_column else "")]
    for serial in range(draw(st.integers(0, 30))):
        vin = vin_for_year_code(draw(st.sampled_from(CRASH_YEAR_CODES)), serial)
        if draw(st.integers(0, 9)) == 0:
            vin = vin[:8] + ("X" if vin[8] != "X" else "0") + vin[9:]
        make = draw(st.sampled_from(CASE_VARIANTS))(draw(st.sampled_from(CRASH_MAKES + ("",))))
        model = draw(st.sampled_from(CASE_VARIANTS))(draw(st.sampled_from(CRASH_MODELS + ("",))))
        cells = [vin, str(draw(st.integers(2021, 2023))), make, model]
        if with_year_column:
            cells.append(draw(st.sampled_from(["", "2013", "2016", "2017", "2020"])))
        lines.append(",".join(cells))
    return catalog_rows, "\n".join(lines) + "\n"


def expected_records(catalog_rows, text):
    """One VehicleRecord per crash row of `oracle_crash_records`."""
    rows = oracle_crash_records(catalog_rows, text, [f.value for f in FeatureId])
    return [VehicleRecord(vin, crash_year, model_year, {FeatureId(f): Availability(a) for f, a in flags.items()})
            for vin, crash_year, model_year, flags in rows]


class TestCrashFileAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(crash_file=crash_files())
    def test_series_fractions_and_records_equal_the_per_row_oracle(self, crash_file, tmp_path_factory):
        catalog_rows, text = crash_file
        path = tmp_path_factory.mktemp("crash") / "fars.csv"
        path.write_text(text, encoding="utf-8")
        result = ingest_fars_csv(path, Catalog(
            (make, model, year, FeatureId(feature), Availability(availability))
            for make, model, year, feature, availability in catalog_rows
        ))
        expected = expected_records(catalog_rows, text)
        for feature in PRIORITY_FEATURES:
            series = oracle_cohort_series(expected, feature)
            if series:
                assert fars_adoption_series(result.records, feature).points == {
                    y: AdoptionPoint(Fraction(s, n), Fraction(o, n)) for y, (s, o, n) in series.items()
                }
            else:
                with pytest.raises(EmptyCohort):
                    fars_adoption_series(result.records, feature)
            for year in range(2012, 2022):
                standard, optional, known = oracle_cohort_counts(expected, feature, year)
                if known:
                    assert fars_availability_fraction(result.records, feature, year) == (
                        Fraction(standard, known), Fraction(optional, known), known
                    )
                else:
                    with pytest.raises(EmptyCohort):
                        fars_availability_fraction(result.records, feature, year)
        assert len(result.records) == len(expected)
        weighted = Counter()
        for (_, _, model_year), (flags, rows) in result.records.by_key.items():
            weighted[model_year, frozenset(flags.items())] += rows
        assert weighted == Counter((rec.model_year, frozenset(rec.feature_flags.items())) for rec in expected)
        if expected:
            assert fleet_any_feature_share(result.records, PRIORITY_FEATURES) == fleet_any_feature_share(
                expected, PRIORITY_FEATURES)
        else:
            with pytest.raises(EmptyCohort):
                fleet_any_feature_share(result.records, PRIORITY_FEATURES)


def test_bundled_fixture_reproduces_published_fractions(bundled_dir):
    catalog = load_catalog(bundled_dir / "catalog.csv")
    result = ingest_fars_csv(bundled_dir / "fars_vehicles.csv", catalog)
    assert len(result.warnings) == 0
    lca = fars_availability_fraction(result.records, LCA, 2021)
    paeb = fars_availability_fraction(result.records, PAEB, 2021)
    assert lca == (Fraction(23, 100), Fraction(2, 100), 100)
    assert paeb == (Fraction(67, 100), Fraction(0, 1), 100)
    assert fleet_any_feature_share(result.records, {LCA, PAEB}) == (67, Fraction(67, 100))
