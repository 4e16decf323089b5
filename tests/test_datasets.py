import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from adasfleet.catalog import Availability, Catalog, FeatureId, load_catalog
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
    write_adoption_csv,
    write_fleet_csv,
)
from adasfleet.errors import (
    BadEnumValue,
    DuplicateKey,
    EmptyCohort,
    FractionOutOfRange,
    NonContiguousYears,
    SchemaError,
)
from adasfleet.vin import compute_check_digit

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

    def test_header_only_is_empty(self, tmp_path):
        path = write(tmp_path, "a.csv", "feature,model_year,std_frac,opt_frac\n")
        assert ingest_adoption_csv(path) == {}

    def test_fraction_above_one(self, tmp_path):
        path = write(tmp_path, "a.csv", "feature,model_year,std_frac,opt_frac\nadaptive_cruise_control,2020,1.2,0\n")
        with pytest.raises(FractionOutOfRange):
            ingest_adoption_csv(path)

    def test_gap_years_rejected_by_default(self, tmp_path):
        path = write(
            tmp_path, "a.csv",
            "feature,model_year,std_frac,opt_frac\n"
            "electronic_stability_control,2003,0.18,0.13\n"
            "electronic_stability_control,2008,0.61,0.14\n",
        )
        with pytest.raises(NonContiguousYears):
            ingest_adoption_csv(path)
        series = ingest_adoption_csv(path, allow_gaps=True)
        assert sorted(series[FeatureId.ELECTRONIC_STABILITY_CONTROL].points) == [2003, 2008]

    def test_huge_year_gap_is_counted_not_listed(self, tmp_path):
        path = write(
            tmp_path, "a.csv",
            "feature,model_year,std_frac,opt_frac\n"
            "adaptive_cruise_control,1,0.10,0.40\n"
            f"adaptive_cruise_control,{10**20},0.15,0.55\n",
        )
        missing = 10**20 - 2
        with pytest.raises(NonContiguousYears, match=rf"missing years \[2, 3, .*, 11\] and {missing - 10} more$"):
            ingest_adoption_csv(path)

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

    def test_gap_years_rejected_by_default(self, tmp_path):
        path = write(
            tmp_path, "f.csv",
            "feature,calendar_year,equipped_frac\n"
            "electronic_stability_control,2004,0.08\n"
            "electronic_stability_control,2009,0.25\n",
        )
        with pytest.raises(NonContiguousYears):
            ingest_fleet_csv(path)
        assert len(ingest_fleet_csv(path, allow_gaps=True)) == 1


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
        table = ingest_activation_csv(bundled_dir / "activation.csv")
        assert table.missing_priority() == []
        assert table.entries[ACC].rate == Decimal("0.57")
        assert table.entries[ACC].source is ActivationSource.OBSERVED
        lca = table.entries[LCA]
        assert lca.source is ActivationSource.ASSUMED_FROM_SIMILAR
        assert lca.donor is ACC
        assert table.entries[FeatureId.LANE_DEPARTURE_PREVENTION].source is ActivationSource.DISPUTED

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
        assert result.warning_count == 1

    def test_catalog_flags_pass_through(self, tmp_path):
        vin = vin_for_year_code("M", 7)
        path = write(tmp_path, "fars.csv", f"vin,crash_year,make,model\n{vin},2021,acme,alpha\n")
        result = ingest_fars_csv(path, catalog_for(["acme,alpha,2021,lane_centering_assist,standard"]))
        assert result.records[0].feature_flags[LCA] is Availability.STANDARD
        assert result.records[0].model_year == 2021

    def test_missing_vin_column(self, tmp_path):
        path = write(tmp_path, "fars.csv", "vehicle,crash_year\nx,2021\n")
        with pytest.raises(SchemaError):
            ingest_fars_csv(path, Catalog(records=()))

    def test_model_year_override_column_wins(self, tmp_path):
        vin = vin_for_year_code("M", 9)
        path = write(tmp_path, "fars.csv", f"vin,crash_year,make,model,model_year\n{vin},2021,acme,alpha,2019\n")
        result = ingest_fars_csv(path, Catalog(records=()))
        assert result.records[0].model_year == 2019

    def test_minimal_schema_gives_empty_flags_without_warnings(self, tmp_path):
        vin = vin_for_year_code("M", 11)
        path = write(tmp_path, "fars.csv", f"vin,crash_year\n{vin},2021\n")
        result = ingest_fars_csv(path, Catalog(records=()))
        assert result.records[0].feature_flags == {}
        assert result.warning_count == 0

    def test_accepted_plus_warned_covers_all_rows(self, tmp_path):
        rows = ["vin,crash_year", "BAD1,2021", "BAD2,2021", f"{vin_for_year_code('M', 13)},2021"]
        path = write(tmp_path, "fars.csv", "\n".join(rows) + "\n")
        result = ingest_fars_csv(path, Catalog(records=()))
        assert len(result.records) == 3
        assert result.warning_count == 2


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


def test_bundled_fixture_reproduces_published_fractions(bundled_dir):
    catalog = load_catalog(bundled_dir / "catalog.csv")
    result = ingest_fars_csv(bundled_dir / "fars_vehicles.csv", catalog)
    assert result.warning_count == 0
    lca = fars_availability_fraction(result.records, LCA, 2021)
    paeb = fars_availability_fraction(result.records, PAEB, 2021)
    assert lca == (Fraction(23, 100), Fraction(2, 100), 100)
    assert paeb == (Fraction(67, 100), Fraction(0, 1), 100)
