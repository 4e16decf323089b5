import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from adasfleet.catalog import Availability, FeatureId
from adasfleet.datasets import (
    ActivationEntry,
    ActivationSource,
    ActivationTable,
    AdoptionPoint,
    AdoptionSeries,
    VehicleRecord,
    FleetSeries,
)
from adasfleet.errors import EmptyCohort, InsufficientData, NoCandidateQualifies, YearNotInSeries
from adasfleet.estimator import (
    CautionKind,
    EstimatorConfig,
    PenetrationEstimate,
    Provenance,
    ProvenanceKind,
    compose_activated,
    estimate_equipped,
    estimate_table,
    fleet_any_feature_share,
    forecast_error,
    match_lag,
    transfer_fleet_rate,
)

from oracles import brute_force_match

ACC = FeatureId.ADAPTIVE_CRUISE_CONTROL
LDW = FeatureId.LANE_DEPARTURE_WARNING
LDP = FeatureId.LANE_DEPARTURE_PREVENTION
RPS = FeatureId.REAR_PARKING_SENSORS
ESC = FeatureId.ELECTRONIC_STABILITY_CONTROL
LCA = FeatureId.LANE_CENTERING_ASSIST
PAEB = FeatureId.PEDESTRIAN_AUTOMATIC_EMERGENCY_BRAKING


def series(feature, **year_points):
    points = {int(y.lstrip("y")): AdoptionPoint(Decimal(s), Decimal(o)) for y, (s, o) in year_points.items()}
    return AdoptionSeries(feature, points)


class TestMatchLag:
    def test_acc_matches_ldw_two_years_back(self):
        match = match_lag(
            series(ACC, y2020=("0.15", "0.55")),
            [series(LDW, y2018=("0.16", "0.55"))],
        )
        assert (match.analog, match.lag_years) == (LDW, 2)

    def test_ldp_matches_rear_sensors_eight_years_back(self):
        match = match_lag(
            series(LDP, y2020=("0.21", "0.38")),
            [series(RPS, y2012=("0.18", "0.49"))],
        )
        assert (match.analog, match.lag_years) == (RPS, 8)

    def test_paeb_matches_stability_control_thirteen_back(self):
        target = AdoptionSeries(PAEB, {2021: AdoptionPoint(Fraction(67, 100), Fraction(0, 1))})
        match = match_lag(target, [series(ESC, y2008=("0.61", "0.14"))])
        assert (match.analog, match.lag_years) == (ESC, 13)

    def test_identical_candidate_self_matches_at_lag_zero(self):
        target = series(ACC, y2019=("0.10", "0.40"), y2020=("0.15", "0.55"))
        twin = AdoptionSeries(LDW, dict(target.points))
        match = match_lag(target, [series(RPS, y2012=("0.18", "0.49")), twin])
        assert (match.analog, match.lag_years, match.distance) == (LDW, 0, 0.0)

    def test_no_overlap_anywhere_raises(self):
        with pytest.raises(NoCandidateQualifies):
            match_lag(series(ACC, y2020=("0.15", "0.55")), [series(LDW, y1980=("0.16", "0.55"))])

    def test_empty_candidate_list_raises(self):
        with pytest.raises(NoCandidateQualifies):
            match_lag(series(ACC, y2020=("0.15", "0.55")), [])

    def test_ties_break_toward_smaller_lag(self):
        candidate = series(LDW, y2016=("0.15", "0.55"), y2018=("0.15", "0.55"))
        match = match_lag(series(ACC, y2020=("0.15", "0.55")), [candidate])
        assert match.lag_years == 2

    def test_ties_break_toward_earlier_candidate(self):
        a = series(LDW, y2018=("0.16", "0.55"))
        b = AdoptionSeries(RPS, dict(a.points))
        match = match_lag(series(ACC, y2020=("0.15", "0.55")), [a, b])
        assert match.analog is LDW
        match = match_lag(series(ACC, y2020=("0.15", "0.55")), [b, a])
        assert match.analog is RPS

    def test_min_overlap_enforced(self):
        config = EstimatorConfig(min_overlap=2)
        with pytest.raises(NoCandidateQualifies):
            match_lag(series(ACC, y2020=("0.15", "0.55")), [series(LDW, y2018=("0.16", "0.55"))], config)

    def test_admissible_predicate_restricts_search(self):
        target = series(ACC, y2020=("0.15", "0.55"))
        candidates = [series(LDW, y2018=("0.16", "0.55")), series(RPS, y2012=("0.18", "0.49"))]
        match = match_lag(target, candidates, admissible=lambda feature, lag: feature is RPS)
        assert match.analog is RPS

    def test_long_lag_flagged(self):
        match = match_lag(
            AdoptionSeries(LCA, {2021: AdoptionPoint(Fraction(23, 100), Fraction(2, 100))}),
            [series(ESC, y2003=("0.18", "0.13"))],
        )
        assert match.lag_years == 18
        assert CautionKind.LONG_LAG in {c.kind for c in match.cautions}

    def test_lag_at_threshold_not_flagged(self):
        match = match_lag(series(LDP, y2020=("0.21", "0.38")), [series(RPS, y2012=("0.18", "0.49"))])
        assert match.lag_years == 8
        assert CautionKind.LONG_LAG not in {c.kind for c in match.cautions}

    def test_single_year_overlap_flagged_small(self):
        match = match_lag(series(ACC, y2020=("0.15", "0.55")), [series(LDW, y2018=("0.16", "0.55"))])
        assert CautionKind.SMALL_OVERLAP in {c.kind for c in match.cautions}

    def test_optional_share_divergence_flagged(self):
        match = match_lag(
            series(ACC, y2020=("0.50", "0.20")),
            [series(LDW, y2018=("0.30", "0.40"))],
            EstimatorConfig(optional_divergence_pp=15.0),
        )
        assert CautionKind.OPTIONAL_SHARE_DIVERGENCE in {c.kind for c in match.cautions}

    def test_mandate_era_match_flagged(self):
        target = AdoptionSeries(PAEB, {2021: AdoptionPoint(Fraction(67, 100), Fraction(0, 1))})
        match = match_lag(target, [series(ESC, y2008=("0.61", "0.14"))])
        assert CautionKind.ANALOG_UNDER_MANDATE in {c.kind for c in match.cautions}

    def test_pre_mandate_match_not_flagged(self):
        target = AdoptionSeries(LCA, {2021: AdoptionPoint(Fraction(23, 100), Fraction(2, 100))})
        match = match_lag(target, [series(ESC, y2003=("0.18", "0.13"))])
        assert CautionKind.ANALOG_UNDER_MANDATE not in {c.kind for c in match.cautions}


combined_fracs = st.integers(min_value=0, max_value=100).map(lambda n: Decimal(n) / 100)


@st.composite
def match_instances(draw):
    """Small random target + candidates with series length <= 10 and max_lag <= 25."""
    def points(start):
        length = draw(st.integers(min_value=1, max_value=10))
        result = {}
        for i in range(length):
            std = draw(combined_fracs)
            opt = draw(st.integers(min_value=0, max_value=100).map(lambda n, s=std: min(Decimal(n) / 100, 1 - s)))
            result[start + i] = AdoptionPoint(std, opt)
        return result

    target = AdoptionSeries(ACC, points(draw(st.integers(min_value=2000, max_value=2025))))
    analogs = [LDW, RPS, ESC, FeatureId.LANE_KEEP_ASSIST]
    count = draw(st.integers(min_value=1, max_value=4))
    candidates = [
        AdoptionSeries(analogs[i], points(draw(st.integers(min_value=1985, max_value=2025))))
        for i in range(count)
    ]
    max_lag = draw(st.integers(min_value=0, max_value=25))
    return target, candidates, max_lag


class TestMatchLagOracle:
    @given(instance=match_instances())
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_brute_force(self, instance):
        target, candidates, max_lag = instance
        config = EstimatorConfig(max_lag=max_lag)
        expected = brute_force_match(
            {y: p.combined for y, p in target.points.items()},
            [(c.feature, {y: p.combined for y, p in c.points.items()}) for c in candidates],
            max_lag,
        )
        if expected is None:
            with pytest.raises(NoCandidateQualifies):
                match_lag(target, candidates, config)
            return
        match = match_lag(target, candidates, config)
        assert (match.analog, match.lag_years, match.distance) == expected


class TestTransfer:
    def fleet(self, feature, **year_rates):
        return FleetSeries(feature, {int(y.lstrip("y")): Decimal(r) for y, r in year_rates.items()})

    def make_match(self, target, analog, lag):
        from adasfleet.estimator import LagMatch

        return LagMatch(target=target, analog=analog, lag_years=lag, distance=0.0,
                        overlap_years=1, cautions=frozenset())

    def test_acc_reads_ldw_2020(self):
        transfer = transfer_fleet_rate(self.make_match(ACC, LDW, 2), self.fleet(LDW, y2020="0.16"), 2022)
        assert transfer.rate == Decimal("0.16")
        assert transfer.source_year == 2020
        assert transfer.cautions == frozenset()

    def test_lca_reads_esc_2004_without_mandate_caution(self):
        transfer = transfer_fleet_rate(self.make_match(LCA, ESC, 18), self.fleet(ESC, y2004="0.08"), 2022)
        assert transfer.rate == Decimal("0.08")
        assert {c.kind for c in transfer.cautions} == set()

    def test_paeb_reads_esc_2009_with_mandate_caution(self):
        transfer = transfer_fleet_rate(self.make_match(PAEB, ESC, 13), self.fleet(ESC, y2009="0.25"), 2022)
        assert transfer.rate == Decimal("0.25")
        assert {c.kind for c in transfer.cautions} == {CautionKind.ANALOG_UNDER_MANDATE}

    def test_missing_year_raises(self):
        with pytest.raises(YearNotInSeries):
            transfer_fleet_rate(self.make_match(ACC, LDW, 5), self.fleet(LDW, y2020="0.16"), 2022)

    def test_wrong_series_rejected(self):
        with pytest.raises(ValueError):
            transfer_fleet_rate(self.make_match(ACC, LDW, 2), self.fleet(RPS, y2020="0.15"), 2022)

    @given(
        rates=st.dictionaries(st.integers(min_value=2000, max_value=2030), combined_fracs, min_size=1, max_size=8),
    )
    def test_lag_zero_self_transfer_is_identity(self, rates):
        fleet = FleetSeries(LDW, rates)
        match = self.make_match(LDW, LDW, 0)
        for year in rates:
            assert transfer_fleet_rate(match, fleet, year).rate == rates[year]


class TestCompose:
    @pytest.mark.parametrize(
        "equipped, activation, expected",
        [
            (Decimal("0.16"), Decimal("0.57"), (16, 57, 9)),
            (Decimal("0.16"), Decimal("0.93"), (16, 93, 15)),
            (Decimal("0.22"), Decimal("0.93"), (22, 93, 20)),
            (Decimal("0.08"), Decimal("0.57"), (8, 57, 5)),
            (Decimal("0.15"), Decimal("0.65"), (15, 65, 10)),
            (Decimal("0.25"), Decimal("0.93"), (25, 93, 23)),
            (Decimal("0.00"), Decimal("0.93"), (0, 93, 0)),
        ],
    )
    def test_published_rows(self, equipped, activation, expected):
        assert compose_activated(equipped, activation) == expected

    def test_half_percent_rounds_up(self):
        assert compose_activated(Decimal("0.125"), Decimal("0.04")) == (13, 4, 1)
        assert compose_activated(Decimal("0.5"), Decimal("0.01")) == (50, 1, 1)

    def test_accepts_exact_ratios(self):
        assert compose_activated(Fraction(23, 100), Fraction(2, 100)) == (23, 2, 0)

    @given(
        activation=combined_fracs,
        lo=st.integers(min_value=0, max_value=100),
        hi=st.integers(min_value=0, max_value=100),
    )
    def test_monotone_in_equipped(self, activation, lo, hi):
        lo, hi = sorted((lo, hi))
        _, _, low_share = compose_activated(Decimal(lo) / 100, activation)
        _, _, high_share = compose_activated(Decimal(hi) / 100, activation)
        assert low_share <= high_share

    @given(equipped=combined_fracs, activation=combined_fracs)
    def test_rounding_contract_holds(self, equipped, activation):
        ep, ap, share = compose_activated(equipped, activation)
        PenetrationEstimate(
            feature=ACC, year=2022, equipped_pct=ep, activation_pct=ap,
            activated_of_fleet_pct=share,
            equipped_provenance=Provenance(ProvenanceKind.DIRECT_FLEET_SERIES),
            cautions=frozenset(),
        )

    def test_estimate_invariant_rejects_wrong_share(self):
        with pytest.raises(ValueError):
            PenetrationEstimate(
                feature=ACC, year=2022, equipped_pct=16, activation_pct=57,
                activated_of_fleet_pct=10,
                equipped_provenance=Provenance(ProvenanceKind.DIRECT_FLEET_SERIES),
                cautions=frozenset(),
            )


class TestEstimateEquipped:
    fleet = {
        FeatureId.FORWARD_COLLISION_PREVENTION: FleetSeries(
            FeatureId.FORWARD_COLLISION_PREVENTION, {2022: Decimal("0.22")}
        ),
        LDW: FleetSeries(LDW, {2020: Decimal("0.16")}),
        RPS: FleetSeries(RPS, {2014: Decimal("0.15")}),
        ESC: FleetSeries(ESC, {2004: Decimal("0.08"), 2009: Decimal("0.25")}),
    }
    adoption = {
        LDW: series(LDW, y2018=("0.16", "0.55")),
        RPS: series(RPS, y2012=("0.18", "0.49")),
        ESC: series(ESC, y2003=("0.18", "0.13"), y2008=("0.61", "0.14")),
        ACC: series(ACC, y2020=("0.15", "0.55")),
        LDP: series(LDP, y2020=("0.21", "0.38")),
    }
    fars = {
        LCA: AdoptionSeries(LCA, {2021: AdoptionPoint(Fraction(23, 100), Fraction(2, 100))}),
        PAEB: AdoptionSeries(PAEB, {2021: AdoptionPoint(Fraction(67, 100), Fraction(0, 1))}),
    }

    def test_direct_fleet_series_wins(self):
        got = estimate_equipped(FeatureId.FORWARD_COLLISION_PREVENTION, 2022, self.fleet, self.adoption, self.fars)
        assert got.rate == Decimal("0.22")
        assert got.provenance == Provenance(ProvenanceKind.DIRECT_FLEET_SERIES)
        assert got.cautions == frozenset()

    def test_adoption_lag_route(self):
        got = estimate_equipped(ACC, 2022, self.fleet, self.adoption, self.fars)
        assert got.rate == Decimal("0.16")
        assert got.provenance == Provenance(ProvenanceKind.LAG_TRANSFER, LDW, 2)

    def test_crash_cohort_route(self):
        got = estimate_equipped(LCA, 2022, self.fleet, self.adoption, self.fars)
        assert got.rate == Decimal("0.08")
        assert got.provenance == Provenance(ProvenanceKind.FARS_LAG_TRANSFER, ESC, 18)

    def test_crash_route_respects_transferability(self):
        got = estimate_equipped(PAEB, 2022, self.fleet, self.adoption, self.fars)
        assert got.rate == Decimal("0.25")
        assert got.provenance == Provenance(ProvenanceKind.FARS_LAG_TRANSFER, ESC, 13)
        assert CautionKind.ANALOG_UNDER_MANDATE in {c.kind for c in got.cautions}

    def test_nothing_applicable_raises(self):
        with pytest.raises(InsufficientData, match="lane_centering_assist"):
            estimate_equipped(LCA, 2022, self.fleet, self.adoption, None)

    def test_uncovered_year_raises(self):
        with pytest.raises(InsufficientData):
            estimate_equipped(ACC, 1990, self.fleet, self.adoption, self.fars)

    def test_transfers_beyond_threshold_carry_long_lag(self):
        for feature, lag in ((LCA, 18), (PAEB, 13)):
            got = estimate_equipped(feature, 2022, self.fleet, self.adoption, self.fars)
            flags = {c.kind: c.quantity for c in got.cautions}
            assert flags.get(CautionKind.LONG_LAG) == lag

    def test_transfer_at_threshold_carries_no_long_lag(self):
        got = estimate_equipped(LDP, 2022, self.fleet, self.adoption, self.fars)
        assert got.provenance.lag_years == 8
        assert CautionKind.LONG_LAG not in {c.kind for c in got.cautions}


class TestEstimateTable:
    activation = ActivationTable({
        ACC: ActivationEntry(Decimal("0.57"), ActivationSource.OBSERVED),
        FeatureId.AUTOMATIC_EMERGENCY_BRAKING: ActivationEntry(Decimal("0.93"), ActivationSource.OBSERVED),
        FeatureId.FORWARD_COLLISION_PREVENTION: ActivationEntry(Decimal("0.93"), ActivationSource.OBSERVED),
        LCA: ActivationEntry(Decimal("0.57"), ActivationSource.ASSUMED_FROM_SIMILAR, ACC),
        LDP: ActivationEntry(Decimal("0.65"), ActivationSource.DISPUTED),
        PAEB: ActivationEntry(
            Decimal("0.93"), ActivationSource.ASSUMED_FROM_SIMILAR, FeatureId.AUTOMATIC_EMERGENCY_BRAKING
        ),
    })

    def full_fleet(self):
        fleet = dict(TestEstimateEquipped.fleet)
        fleet[FeatureId.AUTOMATIC_EMERGENCY_BRAKING] = FleetSeries(
            FeatureId.AUTOMATIC_EMERGENCY_BRAKING, {2022: Decimal("0.16")}
        )
        return fleet

    def test_all_six_rows_in_report_order(self):
        rows = estimate_table(
            2022, self.full_fleet(), TestEstimateEquipped.adoption, TestEstimateEquipped.fars, self.activation
        )
        got = [(r.feature.value, r.equipped_pct, r.activation_pct, r.activated_of_fleet_pct) for r in rows]
        assert got == [
            ("adaptive_cruise_control", 16, 57, 9),
            ("automatic_emergency_braking", 16, 93, 15),
            ("forward_collision_prevention", 22, 93, 20),
            ("lane_centering_assist", 8, 57, 5),
            ("lane_departure_prevention", 15, 65, 10),
            ("pedestrian_automatic_emergency_braking", 25, 93, 23),
        ]

    def test_uncovered_year_names_first_failing_feature(self):
        with pytest.raises(InsufficientData, match="1990"):
            estimate_table(
                1990, self.full_fleet(), TestEstimateEquipped.adoption, TestEstimateEquipped.fars, self.activation
            )

    def test_missing_activation_entry_names_feature(self):
        entries = dict(self.activation.entries)
        del entries[PAEB]
        with pytest.raises(InsufficientData, match="pedestrian_automatic_emergency_braking"):
            estimate_table(
                2022, self.full_fleet(), TestEstimateEquipped.adoption, TestEstimateEquipped.fars,
                ActivationTable(entries),
            )


class TestForecastError:
    def test_identical_series_zero(self):
        a = FleetSeries(LDW, {2022: Decimal("0.20")})
        assert forecast_error(a, FleetSeries(LDW, {2022: Decimal("0.20")}), 2022) == 0

    def test_signed_difference(self):
        predicted = FleetSeries(LDW, {2022: Decimal("0.20")})
        estimated = FleetSeries(LDW, {2022: Decimal("0.22")})
        assert forecast_error(predicted, estimated, 2022) == Decimal("-2.00")

    def test_missing_year(self):
        a = FleetSeries(LDW, {2022: Decimal("0.20")})
        b = FleetSeries(LDW, {2021: Decimal("0.20")})
        with pytest.raises(YearNotInSeries):
            forecast_error(a, b, 2022)


def flag_record(flags):
    return VehicleRecord(vin="", crash_year=2019, model_year=2018, feature_flags=flags)


class TestAnyFeatureShare:
    QUERIED_FEATURES = {FeatureId.LANE_KEEP_ASSIST, LCA, ACC}

    def test_counts_standard_or_optional_of_listed_features(self):
        records = [
            flag_record({ACC: Availability.STANDARD}),
            flag_record({LCA: Availability.OPTIONAL}),
            flag_record({ACC: Availability.NOT_AVAILABLE}),
            flag_record({PAEB: Availability.STANDARD}),  # not in the queried set
            flag_record({}),
        ]
        count, share = fleet_any_feature_share(records, self.QUERIED_FEATURES)
        assert count == 2
        assert share == Fraction(2, 5)

    def test_unknowns_stay_in_denominator(self):
        records = [flag_record({ACC: Availability.STANDARD})] + [flag_record({}) for _ in range(3)]
        count, share = fleet_any_feature_share(records, self.QUERIED_FEATURES)
        assert (count, share) == (1, Fraction(1, 4))

    def test_all_unknown_is_zero(self):
        records = [flag_record({}) for _ in range(10)]
        assert fleet_any_feature_share(records, self.QUERIED_FEATURES) == (0, Fraction(0, 1))

    def test_empty_records_raise(self):
        with pytest.raises(EmptyCohort):
            fleet_any_feature_share([], self.QUERIED_FEATURES)

    def test_vehicle_with_two_features_counted_once(self):
        records = [flag_record({ACC: Availability.STANDARD, LCA: Availability.STANDARD})]
        count, _ = fleet_any_feature_share(records, self.QUERIED_FEATURES)
        assert count == 1


class TestPermutationInvariance:
    def test_match_independent_of_target_point_insertion_order(self):
        forward = {2019: AdoptionPoint(Decimal("0.10"), Decimal("0.40")), 2020: AdoptionPoint(Decimal("0.15"), Decimal("0.55"))}
        backward = dict(reversed(list(forward.items())))
        candidates = [series(LDW, y2017=("0.11", "0.41"), y2018=("0.16", "0.55"))]
        a = match_lag(AdoptionSeries(ACC, forward), candidates)
        b = match_lag(AdoptionSeries(ACC, backward), candidates)
        assert (a.analog, a.lag_years, a.distance) == (b.analog, b.lag_years, b.distance)
