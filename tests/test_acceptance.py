"""Acceptance suite: every exit criterion, each printing one PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the plain suite run covers them as ordinary tests.
"""

import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
from click.testing import CliRunner

from adasfleet import vpic
from adasfleet.catalog import Availability, FeatureId
from adasfleet.cli import RunConfig, build_fars_series, load_bundle, main
from adasfleet.datasets import (
    AdoptionPoint,
    AdoptionSeries,
    VehicleRecord,
    fars_availability_fraction,
)
from adasfleet.errors import CheckDigitMismatch, NoCandidateQualifies
from adasfleet.estimator import (
    CautionKind,
    EstimatorConfig,
    estimate_equipped,
    fleet_any_feature_share,
    match_lag,
    transfer_fleet_rate,
)
from adasfleet.vin import LEGAL_CHARS, YEAR_CODES, decode_model_year, encode_model_year, parse_vin
from adasfleet.vpic import CacheMode, FixtureCache, RequestLimits, batch_decode

from oracles import brute_force_match

ACC = FeatureId.ADAPTIVE_CRUISE_CONTROL
LDW = FeatureId.LANE_DEPARTURE_WARNING
LDP = FeatureId.LANE_DEPARTURE_PREVENTION
RPS = FeatureId.REAR_PARKING_SENSORS
ESC = FeatureId.ELECTRONIC_STABILITY_CONTROL
LCA = FeatureId.LANE_CENTERING_ASSIST
PAEB = FeatureId.PEDESTRIAN_AUTOMATIC_EMERGENCY_BRAKING
LKA = FeatureId.LANE_KEEP_ASSIST

EXPECTED_2022 = [
    ("adaptive_cruise_control", 16, 57, 9),
    ("automatic_emergency_braking", 16, 93, 15),
    ("forward_collision_prevention", 22, 93, 20),
    ("lane_centering_assist", 8, 57, 5),
    ("lane_departure_prevention", 15, 65, 10),
    ("pedestrian_automatic_emergency_braking", 25, 93, 23),
]

EXPECTED_MATCHES = {ACC: (LDW, 2), LDP: (RPS, 8), LCA: (ESC, 18), PAEB: (ESC, 13)}
EXPECTED_TRANSFERS = {ACC: Decimal("0.16"), LDP: Decimal("0.15"), LCA: Decimal("0.08"), PAEB: Decimal("0.25")}


def report(number: int, name: str) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def bundle():
    return load_bundle(RunConfig())


@pytest.fixture(scope="module")
def equipped_estimates(bundle):
    fars_series = build_fars_series(bundle)
    config = EstimatorConfig()
    return {
        feature: estimate_equipped(feature, 2022, bundle.fleet, bundle.adoption, fars_series, config)
        for feature in EXPECTED_MATCHES
    }


def test_criterion_1_table_reproduction():
    started = time.perf_counter()
    result = CliRunner().invoke(main, ["estimate", "--year", "2022", "--format", "csv"])
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0, result.output
    rows = [line.split(",") for line in result.stdout.strip().splitlines()[1:]]
    got = [(r[0], int(r[2]), int(r[3]), int(r[4])) for r in rows]
    assert got == EXPECTED_2022
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(1, "six-feature table reproduced integer-exact")


def test_criterion_2_lag_match_reproduction(equipped_estimates):
    started = time.perf_counter()
    for feature, (analog, lag) in EXPECTED_MATCHES.items():
        match = equipped_estimates[feature].match
        assert match is not None, feature
        assert (match.analog, match.lag_years) == (analog, lag), feature
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    report(2, "all four analog matches resolve exactly")


def test_criterion_3_fleet_transfer_reproduction(bundle, equipped_estimates):
    for feature, expected_rate in EXPECTED_TRANSFERS.items():
        estimate = equipped_estimates[feature]
        transfer = transfer_fleet_rate(estimate.match, bundle.fleet[estimate.match.analog], 2022)
        assert transfer.rate == expected_rate, feature
        assert estimate.rate == expected_rate, feature
        mandate_flagged = CautionKind.ANALOG_UNDER_MANDATE in {c.kind for c in transfer.cautions}
        assert mandate_flagged == (feature is PAEB), feature
    report(3, "transfers 16/15/8/25 with mandate caution only on the late analog read")


def test_criterion_4_any_feature_share():
    positives = 2_428
    total = 138_899
    standard = {ACC: Availability.STANDARD}
    optional = {LKA: Availability.OPTIONAL}
    unknown: dict = {}
    absent = {f: Availability.NOT_AVAILABLE for f in (ACC, LCA, LKA)}
    records = []
    records += [VehicleRecord("", 2019, 2018, standard) for _ in range(positives // 2)]
    records += [VehicleRecord("", 2019, 2018, optional) for _ in range(positives - positives // 2)]
    remaining = total - positives
    records += [VehicleRecord("", 2019, 2012, unknown) for _ in range(remaining // 2)]
    records += [VehicleRecord("", 2019, 2018, absent) for _ in range(remaining - remaining // 2)]
    count, share = fleet_any_feature_share(records, {ACC, LCA, LKA})
    assert count == positives
    assert Decimal("0.0174") <= share <= Decimal("0.0176")
    report(4, f"{count} of {total} vehicles, share {float(share):.4f} within [0.0174, 0.0176]")


def test_criterion_5_crash_cohort_fractions(bundle):
    records = bundle.fars.records
    lca = fars_availability_fraction(records, LCA, 2021)
    paeb = fars_availability_fraction(records, PAEB, 2021)
    assert lca[:2] == (Fraction(23, 100), Fraction(2, 100))
    assert paeb[:2] == (Fraction(67, 100), Fraction(0, 1))
    report(5, "model-year-2021 cohort gives 23%/2% and 67%/0% exactly")


def test_criterion_6_vin_property_suite():
    started = time.perf_counter()

    all_ones = "1" * 17
    assert parse_vin(all_ones).check_digit == "1"

    seed = "0" * 17
    assert parse_vin(seed).check_digit == "0"
    cases = 0
    for position in range(17):
        if position == 8:  # zero-weight check-digit position
            continue
        for alt in sorted(LEGAL_CHARS):
            if alt == seed[position]:
                continue
            mutated = seed[:position] + alt + seed[position + 1:]
            with pytest.raises(CheckDigitMismatch):
                parse_vin(mutated)
            cases += 1
    assert cases == 16 * 32

    for year in range(1980, 2010):
        assert decode_model_year(encode_model_year(year), "5") == year
    for year in range(2010, 2040):
        assert decode_model_year(encode_model_year(year), "P") == year
    assert len(YEAR_CODES) == 30

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.3f}s"
    report(6, f"all-ones check digit, {cases} substitutions rejected, 60-year round trip")


def _random_instance(rng: random.Random):
    def points(start: int) -> dict[int, AdoptionPoint]:
        result = {}
        for i in range(rng.randint(1, 10)):
            std = Decimal(rng.randint(0, 100)) / 100
            opt = min(Decimal(rng.randint(0, 100)) / 100, 1 - std)
            result[start + i] = AdoptionPoint(std, opt)
        return result

    target = AdoptionSeries(ACC, points(rng.randint(2000, 2025)))
    analogs = [LDW, RPS, ESC, LKA]
    candidates = [
        AdoptionSeries(analogs[i], points(rng.randint(1985, 2025)))
        for i in range(rng.randint(1, 4))
    ]
    return target, candidates, rng.randint(0, 25)


def test_criterion_7_brute_force_equivalence():
    rng = random.Random(20240801)
    started = time.perf_counter()
    agreements = 0
    for _ in range(200):
        target, candidates, max_lag = _random_instance(rng)
        expected = brute_force_match(
            {y: p.combined for y, p in target.points.items()},
            [(c.feature, {y: p.combined for y, p in c.points.items()}) for c in candidates],
            max_lag,
        )
        if expected is None:
            with pytest.raises(NoCandidateQualifies):
                match_lag(target, candidates, EstimatorConfig(max_lag=max_lag))
        else:
            match = match_lag(target, candidates, EstimatorConfig(max_lag=max_lag))
            assert (match.analog, match.lag_years, match.distance) == expected
        agreements += 1
    elapsed = time.perf_counter() - started
    assert agreements == 200
    assert elapsed < 10.0, f"took {elapsed:.3f}s"
    report(7, f"200 of 200 randomized instances agree with brute force in {elapsed:.2f}s")


def test_criterion_8_offline_guarantee(tmp_path):
    # The suite-wide conftest guard replaces the real transport with one that
    # fails the test run outright, so any networked code path would be caught.
    with pytest.raises(AssertionError, match="network call attempted"):
        vpic._http_transport("https://example.invalid", {}, 1.0)

    calls = []

    def counting_transport(url, body, timeout):
        calls.append(url)
        return {"Results": []}

    cache = FixtureCache(tmp_path / "cache", CacheMode.OFFLINE)
    vin = "11111111111111111"
    cache.store(vin, {"VIN": vin, "Make": "ACME", "Model": "ALPHA", "Model Year": "2001"})
    records = batch_decode([vin, "00000000000000000"], cache, RequestLimits(base_delay=0.0),
                           transport=counting_transport)
    assert calls == []
    assert records[0].make == "ACME"
    assert records[1].error_text == "cache miss"
    report(8, "offline replay completes with zero network operations")
