"""Expected outputs and the checks that compare the program's outputs with them.

The reference for the crash-cohort rows is built from the generator's own
cohort counts, the bundled published series read by a reader of its own,
`tests/oracles.brute_force_match` and a half-up composition written here.
Every check returns a list of mismatch descriptions; empty means correct.
"""

from __future__ import annotations

import json
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from adasfleet.datasets import bundled_data_dir
from adasfleet.estimator import EstimatorConfig

from oracles import brute_force_match

YEAR = 2022

# The paper's 2022 table on the bundled data: (equipped, activation, activated of fleet, provenance).
BUNDLED_2022 = {
    "adaptive_cruise_control": (16, 57, 9, "lag_transfer(lane_departure_warning:2)"),
    "automatic_emergency_braking": (16, 93, 15, "direct_fleet_series"),
    "forward_collision_prevention": (22, 93, 20, "direct_fleet_series"),
    "lane_centering_assist": (8, 57, 5, "fars_lag_transfer(electronic_stability_control:18)"),
    "lane_departure_prevention": (15, 65, 10, "lag_transfer(rear_parking_sensors:8)"),
    "pedestrian_automatic_emergency_braking": (25, 93, 23, "fars_lag_transfer(electronic_stability_control:13)"),
}
CRASH_COHORT_FEATURES = ("lane_centering_assist", "pedestrian_automatic_emergency_braking")


def _rows(name: str) -> list[list[str]]:
    """Data rows of a bundled table, header and comments dropped."""
    lines = (bundled_data_dir() / name).read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines if line.strip() and not line.startswith("#")]
    return rows[1:]


def _pct(value) -> int:
    if isinstance(value, Fraction):
        value = Decimal(value.numerator) / Decimal(value.denominator)
    return int((Decimal(value) * 100).quantize(Decimal(1), rounding=ROUND_HALF_UP))


def _compose(equipped, activation) -> tuple[int, int, int]:
    e, a = _pct(equipped), _pct(activation)
    return e, a, int((Decimal(e * a) / 100).quantize(Decimal(1), rounding=ROUND_HALF_UP))


def crash_cohort_reference(cohort_counts: dict) -> dict:
    """Expected rows for the features resolved through crash cohorts."""
    adoption: dict[str, dict[int, Decimal]] = {}
    for feature, year, std, opt in _rows("adoption.csv"):
        adoption.setdefault(feature, {})[int(year)] = Decimal(std) + Decimal(opt)
    fleet: dict[str, dict[int, Decimal]] = {}
    for feature, year, frac in _rows("fleet.csv"):
        fleet.setdefault(feature, {})[int(year)] = Decimal(frac)
    activation = {row[0]: Decimal(row[1]) for row in _rows("activation.csv")}
    config = EstimatorConfig()

    def admissible(analog, lag):
        return (YEAR - lag) in fleet.get(analog, {})

    expected = {}
    for feature in CRASH_COHORT_FEATURES:
        target = {int(y): Fraction(std + opt, known) for y, (std, opt, known) in cohort_counts[feature].items()}
        candidates = [(f, points) for f, points in adoption.items() if f != feature]
        match = brute_force_match(target, candidates, config.max_lag, config.min_overlap, admissible)
        if match is None:
            raise ValueError(f"no admissible analog for {feature}; the generated cohorts cannot be estimated")
        analog, lag, _ = match
        expected[feature] = (*_compose(fleet[analog][YEAR - lag], activation[feature]),
                             f"fars_lag_transfer({analog}:{lag})")
    return expected


def expected_estimates(manifest: dict) -> dict:
    """Expected (equipped, activation, activated, provenance) per feature for a workload."""
    expected = dict(BUNDLED_2022)
    if "cohort_counts" in manifest:
        expected.update(crash_cohort_reference(manifest["cohort_counts"]))
    return expected


def check_estimate(output: str, expected: dict) -> list[str]:
    """Compare `estimate --format json` output with the expected rows."""
    try:
        rows = json.loads(output)["estimates"]
        got = {r["feature"]: (r["equipped_pct"], r["activation_pct"], r["activated_of_fleet_pct"], r["provenance"])
               for r in rows}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"estimate output is not the expected JSON: {exc}"]
    problems = [f"{f}: expected {want}, got {got.get(f)}" for f, want in expected.items() if got.get(f) != want]
    if len(rows) != len(expected):
        problems.append(f"expected {len(expected)} rows, got {len(rows)}")
    return problems


def expected_makes(vehicles: list[dict]) -> list[tuple[str, str, str]]:
    """(vin, make, model) the decode should report; the service's omissions decode to blanks."""
    return [(v["vin"], "", "") if v["omitted"] else (v["vin"], v["make"], v["model"]) for v in vehicles]


def check_decode(output: str, expected: list[tuple[str, str, str]]) -> list[str]:
    """Compare `decode --format json` output row by row with the service's documents."""
    try:
        rows = json.loads(output)
        got = [(r["vin"], r["make"], r["model"]) for r in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"decode output is not the expected JSON: {exc}"]
    if len(got) != len(expected):
        return [f"expected {len(expected)} rows, got {len(got)}"]
    return [f"row {i}: expected {want}, got {have}" for i, (want, have) in enumerate(zip(expected, got))
            if want != have]


def check_record(makes: list[str], expected: list[tuple[str, str, str]], cache_files: int) -> list[str]:
    """Record phase: each record carries its document's make; the cache holds one file per answer."""
    problems = [f"record {i}: expected make {want[1]!r}, got {have!r}"
                for i, (want, have) in enumerate(zip(expected, makes)) if want[1] != have]
    if len(makes) != len(expected):
        problems.append(f"expected {len(expected)} records, got {len(makes)}")
    answered = sum(1 for _, make, _ in expected if make)
    if cache_files != answered:
        problems.append(f"expected {answered} cached documents, found {cache_files}")
    return problems
