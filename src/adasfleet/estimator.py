"""Fleet penetration estimation.

The method: align a target technology's new-vehicle adoption curve with an
older analog technology's curve to find the adoption lag, read the analog's
whole-fleet equipped rate from the lag-offset calendar year, then multiply
by the observed activation rate to get the share of the fleet with the
feature installed and switched on.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .catalog import Availability, FeatureId, MANDATE_ANNOUNCED, PRIORITY_FEATURES
from .datasets import (
    ActivationEntry, AdoptionSeries, CrashRecords, FleetSeries, VehicleRecord, cohort_entries, missing_activation,
)
from .errors import AdasFleetError, EmptyCohort, InsufficientData, NoCandidateQualifies, YearNotInSeries


class CautionKind(Enum):
    ANALOG_UNDER_MANDATE = "analog_under_mandate"
    LONG_LAG = "long_lag"
    OPTIONAL_SHARE_DIVERGENCE = "optional_share_divergence"
    SMALL_OVERLAP = "small_overlap"


# What each kind of caution means, as the table's legend prints it.
CAUTION_NOTES = {
    CautionKind.ANALOG_UNDER_MANDATE: "analog series read from a year at or after its mandate announcement",
    CautionKind.LONG_LAG: "lag exceeds the long-lag threshold (years)",
    CautionKind.OPTIONAL_SHARE_DIVERGENCE: "standard/optional mix differs at the matched years (pp)",
    CautionKind.SMALL_OVERLAP: "match rests on few overlapping years",
}


@dataclass(frozen=True)
class CautionFlag:
    """A reason the estimate deserves scepticism, with the quantity that tripped it."""

    kind: CautionKind
    quantity: int | Fraction

    def render(self) -> str:
        return f"{self.kind.value}({_round_half_up_pct(self.quantity) / 100:.15g})"  # half-up to two places


# Percentage points of standard-vs-optional mix difference tolerated before
# flagging; technologies sold mostly as options adopt differently.
OPTIONAL_DIVERGENCE_PP = 15.0
# A match on fewer overlapping years than this is flagged.
SMALL_OVERLAP_THRESHOLD = 3


@dataclass(frozen=True)
class EstimatorConfig:
    """The lag-search thresholds, one field per `estimate` threshold flag."""

    max_lag: int = 25
    min_overlap: int = 1
    long_lag_threshold: int = 8


DEFAULT_CONFIG = EstimatorConfig()


@dataclass(frozen=True)
class LagMatch:
    analog: FeatureId
    lag_years: int
    distance: float
    overlap_years: int
    cautions: frozenset[CautionFlag]


class ProvenanceKind(Enum):
    DIRECT_FLEET_SERIES = "direct_fleet_series"
    LAG_TRANSFER = "lag_transfer"
    FARS_LAG_TRANSFER = "fars_lag_transfer"


@dataclass(frozen=True)
class Provenance:
    kind: ProvenanceKind
    analog: FeatureId | None = None
    lag_years: int | None = None

    def render(self) -> str:
        if self.kind is ProvenanceKind.DIRECT_FLEET_SERIES:
            return self.kind.value
        return f"{self.kind.value}({self.analog.value}:{self.lag_years})"


_HUNDREDTH = Decimal("0.01")


def _round_half_up_pct(fraction) -> int:
    """Round a fraction to an integer percent, halves away from zero, exactly.

    A float stands for the decimal its `str` shows, so 0.145 gives 15. A
    Decimal is quantized in one exact step, so a tiny exponent costs nothing.
    """
    if isinstance(fraction, Decimal):
        return int(fraction.quantize(_HUNDREDTH, ROUND_HALF_UP) * 100)
    pct = Fraction(str(fraction) if isinstance(fraction, float) else fraction) * 100
    whole = int(abs(pct) + Fraction(1, 2))
    return whole if pct >= 0 else -whole


def _as_fraction(fraction) -> Fraction:
    """A Fraction as is; a Decimal to 20 places, which hold every published fraction and keep 1e-999999999 cheap."""
    return Fraction(fraction.quantize(Decimal("1e-20")) if isinstance(fraction, Decimal) else fraction)


@dataclass(frozen=True)
class PenetrationEstimate:
    feature: FeatureId
    year: int
    equipped_pct: int
    activation_pct: int
    equipped_provenance: Provenance
    cautions: frozenset[CautionFlag]

    @property
    def activated_of_fleet_pct(self) -> int:
        return compose_activated(Fraction(self.equipped_pct, 100), Fraction(self.activation_pct, 100))[2]


def _mandate_caution(analog: FeatureId, years_read: list[int]) -> frozenset[CautionFlag]:
    """The analog-under-mandate caution: the earliest analog year read at or after the mandate's announcement."""
    announced = MANDATE_ANNOUNCED.get(analog)
    under = [] if announced is None else [y for y in years_read if y >= announced]
    return frozenset({CautionFlag(CautionKind.ANALOG_UNDER_MANDATE, min(under))} if under else ())


def match_lag(
    target: AdoptionSeries,
    candidates: Sequence[AdoptionSeries],
    config: EstimatorConfig = DEFAULT_CONFIG,
    admissible: Callable[[FeatureId, int], bool] | None = None,
) -> LagMatch:
    """Best (analog, lag) alignment of the target's adoption curve.

    For every candidate and every lag in [0, max_lag] that overlaps, target
    year y is compared with candidate year y - lag on combined (standard +
    optional) availability; the score is the mean squared difference over the overlap.
    Ties break toward the smaller lag, then candidate order. An optional
    admissible(feature, lag) predicate restricts the search, e.g. to pairs
    whose fleet series can actually serve the transfer year.
    """
    if not target.points:
        raise NoCandidateQualifies(f"target series for {target.feature.value} is empty")
    best_key = None
    best = None
    for index, candidate in enumerate(candidates):
        # Only a lag that maps some target year onto a candidate year can overlap.
        lags = sorted({y - c for y in target.points for c in candidate.points if 0 <= y - c <= config.max_lag})
        for lag in lags:
            if admissible is not None and not admissible(candidate.feature, lag):
                continue
            overlap = [y for y in sorted(target.points) if (y - lag) in candidate.points]
            if len(overlap) < max(config.min_overlap, 1):
                continue
            # Plain left-to-right accumulation in year order keeps the score
            # bit-for-bit reproducible by any straightforward reimplementation.
            distance = sum(
                (float(target.points[y].combined) - float(candidate.points[y - lag].combined)) ** 2
                for y in overlap
            ) / len(overlap)
            key = (distance, lag, index)
            if best_key is None or key < best_key:
                best_key = key
                best = (candidate, lag, overlap, distance)
    if best is None:
        raise NoCandidateQualifies(
            f"no candidate series overlaps {target.feature.value} by at least "
            f"{config.min_overlap} year(s) within lag 0..{config.max_lag}"
        )
    candidate, lag, overlap, distance = best
    cautions = set()
    if lag > config.long_lag_threshold:
        cautions.add(CautionFlag(CautionKind.LONG_LAG, lag))
    if len(overlap) < SMALL_OVERLAP_THRESHOLD:
        cautions.add(CautionFlag(CautionKind.SMALL_OVERLAP, len(overlap)))
    divergence = max(  # exact: a float difference would carry binary noise into the rendered quantity
        abs(_as_fraction(target.points[y].opt) - _as_fraction(candidate.points[y - lag].opt)) * 100 for y in overlap
    )
    if divergence > OPTIONAL_DIVERGENCE_PP:
        cautions.add(CautionFlag(CautionKind.OPTIONAL_SHARE_DIVERGENCE, divergence))
    cautions |= _mandate_caution(candidate.feature, [y - lag for y in overlap])
    return LagMatch(candidate.feature, lag, distance, len(overlap), frozenset(cautions))


@dataclass(frozen=True)
class FleetTransfer:
    """An analog fleet rate read across the adoption lag."""

    rate: Decimal
    source_year: int
    cautions: frozenset[CautionFlag]


def transfer_fleet_rate(match: LagMatch, analog_fleet: FleetSeries, target_year: int) -> FleetTransfer:
    """Analog fleet equipped rate at target_year - lag, with the mandate caution."""
    if analog_fleet.feature is not match.analog:
        raise ValueError(
            f"fleet series is for {analog_fleet.feature.value}, match analog is {match.analog.value}"
        )
    source_year = target_year - match.lag_years
    cautions = _mandate_caution(match.analog, [source_year])
    return FleetTransfer(rate=analog_fleet.rate(source_year), source_year=source_year, cautions=cautions)


@dataclass(frozen=True)
class EquippedEstimate:
    rate: Decimal
    provenance: Provenance
    cautions: frozenset[CautionFlag]
    match: LagMatch | None = None


def estimate_equipped(
    feature: FeatureId,
    year: int,
    fleet_series_set: Mapping[FeatureId, FleetSeries],
    adoption_series_set: Mapping[FeatureId, AdoptionSeries],
    fars_series_set: Mapping[FeatureId, AdoptionSeries] | None = None,
    config: EstimatorConfig = DEFAULT_CONFIG,
) -> EquippedEstimate:
    """Equipped fraction of the fleet, by the first applicable route.

    Resolution order: the feature's own fleet series; lag transfer from its
    published adoption series; lag transfer from its crash-cohort adoption
    series. The two transfer routes are reported with distinct provenance
    because the crash cohort is a weaker stand-in for the fleet.
    """
    direct = fleet_series_set.get(feature)
    if direct is not None and year in direct.points:
        return EquippedEstimate(
            rate=direct.points[year],
            provenance=Provenance(ProvenanceKind.DIRECT_FLEET_SERIES),
            cautions=frozenset(),
        )
    routes = [(ProvenanceKind.LAG_TRANSFER, adoption_series_set.get(feature))]
    if fars_series_set:
        routes.append((ProvenanceKind.FARS_LAG_TRANSFER, fars_series_set.get(feature)))
    candidates = [s for f, s in adoption_series_set.items() if f is not feature]

    def transferable(analog: FeatureId, lag: int) -> bool:
        series = fleet_series_set.get(analog)
        return series is not None and (year - lag) in series.points

    failures = []
    for kind, target in routes:
        if target is None or not target.points:
            continue
        try:
            match = match_lag(target, candidates, config, admissible=transferable)
            transfer = transfer_fleet_rate(match, fleet_series_set[match.analog], year)
        except (NoCandidateQualifies, YearNotInSeries) as exc:
            failures.append(str(exc))
            continue
        return EquippedEstimate(
            rate=transfer.rate,
            provenance=Provenance(kind, match.analog, match.lag_years),
            cautions=match.cautions | transfer.cautions,
            match=match,
        )
    if failures:
        hint = "; ".join(dict.fromkeys(failures))
    else:
        hint = f"no fleet series covering {year}, no adoption series, and no crash-cohort series"
    raise InsufficientData(feature, year, hint)


def compose_activated(equipped, activation) -> tuple[int, int, int]:
    """(equipped %, activation %, activated-of-fleet %) as integers.

    Both inputs are rounded half-up to whole percents first and the product
    of the rounded percents is rounded again; published tables compose
    from their displayed integers, so any other order drifts off them.
    """
    equipped_pct = _round_half_up_pct(equipped)
    activation_pct = _round_half_up_pct(activation)
    return equipped_pct, activation_pct, _round_half_up_pct(Fraction(equipped_pct * activation_pct, 10000))


def estimate_table(
    year: int,
    fleet_series_set: Mapping[FeatureId, FleetSeries],
    adoption_series_set: Mapping[FeatureId, AdoptionSeries],
    fars_series_set: Mapping[FeatureId, AdoptionSeries] | None,
    activation: Mapping[FeatureId, ActivationEntry],
    config: EstimatorConfig = DEFAULT_CONFIG,
) -> list[PenetrationEstimate]:
    """One penetration estimate per priority feature, in report order; the activation entries must cover each."""
    missing = missing_activation(activation)
    if missing:
        raise AdasFleetError(f"activation table lacks entries for: {', '.join(f.value for f in missing)}")
    estimates = []
    for feature in PRIORITY_FEATURES:
        equipped = estimate_equipped(feature, year, fleet_series_set, adoption_series_set, fars_series_set, config)
        percents = compose_activated(equipped.rate, activation[feature].rate)[:2]
        estimates.append(PenetrationEstimate(feature, year, *percents, equipped.provenance, equipped.cautions))
    return estimates


def forecast_error(predicted: FleetSeries, estimated: FleetSeries, year: int) -> Decimal:
    """Predicted minus estimated equipped rate, in percentage points."""
    return (predicted.rate(year) - estimated.rate(year)) * 100


def fleet_any_feature_share(
    records: CrashRecords | Sequence[VehicleRecord], features: set[FeatureId]
) -> tuple[int, Fraction]:
    """Count and share of vehicles with any listed feature standard or optional.

    The denominator is all vehicles, including those whose availability is
    unknown, so the share is a floor on the true rate.
    """
    if not records:
        raise EmptyCohort("no records")
    equipped = (Availability.STANDARD, Availability.OPTIONAL)
    count = sum(n for _, flags, n in cohort_entries(records) if any(flags.get(f) in equipped for f in features))
    return count, Fraction(count, len(records))
