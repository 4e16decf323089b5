"""Fleet penetration estimation.

The method: align a target technology's new-vehicle adoption curve with an
older analog technology's curve to find the adoption lag, read the analog's
whole-fleet equipped rate from the lag-offset calendar year, then multiply
by the observed activation rate to get the share of the fleet with the
feature installed and switched on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_UP
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .catalog import Availability, DEFAULT_MANDATES, FeatureId, MandateInfo, PRIORITY_FEATURES
from .datasets import ActivationTable, AdoptionSeries, FleetSeries, VehicleRecord
from .errors import EmptyCohort, InsufficientData, NoCandidateQualifies, YearNotInSeries


class CautionKind(Enum):
    ANALOG_UNDER_MANDATE = "analog_under_mandate"
    LONG_LAG = "long_lag"
    OPTIONAL_SHARE_DIVERGENCE = "optional_share_divergence"
    SMALL_OVERLAP = "small_overlap"


@dataclass(frozen=True)
class CautionFlag:
    """A reason the estimate deserves scepticism, with the quantity that tripped it."""

    kind: CautionKind
    quantity: float

    def render(self) -> str:
        q = int(self.quantity) if float(self.quantity).is_integer() else round(self.quantity, 2)
        return f"{self.kind.value}({q})"


@dataclass(frozen=True)
class EstimatorConfig:
    max_lag: int = 25
    min_overlap: int = 1
    long_lag_threshold: int = 8
    # Percentage points of standard-vs-optional mix difference tolerated
    # before flagging; technologies sold mostly as options adopt differently.
    optional_divergence_pp: float = 15.0
    small_overlap_threshold: int = 3
    mandates: Mapping[FeatureId, MandateInfo] = field(default_factory=lambda: dict(DEFAULT_MANDATES))


DEFAULT_CONFIG = EstimatorConfig()


@dataclass(frozen=True)
class LagMatch:
    target: FeatureId
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
        # Comma-free so the value can sit in a no-quoting CSV cell.
        if self.kind is ProvenanceKind.DIRECT_FLEET_SERIES:
            return self.kind.value
        return f"{self.kind.value}({self.analog.value}:{self.lag_years})"


def _round_half_up_pct(fraction) -> int:
    """Round a [0, 1] fraction to an integer percent, halves away from zero."""
    if isinstance(fraction, Fraction):
        fraction = Decimal(fraction.numerator) / Decimal(fraction.denominator)
    elif isinstance(fraction, float):
        fraction = Decimal(str(fraction))
    else:
        fraction = Decimal(fraction)
    return int((fraction * 100).quantize(Decimal("1"), rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class PenetrationEstimate:
    feature: FeatureId
    year: int
    equipped_pct: int
    activation_pct: int
    activated_of_fleet_pct: int
    equipped_provenance: Provenance
    cautions: frozenset[CautionFlag]

    def __post_init__(self):
        expected = _round_half_up_pct(Decimal(self.equipped_pct * self.activation_pct) / 10000)
        if self.activated_of_fleet_pct != expected:
            raise ValueError(
                f"activated_of_fleet_pct {self.activated_of_fleet_pct} must equal "
                f"round_half_up({self.equipped_pct} x {self.activation_pct} / 100) = {expected}"
            )


def match_lag(
    target: AdoptionSeries,
    candidates: Sequence[AdoptionSeries],
    config: EstimatorConfig = DEFAULT_CONFIG,
    admissible: Callable[[FeatureId, int], bool] | None = None,
) -> LagMatch:
    """Best (analog, lag) alignment of the target's adoption curve.

    For every candidate and every lag in [0, max_lag], target year y is
    compared with candidate year y - lag on combined (standard + optional)
    availability; the score is the mean squared difference over the overlap.
    Ties break toward the smaller lag, then candidate order. An optional
    admissible(feature, lag) predicate restricts the search, e.g. to pairs
    whose fleet series can actually serve the transfer year.
    """
    if not target.points:
        raise NoCandidateQualifies(f"target series for {target.feature.value} is empty")
    best_key = None
    best = None
    for index, candidate in enumerate(candidates):
        for lag in range(config.max_lag + 1):
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
    if len(overlap) < config.small_overlap_threshold:
        cautions.add(CautionFlag(CautionKind.SMALL_OVERLAP, len(overlap)))
    divergence = max(
        abs(float(target.points[y].opt) - float(candidate.points[y - lag].opt)) * 100 for y in overlap
    )
    if divergence > config.optional_divergence_pp:
        cautions.add(CautionFlag(CautionKind.OPTIONAL_SHARE_DIVERGENCE, divergence))
    mandate = config.mandates.get(candidate.feature)
    if mandate is not None:
        under = [y - lag for y in overlap if y - lag >= mandate.announced_year]
        if under:
            cautions.add(CautionFlag(CautionKind.ANALOG_UNDER_MANDATE, min(under)))
    return LagMatch(
        target=target.feature,
        analog=candidate.feature,
        lag_years=lag,
        distance=distance,
        overlap_years=len(overlap),
        cautions=frozenset(cautions),
    )


@dataclass(frozen=True)
class FleetTransfer:
    """An analog fleet rate read across the adoption lag."""

    rate: Decimal
    source_year: int
    cautions: frozenset[CautionFlag]


def transfer_fleet_rate(
    match: LagMatch,
    analog_fleet: FleetSeries,
    target_year: int,
    config: EstimatorConfig = DEFAULT_CONFIG,
) -> FleetTransfer:
    """Analog fleet equipped rate at target_year - lag, with the config's mandate caution."""
    if analog_fleet.feature is not match.analog:
        raise ValueError(
            f"fleet series is for {analog_fleet.feature.value}, match analog is {match.analog.value}"
        )
    source_year = target_year - match.lag_years
    rate = analog_fleet.rate(source_year)
    cautions = set()
    mandate = config.mandates.get(match.analog)
    if mandate is not None and source_year >= mandate.announced_year:
        cautions.add(CautionFlag(CautionKind.ANALOG_UNDER_MANDATE, source_year))
    return FleetTransfer(rate=rate, source_year=source_year, cautions=frozenset(cautions))


@dataclass(frozen=True)
class EquippedEstimate:
    rate: Decimal
    provenance: Provenance
    cautions: frozenset[CautionFlag]
    match: LagMatch | None = None


def _lag_route(
    feature: FeatureId,
    year: int,
    target: AdoptionSeries,
    fleet_series_set: Mapping[FeatureId, FleetSeries],
    adoption_series_set: Mapping[FeatureId, AdoptionSeries],
    config: EstimatorConfig,
    kind: ProvenanceKind,
) -> EquippedEstimate:
    candidates = [s for f, s in adoption_series_set.items() if f is not feature]

    def transferable(analog: FeatureId, lag: int) -> bool:
        series = fleet_series_set.get(analog)
        return series is not None and (year - lag) in series.points

    match = match_lag(target, candidates, config, admissible=transferable)
    transfer = transfer_fleet_rate(match, fleet_series_set[match.analog], year, config)
    return EquippedEstimate(
        rate=transfer.rate,
        provenance=Provenance(kind, match.analog, match.lag_years),
        cautions=match.cautions | transfer.cautions,
        match=match,
    )


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
    failures = []
    for kind, target in routes:
        if target is None or not target.points:
            continue
        try:
            return _lag_route(feature, year, target, fleet_series_set, adoption_series_set, config, kind)
        except (NoCandidateQualifies, YearNotInSeries) as exc:
            failures.append(str(exc))
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
    return equipped_pct, activation_pct, _round_half_up_pct(Decimal(equipped_pct * activation_pct) / 10000)


def estimate_table(
    year: int,
    fleet_series_set: Mapping[FeatureId, FleetSeries],
    adoption_series_set: Mapping[FeatureId, AdoptionSeries],
    fars_series_set: Mapping[FeatureId, AdoptionSeries] | None,
    activation: ActivationTable,
    config: EstimatorConfig = DEFAULT_CONFIG,
) -> list[PenetrationEstimate]:
    """One penetration estimate per priority feature, in report order."""
    estimates = []
    for feature in PRIORITY_FEATURES:
        entry = activation.entries.get(feature)
        if entry is None:
            raise InsufficientData(feature, year, "no activation rate entry")
        equipped = estimate_equipped(
            feature, year, fleet_series_set, adoption_series_set, fars_series_set, config
        )
        equipped_pct, activation_pct, activated_pct = compose_activated(equipped.rate, entry.rate)
        estimates.append(
            PenetrationEstimate(
                feature=feature,
                year=year,
                equipped_pct=equipped_pct,
                activation_pct=activation_pct,
                activated_of_fleet_pct=activated_pct,
                equipped_provenance=equipped.provenance,
                cautions=equipped.cautions,
            )
        )
    return estimates


def forecast_error(predicted: FleetSeries, estimated: FleetSeries, year: int) -> Decimal:
    """Predicted minus estimated equipped rate, in percentage points."""
    return (predicted.rate(year) - estimated.rate(year)) * 100


def fleet_any_feature_share(
    records: Sequence[VehicleRecord], features: set[FeatureId]
) -> tuple[int, Fraction]:
    """Count and share of records with any listed feature standard or optional.

    The denominator is all records, including those whose availability is
    unknown, so the share is a floor on the true rate.
    """
    if not records:
        raise EmptyCohort("no records")
    count = 0
    for rec in records:
        for feature in features:
            flag = rec.feature_flags.get(feature)
            if flag is Availability.STANDARD or flag is Availability.OPTIONAL:
                count += 1
                break
    return count, Fraction(count, len(records))
