"""Ingestion and validation of the statistical inputs the estimator consumes.

Four file kinds: new-vehicle adoption series, fleet equipped series,
activation rates, and crash-involved vehicle records. Fractions are kept as
exact decimals read from the text so published two-digit percentages
round-trip without binary floating point noise; crash-cohort fractions are
exact integer ratios.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from enum import Enum
from fractions import Fraction
from pathlib import Path

from .catalog import Catalog, FeatureId, PRIORITY_FEATURES, Availability, Table, at_row, feature_from_name, parse_year
from .errors import (
    BadEnumValue,
    DuplicateKey,
    EmptyCohort,
    FractionOutOfRange,
    IllegalYearCode,
    NonContiguousYears,
    SchemaError,
    YearNotInSeries,
)
from .vin import parse_vin_lenient

ADOPTION_HEADER = ("feature", "model_year", "std_frac", "opt_frac")
FLEET_HEADER = ("feature", "calendar_year", "equipped_frac")
ACTIVATION_HEADER = ("feature", "rate", "source", "donor")
FARS_REQUIRED_COLUMNS = ("vin", "crash_year")
FARS_OPTIONAL_COLUMNS = ("make", "model", "model_year")


def _parse_fraction(text: str, column: str) -> Decimal:
    try:
        value = Decimal(text)
    except InvalidOperation:
        raise SchemaError(f"{column} {text!r} is not a decimal fraction") from None
    if not value.is_finite() or value < 0 or value > 1:
        raise FractionOutOfRange(f"{column} {text!r} is outside [0, 1]")
    return value


def _check_contiguous(feature: FeatureId, years, kind: str) -> None:
    """Reject interior gaps, naming at most the first 10; the work is bounded by len(years), not the span."""
    ordered = sorted(years)
    count = ordered[-1] - ordered[0] + 1 - len(ordered)
    if count:
        shown = [y for a, b in zip(ordered, ordered[1:]) for y in range(a + 1, min(b, a + 11))][:10]
        more = f" and {count - len(shown)} more" if count > len(shown) else ""
        raise NonContiguousYears(f"{kind} series for {feature.value} is missing years {shown}{more}")


@dataclass(frozen=True)
class AdoptionPoint:
    """Standard and optional availability fractions on new vehicles of one model year."""

    std: Decimal | Fraction
    opt: Decimal | Fraction

    def __post_init__(self):
        if self.std < 0 or self.opt < 0 or self.std + self.opt > 1:
            raise FractionOutOfRange(f"std {self.std} + opt {self.opt} must stay within [0, 1]")

    @property
    def combined(self):
        return self.std + self.opt


@dataclass(frozen=True)
class AdoptionSeries:
    """Per-feature model-year availability on new vehicles."""

    feature: FeatureId
    points: dict[int, AdoptionPoint]

    def years(self) -> list[int]:
        return sorted(self.points)


@dataclass(frozen=True)
class FleetSeries:
    """Per-feature fraction of the whole registered fleet equipped, by calendar year."""

    feature: FeatureId
    points: dict[int, Decimal]

    def __post_init__(self):
        for year, frac in self.points.items():
            if frac < 0 or frac > 1:
                raise FractionOutOfRange(f"{self.feature.value} {year}: fraction {frac} outside [0, 1]")

    def rate(self, year: int) -> Decimal:
        if year not in self.points:
            raise YearNotInSeries(self.feature, year)
        return self.points[year]


class ActivationSource(Enum):
    OBSERVED = "observed"
    ASSUMED_FROM_SIMILAR = "assumed_from_similar"
    # The published observation disagrees with the rate the composed
    # estimates require; the value is kept but marked.
    DISPUTED = "disputed"


@dataclass(frozen=True)
class ActivationEntry:
    rate: Decimal
    source: ActivationSource
    donor: FeatureId | None = None

    def __post_init__(self):
        if self.source is ActivationSource.ASSUMED_FROM_SIMILAR and self.donor is None:
            raise BadEnumValue("assumed_from_similar activation entries must name a donor feature")


@dataclass(frozen=True)
class ActivationTable:
    entries: dict[FeatureId, ActivationEntry]

    def missing_priority(self) -> list[FeatureId]:
        return [f for f in PRIORITY_FEATURES if f not in self.entries]


@dataclass(frozen=True)
class VehicleRecord:
    """One decoded vehicle: a crash-file row (the first four fields) or a vPIC
    decode (no crash year; make, model and, when the decode fell short, error_text)."""

    vin: str
    crash_year: int | None
    model_year: int | None
    feature_flags: dict[FeatureId, Availability] = field(default_factory=dict)
    make: str = ""
    model: str = ""
    error_text: str | None = None


@dataclass(frozen=True)
class FarsIngest:
    records: list[VehicleRecord]
    warnings: list[str]

    @property
    def warning_count(self) -> int:
        return len(self.warnings)


def ingest_adoption_csv(source, allow_gaps: bool = False) -> dict[FeatureId, AdoptionSeries]:
    """One adoption series per feature present; violations carry row numbers."""
    by_feature: dict[FeatureId, dict[int, AdoptionPoint]] = {}
    with Table(source, ADOPTION_HEADER) as table:
        for feature_text, year_text, std_text, opt_text in table:
            feature = feature_from_name(feature_text)
            year = parse_year(year_text, "model_year")
            point = AdoptionPoint(_parse_fraction(std_text, "std_frac"), _parse_fraction(opt_text, "opt_frac"))
            points = by_feature.setdefault(feature, {})
            if year in points:
                raise DuplicateKey(f"duplicate year {year} for {feature.value}")
            points[year] = point
    if not allow_gaps:
        for feature, points in by_feature.items():
            _check_contiguous(feature, points, "adoption")
    return {f: AdoptionSeries(f, dict(sorted(pts.items()))) for f, pts in by_feature.items()}


def ingest_fleet_csv(source, allow_gaps: bool = False) -> dict[FeatureId, FleetSeries]:
    """One fleet equipped series per feature present."""
    by_feature: dict[FeatureId, dict[int, Decimal]] = {}
    with Table(source, FLEET_HEADER) as table:
        for feature_text, year_text, frac_text in table:
            feature = feature_from_name(feature_text)
            year = parse_year(year_text, "calendar_year")
            frac = _parse_fraction(frac_text, "equipped_frac")
            points = by_feature.setdefault(feature, {})
            if year in points:
                raise DuplicateKey(f"duplicate year {year} for {feature.value}")
            points[year] = frac
    if not allow_gaps:
        for feature, points in by_feature.items():
            _check_contiguous(feature, points, "fleet")
    return {f: FleetSeries(f, dict(sorted(pts.items()))) for f, pts in by_feature.items()}


def ingest_activation_csv(source) -> ActivationTable:
    """Activation rates with their evidence class and, when assumed, the donor feature."""
    entries: dict[FeatureId, ActivationEntry] = {}
    with Table(source, ACTIVATION_HEADER) as table:
        for feature_text, rate_text, source_text, donor_text in table:
            feature = feature_from_name(feature_text)
            rate = _parse_fraction(rate_text, "rate")
            try:
                src = ActivationSource(source_text)
            except ValueError:
                raise BadEnumValue(
                    f"source must be one of {[s.value for s in ActivationSource]}, got {source_text!r}"
                ) from None
            donor = feature_from_name(donor_text) if donor_text else None
            if feature in entries:
                raise DuplicateKey(f"duplicate activation entry for {feature.value}")
            entries[feature] = ActivationEntry(rate, src, donor)
    return ActivationTable(entries)


def ingest_fars_csv(source, catalog: Catalog) -> FarsIngest:
    """Crash vehicle rows, parsed leniently: bad rows become warnings, never drops.

    Feature flags resolve through the catalog when make, model, and model year
    are all known (model year from the VIN, unless overridden by a column).
    """
    records: list[VehicleRecord] = []
    warnings: list[str] = []
    with Table(source, FARS_REQUIRED_COLUMNS, FARS_OPTIONAL_COLUMNS) as table:
        for vin_text, crash_text, make, model, year_text in table:
            crash_year = parse_year(crash_text, "crash_year")
            vin, warning = parse_vin_lenient(vin_text)
            row_warned = warning is not None
            if warning:
                warnings.append(at_row(table.lineno, warning))

            model_year: int | None = None
            if year_text:
                model_year = parse_year(year_text, "model_year")
            elif vin is not None:
                try:
                    model_year = vin.model_year
                except IllegalYearCode as exc:
                    warnings.append(at_row(table.lineno, exc))
                    row_warned = True

            flags: dict[FeatureId, Availability] = {}
            if make and model and model_year is not None:
                flags = {f: catalog.lookup_availability(make, model, model_year, f) for f in FeatureId}
            elif "make" in table.header and "model" in table.header and not row_warned:
                # The file promises identity columns, so an unresolvable row is an anomaly.
                warnings.append(at_row(
                    table.lineno, f"cannot resolve features for {vin_text!r} (missing make/model/model_year)"
                ))
            records.append(VehicleRecord(vin_text.upper(), crash_year, model_year, flags))
    return FarsIngest(records, warnings)


def fars_availability_fraction(
    records: list[VehicleRecord], feature: FeatureId, model_year: int
) -> tuple[Fraction, Fraction, int]:
    """(standard, optional, n) over the model-year cohort with known flags.

    Unknown flags are excluded from the denominator rather than counted as
    not-available, so pre-coverage vehicles cannot depress the fractions.
    """
    standard = optional = known = 0
    for rec in records:
        if rec.model_year != model_year:
            continue
        flag = rec.feature_flags.get(feature, Availability.UNKNOWN)
        if flag is Availability.UNKNOWN:
            continue
        known += 1
        if flag is Availability.STANDARD:
            standard += 1
        elif flag is Availability.OPTIONAL:
            optional += 1
    if known == 0:
        raise EmptyCohort(f"no {feature.value} records with known availability for model year {model_year}")
    return Fraction(standard, known), Fraction(optional, known), known


def fars_adoption_series(records: list[VehicleRecord], feature: FeatureId) -> AdoptionSeries:
    """Adoption series built from crash-cohort fractions, one point per model year seen."""
    points: dict[int, AdoptionPoint] = {}
    for year in sorted({r.model_year for r in records if r.model_year is not None}):
        try:
            std, opt, _ = fars_availability_fraction(records, feature, year)
        except EmptyCohort:
            continue
        points[year] = AdoptionPoint(std, opt)
    if not points:
        raise EmptyCohort(f"no {feature.value} cohorts with known availability in the records")
    return AdoptionSeries(feature, points)


def write_adoption_csv(series_set: dict[FeatureId, AdoptionSeries], path) -> None:
    lines = [",".join(ADOPTION_HEADER)]
    for feature in series_set:
        for year, pt in sorted(series_set[feature].points.items()):
            lines.append(f"{feature.value},{year},{pt.std},{pt.opt}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_fleet_csv(series_set: dict[FeatureId, FleetSeries], path) -> None:
    lines = [",".join(FLEET_HEADER)]
    for feature in series_set:
        for year, frac in sorted(series_set[feature].points.items()):
            lines.append(f"{feature.value},{year},{frac}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def bundled_data_dir() -> Path:
    """Directory with the data files shipped in the package."""
    return Path(__file__).parent / "data" / "default"
