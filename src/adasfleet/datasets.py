"""Ingestion and validation of the statistical inputs the estimator consumes.

Four file kinds: new-vehicle adoption series, fleet equipped series,
activation rates, and crash-involved vehicle records. Fractions are kept as
exact decimals read from the text so published two-digit percentages
round-trip without binary floating point noise; crash-cohort fractions are
exact integer ratios.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from enum import Enum
from fractions import Fraction
from itertools import compress, count, repeat
from operator import is_, not_
from pathlib import Path

from .catalog import (
    Catalog, FeatureId, PRIORITY_FEATURES, Availability, Table, at_row, feature_from_name, parse_year,
)
from .errors import (
    BadEnumValue,
    DuplicateKey,
    EmptyCohort,
    FractionOutOfRange,
    IllegalYearCode,
    SchemaError,
    YearNotInSeries,
)
from .vin import parse_vin_lenient, scan_batch

ADOPTION_HEADER = ("feature", "model_year", "std_frac", "opt_frac")
FLEET_HEADER = ("feature", "calendar_year", "equipped_frac")
ACTIVATION_HEADER = ("feature", "rate", "source", "donor")
FARS_REQUIRED_COLUMNS = ("vin", "crash_year")
FARS_OPTIONAL_COLUMNS = ("make", "model", "model_year")
_FEATURE_IDS = tuple(FeatureId)  # iterating the enum class runs a Python generator each time


def _parse_fraction(text: str, column: str) -> Decimal:
    try:
        if not text.isascii() or "_" in text:  # Decimal() also reads "0.1_5" and other digits, such as "٠.٢"
            raise InvalidOperation
        value = Decimal(text)
    except InvalidOperation:
        raise SchemaError(f"{column} {text!r} is not a decimal fraction") from None
    if not value.is_finite() or value < 0 or value > 1:
        raise FractionOutOfRange(f"{column} {text!r} is outside [0, 1]")
    return value


@dataclass(frozen=True)
class AdoptionPoint:
    """Standard and optional availability fractions on new vehicles of one model year."""

    std: Decimal | Fraction
    opt: Decimal | Fraction

    def __post_init__(self):
        low, high = sorted((self.std, self.opt))
        # Exact where a Decimal sum rounds: below one half, low + high < 1; above, Fraction(high) is small.
        if low < 0 or high > 1 or (high >= Fraction(1, 2) and low > 1 - Fraction(high)):
            raise FractionOutOfRange(f"std {self.std} + opt {self.opt} must stay within [0, 1]")

    @property
    def combined(self):
        return self.std + self.opt


@dataclass(frozen=True)
class AdoptionSeries:
    """Per-feature model-year availability on new vehicles."""

    feature: FeatureId
    points: dict[int, AdoptionPoint]


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


@dataclass(frozen=True, slots=True)
class VehicleRecord:
    """One decoded vehicle: a vPIC decode (no crash year; make, model and, when the decode fell
    short, error_text) or a record built by hand. Crash files are read into `CrashRecords`."""

    vin: str
    crash_year: int | None
    model_year: int | None
    feature_flags: dict[FeatureId, Availability] = field(default_factory=dict)
    make: str = ""
    model: str = ""
    error_text: str | None = None


class CrashRecords:
    """The rows of one crash file, counted per vehicle key: `by_key` maps each key (make, model,
    model year) to (flags, rows), and `len` is the row count. No row's VIN or crash year is kept."""

    def __init__(self, by_key: dict[tuple, tuple[dict[FeatureId, Availability], int]]):
        self.by_key = by_key

    def __len__(self) -> int:
        return sum(n for _, n in self.by_key.values())


@dataclass(frozen=True)
class FarsIngest:
    records: CrashRecords
    warnings: list[str]


def _ingest_series(source, header, point, series) -> dict:
    """The one body of the series readers: rows of feature, year and fractions
    in `header` order; one `series(feature, points)` per feature present, years
    sorted, each point `point(*fractions)`. Violations carry row numbers."""
    year_column, fraction_columns = header[1], header[2:]
    by_feature: dict[FeatureId, dict] = {}
    with Table(source, header) as table:
        for feature_text, year_text, *fraction_texts in table:
            feature = feature_from_name(feature_text)
            year = parse_year(year_text, year_column)
            value = point(*map(_parse_fraction, fraction_texts, fraction_columns))
            points = by_feature.setdefault(feature, {})
            if year in points:
                raise DuplicateKey(f"duplicate year {year} for {feature.value}")
            points[year] = value
    return {f: series(f, dict(sorted(pts.items()))) for f, pts in by_feature.items()}


def ingest_adoption_csv(source) -> dict[FeatureId, AdoptionSeries]:
    """One adoption series per feature present; violations carry row numbers."""
    return _ingest_series(source, ADOPTION_HEADER, AdoptionPoint, AdoptionSeries)


def ingest_fleet_csv(source) -> dict[FeatureId, FleetSeries]:
    """One fleet equipped series per feature present."""
    return _ingest_series(source, FLEET_HEADER, lambda frac: frac, FleetSeries)


def missing_years(series: AdoptionSeries | FleetSeries, kind: str) -> str:
    """The interior years a series skips, worded with at most the first 10 listed,
    or "" when it skips none; the work is bounded by the points, not the span."""
    ordered = sorted(series.points)
    count = ordered[-1] - ordered[0] + 1 - len(ordered)
    if not count:
        return ""
    shown = [y for a, b in zip(ordered, ordered[1:]) for y in range(a + 1, min(b, a + 11))][:10]
    more = f" and {count - len(shown)} more" if count > len(shown) else ""
    return f"{kind} series for {series.feature.value} is missing years {shown}{more}"


def ingest_activation_csv(source) -> dict[FeatureId, ActivationEntry]:
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
    return entries


def missing_activation(entries: dict[FeatureId, ActivationEntry]) -> list[FeatureId]:
    """The priority features, in report order, that activation entries lack."""
    return [f for f in PRIORITY_FEATURES if f not in entries]


def ingest_fars_csv(source, catalog: Catalog) -> FarsIngest:
    """Crash vehicle rows, parsed leniently: bad rows become warnings, in row order, never drops. The rows are
    read once and only counted per vehicle key: (make, model, model year), the model year from the VIN unless a
    model_year column overrides it, or ("", "", model year) when a part is missing. Crash years are checked, not
    kept. Only rows that `scan_batch` flags or that lack a key part are parsed alone; each key's flags resolve once."""
    warnings: list[str] = []
    counts: Counter = Counter()
    years: dict[str, int] = {}  # year text -> value; a text that parses in one column parses in both
    with Table(source, FARS_REQUIRED_COLUMNS, FARS_OPTIONAL_COLUMNS) as table:
        for linenos, (vins, crash_texts, makes, models, year_texts) in table.batches():
            identity = "make" in table.header and "model" in table.header
            # Row by row where a year text is new, so that the first faulty row names the error.
            if "" in crash_texts or set(crash_texts).union(year_texts).difference(years, ("",)):
                for table.lineno, crash_text, year_text in zip(linenos, crash_texts, year_texts):
                    years[crash_text] = years.get(crash_text) or parse_year(crash_text, "crash_year")
                    if year_text:
                        years[year_text] = years.get(year_text) or parse_year(year_text, "model_year")
            flagged, vin_years = scan_batch(vins)
            model_years = list(map(years.get, year_texts, vin_years))  # a blank model_year reads the VIN's
            flagged = {*flagged, *compress(count(), map(is_, model_years, repeat(None)))}
            if identity:
                flagged.update(compress(count(), map(not_, makes)), compress(count(), map(not_, models)))
            keys = list(zip(makes, models, model_years) if identity else zip(repeat(""), repeat(""), model_years))
            for i in sorted(flagged):
                table.lineno, vin_text, make, model, year_text = linenos[i], vins[i], makes[i], models[i], year_texts[i]
                vin, warning = parse_vin_lenient(vin_text)
                if warning:
                    warnings.append(at_row(table.lineno, warning))
                model_year = years.get(year_text)
                if not year_text and vin is not None:
                    try:
                        model_year = vin.model_year
                    except IllegalYearCode as exc:
                        warning = exc
                        warnings.append(at_row(table.lineno, exc))
                keys[i] = (make, model, model_year)
                if not (make and model and model_year is not None):
                    keys[i] = ("", "", model_year)
                    if identity and warning is None:
                        # The file promises identity columns, so an unresolvable row is an anomaly.
                        warnings.append(at_row(
                            table.lineno, f"cannot resolve features for {vin_text!r} (missing make/model/model_year)"
                        ))
            counts.update(keys)
    lookup = catalog.lookup_availability
    by_key = {key: ({f: lookup(*key, f) for f in _FEATURE_IDS} if key[0] else {}, n) for key, n in counts.items()}
    return FarsIngest(CrashRecords(by_key), warnings)


def cohort_entries(records: CrashRecords | Sequence[VehicleRecord]) -> Iterator[tuple]:
    """(model year, flags, rows): one per vehicle key of `CrashRecords`, one per record of any other sequence."""
    if isinstance(records, CrashRecords):
        return ((key[2], flags, n) for key, (flags, n) in records.by_key.items())
    return ((rec.model_year, rec.feature_flags, 1) for rec in records)


def _cohort_counts(records: CrashRecords | Sequence[VehicleRecord], feature: FeatureId) -> dict[int | None, list[int]]:
    """Model year -> [standard, optional, known] for one feature, summed over `cohort_entries`.

    Unknown flags are excluded from the denominator rather than counted as
    not-available, so pre-coverage vehicles cannot depress the fractions.
    """
    unknown = Availability.UNKNOWN  # a local: an enum attribute load per entry costs ten times more
    counts: dict[int | None, list[int]] = {}
    for model_year, flags, n in cohort_entries(records):
        flag = flags.get(feature, unknown)
        if flag is unknown:
            continue
        cohort = counts.setdefault(model_year, [0, 0, 0])
        cohort[2] += n
        if flag is Availability.STANDARD:
            cohort[0] += n
        elif flag is Availability.OPTIONAL:
            cohort[1] += n
    return counts


def fars_availability_fraction(
    records: CrashRecords | Sequence[VehicleRecord], feature: FeatureId, model_year: int
) -> tuple[Fraction, Fraction, int]:
    """(standard, optional, n) over the model-year cohort with known flags."""
    standard, optional, known = _cohort_counts(records, feature).get(model_year, (0, 0, 0))
    if known == 0:
        raise EmptyCohort(f"no {feature.value} records with known availability for model year {model_year}")
    return Fraction(standard, known), Fraction(optional, known), known


def fars_adoption_series(records: CrashRecords | Sequence[VehicleRecord], feature: FeatureId) -> AdoptionSeries:
    """Adoption series built from crash-cohort fractions, one point per model year seen."""
    counts = _cohort_counts(records, feature)
    counts.pop(None, None)
    points = {
        year: AdoptionPoint(Fraction(standard, known), Fraction(optional, known))
        for year, (standard, optional, known) in sorted(counts.items())
    }
    if not points:
        raise EmptyCohort(f"no {feature.value} cohorts with known availability in the records")
    return AdoptionSeries(feature, points)


def bundled_data_dir() -> Path:
    """Directory with the data files shipped in the package."""
    return Path(__file__).parent / "data" / "default"
