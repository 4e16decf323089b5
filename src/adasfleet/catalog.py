"""Driver-assistance feature taxonomy, the make/model/year availability catalog,
and the one reader for the package's comma-separated data files."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping

from .errors import AdasFleetError, BadEnumValue, DuplicateKey, SchemaError


class FeatureId(Enum):
    ADAPTIVE_CRUISE_CONTROL = "adaptive_cruise_control"
    AUTOMATIC_EMERGENCY_BRAKING = "automatic_emergency_braking"
    FORWARD_COLLISION_PREVENTION = "forward_collision_prevention"
    LANE_CENTERING_ASSIST = "lane_centering_assist"
    LANE_DEPARTURE_PREVENTION = "lane_departure_prevention"
    PEDESTRIAN_AUTOMATIC_EMERGENCY_BRAKING = "pedestrian_automatic_emergency_braking"
    # Analog technologies used for adoption-curve matching.
    LANE_DEPARTURE_WARNING = "lane_departure_warning"
    REAR_PARKING_SENSORS = "rear_parking_sensors"
    ELECTRONIC_STABILITY_CONTROL = "electronic_stability_control"
    LANE_KEEP_ASSIST = "lane_keep_assist"

    @property
    def display_name(self) -> str:
        return self.value.replace("_", " ").capitalize()


# Report row order for the six features tracked as high priority.
PRIORITY_FEATURES: tuple[FeatureId, ...] = (
    FeatureId.ADAPTIVE_CRUISE_CONTROL,
    FeatureId.AUTOMATIC_EMERGENCY_BRAKING,
    FeatureId.FORWARD_COLLISION_PREVENTION,
    FeatureId.LANE_CENTERING_ASSIST,
    FeatureId.LANE_DEPARTURE_PREVENTION,
    FeatureId.PEDESTRIAN_AUTOMATIC_EMERGENCY_BRAKING,
)

ANALOG_FEATURES: tuple[FeatureId, ...] = (
    FeatureId.LANE_DEPARTURE_WARNING,
    FeatureId.REAR_PARKING_SENSORS,
    FeatureId.ELECTRONIC_STABILITY_CONTROL,
    FeatureId.LANE_KEEP_ASSIST,
)


def feature_from_name(name: str) -> FeatureId:
    try:
        return FeatureId(name.strip())
    except ValueError:
        raise BadEnumValue(f"unknown feature name {name!r}") from None


class Availability(Enum):
    STANDARD = "standard"
    OPTIONAL = "optional"
    NOT_AVAILABLE = "not_available"
    # Reserved for model years below the decode-coverage floor or absent records.
    UNKNOWN = "unknown"


_CSV_AVAILABILITY = {
    "standard": Availability.STANDARD,
    "optional": Availability.OPTIONAL,
    "not_available": Availability.NOT_AVAILABLE,
}


def availability_from_name(name: str) -> Availability:
    try:
        return _CSV_AVAILABILITY[name.strip()]
    except KeyError:
        raise BadEnumValue(f"availability must be one of {sorted(_CSV_AVAILABILITY)}, got {name!r}") from None


@dataclass(frozen=True)
class TrimAvailabilityRecord:
    make: str
    model: str
    model_year: int
    feature: FeatureId
    availability: Availability


@dataclass(frozen=True)
class MandateInfo:
    """A regulatory mandate that can distort an analog technology's adoption."""

    feature: FeatureId
    announced_year: int
    effective_year: int

    def __post_init__(self):
        if self.announced_year > self.effective_year:
            raise ValueError("mandate cannot take effect before it is announced")


# FMVSS 126: electronic stability control, proposed 2006, mandatory on new
# vehicles from 2012.
DEFAULT_MANDATES: Mapping[FeatureId, MandateInfo] = {
    FeatureId.ELECTRONIC_STABILITY_CONTROL: MandateInfo(
        FeatureId.ELECTRONIC_STABILITY_CONTROL, announced_year=2006, effective_year=2012
    ),
}

# Decoded availability data does not reach below this model year.
DEFAULT_COVERAGE_FLOOR = 2017

CATALOG_HEADER = ("make", "model", "model_year", "feature", "availability")


def _key(make: str, model: str, model_year: int, feature: FeatureId):
    return (make.strip().lower(), model.strip().lower(), model_year, feature)


@dataclass(frozen=True)
class Catalog:
    """Immutable (make, model, year, feature) -> availability index."""

    records: tuple[TrimAvailabilityRecord, ...]
    coverage_floor: int = DEFAULT_COVERAGE_FLOOR
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for rec in self.records:
            key = _key(rec.make, rec.model, rec.model_year, rec.feature)
            if key in index:
                raise DuplicateKey(
                    f"duplicate catalog entry for {rec.make}/{rec.model}/{rec.model_year}/{rec.feature.value}"
                )
            index[key] = rec.availability
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.records)

    def lookup_availability(self, make: str, model: str, model_year: int, feature: FeatureId) -> Availability:
        """Stored value on a hit; on a miss, Unknown below the coverage floor
        and NotAvailable at or above it. Total: never raises."""
        hit = self._index.get(_key(make, model, model_year, feature))
        if hit is not None:
            return hit
        if model_year < self.coverage_floor:
            return Availability.UNKNOWN
        return Availability.NOT_AVAILABLE


def at_row(lineno: int | None, message) -> str:
    return f"row {lineno}: {message}"


def parse_year(text: str, column: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SchemaError(f"{column} {text!r} is not an integer year") from None


def text_lines(source):
    """Lines of a UTF-8 file, or of an open text stream, streamed and split as str.splitlines splits them."""
    is_path = isinstance(source, (str, Path))
    try:
        with (open(source, encoding="utf-8", newline="") if is_path else nullcontext(source)) as handle:
            for chunk in handle:
                yield from chunk.splitlines()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{source} is not UTF-8 text: {exc.reason}") from None


class Table:
    """The data rows of one comma-separated file, streamed as lists of stripped cells.

    No quoting: an embedded comma changes the column count, and every row must
    be as wide as the header. Blank and '#' comment lines are skipped. The
    header must be exactly `columns`, unless `optional` is given: then it must
    hold every name in `columns`, may hold those in `optional` and others, which
    are ignored, and each row comes as the cells of `columns + optional`, ""
    where absent. Iterate inside a `with` block: an AdasFleetError raised while
    a row is handled leaves the block with the row's line number prefixed.
    """

    def __init__(self, source, columns: tuple[str, ...], optional: tuple[str, ...] | None = None):
        self.source = source
        self.columns = columns
        self.optional = optional
        self.header: list[str] | None = None
        self.lineno: int | None = None  # of the data row being handled

    def __enter__(self) -> Table:
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if isinstance(exc, AdasFleetError) and self.lineno is not None:
            exc.args = (at_row(self.lineno, exc),)

    def _picks(self, header: list[str], line: str) -> list[int | None] | None:
        if self.optional is None:
            if tuple(header) != self.columns:
                raise SchemaError(f"expected header {','.join(self.columns)!r}, got {line!r}")
            return None
        index = {name: i for i, name in enumerate(header)}
        for name in self.columns:
            if name not in index:
                raise SchemaError(f"file must have a {name!r} column, got {header}")
        return [index.get(name) for name in self.columns + self.optional]

    def __iter__(self):
        picks = None
        for lineno, line in enumerate(text_lines(self.source), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            cells = [c.strip() for c in line.split(",")]
            if self.header is None:
                picks = self._picks(cells, line)
                self.header = cells
                continue
            self.lineno = lineno
            if len(cells) != len(self.header):
                raise SchemaError(f"expected {len(self.header)} columns, got {len(cells)}")
            yield cells if picks is None else [cells[i] if i is not None else "" for i in picks]
            self.lineno = None
        if self.header is None:
            raise SchemaError("file has no header row")


def load_catalog(source, coverage_floor: int = DEFAULT_COVERAGE_FLOOR) -> Catalog:
    """Load an availability catalog CSV, rejecting duplicates and bad enums."""
    records = []
    with Table(source, CATALOG_HEADER) as table:
        for make, model, year_text, feature_text, avail_text in table:
            model_year = parse_year(year_text, "model_year")
            if model_year < 1980:
                raise SchemaError(f"model_year {model_year} predates 17-character VINs")
            feature = feature_from_name(feature_text)
            availability = availability_from_name(avail_text)
            records.append(TrimAvailabilityRecord(make, model, model_year, feature, availability))
    return Catalog(records=tuple(records), coverage_floor=coverage_floor)
