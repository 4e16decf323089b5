"""Driver-assistance feature taxonomy, the make/model/year availability catalog,
and the one reader for the package's comma-separated data files."""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from enum import Enum
from io import DEFAULT_BUFFER_SIZE
from itertools import compress, islice, repeat
from pathlib import Path
from sys import intern
from typing import Iterable, Mapping

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

    # Members are singletons compared by identity, so the identity hash is
    # consistent with ==; Enum's own hash is a Python-level call per lookup.
    __hash__ = object.__hash__

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


_FEATURES_BY_NAME = {f.value: f for f in FeatureId}


def feature_from_name(name: str) -> FeatureId:
    try:
        return _FEATURES_BY_NAME[name.strip()]
    except KeyError:
        raise BadEnumValue(f"unknown feature name {name!r}") from None


class Availability(Enum):
    STANDARD = "standard"
    OPTIONAL = "optional"
    NOT_AVAILABLE = "not_available"
    # Reserved for model years below the decode-coverage floor or absent records.
    UNKNOWN = "unknown"

    __hash__ = object.__hash__  # as for FeatureId


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


@dataclass(frozen=True, slots=True)
class TrimAvailabilityRecord:
    make: str
    model: str
    model_year: int
    feature: FeatureId
    availability: Availability


# The year each regulatory mandate that can distort an analog technology's
# adoption was announced. FMVSS 126: electronic stability control, proposed
# 2006, mandatory on new vehicles from 2012.
MANDATE_ANNOUNCED: Mapping[FeatureId, int] = {FeatureId.ELECTRONIC_STABILITY_CONTROL: 2006}

# Decoded availability data does not reach below this model year.
DEFAULT_COVERAGE_FLOOR = 2017


def absent_availability(model_year: int) -> Availability:
    """A feature no source records: Unknown below the coverage floor, NotAvailable at or above it."""
    return Availability.UNKNOWN if model_year < DEFAULT_COVERAGE_FLOOR else Availability.NOT_AVAILABLE


CATALOG_HEADER = ("make", "model", "model_year", "feature", "availability")
BATCH_ROWS = 1024  # data rows per `Table.batches` batch


# The flags of a key the catalog does not hold; never mutated.
_NO_FLAGS: dict = {}


@dataclass(frozen=True, init=False)
class Catalog:
    """Immutable availability index: one {FeatureId: Availability} dict per
    normalized (make, model, model_year) key, where make and model are
    stripped, lowercased and interned."""

    _index: dict[tuple[str, str, int], dict[FeatureId, Availability]] = field(repr=False, hash=False)

    def __init__(self, rows: Iterable[tuple[str, str, int, FeatureId, Availability]]):
        """Index (make, model, model_year, feature, availability) rows; a repeated (key, feature) is a DuplicateKey."""
        index = {}
        names = {}  # make or model text as given -> its normalized, interned form
        for make, model, model_year, feature, availability in rows:
            make_key = names.get(make)
            if make_key is None:
                make_key = names[make] = intern(make.strip().lower())
            model_key = names.get(model)
            if model_key is None:
                model_key = names[model] = intern(model.strip().lower())
            key = (make_key, model_key, model_year)
            flags = index.get(key)
            if flags is None:
                flags = index[key] = {}
            elif feature in flags:
                raise DuplicateKey(f"duplicate catalog entry for {make}/{model}/{model_year}/{feature.value}")
            flags[feature] = availability
        object.__setattr__(self, "_index", index)

    @property
    def records(self) -> tuple[TrimAvailabilityRecord, ...]:
        """Every entry as a record, built on each access: make and model in
        their normalized, interned spelling, grouped by key in first-seen order."""
        return tuple(
            TrimAvailabilityRecord(make, model, model_year, feature, availability)
            for (make, model, model_year), flags in self._index.items()
            for feature, availability in flags.items()
        )

    def __len__(self) -> int:
        """The number of (key, feature) entries."""
        return sum(map(len, self._index.values()))

    def lookup_availability(self, make: str, model: str, model_year: int, feature: FeatureId) -> Availability:
        """Stored value on a hit, `absent_availability` on a miss. Total: never raises."""
        hit = self._index.get((make.strip().lower(), model.strip().lower(), model_year), _NO_FLAGS).get(feature)
        return hit if hit is not None else absent_availability(model_year)


def at_row(lineno: int | None, message) -> str:
    return f"row {lineno}: {message}"


def parse_year(text: str, column: str) -> int:
    try:
        if not text.isascii() or "_" in text:  # int() also reads "2_021" and other digits, such as "٢٠٢١"
            raise ValueError
        return int(text)
    except ValueError:
        raise SchemaError(f"{column} {text!r} is not an integer year") from None


def text_lines(source):
    """Lines of a UTF-8 file, or of an open text stream, read DEFAULT_BUFFER_SIZE characters at a time and split
    as str.splitlines splits them. One leading byte-order mark (U+FEFF), which some editors write, is dropped."""
    try:
        with (open(source, encoding="utf-8") if isinstance(source, (str, Path)) else nullcontext(source)) as handle:
            # A file reads "\r" and "\r\n" as "\n" but a stream need not, so only text through a "\n" splits alone.
            chunks = iter(lambda: handle.read(DEFAULT_BUFFER_SIZE), "")
            rest = next(chunks, "").removeprefix("\ufeff")
            for chunk in chunks:
                cut = chunk.rfind("\n") + 1
                if cut:
                    yield from (rest + chunk[:cut]).splitlines()
                    rest = ""
                rest += chunk[cut:]
            yield from rest.splitlines()
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{source} is not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise SchemaError(f"cannot read {source}: {exc.strerror or exc}") from None


class Table:
    """The data rows of one comma-separated file or open text stream, read in blocks, as tuples of stripped cells.

    No quoting: an embedded comma changes the column count, and every row must
    be as wide as the header. Blank and '#' comment lines are skipped. The
    header must be exactly `columns`, unless `optional` is given: then it must
    hold every name in `columns`, may hold those in `optional` and others, which
    are ignored, and each row holds the cells of `columns + optional`, "" where
    absent. Iterate inside a `with` block: an AdasFleetError raised while a row
    is handled leaves the block with the row's line number prefixed.
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

    def _picks(self, header: list[str], line: str) -> list[int]:
        if self.optional is None:
            if tuple(header) != self.columns:
                raise SchemaError(f"expected header {','.join(self.columns)!r}, got {line!r}")
            return list(range(len(header)))
        index = {name: i for i, name in enumerate(header)}
        for name in self.columns:
            if name not in index:
                raise SchemaError(f"file must have a {name!r} column, got {header}")
        for name in self.columns + self.optional:
            if header.count(name) > 1:  # which of them to read would be a guess
                raise SchemaError(f"file must have one {name!r} column, got {header}")
        # A missing column reads the blank column that batches() puts after the file's columns.
        return [index.get(name, -1) for name in self.columns + self.optional]

    def batches(self):
        """(line numbers, columns) of up to BATCH_ROWS data rows at a time, one sequence of cells per column read.
        Each block of lines is split with one str.split. Blank and '#' lines are dropped, and cells stripped, only
        in a block that may hold them: one before the header, or not ASCII, or holding ' ', '\t', '\x1f', '#' or
        a blank line. A line of the wrong width ends its block; the rows before a fault come first."""
        lines, lineno, width = text_lines(self.source), 0, 0
        while True:
            block, failure = [], None
            try:
                block.extend(islice(lines, BATCH_ROWS))
            except SchemaError as exc:  # list.extend keeps the lines read before it
                failure = exc
            numbers, kept = range(lineno + 1, lineno + 1 + len(block)), block
            text = ",".join(block)
            # Of the ASCII characters str.strip removes, a splitlines() line can hold only " ", "\t" and "\x1f".
            plain = width and text.isascii() and not any(c in text for c in " \t\x1f#") and "" not in block
            if not plain:
                keep = [line.strip()[:1] not in ("", "#") for line in block]
                numbers, kept = list(compress(numbers, keep)), list(compress(block, keep))
            if kept and not width:  # the first line kept is the header
                header = list(map(str.strip, kept[0].split(",")))
                picks, width, self.header = self._picks(header, kept[0]), len(header), header
                numbers, kept = numbers[1:], kept[1:]
            if kept and set(map(str.count, kept, repeat(","))) != {width - 1}:  # a line's commas give its width
                bad = list(map((width - 1).__eq__, map(str.count, kept, repeat(",")))).index(False)
                failure = SchemaError(at_row(numbers[bad], f"expected {width} columns, got {kept[bad].count(',') + 1}"))
                numbers, kept = numbers[:bad], kept[:bad]
            if numbers:
                cells = ",".join(kept).split(",")
                if not plain:
                    cells = list(map(str.strip, cells))
                columns = [cells[i::width] for i in range(width)]
                yield numbers, [(*columns, ("",) * len(numbers))[i] for i in picks]
                self.lineno = None  # whichever row the caller handled last
            if failure is not None:
                raise failure
            if not block:
                break
            lineno += len(block)
        if self.header is None:
            raise SchemaError("file has no header row")

    def __iter__(self):
        for numbers, columns in self.batches():
            for self.lineno, row in zip(numbers, zip(*columns)):
                yield row


def load_catalog(source) -> Catalog:
    """Load an availability catalog CSV, rejecting duplicates and bad enums."""

    def rows(table):
        years: dict[str, int] = {}  # each distinct year text, parsed and checked once
        for make, model, year_text, feature_text, avail_text in table:
            model_year = years.get(year_text)
            if model_year is None:
                model_year = years[year_text] = parse_year(year_text, "model_year")
                if model_year < 1980:
                    raise SchemaError(f"model_year {model_year} predates 17-character VINs")
            # Cells come stripped, so a get finds every valid name; the parsers only word the errors.
            yield (make, model, model_year, _FEATURES_BY_NAME.get(feature_text) or feature_from_name(feature_text),
                   _CSV_AVAILABILITY.get(avail_text) or availability_from_name(avail_text))

    with Table(source, CATALOG_HEADER) as table:
        return Catalog(rows(table))
