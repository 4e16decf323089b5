"""Batch VIN decoding against the NHTSA vPIC service, with a fixture cache.

Every decoded VIN is a flat variable-name -> value document. The cache
stores one JSON document per VIN, so offline runs (the default, and the only
mode the test suite exercises) replay recorded responses and never open a
network connection.
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping

from .catalog import Availability, DEFAULT_COVERAGE_FLOOR, FeatureId, Table, feature_from_name
from .datasets import VehicleRecord
from .errors import IllegalYearCode, MalformedResponse, NetworkError, SchemaError
from .vin import parse_vin, parse_vin_lenient

DEFAULT_BASE_URL = "https://vpic.nhtsa.dot.gov/api/vehicles/DecodeVINValuesBatch/"

_VIN_KEYS = ("VIN", "Vin", "vin")
_MODEL_YEAR_KEYS = ("Model Year", "ModelYear")
_ERROR_KEYS = ("Error Text", "ErrorText")

_VALUE_MAP = {
    "standard": Availability.STANDARD,
    "optional": Availability.OPTIONAL,
    "not available": Availability.NOT_AVAILABLE,
    "not applicable": Availability.NOT_AVAILABLE,
    "n/a": Availability.NOT_AVAILABLE,
}


def load_variable_map(source=None) -> dict[str, FeatureId]:
    """Service variable name -> feature mapping, shipped as a data file."""
    path = Path(__file__).parent / "data" / "vpic_variables.csv" if source is None else source
    mapping: dict[str, FeatureId] = {}
    with Table(path, ("variable", "feature")) as table:
        for variable, feature_name in table:
            if not variable:
                raise SchemaError("variable name is empty")
            mapping[variable] = feature_from_name(feature_name)
    return mapping


class CacheMode(Enum):
    OFFLINE = "offline"
    RECORD_THEN_REPLAY = "record"
    LIVE_ONLY = "live"


@dataclass(frozen=True)
class FixtureCache:
    """Directory of per-VIN response documents, named <VIN>.json."""

    path: Path
    mode: CacheMode = CacheMode.OFFLINE
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def load(self, vin: str) -> dict | None:
        doc = Path(self.path) / f"{vin}.json"
        if not doc.exists():
            return None
        try:
            return json.loads(doc.read_text(encoding="utf-8"))
        except ValueError as exc:
            raise MalformedResponse(f"cached document for {vin} is not valid JSON: {exc}") from None

    def store(self, vin: str, document: Mapping) -> None:
        """Write through a temporary file, so an interrupted write leaves no partial document."""
        text = json.dumps(dict(document), indent=2, sort_keys=True)
        directory = Path(self.path)
        temp = directory / f".{vin}.{os.getpid()}.{threading.get_ident()}.tmp"
        with self._lock:
            directory.mkdir(parents=True, exist_ok=True)
            try:
                temp.write_text(text, encoding="utf-8")
                os.replace(temp, directory / f"{vin}.json")
            except BaseException:
                temp.unlink(missing_ok=True)
                raise


@dataclass(frozen=True)
class RequestLimits:
    batch_size: int = 50
    max_in_flight: int = 2
    attempts: int = 3
    base_delay: float = 1.0
    timeout: float = 30.0


def _first(raw: Mapping[str, str], keys) -> str | None:
    for key in keys:
        if key in raw and str(raw[key]).strip():
            return str(raw[key]).strip()
    return None


def normalize_vpic_record(
    raw: Mapping[str, str],
    variable_map: Mapping[str, FeatureId] | None = None,
    coverage_floor: int = DEFAULT_COVERAGE_FLOOR,
) -> VehicleRecord:
    """Flat name/value decode fields -> VehicleRecord, with no crash year.

    Unrecognized variables are ignored; a mapped variable with a blank value
    becomes Unknown below the coverage floor and NotAvailable at or above it.
    """
    variable_map = load_variable_map() if variable_map is None else variable_map
    vin = _first(raw, _VIN_KEYS)
    if vin is None:
        raise MalformedResponse("decode response does not echo the VIN")
    year_text = _first(raw, _MODEL_YEAR_KEYS)
    if year_text is None:
        raise MalformedResponse(f"decode response for {vin} has no model year")
    try:
        model_year = int(year_text)
    except ValueError:
        raise MalformedResponse(f"decode response for {vin} has model year {year_text!r}") from None

    flags: dict[FeatureId, Availability] = {}
    absent = Availability.UNKNOWN if model_year < coverage_floor else Availability.NOT_AVAILABLE
    for variable, feature in variable_map.items():
        value = str(raw.get(variable, "")).strip().lower()
        flags[feature] = _VALUE_MAP.get(value, absent)

    error_text = _first(raw, _ERROR_KEYS)
    parsed, _ = parse_vin_lenient(vin)
    if parsed is not None:
        try:
            decoded_year = parsed.model_year
        except IllegalYearCode:
            decoded_year = None
        if decoded_year is not None and decoded_year != model_year:
            note = f"model year {model_year} disagrees with VIN year code ({decoded_year})"
            error_text = f"{error_text}; {note}" if error_text else note
    return VehicleRecord(
        vin=vin.upper(),
        crash_year=None,
        make=str(raw.get("Make", "")).strip(),
        model=str(raw.get("Model", "")).strip(),
        model_year=model_year,
        feature_flags=flags,
        error_text=error_text,
    )


def _miss_record(vin: str, reason: str) -> VehicleRecord:
    return VehicleRecord(vin=vin, crash_year=None, model_year=None, feature_flags={}, error_text=reason)


def split_batches(items: list, batch_size: int) -> list[list]:
    """Chunk a list preserving order; the last chunk may be short."""
    if batch_size < 1:
        raise ValueError("batch size must be at least 1")
    return [items[i : i + batch_size] for i in range(0, len(items), batch_size)]


def _http_transport(url: str, body: Mapping[str, str], timeout: float) -> dict:
    """POST form data and return the parsed JSON body. Live path only."""
    import requests

    response = requests.post(url, data=dict(body), timeout=timeout)
    response.raise_for_status()
    return response.json()


def _fetch_batch(
    batch: list[str],
    base_url: str,
    limits: RequestLimits,
    transport: Callable,
    variable_map: Mapping[str, FeatureId],
    coverage_floor: int,
) -> tuple[list[VehicleRecord], list[dict]]:
    """Fetch one batch with bounded retries; returns records plus raw documents."""
    body = {"DATA": ";".join(batch), "format": "json"}
    last_error = None
    for attempt in range(limits.attempts):
        if attempt:
            time.sleep(limits.base_delay * 2 ** (attempt - 1))
        try:
            payload = transport(base_url, body, limits.timeout)
            break
        except MalformedResponse:
            raise
        except Exception as exc:
            last_error = exc
    else:
        raise NetworkError(f"batch of {len(batch)} VINs failed after {limits.attempts} attempts: {last_error}")

    results = payload.get("Results") if isinstance(payload, dict) else None
    if not isinstance(results, list):
        raise MalformedResponse("batch response has no Results list")
    by_vin = {}
    for raw in results:
        echoed = _first(raw, _VIN_KEYS) if isinstance(raw, Mapping) else None
        if echoed:
            by_vin[echoed.upper()] = raw
    records, documents = [], []
    for vin in batch:
        raw = by_vin.get(vin)
        if raw is None:
            records.append(_miss_record(vin, "missing from response"))
            documents.append(None)
        else:
            records.append(normalize_vpic_record(raw, variable_map, coverage_floor))
            documents.append(raw)
    return records, documents


def batch_decode(
    vins: list[str],
    cache: FixtureCache,
    limits: RequestLimits = RequestLimits(),
    base_url: str = DEFAULT_BASE_URL,
    transport: Callable | None = None,
    variable_map: Mapping[str, FeatureId] | None = None,
    coverage_floor: int = DEFAULT_COVERAGE_FLOOR,
) -> list[VehicleRecord]:
    """Decode VINs in input order: cache first, then the service if allowed.

    Offline mode never touches the network; misses get error_text instead.
    Record mode fetches misses and writes them back to the cache. Live mode
    skips the cache in both directions. Structurally invalid VINs are a
    precondition violation and raise before any request is made.
    """
    vins = [parse_vin(v, strict=False).raw for v in vins]
    variable_map = load_variable_map() if variable_map is None else variable_map

    records: list[VehicleRecord | None] = [None] * len(vins)
    to_fetch: list[int] = []
    for i, vin in enumerate(vins):
        raw = cache.load(vin) if cache.mode is not CacheMode.LIVE_ONLY else None
        if raw is not None:
            records[i] = normalize_vpic_record(raw, variable_map, coverage_floor)
        elif cache.mode is CacheMode.OFFLINE:
            records[i] = _miss_record(vin, "cache miss")
        else:
            to_fetch.append(i)

    if to_fetch:
        transport = _http_transport if transport is None else transport
        batches = split_batches(to_fetch, limits.batch_size)

        def run(batch_indices):
            batch = [vins[i] for i in batch_indices]
            try:
                return _fetch_batch(batch, base_url, limits, transport, variable_map, coverage_floor)
            except NetworkError:
                if cache.mode is CacheMode.LIVE_ONLY:
                    raise
                return [_miss_record(vins[i], "network error") for i in batch_indices], [None] * len(batch_indices)

        with ThreadPoolExecutor(max_workers=max(1, limits.max_in_flight)) as pool:
            outcomes = list(pool.map(run, batches))
        for batch_indices, (batch_records, documents) in zip(batches, outcomes):
            for i, record, document in zip(batch_indices, batch_records, documents):
                records[i] = record
                if document is not None and cache.mode is CacheMode.RECORD_THEN_REPLAY:
                    cache.store(vins[i], document)
    return records  # type: ignore[return-value]
