"""Batch VIN decoding against the NHTSA vPIC service, with a fixture cache.

Every decoded VIN is a flat variable-name -> value document. The cache
stores one JSON document of its non-blank fields per VIN, so offline runs
(the default, and the only mode the test suite exercises) replay recorded
responses and never open a network connection.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable, Mapping

from .catalog import Availability, FeatureId, Table, absent_availability, feature_from_name
from .datasets import VehicleRecord
from .errors import IllegalYearCode, MalformedResponse, NetworkError, SchemaError
from .vin import Vin, parse_vin, parse_vin_lenient

DEFAULT_BASE_URL = "https://vpic.nhtsa.dot.gov/api/vehicles/DecodeVINValuesBatch/"

BATCH_SIZE = 50  # VINs per request: the service's maximum
MAX_IN_FLIGHT = 2  # requests at once
ATTEMPTS = 3  # per request; only transport (OS-level) errors are retried
RETRY_DELAY_S = 1.0  # before the first retry, doubled before each later one
TIMEOUT_S = 30.0  # per request

_VIN_KEYS = ("VIN", "Vin", "vin")
_MODEL_YEAR_KEYS = ("Model Year", "ModelYear")
_ERROR_KEYS = ("Error Text", "ErrorText")

# Open errors that mean "no cached document", as for `Path.exists()`.
_MISS_ERRNOS = frozenset({errno.ENOENT, errno.ENOTDIR, errno.ELOOP})

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


@functools.cache
def _bundled_variable_map() -> dict[str, FeatureId]:
    """The shipped variable map, read once per process."""
    return load_variable_map()


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
        """The cached document for a VIN, or None when the cache has none.

        The file is opened once. A missing file, a missing or non-directory
        cache path and a symlink loop are misses, as `Path.exists()` treats
        them. Any other OS error is a SchemaError, and a document that is not
        a printable JSON object a MalformedResponse, each naming the file.
        """
        path = os.path.join(self.path, vin + ".json")
        try:
            with open(path, "rb") as doc:
                data = doc.read()
        except OSError as exc:
            if exc.errno in _MISS_ERRNOS:
                return None
            raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from None
        try:
            document = json.loads(data.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise MalformedResponse(f"cached document {path} cannot be read as JSON: {exc}") from None
        if b"\\u" in data:  # only an escape can spell a lone surrogate
            _check_printable(document, f"cached document {path}")
        if not isinstance(document, dict):
            raise MalformedResponse(f"cached document {path} is not a JSON object")
        return document

    def store(self, vin: str, document: Mapping) -> None:
        """Write the non-blank fields (readers take a blank one as missing) through a
        temporary file, so an interrupted write leaves no partial document. An OS
        error is a SchemaError naming the file, as in `load`."""
        text = json.dumps({k: v for k, v in document.items() if _text(v)}, indent=2, sort_keys=True)
        path = Path(self.path, f"{vin}.json")
        temp = path.with_name(f".{vin}.{os.getpid()}.{threading.get_ident()}.tmp")
        with self._lock:
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                temp.write_text(text, encoding="utf-8")
                os.replace(temp, path)
            except BaseException as exc:
                with contextlib.suppress(OSError):  # the write's own error is the one to report
                    temp.unlink(missing_ok=True)
                if not isinstance(exc, OSError):
                    raise
                raise SchemaError(f"cannot write {path}: {exc.strerror or exc}") from None


def _check_printable(document, what: str) -> None:
    """A MalformedResponse naming `what` unless the document encodes as UTF-8, as a lone surrogate does not."""
    try:
        json.dumps(document, ensure_ascii=False).encode("utf-8")
    except (ValueError, RecursionError) as exc:
        raise MalformedResponse(f"{what} cannot be read as JSON: {exc}") from None


def _text(value) -> str:
    """A field's value as stripped text; "" (blank) reads as a missing field."""
    return str(value).strip()


def _first(raw: Mapping[str, str], keys) -> str | None:
    for key in keys:
        text = _text(raw.get(key, ""))
        if text:
            return text
    return None


def normalize_vpic_record(raw: Mapping[str, str], parsed: Vin | None = None) -> VehicleRecord:
    """Flat name/value decode fields -> VehicleRecord, with no crash year.

    Unrecognized variables are ignored; a mapped variable with a blank value
    becomes `absent_availability(model_year)`, as a catalog miss does.
    `parsed` is the VIN the caller asked for; the echoed VIN is parsed for
    the model-year check only when it differs.
    """
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
    absent = absent_availability(model_year)
    for variable, feature in _bundled_variable_map().items():
        flags[feature] = _VALUE_MAP.get(_text(raw.get(variable, "")).lower(), absent)

    error_text = _first(raw, _ERROR_KEYS)
    if parsed is None or parsed.raw != vin.upper():
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
        make=_text(raw.get("Make", "")),
        model=_text(raw.get("Model", "")),
        model_year=model_year,
        feature_flags=flags,
        error_text=error_text,
    )


def _miss_record(vin: str, reason: str) -> VehicleRecord:
    return VehicleRecord(vin=vin, crash_year=None, model_year=None, feature_flags={}, error_text=reason)


def _http_transport(url: str, body: Mapping[str, str], timeout: float) -> dict:
    """POST form data and return the parsed JSON body. Live path only."""
    import requests

    response = requests.post(url, data=dict(body), timeout=timeout)
    response.raise_for_status()
    return response.json()


def _fetch_batch(batch: list[Vin], cache: FixtureCache, base_url: str, transport: Callable) -> list[VehicleRecord]:
    """Fetch one batch, retrying only transport (OS-level) errors.

    In record mode the batch's documents are cached as soon as all of them
    print and normalize, so a later batch's failure cannot lose them.
    """
    body = {"DATA": ";".join(vin.raw for vin in batch), "format": "json"}
    last_error = None
    for attempt in range(ATTEMPTS):
        if attempt:
            time.sleep(RETRY_DELAY_S * 2 ** (attempt - 1))
        try:
            payload = transport(base_url, body, TIMEOUT_S)
            break
        except OSError as exc:
            last_error = exc
    else:
        raise NetworkError(f"batch of {len(batch)} VINs failed after {ATTEMPTS} attempts: {last_error}")

    results = payload.get("Results") if isinstance(payload, dict) else None
    if not isinstance(results, list):
        raise MalformedResponse("batch response has no Results list")
    by_vin = {}
    for raw in results:
        echoed = _first(raw, _VIN_KEYS) if isinstance(raw, Mapping) else None
        if echoed:
            _check_printable(raw, f"decode response for {echoed!r}")
            by_vin[echoed.upper()] = raw
    records = [
        normalize_vpic_record(by_vin[vin.raw], vin) if vin.raw in by_vin
        else _miss_record(vin.raw, "missing from response")
        for vin in batch
    ]
    if cache.mode is CacheMode.RECORD_THEN_REPLAY:
        for vin in batch:
            if vin.raw in by_vin:
                cache.store(vin.raw, by_vin[vin.raw])
    return records


def batch_decode(
    vins: list[str | Vin],
    cache: FixtureCache,
    *,
    base_url: str = DEFAULT_BASE_URL,
    transport: Callable | None = None,
) -> list[VehicleRecord]:
    """Decode VINs in input order: cache first, then the service if allowed.

    Offline mode never touches the network; misses get error_text instead.
    Record mode fetches misses and writes each batch back to the cache as it
    succeeds. Live mode skips the cache in both directions. A VIN given as
    a string is parsed here; a structurally invalid one is a precondition
    violation and raises before any request is made.
    """
    vins = [v if isinstance(v, Vin) else parse_vin(v, strict=False) for v in vins]

    records: list[VehicleRecord | None] = [None] * len(vins)
    to_fetch: list[int] = []
    for i, vin in enumerate(vins):
        raw = cache.load(vin.raw) if cache.mode is not CacheMode.LIVE_ONLY else None
        if raw is not None:
            records[i] = normalize_vpic_record(raw, vin)
        elif cache.mode is CacheMode.OFFLINE:
            records[i] = _miss_record(vin.raw, "cache miss")
        else:
            to_fetch.append(i)

    if to_fetch:
        from concurrent.futures import ThreadPoolExecutor  # imported here: only fetching uses it
        # Load the variable map here: two workers that both miss the cache would both read the file.
        _bundled_variable_map()
        transport = _http_transport if transport is None else transport
        batches = [to_fetch[i : i + BATCH_SIZE] for i in range(0, len(to_fetch), BATCH_SIZE)]

        def run(batch_indices):
            try:
                return _fetch_batch([vins[i] for i in batch_indices], cache, base_url, transport)
            except NetworkError:
                if cache.mode is CacheMode.LIVE_ONLY:
                    raise
                return [_miss_record(vins[i].raw, "network error") for i in batch_indices]

        with ThreadPoolExecutor(max_workers=MAX_IN_FLIGHT) as pool:
            for batch_indices, batch_records in zip(batches, pool.map(run, batches)):
                for i, record in zip(batch_indices, batch_records):
                    records[i] = record
    return records  # type: ignore[return-value]
