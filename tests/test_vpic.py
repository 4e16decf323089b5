import json
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from adasfleet.catalog import Availability, FeatureId
from adasfleet.datasets import AdoptionPoint, fars_adoption_series
from adasfleet.errors import MalformedResponse, NetworkError, WrongLength
from adasfleet.vin import compute_check_digit
from adasfleet.vpic import (
    CacheMode,
    FixtureCache,
    RequestLimits,
    batch_decode,
    load_variable_map,
    normalize_vpic_record,
    split_batches,
)

ACC_VAR = "Adaptive Cruise Control (ACC)"
LCA_VAR = "Lane Centering Assistance"

FAST = RequestLimits(base_delay=0.0)


def make_vin(serial: int, year_code: str = "M") -> str:
    draft = f"5FNCDEFG0{year_code}A{serial:06d}"
    return draft[:8] + compute_check_digit(draft) + draft[9:]


def document(vin: str, model_year: int = 2021, **variables) -> dict:
    doc = {"VIN": vin, "Make": "ACME", "Model": "ALPHA", "Model Year": str(model_year)}
    doc.update(variables)
    return doc


class CountingTransport:
    """Fake service: returns canned documents and counts calls."""

    def __init__(self, fail_first: int = 0):
        self.calls = 0
        self.bodies = []
        self.fail_first = fail_first
        self.lock = threading.Lock()

    def __call__(self, url, body, timeout):
        with self.lock:
            self.calls += 1
            self.bodies.append(body)
            if self.calls <= self.fail_first:
                raise ConnectionError("synthetic outage")
        vins = body["DATA"].split(";")
        return {"Count": len(vins), "Results": [document(v) for v in vins]}


@pytest.fixture()
def warm_cache(tmp_path):
    cache = FixtureCache(tmp_path / "cache", CacheMode.OFFLINE)
    for serial in range(4):
        vin = make_vin(serial)
        cache.store(vin, document(vin, **{ACC_VAR: "Standard"}))
    return cache


class TestNormalize:
    def test_standard_value_maps(self):
        record = normalize_vpic_record(document(make_vin(1), **{ACC_VAR: "Standard"}))
        assert record.feature_flags[FeatureId.ADAPTIVE_CRUISE_CONTROL] is Availability.STANDARD
        assert record.make == "ACME"
        assert record.model_year == 2021

    def test_blank_value_below_floor_is_unknown(self):
        record = normalize_vpic_record(document(make_vin(1, year_code="F"), model_year=2015, **{ACC_VAR: ""}))
        assert record.feature_flags[FeatureId.ADAPTIVE_CRUISE_CONTROL] is Availability.UNKNOWN

    def test_blank_value_at_floor_is_not_available(self):
        record = normalize_vpic_record(document(make_vin(1), **{ACC_VAR: ""}))
        assert record.feature_flags[FeatureId.ADAPTIVE_CRUISE_CONTROL] is Availability.NOT_AVAILABLE

    def test_missing_model_year_is_malformed(self):
        with pytest.raises(MalformedResponse):
            normalize_vpic_record({"VIN": make_vin(1), "Make": "ACME"})

    def test_missing_vin_echo_is_malformed(self):
        with pytest.raises(MalformedResponse):
            normalize_vpic_record({"Make": "ACME", "Model Year": "2021"})

    def test_unrecognized_variables_ignored(self):
        record = normalize_vpic_record(document(make_vin(1), **{"Cup Holders": "14"}))
        assert all(f in FeatureId for f in record.feature_flags)

    def test_optional_and_not_available_values(self):
        record = normalize_vpic_record(document(make_vin(1), **{ACC_VAR: "Optional", LCA_VAR: "Not Available"}))
        assert record.feature_flags[FeatureId.ADAPTIVE_CRUISE_CONTROL] is Availability.OPTIONAL
        assert record.feature_flags[FeatureId.LANE_CENTERING_ASSIST] is Availability.NOT_AVAILABLE

    def test_model_year_vin_disagreement_flagged(self):
        record = normalize_vpic_record(document(make_vin(1), model_year=2019))
        assert "disagrees" in record.error_text

    def test_variable_map_covers_the_service_vocabulary(self):
        mapping = load_variable_map()
        assert mapping[ACC_VAR] is FeatureId.ADAPTIVE_CRUISE_CONTROL
        assert mapping[LCA_VAR] is FeatureId.LANE_CENTERING_ASSIST


class TestFixtureCache:
    def test_interrupted_store_leaves_no_partial_document(self, tmp_path, monkeypatch):
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        vin = make_vin(0)
        real_write_text = Path.write_text

        def half_write(path, text, **kwargs):
            real_write_text(path, text[: len(text) // 2], **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", half_write)
        with pytest.raises(OSError, match="disk full"):
            cache.store(vin, document(vin))
        assert list((tmp_path / "cache").iterdir()) == []
        assert cache.load(vin) is None

        monkeypatch.setattr(Path, "write_text", real_write_text)
        cache.store(vin, document(vin))
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [f"{vin}.json"]
        assert cache.load(vin) == document(vin)


class TestOfflineMode:
    def test_cache_hits_make_zero_network_calls(self, warm_cache):
        transport = CountingTransport()
        vins = [make_vin(0), make_vin(1)]
        records = batch_decode(vins, warm_cache, FAST, transport=transport)
        assert transport.calls == 0
        assert [r.vin for r in records] == vins
        assert all(r.feature_flags[FeatureId.ADAPTIVE_CRUISE_CONTROL] is Availability.STANDARD for r in records)

    def test_cache_miss_yields_error_text(self, tmp_path):
        cache = FixtureCache(tmp_path / "empty", CacheMode.OFFLINE)
        transport = CountingTransport()
        (record,) = batch_decode([make_vin(9)], cache, FAST, transport=transport)
        assert record.error_text == "cache miss"
        assert record.feature_flags == {}
        assert transport.calls == 0

    def test_order_follows_input_not_cache(self, warm_cache):
        vins = [make_vin(3), make_vin(99), make_vin(0)]
        records = batch_decode(vins, warm_cache, FAST, transport=CountingTransport())
        assert [r.vin for r in records] == vins

    def test_warm_cache_decode_is_idempotent(self, warm_cache):
        vins = [make_vin(2), make_vin(1)]
        first = batch_decode(vins, warm_cache, FAST, transport=CountingTransport())
        second = batch_decode(vins, warm_cache, FAST, transport=CountingTransport())
        assert first == second

    def test_replayed_decodes_feed_the_crash_cohort_path(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.OFFLINE)
        values = ["Standard", "Standard", "Optional", ""]
        for serial, value in enumerate(values):
            cache.store(make_vin(serial), document(make_vin(serial), **{ACC_VAR: value}))
        vins = [make_vin(serial) for serial in range(len(values) + 1)]  # the last one is a cache miss
        records = batch_decode(vins, cache, FAST, transport=CountingTransport())
        series = fars_adoption_series(records, FeatureId.ADAPTIVE_CRUISE_CONTROL)
        assert series.points == {2021: AdoptionPoint(Fraction(1, 2), Fraction(1, 4))}

    def test_structurally_invalid_vin_raises(self, warm_cache):
        with pytest.raises(WrongLength):
            batch_decode(["SHORT"], warm_cache, FAST, transport=CountingTransport())


class TestRecordThenReplay:
    def test_misses_fetched_and_written_back(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        transport = CountingTransport()
        vins = [make_vin(0), make_vin(1)]
        records = batch_decode(vins, cache, FAST, transport=transport)
        assert transport.calls == 1
        assert [r.vin for r in records] == vins
        assert json.loads((tmp_path / "cache" / f"{vins[0]}.json").read_text())["VIN"] == vins[0]

        replay = batch_decode(vins, cache, FAST, transport=transport)
        assert transport.calls == 1
        assert replay == records

    def test_batch_size_bounds_each_request(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        transport = CountingTransport()
        vins = [make_vin(i) for i in range(5)]
        batch_decode(vins, cache, RequestLimits(batch_size=2, base_delay=0.0), transport=transport)
        assert transport.calls == 3
        assert all(len(b["DATA"].split(";")) <= 2 for b in transport.bodies)

    def test_network_failure_degrades_to_error_records(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        transport = CountingTransport(fail_first=99)
        (record,) = batch_decode([make_vin(0)], cache, FAST, transport=transport)
        assert transport.calls == FAST.attempts
        assert "network error" in record.error_text

    def test_transient_failure_retried(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        transport = CountingTransport(fail_first=2)
        (record,) = batch_decode([make_vin(0)], cache, FAST, transport=transport)
        assert transport.calls == 3
        assert record.make == "ACME"


class TestLiveOnly:
    def test_skips_cache_in_both_directions(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = FixtureCache(cache_dir, CacheMode.LIVE_ONLY)
        transport = CountingTransport()
        batch_decode([make_vin(0)], cache, FAST, transport=transport)
        assert transport.calls == 1
        assert not cache_dir.exists()

    def test_exhausted_retries_raise(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.LIVE_ONLY)
        with pytest.raises(NetworkError):
            batch_decode([make_vin(0)], cache, FAST, transport=CountingTransport(fail_first=99))

    def test_malformed_payload_raises(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.LIVE_ONLY)

        def bad_transport(url, body, timeout):
            return {"unexpected": True}

        with pytest.raises(MalformedResponse):
            batch_decode([make_vin(0)], cache, FAST, transport=bad_transport)

    def test_vin_missing_from_response_gets_error_record(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.LIVE_ONLY)

        def partial_transport(url, body, timeout):
            vins = body["DATA"].split(";")
            return {"Results": [document(v) for v in vins[:1]]}

        records = batch_decode([make_vin(0), make_vin(1)], cache, FAST, transport=partial_transport)
        assert records[0].make == "ACME"
        assert records[1].error_text == "missing from response"


class TestBatching:
    def test_corpus_sized_batch_plan(self):
        batches = split_batches(["x"] * 138_899, 50)
        assert len(batches) == 2_778
        assert sum(len(b) for b in batches) == 138_899
        assert all(len(b) == 50 for b in batches[:-1])

    def test_order_preserved_across_batches(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        vins = [make_vin(i) for i in range(17)]
        records = batch_decode(
            vins, cache, RequestLimits(batch_size=3, max_in_flight=4, base_delay=0.0),
            transport=CountingTransport(),
        )
        assert [r.vin for r in records] == vins

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError):
            split_batches([1], 0)
