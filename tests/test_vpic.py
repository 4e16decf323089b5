import json
import re
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
import hypothesis.strategies as st

from adasfleet import vin as vin_module, vpic
from adasfleet.catalog import Availability, Catalog, FeatureId
from adasfleet.datasets import AdoptionPoint, fars_adoption_series
from adasfleet.errors import MalformedResponse, NetworkError, SchemaError, WrongLength
from adasfleet.vin import compute_check_digit, parse_vin
from adasfleet.vpic import (
    CacheMode,
    FixtureCache,
    batch_decode,
    load_variable_map,
    normalize_vpic_record,
)

ACC_VAR = "Adaptive Cruise Control (ACC)"
LCA_VAR = "Lane Centering Assistance"


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

    def test_blank_variables_agree_with_a_catalog_miss(self):
        """A blank decode and a catalog miss are the two routes to an absent
        feature; they must give the same availability in every model year."""
        catalog = Catalog(())
        mapping = load_variable_map()
        for model_year in range(1980, 2040):
            record = normalize_vpic_record(document(make_vin(1), model_year=model_year, **dict.fromkeys(mapping, "")))
            assert set(record.feature_flags) == set(mapping.values())
            for feature, flag in record.feature_flags.items():
                assert flag is catalog.lookup_availability("ACME", "ALPHA", model_year, feature), (model_year, feature)

    def test_variable_map_covers_the_service_vocabulary(self):
        mapping = load_variable_map()
        assert mapping[ACC_VAR] is FeatureId.ADAPTIVE_CRUISE_CONTROL
        assert mapping[LCA_VAR] is FeatureId.LANE_CENTERING_ASSIST

    def test_variable_map_row_without_a_name_is_rejected(self, tmp_path):
        source = tmp_path / "variables.csv"
        source.write_text("variable,feature\n,adaptive_cruise_control\n", encoding="utf-8")
        with pytest.raises(SchemaError, match="^row 2: variable name is empty$"):
            load_variable_map(source)


class TestFixtureCache:
    def test_interrupted_store_leaves_no_partial_document(self, tmp_path, monkeypatch):
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        vin = make_vin(0)
        real_write_text = Path.write_text

        def half_write(path, text, **kwargs):
            real_write_text(path, text[: len(text) // 2], **kwargs)
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", half_write)
        with pytest.raises(SchemaError, match="disk full"):
            cache.store(vin, document(vin))
        assert list((tmp_path / "cache").iterdir()) == []
        assert cache.load(vin) is None

        monkeypatch.setattr(Path, "write_text", real_write_text)
        cache.store(vin, document(vin))
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [f"{vin}.json"]
        assert cache.load(vin) == document(vin)

    @pytest.mark.parametrize("layout", ["missing_file", "missing_dir", "path_is_a_file", "symlink_loop"])
    def test_absent_document_is_a_miss(self, tmp_path, layout):
        vin = make_vin(0)
        cache_dir = tmp_path / "cache"
        if layout == "missing_file":
            cache_dir.mkdir()
        elif layout == "path_is_a_file":
            cache_dir.write_text("not a directory", encoding="utf-8")
        elif layout == "symlink_loop":
            cache_dir.mkdir()
            (cache_dir / f"{vin}.json").symlink_to(cache_dir / f"{vin}.json")
        assert FixtureCache(cache_dir).load(vin) is None

    def test_unreadable_document_is_not_a_miss(self, tmp_path):
        vin = make_vin(0)
        (tmp_path / f"{vin}.json").mkdir()
        with pytest.raises(SchemaError) as caught:
            FixtureCache(tmp_path).load(vin)
        assert str(caught.value) == f"cannot read {tmp_path / vin}.json: Is a directory"

    def test_store_keeps_only_non_blank_fields(self, tmp_path):
        vin = make_vin(0)
        cache = FixtureCache(tmp_path)
        cache.store(vin, document(vin, **{ACC_VAR: "Standard", LCA_VAR: " ", "Error Text": "", "Filler": None}))
        stored = json.loads((tmp_path / f"{vin}.json").read_text(encoding="utf-8"))
        assert stored == document(vin, **{ACC_VAR: "Standard", "Filler": None})

    # Field values as a decode response may carry them: blanks (a no-break
    # space included), padding, availability words in any case, nulls,
    # numbers and VINs: the asked-for one in either case, or another with a
    # different model-year code. No st.text(): its first use builds a
    # character table that can trip the too-slow health check.
    _vins = [make_vin(0), make_vin(0).lower(), make_vin(1, year_code="L")]
    _values = st.one_of(
        st.sampled_from(["", " ", "\t \n", "\u00a0", "Standard", " optional ", "NOT AVAILABLE", "n/a",
                         "Not Applicable", "2021", " 2019 ", "x", "\u00e9", "0", *_vins]),
        st.none(),
        st.integers(min_value=1970, max_value=2050),
        st.floats(allow_nan=False),
    )
    # Every other field a document may hold, each present or not: the mapped
    # variables, the alternative spellings of the echoed fields, and filler.
    _fields = dict.fromkeys([*load_variable_map(), "Vin", "vin", "Make", "Model", "ModelYear",
                             "Error Text", "ErrorText", "Error Code", "Body Class", "Trim"], _values)
    _documents = st.fixed_dictionaries(
        {"VIN": st.sampled_from(_vins) | _values, "Model Year": st.integers(1980, 2039) | _values},
        optional=_fields,
    )

    @staticmethod
    def _outcome(raw, parsed=None):
        try:
            return normalize_vpic_record(raw, parsed)
        except MalformedResponse as exc:
            return str(exc)

    @given(raw=_documents)
    def test_replay_of_a_stored_document_normalizes_like_the_original(self, raw, tmp_path_factory):
        vin = make_vin(0)
        cache = FixtureCache(tmp_path_factory.mktemp("cache"))
        cache.store(vin, raw)
        replayed = cache.load(vin)
        assert self._outcome(replayed, parse_vin(vin)) == self._outcome(raw) == self._outcome(raw, parse_vin(vin))

    @pytest.mark.parametrize("content, message", [
        (b'{"VIN": "\xff"}', "cannot be read as JSON: 'utf-8' codec can't decode byte 0xff"),
        (b'\xef\xbb\xbf{"VIN": "x"}', "cannot be read as JSON: Unexpected UTF-8 BOM"),
        (b'{"VIN": ', "cannot be read as JSON: Expecting value"),
        (b"[]", "is not a JSON object"),
        (b'"x"', "is not a JSON object"),
        (b"null", "is not a JSON object"),
        (b"[" * 100_000 + b"]" * 100_000, "cannot be read as JSON: maximum recursion depth exceeded"),
        (b'{"VIN": "x", "Make": "\\ud800"}', "cannot be read as JSON: .* surrogates not allowed"),
    ], ids=["invalid_utf8", "utf8_bom", "invalid_json", "array", "string", "null", "nested_100000_deep",
            "lone_surrogate"])
    def test_undecodable_document_is_malformed(self, tmp_path, content, message):
        vin = make_vin(0)
        path = tmp_path / f"{vin}.json"
        path.write_bytes(content)
        with pytest.raises(MalformedResponse, match=f"^cached document {re.escape(str(path))} {message}"):
            FixtureCache(tmp_path).load(vin)


class TestOfflineMode:
    def test_cache_hits_make_zero_network_calls(self, warm_cache):
        transport = CountingTransport()
        vins = [make_vin(0), make_vin(1)]
        records = batch_decode(vins, warm_cache, transport=transport)
        assert transport.calls == 0
        assert [r.vin for r in records] == vins
        assert all(r.feature_flags[FeatureId.ADAPTIVE_CRUISE_CONTROL] is Availability.STANDARD for r in records)

    def test_cache_miss_yields_error_text(self, tmp_path):
        cache = FixtureCache(tmp_path / "empty", CacheMode.OFFLINE)
        transport = CountingTransport()
        (record,) = batch_decode([make_vin(9)], cache, transport=transport)
        assert record.error_text == "cache miss"
        assert record.feature_flags == {}
        assert transport.calls == 0

    def test_order_follows_input_not_cache(self, warm_cache):
        vins = [make_vin(3), make_vin(99), make_vin(0)]
        records = batch_decode(vins, warm_cache, transport=CountingTransport())
        assert [r.vin for r in records] == vins

    def test_warm_cache_decode_is_idempotent(self, warm_cache):
        vins = [make_vin(2), make_vin(1)]
        first = batch_decode(vins, warm_cache, transport=CountingTransport())
        second = batch_decode(vins, warm_cache, transport=CountingTransport())
        assert first == second

    def test_replayed_decodes_feed_the_crash_cohort_path(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.OFFLINE)
        values = ["Standard", "Standard", "Optional", ""]
        for serial, value in enumerate(values):
            cache.store(make_vin(serial), document(make_vin(serial), **{ACC_VAR: value}))
        vins = [make_vin(serial) for serial in range(len(values) + 1)]  # the last one is a cache miss
        records = batch_decode(vins, cache, transport=CountingTransport())
        series = fars_adoption_series(records, FeatureId.ADAPTIVE_CRUISE_CONTROL)
        assert series.points == {2021: AdoptionPoint(Fraction(1, 2), Fraction(1, 4))}

    def test_each_cached_vin_is_parsed_once(self, warm_cache, monkeypatch):
        calls = []
        real_parse = vin_module._parse

        def counting_parse(text):
            calls.append(text)
            return real_parse(text)

        monkeypatch.setattr(vin_module, "_parse", counting_parse)
        vins = [parse_vin(make_vin(serial), strict=False) for serial in range(4)]
        calls.clear()
        records = batch_decode(vins, warm_cache, transport=CountingTransport())
        assert calls == [] and [r.make for r in records] == ["ACME"] * 4
        batch_decode([v.raw for v in vins], warm_cache, transport=CountingTransport())
        assert calls == [v.raw for v in vins]

    def test_structurally_invalid_vin_raises(self, warm_cache):
        with pytest.raises(WrongLength):
            batch_decode(["SHORT"], warm_cache, transport=CountingTransport())


class TestRecordThenReplay:
    def test_misses_fetched_and_written_back(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        transport = CountingTransport()
        vins = [make_vin(0), make_vin(1)]
        records = batch_decode(vins, cache, transport=transport)
        assert transport.calls == 1
        assert [r.vin for r in records] == vins
        assert json.loads((tmp_path / "cache" / f"{vins[0]}.json").read_text())["VIN"] == vins[0]

        replay = batch_decode(vins, cache, transport=transport)
        assert transport.calls == 1
        assert replay == records

    def test_batch_size_bounds_each_request(self, tmp_path, monkeypatch):
        monkeypatch.setattr(vpic, "BATCH_SIZE", 2)
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        transport = CountingTransport()
        vins = [make_vin(i) for i in range(5)]
        batch_decode(vins, cache, transport=transport)
        assert transport.calls == 3
        assert all(len(b["DATA"].split(";")) <= 2 for b in transport.bodies)

    def test_network_failure_degrades_to_error_records(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        transport = CountingTransport(fail_first=99)
        (record,) = batch_decode([make_vin(0)], cache, transport=transport)
        assert transport.calls == vpic.ATTEMPTS
        assert "network error" in record.error_text

    def test_transient_failure_retried(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        transport = CountingTransport(fail_first=2)
        (record,) = batch_decode([make_vin(0)], cache, transport=transport)
        assert transport.calls == 3
        assert record.make == "ACME"


    def test_variable_map_is_loaded_once_with_workers_in_flight(self, tmp_path, monkeypatch):
        loads = []

        def slow_load(source=None):
            loads.append(source)
            time.sleep(0.05)
            return load_variable_map(source)

        vpic._bundled_variable_map.cache_clear()
        monkeypatch.setattr(vpic, "load_variable_map", slow_load)
        monkeypatch.setattr(vpic, "BATCH_SIZE", 2)
        monkeypatch.setattr(vpic, "MAX_IN_FLIGHT", 2)
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        try:
            records = batch_decode([make_vin(i) for i in range(4)], cache, transport=CountingTransport())
        finally:
            vpic._bundled_variable_map.cache_clear()
        assert len(loads) == 1
        assert all(r.make == "ACME" for r in records)

    def test_programming_error_in_transport_is_not_retried(self, tmp_path):
        calls = []

        def broken_transport(url, body, timeout):
            calls.append(body)
            raise TypeError("transport called with the wrong arguments")

        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        with pytest.raises(TypeError, match="wrong arguments"):
            batch_decode([make_vin(0)], cache, transport=broken_transport)
        assert len(calls) == 1

    def test_batches_that_succeed_are_cached_before_a_malformed_one_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(vpic, "BATCH_SIZE", 2)
        vins = [make_vin(i) for i in range(4)]

        def second_batch_malformed(url, body, timeout):
            batch = body["DATA"].split(";")
            if batch[0] == vins[2]:
                return {"unexpected": True}
            return {"Results": [document(v) for v in batch]}

        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        with pytest.raises(MalformedResponse):
            batch_decode(vins, cache, transport=second_batch_malformed)
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == sorted(f"{v}.json" for v in vins[:2])


    def test_unprintable_document_fails_its_batch_before_anything_is_stored(self, tmp_path):
        """The check `FixtureCache.load` makes on replay runs on each fetched document first."""
        vins = [make_vin(i) for i in range(2)]

        def one_lone_surrogate(url, body, timeout):
            batch = body["DATA"].split(";")
            return {"Results": [document(batch[0]), document(batch[1], **{"Trim": "\udfff"})]}

        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        with pytest.raises(MalformedResponse, match=f"decode response for '{vins[1]}' .* surrogates not allowed"):
            batch_decode(vins, cache, transport=one_lone_surrogate)
        assert not (tmp_path / "cache").exists()


class TestLiveOnly:
    def test_skips_cache_in_both_directions(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cache = FixtureCache(cache_dir, CacheMode.LIVE_ONLY)
        transport = CountingTransport()
        batch_decode([make_vin(0)], cache, transport=transport)
        assert transport.calls == 1
        assert not cache_dir.exists()

    def test_exhausted_retries_raise(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.LIVE_ONLY)
        with pytest.raises(NetworkError):
            batch_decode([make_vin(0)], cache, transport=CountingTransport(fail_first=99))

    def test_malformed_payload_raises(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.LIVE_ONLY)

        def bad_transport(url, body, timeout):
            return {"unexpected": True}

        with pytest.raises(MalformedResponse):
            batch_decode([make_vin(0)], cache, transport=bad_transport)

    def test_vin_missing_from_response_gets_error_record(self, tmp_path):
        cache = FixtureCache(tmp_path / "cache", CacheMode.LIVE_ONLY)

        def partial_transport(url, body, timeout):
            vins = body["DATA"].split(";")
            return {"Results": [document(v) for v in vins[:1]]}

        records = batch_decode([make_vin(0), make_vin(1)], cache, transport=partial_transport)
        assert records[0].make == "ACME"
        assert records[1].error_text == "missing from response"


class TestBatching:
    def test_corpus_sized_batch_plan(self, tmp_path):
        """Under the default batch size, the service's maximum of 50, 101 VINs take requests of 50, 50 and 1."""
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        transport = CountingTransport()
        vins = [make_vin(i) for i in range(101)]
        records = batch_decode(vins, cache, transport=transport)
        assert sorted((len(b["DATA"].split(";")) for b in transport.bodies), reverse=True) == [50, 50, 1]
        assert [r.vin for r in records] == vins

    def test_url_and_transport_are_keyword_only(self, warm_cache):
        """A third positional argument, once a request-limits object, cannot silently become the URL."""
        with pytest.raises(TypeError):
            batch_decode([], warm_cache, vpic.DEFAULT_BASE_URL)

    def test_order_preserved_across_batches(self, tmp_path, monkeypatch):
        monkeypatch.setattr(vpic, "BATCH_SIZE", 3)
        monkeypatch.setattr(vpic, "MAX_IN_FLIGHT", 4)
        cache = FixtureCache(tmp_path / "cache", CacheMode.RECORD_THEN_REPLAY)
        vins = [make_vin(i) for i in range(17)]
        records = batch_decode(vins, cache, transport=CountingTransport())
        assert [r.vin for r in records] == vins
