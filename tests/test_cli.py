import csv
import dataclasses
import io
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
import hypothesis.strategies as st

import adasfleet
from adasfleet import vin as vin_module, vpic
from adasfleet.catalog import PRIORITY_FEATURES, FeatureId
from adasfleet.cli import DATA_FILES, _json_rows, decode, estimate, main
from adasfleet.datasets import ActivationSource, bundled_data_dir
from adasfleet.estimator import EstimatorConfig
from adasfleet.vin import compute_check_digit, encode_model_year
from adasfleet.vpic import CacheMode, FixtureCache

from oracles import data_dir_files, oracle_estimate_table

ALL_ONES = "1" * 17

EXPECTED_2022 = {
    "adaptive_cruise_control": (16, 57, 9),
    "automatic_emergency_braking": (16, 93, 15),
    "forward_collision_prevention": (22, 93, 20),
    "lane_centering_assist": (8, 57, 5),
    "lane_departure_prevention": (15, 65, 10),
    "pedestrian_automatic_emergency_braking": (25, 93, 23),
}


@pytest.fixture()
def runner():
    return CliRunner()


def make_vin(serial: int, year_code: str = "M") -> str:
    draft = f"2HGCDEFG0{year_code}A{serial:06d}"
    return draft[:8] + compute_check_digit(draft) + draft[9:]


def csv_rows(text: str) -> list[list[str]]:
    """The records of a CSV output; every one must be as wide as the header."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert [len(row) for row in rows] == [len(rows[0])] * len(rows), rows
    return rows


def parse_csv(text: str) -> list[dict]:
    header, *rows = csv_rows(text)
    return [dict(zip(header, row)) for row in rows]


class TestDecode:
    def test_single_vin(self, runner):
        result = runner.invoke(main, ["decode", ALL_ONES])
        assert result.exit_code == 0
        assert ALL_ONES in result.stdout
        assert "2001" in result.stdout  # year code '1', digit at position 7

    def test_bad_vin_strict_exits_nonzero(self, runner):
        result = runner.invoke(main, ["decode", "--strict-vin", "BADVIN"])
        assert result.exit_code == 1

    def test_bad_vin_lenient_exits_zero(self, runner):
        result = runner.invoke(main, ["decode", "BADVIN"])
        assert result.exit_code == 0
        assert "error" in result.stdout

    def test_file_input(self, runner, tmp_path):
        vins = [make_vin(i) for i in range(3)]
        source = tmp_path / "vins.csv"
        source.write_text("vin\n" + "\n".join(vins) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["decode", "--file", str(source), "--format", "csv"])
        assert result.exit_code == 0
        rows = parse_csv(result.stdout)
        assert [row["vin"] for row in rows] == vins
        assert all(row["model_year"] == "2021" for row in rows)

    def test_file_with_a_byte_order_mark(self, runner, tmp_path):
        vins = [make_vin(i) for i in range(2)]
        source = tmp_path / "vins.csv"
        source.write_text("\ufeffVIN\n" + "\n".join(vins) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["decode", "--strict-vin", "--file", str(source), "--format", "csv"])
        assert result.exit_code == 0
        assert [row["vin"] for row in parse_csv(result.stdout)] == vins

    def test_csv_quotes_a_status_holding_a_comma(self, runner):
        """The length and check-digit texts hold a comma; each row still parses to the JSON row's seven cells."""
        vins = ["BADVIN", "1HGCM82633A004353"]
        result = runner.invoke(main, ["decode", *vins, "--format", "csv"])
        assert result.exit_code == 0
        rows = csv_rows(result.stdout)
        assert len(rows[0]) == 7 and [row[0] for row in rows[1:]] == vins
        assert rows[1][1] == "error: VIN must be 17 characters, got 6: 'BADVIN'"
        as_json = runner.invoke(main, ["decode", *vins, "--format", "json"])
        assert parse_csv(result.stdout) == json.loads(as_json.stdout)

    def test_no_vins_is_usage_error(self, runner):
        result = runner.invoke(main, ["decode"])
        assert result.exit_code == 2

    def test_non_utf8_file_is_one_error_line(self, runner, tmp_path):
        source = tmp_path / "vins.csv"
        source.write_bytes(b"vin\n\xff" + make_vin(1).encode() + b"\n")
        result = runner.invoke(main, ["decode", "--file", str(source)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "not UTF-8" in result.stderr

    def test_record_mode_fills_a_fresh_data_dir(self, runner, tmp_path, monkeypatch):
        requests = []

        def service(url, body, timeout):
            requests.append(body)
            vins = body["DATA"].split(";")
            return {"Results": [{"VIN": v, "Make": "ACME", "Model": "ALPHA", "Model Year": "2021"} for v in vins]}

        monkeypatch.setattr(vpic, "_http_transport", service)
        data_dir = tmp_path / "fresh"
        vins = [make_vin(i) for i in range(3)]
        args = ["--data-dir", str(data_dir), "decode", "--vpic-mode", "record", *vins, "--format", "json"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert [row["make"] for row in json.loads(result.stdout)] == ["ACME"] * 3
        assert len(requests) == 1
        assert sorted(p.name for p in (data_dir / "vpic_cache").iterdir()) == sorted(f"{v}.json" for v in vins)

    def test_failed_cache_write_is_one_error_line(self, runner, tmp_path, monkeypatch):
        def service(url, body, timeout):
            return {"Results": [{"VIN": v, "Make": "ACME", "Model Year": "2021"} for v in body["DATA"].split(";")]}

        monkeypatch.setattr(vpic, "_http_transport", service)
        (tmp_path / "vpic_cache").write_text("not a directory")
        result = runner.invoke(main, ["--data-dir", str(tmp_path), "decode", "--vpic-mode", "record", make_vin(1)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: cannot write ") and result.stderr.count("\n") == 1
        assert str(tmp_path / "vpic_cache") in result.stderr

    @pytest.mark.parametrize("field", ["Make", "Trim"])
    def test_record_mode_rejects_an_unprintable_answer_and_stores_nothing(self, runner, tmp_path, monkeypatch, field):
        """A lone surrogate, mapped field or not, ends in one error line before the document is stored,
        so the next offline run reads a miss, not a document it must reject."""
        vin = "11111111111111111"

        def service(url, body, timeout):
            return {"Results": [{"VIN": vin, "Model Year": "2001", field: "\ud800"}]}

        monkeypatch.setattr(vpic, "_http_transport", service)
        result = runner.invoke(main, ["--data-dir", str(tmp_path), "decode", "--vpic-mode", "record", vin])
        assert result.exit_code == 1
        assert result.stderr.startswith(f"error: decode response for '{vin}' cannot be read as JSON: ")
        assert result.stderr.count("\n") == 1 and "surrogates not allowed" in result.stderr
        assert not (tmp_path / "vpic_cache").exists()
        replay = runner.invoke(main, ["--data-dir", str(tmp_path), "decode", vin, "--format", "csv"])
        assert replay.exit_code == 0
        assert replay.stdout.splitlines()[1] == f"{vin},miss: cache miss,2001,111,,,"

    def test_record_mode_without_data_dir_is_usage_error(self, runner):
        result = runner.invoke(main, ["decode", "--vpic-mode", "record", make_vin(1)])
        assert result.exit_code == 2
        assert "--data-dir" in result.output

    def test_cache_enrichment(self, runner, tmp_path, data_dir_copy):
        vin = make_vin(5)
        cache = FixtureCache(data_dir_copy / "vpic_cache", CacheMode.OFFLINE)
        cache.store(vin, {
            "VIN": vin, "Make": "ACME", "Model": "ALPHA", "Model Year": "2021",
            "Adaptive Cruise Control (ACC)": "Standard",
        })
        result = runner.invoke(main, ["--data-dir", str(data_dir_copy), "decode", vin, "--format", "json"])
        assert result.exit_code == 0
        (row,) = json.loads(result.stdout)
        assert row["make"] == "ACME"
        assert "adaptive_cruise_control=standard" in row["features"]

    def test_blank_make_document_keeps_model_and_features(self, runner, data_dir_copy):
        FixtureCache(data_dir_copy / "vpic_cache").store(ALL_ONES, {
            "VIN": ALL_ONES, "Make": "", "Model": "X", "Model Year": "2001", "Error Text": "1 - check digit",
            "Adaptive Cruise Control (ACC)": "Standard",
        })
        result = runner.invoke(main, ["--data-dir", str(data_dir_copy), "decode", ALL_ONES, "--format", "json"])
        assert result.exit_code == 0
        (row,) = json.loads(result.stdout)
        assert (row["make"], row["model"], row["features"]) == ("", "X", "adaptive_cruise_control=standard")

    def test_vin_with_no_decode_is_a_miss(self, runner):
        bad_check_digit = "1M8GDM9AYKP042788"
        bad_check_digit_and_year_code = "1ATCDEFG0UA000001"
        args = ["decode", "1M8GDM9AXKP042788", ALL_ONES, bad_check_digit, bad_check_digit_and_year_code]
        result = runner.invoke(main, [*args, "--format", "json"])
        assert result.exit_code == 0
        assert [row["status"] for row in json.loads(result.stdout)] == [
            "miss: cache miss",
            "miss: cache miss",
            "warning: check digit mismatch in '1M8GDM9AYKP042788': expected 'X', found 'Y'; miss: cache miss",
            "warning: check digit mismatch in '1ATCDEFG0UA000001': expected '9', found '0'; "
            "warning: 'U' is not a legal model-year code; miss: cache miss",
        ]

    def test_vin_the_service_leaves_out_is_a_miss(self, runner, tmp_path, monkeypatch):
        answered, omitted = make_vin(1), make_vin(2)

        def service(url, body, timeout):
            return {"Results": [{"VIN": answered, "Make": "ACME", "Model": "ALPHA", "Model Year": "2021"}]}

        monkeypatch.setattr(vpic, "_http_transport", service)
        args = ["--data-dir", str(tmp_path), "decode", "--vpic-mode", "record", answered, omitted, "--format", "json"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert [row["status"] for row in json.loads(result.stdout)] == ["ok", "miss: missing from response"]

    def test_unreadable_cached_document_is_one_error_line(self, runner, tmp_path):
        path = tmp_path / "vpic_cache" / f"{ALL_ONES}.json"
        path.mkdir(parents=True)
        result = runner.invoke(main, ["--data-dir", str(tmp_path), "decode", ALL_ONES])
        assert isinstance(result.exception, SystemExit), result.exc_info
        assert result.exit_code == 1 and result.stdout == ""
        assert result.stderr.splitlines() == [f"error: cannot read {path}: Is a directory"]

    def test_each_vin_is_parsed_once(self, runner, data_dir_copy, monkeypatch):
        vins = [make_vin(i) for i in range(5)]
        cache = FixtureCache(data_dir_copy / "vpic_cache")
        for vin in vins:
            cache.store(vin, {"VIN": vin, "Make": "ACME", "Model": "ALPHA", "Model Year": "2021"})
        calls = []
        real_parse = vin_module._parse
        monkeypatch.setattr(vin_module, "_parse", lambda text: calls.append(text) or real_parse(text))
        result = runner.invoke(main, ["--data-dir", str(data_dir_copy), "decode", *vins, "--format", "json"])
        assert result.exit_code == 0
        assert [row["make"] for row in json.loads(result.stdout)] == ["ACME"] * len(vins)
        assert calls == vins

    def test_full_documents_replay_like_stored_ones(self, runner, tmp_path):
        """A cache written before `store` dropped blank fields replays to the same bytes."""
        names = list(vpic.load_variable_map())
        values = ["Standard", "Optional", "Not Available", "", " ", None, "standard "]
        documents = {}
        for i in range(12):
            vin = make_vin(i, year_code="L" if i % 3 else "M")
            document = {"VIN": vin, "Make": "ACME" if i % 4 else "", "Model": "ALPHA", "Model Year": "2021",
                        "Error Code": "0", "Error Text": "" if i % 2 else "1 - check digit", "Trim": "", "Series": " "}
            document.update({name: values[(i + j) % len(values)] for j, name in enumerate(names)})
            documents[vin] = document
        outputs = []
        for layout in ("full", "stored"):
            cache_dir = tmp_path / layout / "vpic_cache"
            cache_dir.mkdir(parents=True)
            for vin, document in documents.items():
                if layout == "full":
                    text = json.dumps(document, indent=2, sort_keys=True)
                    (cache_dir / f"{vin}.json").write_text(text, encoding="utf-8")
                else:
                    FixtureCache(cache_dir).store(vin, document)
            args = ["--data-dir", str(tmp_path / layout), "decode", *documents, make_vin(99), "--format", "json"]
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.output
            outputs.append(result.stdout_bytes)
        assert outputs[0] == outputs[1]
        size = {layout: sum(p.stat().st_size for p in (tmp_path / layout / "vpic_cache").iterdir())
                for layout in ("full", "stored")}
        assert size["stored"] < size["full"]


# Flat str -> str rows with non-ASCII text, control characters, quotes,
# backslashes and lone surrogates, as decode's JSON renderer may meet them.
_row_text = st.text(alphabet=st.characters(exclude_categories=()), max_size=12) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\ud800", "\udfff", "é→日本", "\U0001f697"]
)


class TestJsonRows:
    @given(st.lists(st.dictionaries(_row_text, _row_text, max_size=7), max_size=5))
    @example([])
    def test_equals_json_dumps_with_indent(self, rows):
        assert _json_rows(rows) == json.dumps(rows, indent=2)


class TestEstimate:
    def test_bundled_year_2022_table(self, runner):
        result = runner.invoke(main, ["estimate", "--year", "2022"])
        assert result.exit_code == 0
        assert "Adaptive cruise control" in result.stdout

    def test_table_renders_cautions_as_footnotes(self, runner):
        result = runner.invoke(main, ["estimate", "--year", "2022"])
        assert "[a]" in result.stdout
        legend_lines = [l for l in result.stdout.splitlines() if l.strip().startswith("[")]
        assert any("long_lag" in l for l in legend_lines)
        assert any("analog_under_mandate" in l for l in legend_lines)

    def test_bundled_year_2022_csv_values(self, runner):
        result = runner.invoke(main, ["estimate", "--year", "2022", "--format", "csv"])
        assert result.exit_code == 0
        rows = parse_csv(result.stdout)
        got = {
            r["feature"]: (int(r["equipped_pct"]), int(r["activation_pct"]), int(r["activated_of_fleet_pct"]))
            for r in rows
        }
        assert got == EXPECTED_2022
        assert [r["feature"] for r in rows] == list(EXPECTED_2022)

    def test_csv_and_json_values_identical(self, runner):
        csv_result = runner.invoke(main, ["estimate", "--year", "2022", "--format", "csv"])
        json_result = runner.invoke(main, ["estimate", "--year", "2022", "--format", "json"])
        csv_rows = parse_csv(csv_result.stdout)
        json_rows = json.loads(json_result.stdout)["estimates"]
        assert len(csv_rows) == len(json_rows)
        for c, j in zip(csv_rows, json_rows):
            assert c["feature"] == j["feature"]
            assert int(c["equipped_pct"]) == j["equipped_pct"]
            assert int(c["activation_pct"]) == j["activation_pct"]
            assert int(c["activated_of_fleet_pct"]) == j["activated_of_fleet_pct"]
            assert c["provenance"] == j["provenance"]
            assert c["cautions"] == ";".join(j["cautions"])

    def test_uncovered_year_fails_naming_feature(self, runner):
        result = runner.invoke(main, ["estimate", "--year", "1900"])
        assert result.exit_code == 1
        assert "adaptive_cruise_control" in result.stderr

    def test_insufficient_data_is_one_error_line(self, runner):
        result = runner.invoke(main, ["estimate", "--year", "1900"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "error: cannot estimate adaptive_cruise_control for 1900: no candidate series overlaps "
            "adaptive_cruise_control by at least 1 year(s) within lag 0..25"
        ]

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-lag", "1", "within lag 0..1"),
        ("--min-overlap", "3", "at least 3 year(s)"),
    ])
    def test_threshold_flag_reaches_the_lag_search(self, runner, flag, value, message):
        result = runner.invoke(main, ["estimate", "--year", "2022", flag, value])
        assert result.exit_code == 1
        assert message in result.stderr.splitlines()[0]

    @pytest.mark.parametrize("flag, value", [
        ("--max-lag", "-3"), ("--min-overlap", "-5"), ("--min-overlap", "0"), ("--long-lag-threshold", "-1"),
    ])
    def test_threshold_below_its_least_value_is_usage_error(self, runner, flag, value):
        result = runner.invoke(main, ["estimate", "--year", "2022", flag, value])
        assert result.exit_code == 2
        assert f"Invalid value for '{flag}'" in result.stderr

    def test_huge_max_lag_prints_the_same_table_quickly(self, runner):
        """Only lags that overlap are visited, so the bound's size costs nothing."""
        started = time.perf_counter()
        huge = runner.invoke(main, ["estimate", "--year", "2022", "--max-lag", "10000000"])
        elapsed = time.perf_counter() - started
        assert huge.exit_code == 0
        assert huge.stdout == runner.invoke(main, ["estimate", "--year", "2022", "--max-lag", "1000"]).stdout
        assert elapsed < 5.0, f"took {elapsed:.3f}s"

    def test_tiny_exponent_fleet_value_is_cheap(self, runner, data_dir_copy):
        fleet = data_dir_copy / "fleet.csv"
        text = fleet.read_text(encoding="utf-8")
        assert "automatic_emergency_braking,2022,0.16" in text
        text = text.replace("automatic_emergency_braking,2022,0.16", "automatic_emergency_braking,2022,1e-30000000")
        fleet.write_text(text, encoding="utf-8")
        started = time.perf_counter()
        result = runner.invoke(main, ["--data-dir", str(data_dir_copy), "estimate", "--year", "2022", "--format", "csv"])
        elapsed = time.perf_counter() - started
        assert result.exit_code == 0
        aeb = next(r for r in parse_csv(result.stdout) if r["feature"] == "automatic_emergency_braking")
        assert (aeb["equipped_pct"], aeb["activated_of_fleet_pct"]) == ("0", "0")
        assert elapsed < 5.0, f"took {elapsed:.3f}s"

    def test_long_lag_threshold_flag_adds_caution(self, runner):
        result = runner.invoke(main, ["estimate", "--year", "2022", "--long-lag-threshold", "1", "--format", "csv"])
        assert result.exit_code == 0
        acc = next(r for r in parse_csv(result.stdout) if r["feature"] == "adaptive_cruise_control")
        assert acc["cautions"] == "long_lag(2);small_overlap(1)"

    def test_missing_activation_entry_fails_naming_feature(self, runner, data_dir_copy):
        activation = data_dir_copy / "activation.csv"
        kept = [
            line for line in activation.read_text(encoding="utf-8").splitlines()
            if not line.startswith("lane_centering_assist")
        ]
        activation.write_text("\n".join(kept) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["--data-dir", str(data_dir_copy), "estimate", "--year", "2022"])
        assert result.exit_code == 1
        assert "lane_centering_assist" in result.stderr

    def test_activation_gap_is_one_error_line_naming_each_missing_feature(self, runner, data_dir_copy):
        activation = data_dir_copy / "activation.csv"
        missing = ("adaptive_cruise_control", "lane_centering_assist")
        kept = [line for line in activation.read_text(encoding="utf-8").splitlines() if not line.startswith(missing)]
        activation.write_text("\n".join(kept) + "\n", encoding="utf-8")
        result = runner.invoke(main, ["--data-dir", str(data_dir_copy), "estimate", "--year", "2022"])
        assert result.exit_code == 1 and result.stdout == ""
        assert result.stderr == (
            "error: activation table lacks entries for: adaptive_cruise_control, lane_centering_assist\n"
        )

    def test_bad_crash_year_is_one_error_line_naming_its_row(self, runner, data_dir_copy):
        (data_dir_copy / "fars_vehicles.csv").write_text("vin,crash_year\n1ATCDEFG7MA000000,twenty\n", encoding="utf-8")
        result = runner.invoke(main, ["--data-dir", str(data_dir_copy), "estimate", "--year", "2022"])
        assert result.exit_code == 1 and result.stdout == ""
        assert result.stderr.splitlines() == ["error: row 2: crash_year 'twenty' is not an integer year"]

    def test_missing_year_option_is_usage_error(self, runner):
        result = runner.invoke(main, ["estimate"])
        assert result.exit_code == 2

    def test_user_data_dir_overrides_bundled(self, runner, data_dir_copy):
        fleet = data_dir_copy / "fleet.csv"
        text = fleet.read_text(encoding="utf-8").replace(
            "forward_collision_prevention,2022,0.22", "forward_collision_prevention,2022,0.30"
        )
        fleet.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["--data-dir", str(data_dir_copy), "estimate", "--year", "2022", "--format", "csv"])
        rows = parse_csv(result.stdout)
        fcp = next(r for r in rows if r["feature"] == "forward_collision_prevention")
        assert fcp["equipped_pct"] == "30"

    def test_shuffled_input_rows_give_identical_bytes(self, runner, tmp_path, bundled_dir):
        outputs = []
        for seed in (1, 2):
            target = tmp_path / f"data{seed}"
            shutil.copytree(bundled_dir, target)
            for name in ("adoption.csv", "fleet.csv"):
                lines = [
                    l for l in (target / name).read_text(encoding="utf-8").splitlines()
                    if l.strip() and not l.startswith("#")
                ]
                header, rows = lines[0:1], lines[1:]
                random.Random(seed).shuffle(rows)
                (target / name).write_text("\n".join(header + rows) + "\n", encoding="utf-8")
            result = runner.invoke(main, ["--data-dir", str(target), "estimate", "--year", "2022", "--format", "csv"])
            assert result.exit_code == 0
            outputs.append(result.stdout_bytes)
        assert outputs[0] == outputs[1]


    @pytest.mark.parametrize("output_format, golden", [
        ("table", "estimate_2022_table.txt"), ("csv", "estimate_2022.csv"), ("json", "estimate_2022.json"),
    ])
    def test_bundled_year_2022_matches_golden_output(self, runner, output_format, golden):
        """Every byte of the bundled 2022 output, legend and cautions included, is pinned."""
        result = runner.invoke(main, ["estimate", "--year", "2022", "--format", output_format])
        assert result.exit_code == 0
        assert result.stdout_bytes == (Path(__file__).parent / "golden" / golden).read_bytes()

    @settings(max_examples=5, deadline=None)
    @given(st.randoms(), st.booleans())
    def test_row_order_of_catalog_and_crash_file_leaves_output_unchanged(self, rng, duplicate_crash_rows):
        """Shuffled data rows of catalog.csv and fars_vehicles.csv, comment and
        header lines kept in place, give the golden bytes; so does every crash
        row appearing twice."""
        with tempfile.TemporaryDirectory() as tmp:
            data = Path(tmp) / "data"
            shutil.copytree(bundled_data_dir(), data)
            for name in ("catalog.csv", "fars_vehicles.csv"):
                lines = (data / name).read_text(encoding="utf-8").splitlines()
                body = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
                rows = lines[body:] * (2 if duplicate_crash_rows and name == "fars_vehicles.csv" else 1)
                rows = rng.sample(rows, len(rows))
                (data / name).write_text("\n".join(lines[:body] + rows) + "\n", encoding="utf-8")
            result = CliRunner().invoke(main, ["--data-dir", str(data), "estimate", "--year", "2022", "--format", "json"])
        assert result.exit_code == 0
        assert result.stdout_bytes == (Path(__file__).parent / "golden" / "estimate_2022.json").read_bytes()


def test_config_fields_are_the_estimate_threshold_flags(runner):
    """A config field no flag sets, a threshold flag the config lacks, or a flag
    default that is not the field default, fails here."""
    flags = {opt for param in estimate.params for opt in param.opts} - {"--year", "--format"}
    assert flags == {"--max-lag", "--min-overlap", "--long-lag-threshold"}
    fields = dataclasses.fields(EstimatorConfig)
    assert {"--" + f.name.replace("_", "-") for f in fields} == flags
    defaults = {param.name: param.default for param in estimate.params}
    assert {f.name: defaults[f.name] for f in fields} == {f.name: f.default for f in fields}
    help_text = " ".join(runner.invoke(main, ["estimate", "--help"]).output.split())
    for default in ("default: 25", "default: 1", "default: 8"):
        assert default in help_text


FEATURES = [f.value for f in FeatureId]
YEARS = st.integers(min_value=2008, max_value=2024)
# Valid fractions in plain and exponent form, tiny and zero exponents included.
HALF_TEXTS = ["0", "0.05", "0.16", "0.2", "0.5", "25e-2", "7E-2", "0.0001e+2", "1e-30000000", "1E-999999999",
              "0e999999999", "5E-1", "0.3333333333333333333333333333333"]
HALVES = st.sampled_from(HALF_TEXTS)
FRACTIONS = st.sampled_from(HALF_TEXTS + ["0.57", "0.93", "1", "1.0e0", "99E-2"])
JUNK = st.sampled_from(["", "x", "NaN", "-Infinity", "1e+999999999", "-1e-5", "1.5", "2e3", "99999999999999999999"])
MAKES, MODELS = st.sampled_from(["acme", "Bolt"]), st.sampled_from(["m1", "M2 "])


def sometimes(common, rare, one_in: int):
    """`rare` in about one draw of `one_in`, else `common`."""
    return st.integers(1, one_in).flatmap(lambda i: rare if i == one_in else common)


@st.composite
def data_dirs(draw) -> tuple[int, dict[str, str]]:
    """A year to estimate and the five input files of a data dir: well formed,
    with series mostly around the year; then, in about one example of two, one
    cell of one file replaced by junk."""
    year = draw(sometimes(YEARS, st.sampled_from([-1, 0, 10**12]), 10))
    near = year if 2008 <= year <= 2024 else draw(YEARS)

    def series(*value_cells):
        rows = []
        for feature in FEATURES:
            if draw(st.integers(0, 3)):  # about three features in four
                start, stop = near - draw(st.integers(0, 12)), near + draw(st.integers(-3, 2))
                step = draw(sometimes(st.just(1), st.integers(2, 5), 4))  # published series skip years
                rows += [[feature, str(y), *map(draw, value_cells)] for y in range(start, max(stop, start) + 1, step)]
        return rows

    activation = []
    for feature in draw(st.permutations([f.value for f in PRIORITY_FEATURES])):
        source = draw(st.sampled_from([s.value for s in ActivationSource]))
        donor = draw(st.sampled_from(FEATURES)) if source == "assumed_from_similar" else ""
        activation.append([feature, draw(FRACTIONS), source, donor])
    keys = draw(st.lists(st.tuples(MAKES, MODELS, YEARS, st.sampled_from(FEATURES)), max_size=30,
                         unique_by=lambda key: (key[0].lower(), key[1].strip().lower(), *key[2:])))
    availability = st.sampled_from(["standard", "optional", "not_available"])
    crash_years = draw(st.lists(YEARS, max_size=30))
    tables = {
        "adoption.csv": ("feature,model_year,std_frac,opt_frac", series(HALVES, HALVES)),
        "fleet.csv": ("feature,calendar_year,equipped_frac", series(FRACTIONS)),
        "activation.csv": ("feature,rate,source,donor", activation),
        "catalog.csv": ("make,model,model_year,feature,availability",
                        [[make, model, str(year), feature, draw(availability)] for make, model, year, feature in keys]),
        "fars_vehicles.csv": ("vin,crash_year,make,model",
                              [[make_vin(i, encode_model_year(year)), "2022", draw(MAKES), draw(MODELS)] for i, year in enumerate(crash_years)]),
    }
    spoiled = draw(sometimes(st.none(), st.sampled_from(list(tables)), 2))
    if spoiled is not None and tables[spoiled][1]:
        row = draw(st.sampled_from(tables[spoiled][1]))
        row[draw(st.integers(0, len(row) - 1))] = draw(JUNK)
    return year, {name: "\n".join([header, *map(",".join, rows)]) + "\n" for name, (header, rows) in tables.items()}


def check_estimate_against_oracle(result, files: dict[str, str], year: int, config: EstimatorConfig) -> None:
    """An `estimate --format json` run against `oracle_estimate_table` on the same files and thresholds: on
    exit 0, the same rows; on an exit 1 that names a feature it cannot estimate, the oracle serves every
    feature before it in report order and not that one."""
    failed = re.match(r"error: cannot estimate (\w+) for ", result.stderr)
    if result.exit_code != 0 and not failed:  # a file the program rejects is no input for the oracle
        return
    expected = oracle_estimate_table(files, year, *dataclasses.astuple(config))
    if result.exit_code == 0:
        assert json.loads(result.stdout)["estimates"] == expected
    else:
        order = [f.value for f in PRIORITY_FEATURES]
        assert None in expected and expected.index(None) == order.index(failed[1]), (failed[0], expected)


def test_estimate_on_the_bundled_data_equals_the_oracle(runner):
    for year in range(2016, 2025):
        result = runner.invoke(main, ["estimate", "--year", str(year), "--format", "json"])
        check_estimate_against_oracle(result, data_dir_files(bundled_data_dir()), year, EstimatorConfig())


# Each estimate threshold flag and the least value it accepts.
THRESHOLD_FLAGS = {"--max-lag": 0, "--min-overlap": 1, "--long-lag-threshold": 0}
THRESHOLD = sometimes(st.none(), st.one_of(st.integers(-3, 30), st.sampled_from([-10**18, 10**9, 10**18])), 4)
DEADLINE_S = 2.0


def overran(signum, frame):
    raise TimeoutError(f"example overran its {DEADLINE_S}s deadline")


def csv_text(header: str, *rows: str) -> str:
    return "\n".join([header, *rows]) + "\n"


# A data dir whose 2018 table turns on rules the generated ones seldom reach. Adaptive cruise control
# matches electronic stability control at lag 10 over 2006-2008, tied at distance 0 with lane departure
# warning at lag 12 and beaten only by rear parking sensors at lag 0, whose fleet series lacks 2018. The
# analog years read start at 2006, the mandate's announcement. Automatic emergency braking composes 15%
# (0.145) with 50% into 8%, where the unrounded 0.0725 gives 7%.
RULE_EDGES = (2018, {
    "adoption.csv": csv_text("feature,model_year,std_frac,opt_frac", *(
        f"{feature},{first + i},{0.1 * (i + 1):.1f},0"
        for feature, first in [("adaptive_cruise_control", 2016), ("rear_parking_sensors", 2016),
                               ("electronic_stability_control", 2006), ("lane_departure_warning", 2004)]
        for i in range(3))),
    "fleet.csv": csv_text("feature,calendar_year,equipped_frac", "electronic_stability_control,2008,0.4",
                          "lane_departure_warning,2006,0.3", "rear_parking_sensors,2010,0.5",
                          "automatic_emergency_braking,2018,0.145",
                          *(f"{f.value},2018,0.2" for f in PRIORITY_FEATURES[2:])),
    "activation.csv": csv_text("feature,rate,source,donor", *(
        f"{f.value},{0.5 if i == 1 else 0.57},observed," for i, f in enumerate(PRIORITY_FEATURES))),
    "catalog.csv": csv_text("make,model,model_year,feature,availability"),
    "fars_vehicles.csv": csv_text("vin,crash_year"),
})


@settings(max_examples=60, deadline=None)
@given(data_dir=data_dirs(), output_format=st.sampled_from(["table", "csv", "json"]),
       thresholds=st.tuples(THRESHOLD, THRESHOLD, THRESHOLD))
@example(data_dir=RULE_EDGES, output_format="json", thresholds=(None, None, None))
def test_estimate_on_generated_data_ends_in_one_error_line_or_a_table(data_dir, output_format, thresholds):
    """Any data dir and any threshold flags end, within the deadline, in exit 0
    with a six-row table, or in exit 1 with one `error:` line; never in a
    traceback. A threshold below its flag's least value is a usage error,
    exit 2, whatever the data. Whenever `estimate` exits 0, `ingest` accepts
    each file it read. Its JSON rows, or the feature it cannot estimate, are
    those of `oracle_estimate_table`.

    A timer signal interrupts a run at the deadline, so a loop in Python code
    fails the example instead of hanging the suite.
    """
    year, files = data_dir
    args = ["estimate", "--year", str(year), "--format", output_format]
    for flag, value in zip(THRESHOLD_FLAGS, thresholds):
        if value is not None:
            args += [flag, str(value)]
    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, text in files.items():
                (Path(tmp) / name).write_text(text, encoding="utf-8")
            result = CliRunner().invoke(main, ["--data-dir", tmp, *args])
            as_json = result
            if output_format != "json" and result.exit_code == 0:
                as_json = CliRunner().invoke(main, ["--data-dir", tmp, *args, "--format", "json"])
            ingested = {
                kind: CliRunner().invoke(main, ["--data-dir", tmp, "ingest", "--kind", kind, str(Path(tmp) / name)])
                for kind, name in DATA_FILES.items()
            } if result.exit_code == 0 else {}
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
    below_minimum = any(v is not None and v < least for v, least in zip(thresholds, THRESHOLD_FLAGS.values()))
    assert (result.exit_code == 2) == below_minimum, (result.exit_code, result.output)
    if below_minimum:
        assert result.stdout == "" and "Invalid value for '--" in result.stderr
    elif result.exit_code == 0:
        assert result.stderr == "" and result.stdout
        assert {kind: r.exit_code for kind, r in ingested.items()} == dict.fromkeys(DATA_FILES, 0), ingested
        if output_format == "json":
            assert len(json.loads(result.stdout)["estimates"]) == 6
    else:
        assert result.exit_code == 1 and result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
    if not below_minimum:
        assert as_json.exit_code == result.exit_code
        defaults = dataclasses.astuple(EstimatorConfig())
        config = EstimatorConfig(*(d if v is None else v for v, d in zip(thresholds, defaults)))
        check_estimate_against_oracle(as_json, files, year, config)


# Any JSON value, as UTF-8 text: every type, nested, strings with lone surrogates,
# floats that dump as the NaN and Infinity literals, and integers past int()'s digit limit.
JSON_TEXTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(st.characters(exclude_categories=())),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
).map(lambda value: json.dumps(value).encode()) | st.sampled_from([b"9" * 5000, b"9" * 4000, b"1e400", b"-0"])
CACHED_FIELDS = ["Make", "Model", "Error Text", *list(vpic.load_variable_map())[:3]]


@st.composite
def cached_documents(draw, vin: str) -> bytes:
    """A cached document for `vin`: an object shaped like a decode whose fields
    hold any JSON value, any JSON value at all, nesting far past the parser's
    depth, or bytes that are mostly not UTF-8."""
    shape = draw(st.sampled_from(["decode", "value", "deep", "bytes"]))
    if shape == "value":
        return draw(JSON_TEXTS)
    if shape == "deep":
        depth = draw(st.sampled_from([10, 1_000, 100_000]))
        return b"[" * depth + b"]" * depth
    if shape == "bytes":
        return draw(st.binary(max_size=40))
    year = st.sampled_from([b'"2021"', b"2021", b'" 2017 "', b'"1999"'])
    fields = {"VIN": draw(st.sampled_from([json.dumps(vin).encode(), json.dumps(vin.lower()).encode()]) | JSON_TEXTS),
              "Model Year": draw(sometimes(year, JSON_TEXTS, 3))}
    for name in draw(st.lists(st.sampled_from(CACHED_FIELDS), max_size=4, unique=True)):
        fields[name] = draw(st.sampled_from([b'"Standard"', b'"optional "', b'""', b'"\xff\xfe"']) | JSON_TEXTS)
    return b"{" + b", ".join(json.dumps(name).encode() + b": " + value for name, value in fields.items()) + b"}"


@st.composite
def vpic_caches(draw) -> dict[str, bytes | None]:
    """One to three VINs, each with a cached document or none."""
    vins = [make_vin(i) for i in range(draw(st.integers(1, 3)))]
    return {vin: draw(st.none() | cached_documents(vin)) for vin in vins}


@settings(max_examples=60, deadline=None)
@given(cache=vpic_caches(), output_format=st.sampled_from(["table", "csv", "json"]))
@example(cache={make_vin(0): json.dumps({"VIN": make_vin(0), "Model Year": "2021", "Make": "Acme, Inc.",
                                         "Model": 'the "one"\rtwo'}).encode()}, output_format="csv")
def test_decode_on_any_cached_document_ends_in_one_error_line_or_a_row_per_vin(cache, output_format):
    """Whatever the cache holds, `decode` ends within the deadline in exit 0
    with one row per VIN, or in exit 1 with one `error:` line; never in a
    traceback. A timer signal interrupts a run at the deadline, as above.
    CSV output parses back into one seven-cell row per VIN, whatever the cells hold."""
    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, DEADLINE_S)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "vpic_cache").mkdir()
            for vin, content in cache.items():
                if content is not None:
                    (Path(tmp) / "vpic_cache" / f"{vin}.json").write_bytes(content)
            result = CliRunner().invoke(main, ["--data-dir", tmp, "decode", *cache, "--format", output_format])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exc_info
    if result.exit_code == 0:
        assert result.stderr == ""
        if output_format == "json":
            assert [row["vin"] for row in json.loads(result.stdout)] == list(cache)
        elif output_format == "csv":
            rows = csv_rows(result.stdout)
            assert len(rows[0]) == 7 and [row[0] for row in rows] == ["vin", *cache]
        else:
            assert result.stdout.startswith("vin")
    else:
        assert result.exit_code == 1 and result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestIngest:
    def test_each_bundled_kind_validates(self, runner, bundled_dir):
        for kind, name in [
            ("adoption", "adoption.csv"), ("fleet", "fleet.csv"), ("activation", "activation.csv"),
            ("catalog", "catalog.csv"), ("fars", "fars_vehicles.csv"),
        ]:
            result = runner.invoke(main, ["ingest", "--kind", kind, str(bundled_dir / name)])
            assert result.exit_code == 0, (kind, result.output)
            assert result.stdout.startswith("ok:")

    def test_catalog_count_is_one_per_data_row(self, runner, bundled_dir):
        result = runner.invoke(main, ["ingest", "--kind", "catalog", str(bundled_dir / "catalog.csv")])
        assert result.exit_code == 0
        assert result.stdout == "ok: 92 catalog records\n"

    def test_bundled_series_have_gaps_and_ingest_notes_them(self, runner, bundled_dir):
        """Published series are isolated points: the bundled electronic stability
        control series has two, so `ingest` reads it, as `estimate` does, and notes the gap."""
        for kind, missing in [("adoption", "[2004, 2005, 2006, 2007]"), ("fleet", "[2005, 2006, 2007, 2008]")]:
            result = runner.invoke(main, ["ingest", "--kind", kind, str(bundled_dir / f"{kind}.csv")])
            assert result.exit_code == 0
            assert result.stdout == f"ok: 5 {kind} series, 6 points\n"
            assert result.stderr == f"note: {kind} series for electronic_stability_control is missing years {missing}\n"

    def test_contiguous_series_accepted(self, runner, tmp_path):
        path = tmp_path / "fleet.csv"
        path.write_text(
            "feature,calendar_year,equipped_frac\nlane_departure_warning,2020,0.16\n", encoding="utf-8"
        )
        result = runner.invoke(main, ["ingest", "--kind", "fleet", str(path)])
        assert result.exit_code == 0
        assert "1 fleet series, 1 points" in result.stdout

    def test_invalid_file_exits_one(self, runner, tmp_path):
        path = tmp_path / "adoption.csv"
        path.write_text("feature,model_year,std_frac,opt_frac\nadaptive_cruise_control,2020,0.7,0.4\n", encoding="utf-8")
        result = runner.invoke(main, ["ingest", "--kind", "adoption", str(path)])
        assert result.exit_code == 1

    def test_non_utf8_file_is_one_error_line(self, runner, tmp_path):
        path = tmp_path / "adoption.csv"
        path.write_bytes(b"feature,model_year,std_frac,opt_frac\n\xff\n")
        result = runner.invoke(main, ["ingest", "--kind", "adoption", str(path)])
        assert result.exit_code == 1
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_activation_file_without_every_priority_feature_is_noted(self, runner, tmp_path):
        path = tmp_path / "activation.csv"
        path.write_text(
            "feature,rate,source,donor\nadaptive_cruise_control,0.57,observed,\n"
            "lane_centering_assist,0.57,assumed_from_similar,adaptive_cruise_control\n", encoding="utf-8",
        )
        result = runner.invoke(main, ["ingest", "--kind", "activation", str(path)])
        assert result.exit_code == 0
        assert result.stdout == "ok: 2 activation entries\n"
        assert result.stderr == (
            "note: no entry for automatic_emergency_braking, forward_collision_prevention, "
            "lane_departure_prevention, pedestrian_automatic_emergency_braking\n"
        )

    @pytest.mark.parametrize("kind, text, error", [
        ("activation", "adaptive_cruise_control,abc,observed,\n",
         "error: row 2: rate 'abc' is not a decimal fraction"),
        ("activation", "adaptive_cruise_control,0.5,observed,\nadaptive_cruise_control,0.6,observed,\n",
         "error: row 3: duplicate activation entry for adaptive_cruise_control"),
        ("catalog", "acme,m00,1979,lane_centering_assist,standard\n",
         "error: row 2: model_year 1979 predates 17-character VINs"),
    ])
    def test_bad_row_is_one_error_line_naming_it(self, runner, tmp_path, kind, text, error):
        header = {"activation": "feature,rate,source,donor", "catalog": "make,model,model_year,feature,availability"}
        path = tmp_path / f"{kind}.csv"
        path.write_text(f"{header[kind]}\n{text}", encoding="utf-8")
        result = runner.invoke(main, ["ingest", "--kind", kind, str(path)])
        assert result.exit_code == 1 and result.stdout == ""
        assert result.stderr.splitlines() == [error]

    def test_fars_reports_warnings(self, runner, tmp_path):
        path = tmp_path / "fars.csv"
        path.write_text("vin,crash_year,make,model\nNOTAVIN,2021,acme,m00\n", encoding="utf-8")
        result = runner.invoke(main, ["ingest", "--kind", "fars", str(path)])
        assert result.exit_code == 0
        assert "1 vehicle records, 1 warnings" in result.stdout


FLEET_CSV = "feature,calendar_year,equipped_frac\nlane_departure_warning,2022,{ldw}\nrear_parking_sensors,2022,0.15\n"


class TestReportForecast:
    def write_pair(self, tmp_path, predicted_ldw, estimated_ldw):
        predicted = tmp_path / "predicted.csv"
        estimated = tmp_path / "estimated.csv"
        predicted.write_text(FLEET_CSV.format(ldw=predicted_ldw), encoding="utf-8")
        estimated.write_text(FLEET_CSV.format(ldw=estimated_ldw), encoding="utf-8")
        return predicted, estimated

    def test_identical_files_all_zero(self, runner, tmp_path):
        predicted, estimated = self.write_pair(tmp_path, "0.20", "0.20")
        result = runner.invoke(main, ["report-forecast", str(predicted), str(estimated), "--year", "2022", "--format", "csv"])
        assert result.exit_code == 0
        lines = result.stdout.strip().splitlines()
        assert all(line.endswith(",0.0") for line in lines[1:])

    def test_two_point_offset(self, runner, tmp_path):
        predicted, estimated = self.write_pair(tmp_path, "0.20", "0.22")
        result = runner.invoke(main, ["report-forecast", str(predicted), str(estimated), "--year", "2022", "--format", "csv"])
        rows = parse_csv(result.stdout)
        ldw = next(r for r in rows if r["feature"] == "lane_departure_warning")
        assert ldw["error_pp"] == "-2.0"
        mae = next(r for r in rows if r["feature"] == "mean_absolute_error")
        assert mae["error_pp"] == "1.0"

    def test_missing_year_fails(self, runner, tmp_path):
        predicted, estimated = self.write_pair(tmp_path, "0.20", "0.22")
        result = runner.invoke(main, ["report-forecast", str(predicted), str(estimated), "--year", "2023"])
        assert result.exit_code == 1
        assert "no year 2023" in result.stderr

    def test_missing_year_is_one_error_line_without_hint(self, runner, tmp_path):
        predicted, estimated = self.write_pair(tmp_path, "0.20", "0.22")
        result = runner.invoke(main, ["report-forecast", str(predicted), str(estimated), "--year", "2023"])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == ["error: series for lane_departure_warning has no year 2023"]

    def test_table_format_prints_mae(self, runner, tmp_path):
        predicted, estimated = self.write_pair(tmp_path, "0.20", "0.22")
        result = runner.invoke(main, ["report-forecast", str(predicted), str(estimated), "--year", "2022"])
        assert "Mean absolute error: 1.0 pp" in result.stdout

    def test_json_format(self, runner, tmp_path):
        """A whole-number percentage, such as a rate of 1, still shows one decimal place."""
        predicted, estimated = self.write_pair(tmp_path, "1", "0.95")
        result = runner.invoke(main, ["report-forecast", str(predicted), str(estimated), "--year", "2022", "--format", "json"])
        assert result.exit_code == 0 and result.stderr == ""
        assert result.stdout == """{
  "year": 2022,
  "rows": [
    {
      "feature": "lane_departure_warning",
      "predicted_pct": "100.0",
      "estimated_pct": "95.0",
      "error_pp": "5.0"
    },
    {
      "feature": "rear_parking_sensors",
      "predicted_pct": "15.0",
      "estimated_pct": "15.0",
      "error_pp": "0.0"
    }
  ],
  "mean_absolute_error_pp": "2.5"
}
"""

    def test_files_with_no_feature_in_common_are_one_error_line(self, runner, tmp_path):
        predicted, estimated = tmp_path / "predicted.csv", tmp_path / "estimated.csv"
        predicted.write_text("feature,calendar_year,equipped_frac\nlane_departure_warning,2022,0.2\n", encoding="utf-8")
        estimated.write_text("feature,calendar_year,equipped_frac\nrear_parking_sensors,2022,0.2\n", encoding="utf-8")
        result = runner.invoke(main, ["report-forecast", str(predicted), str(estimated), "--year", "2022"])
        assert result.exit_code == 1 and result.stdout == ""
        assert result.stderr == "error: the two files have no feature in common\n"


def test_console_entry_point_runs():
    # The child imports the package this suite imported, also when only pytest's `pythonpath` finds it.
    package_root = str(Path(adasfleet.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-m", "adasfleet", "estimate", "--year", "2022", "--format", "csv"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("feature,year,")


def test_each_option_has_one_home():
    """The group declares only what every command shares; no command redeclares it."""
    group_opts = {opt for param in main.params for opt in param.opts}
    assert group_opts == {"--data-dir", "--version"}
    for name, command in main.commands.items():
        assert not group_opts & {opt for param in command.params for opt in param.opts}, name


@pytest.mark.parametrize("args", [
    ["--format", "json", "estimate", "--year", "2022"],
    ["--strict-vin", "decode", "BADVIN"],
    ["--vpic-mode", "record", "decode", ALL_ONES],
    ["--vpic-url", "http://localhost:1", "decode", ALL_ONES],
])
def test_command_options_before_the_command_are_usage_errors(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2
    assert "No such option" in result.stderr and args[0] in result.stderr


def test_decode_help_shows_its_own_defaults_and_help():
    result = CliRunner().invoke(main, ["decode", "--help"])
    assert result.exit_code == 0
    assert "[default: table]" in result.stdout
    assert "Treat check-digit failures as hard errors." in result.stdout


@pytest.mark.parametrize("args", [
    ["decode", "--file", "{dir}"],
    ["ingest", "--kind", "fleet", "{dir}"],
    ["report-forecast", "{dir}", "{dir}", "--year", "2022"],
    ["--data-dir", "{data}", "estimate", "--year", "2022"],
])
def test_directory_where_a_data_file_belongs_is_one_error_line(tmp_path, args):
    (tmp_path / "adoption.csv").mkdir()
    paths = {"dir": str(tmp_path / "adoption.csv"), "data": str(tmp_path)}
    result = CliRunner().invoke(main, [arg.format(**paths) for arg in args])
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr.splitlines() == [f"error: cannot read {paths['dir']}: Is a directory"]


def test_data_dir_that_is_a_file_is_usage_error(tmp_path):
    (tmp_path / "notes.txt").write_text("", encoding="utf-8")
    result = CliRunner().invoke(main, ["--data-dir", str(tmp_path / "notes.txt"), "estimate", "--year", "2022"])
    assert result.exit_code == 2
    assert "Invalid value for '--data-dir'" in result.stderr and "is a file" in result.stderr


@pytest.mark.parametrize("args", [
    ["estimate", "--year", "2022"],
    ["ingest", "--kind", "fars", str(bundled_data_dir() / "fars_vehicles.csv")],
])
def test_data_dir_that_does_not_exist_is_one_error_line(tmp_path, args):
    missing = tmp_path / "no" / "such"
    result = CliRunner().invoke(main, ["--data-dir", str(missing), *args])
    assert isinstance(result.exception, SystemExit), result.exc_info
    assert result.exit_code == 1 and result.stdout == ""
    assert result.stderr.splitlines() == [f"error: data directory {missing} does not exist"]


def test_vpic_url_flag_is_env_overridable():
    option = next(p for p in decode.params if p.name == "vpic_url")
    assert option.envvar == "ADASFLEET_VPIC_URL"


def test_report_forecast_propagates_ingestion_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("feature,calendar_year,equipped_frac\nlane_departure_warning,2022,1.5\n", encoding="utf-8")
    good = tmp_path / "good.csv"
    good.write_text("feature,calendar_year,equipped_frac\nlane_departure_warning,2022,0.2\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["report-forecast", str(bad), str(good), "--year", "2022"])
    assert result.exit_code == 1
    assert "outside [0, 1]" in result.stderr
