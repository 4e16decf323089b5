import json
import random
import shutil
import subprocess
import sys

import pytest
from click.testing import CliRunner

from adasfleet import vpic
from adasfleet.cli import main
from adasfleet.vin import compute_check_digit
from adasfleet.vpic import CacheMode, FixtureCache

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


def make_vin(serial: int) -> str:
    draft = f"2HGCDEFG0MA{serial:06d}"
    return draft[:8] + compute_check_digit(draft) + draft[9:]


def parse_csv(text: str) -> list[dict]:
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestDecode:
    def test_single_vin(self, runner):
        result = runner.invoke(main, ["decode", ALL_ONES])
        assert result.exit_code == 0
        assert ALL_ONES in result.stdout
        assert "2001" in result.stdout  # year code '1', digit at position 7

    def test_bad_vin_strict_exits_nonzero(self, runner):
        result = runner.invoke(main, ["--strict-vin", "decode", "BADVIN"])
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
        args = ["--data-dir", str(data_dir), "--vpic-mode", "record", "decode", *vins, "--format", "json"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        assert [row["make"] for row in json.loads(result.stdout)] == ["ACME"] * 3
        assert len(requests) == 1
        assert sorted(p.name for p in (data_dir / "vpic_cache").iterdir()) == sorted(f"{v}.json" for v in vins)

    def test_record_mode_without_data_dir_is_usage_error(self, runner):
        result = runner.invoke(main, ["--vpic-mode", "record", "decode", make_vin(1)])
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


class TestIngest:
    def test_each_bundled_kind_validates(self, runner, bundled_dir):
        for kind, name in [
            ("adoption", "adoption.csv"), ("fleet", "fleet.csv"), ("activation", "activation.csv"),
            ("catalog", "catalog.csv"), ("fars", "fars_vehicles.csv"),
        ]:
            if kind in ("adoption", "fleet"):
                continue  # bundled series have intentional gap years; covered below
            result = runner.invoke(main, ["ingest", "--kind", kind, str(bundled_dir / name)])
            assert result.exit_code == 0, (kind, result.output)
            assert result.stdout.startswith("ok:")

    def test_bundled_series_have_gaps_and_strict_ingest_says_so(self, runner, bundled_dir):
        result = runner.invoke(main, ["ingest", "--kind", "fleet", str(bundled_dir / "fleet.csv")])
        assert result.exit_code == 1
        assert "missing years" in result.stderr

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

    def test_table_format_prints_mae(self, runner, tmp_path):
        predicted, estimated = self.write_pair(tmp_path, "0.20", "0.22")
        result = runner.invoke(main, ["report-forecast", str(predicted), str(estimated), "--year", "2022"])
        assert "Mean absolute error: 1.0 pp" in result.stdout


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "adasfleet", "estimate", "--year", "2022", "--format", "csv"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0
    assert result.stdout.startswith("feature,year,")


def test_vpic_url_flag_is_env_overridable():
    option = next(p for p in main.params if p.name == "vpic_url")
    assert option.envvar == "ADASFLEET_VPIC_URL"


def test_report_forecast_propagates_ingestion_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("feature,calendar_year,equipped_frac\nlane_departure_warning,2022,1.5\n", encoding="utf-8")
    good = tmp_path / "good.csv"
    good.write_text("feature,calendar_year,equipped_frac\nlane_departure_warning,2022,0.2\n", encoding="utf-8")
    result = CliRunner().invoke(main, ["report-forecast", str(bad), str(good), "--year", "2022"])
    assert result.exit_code == 1
    assert "outside [0, 1]" in result.stderr
