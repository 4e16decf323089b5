"""The benchmark's own tests. Run from the checkout root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT / "tests")]

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402

SMALL = 0.02


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    first = gen.generate(workload, 7, tmp_path / "a", SMALL)
    second = gen.generate(workload, 7, tmp_path / "b", SMALL)
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c", SMALL)
    if workload != "bundled_cli":  # the bundled fixture is the same for every seed
        assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_generator_writes_only_under_its_directory_and_makes_the_cache_dir(tmp_path):
    manifest = gen.generate("fars_140k", 3, tmp_path, SMALL)
    assert (tmp_path / "data" / "vpic_cache").is_dir()
    assert manifest["crash_warnings"] > 0
    assert 0 < manifest["key_reuse_share"] < 1


def _bundled_estimate_output() -> str:
    from click.testing import CliRunner

    from adasfleet.cli import main

    result = CliRunner().invoke(main, ["estimate", "--year", "2022", "--format", "json"])
    assert result.exit_code == 0
    return result.output


def test_bundled_output_passes_and_a_corrupted_expectation_fails():
    output = _bundled_estimate_output()
    assert check.check_estimate(output, check.BUNDLED_2022) == []
    corrupted = dict(check.BUNDLED_2022)
    equipped, activation, activated, provenance = corrupted["lane_centering_assist"]
    corrupted["lane_centering_assist"] = (equipped + 1, activation, activated, provenance)
    problems = check.check_estimate(output, corrupted)
    assert problems and "lane_centering_assist" in problems[0]

    bench = run.Bench("bundled_cli", ROOT)
    bench.outcome("estimate", check.check_estimate(output, check.BUNDLED_2022))
    bench.outcome("estimate", problems)
    assert (bench.attempted, bench.failed) == (2, 1)


def test_corrupted_decode_expectation_fails():
    vehicles = [{"vin": "1ATCDEFG7MA000000", "make": "acme", "model": "m00", "omitted": False},
                {"vin": "1ATCDEFG9MA000001", "make": "acme", "model": "m01", "omitted": True}]
    expected = check.expected_makes(vehicles)
    output = json.dumps([{"vin": v, "make": make, "model": model} for v, make, model in expected])
    assert check.check_decode(output, expected) == []
    assert check.check_decode(output, [expected[0], (expected[1][0], "acme", "m01")])
    assert check.check_decode("not json", expected)


def _result(lines: list[str]) -> tuple[dict, dict]:
    record = json.loads(next(line for line in lines if line.startswith("record "))[len("record "):])
    return json.loads(lines[-1]), record


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_small_run_of_every_workload_is_correct_and_complete(workload):
    code, lines = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "0",
                         "--scale", str(SMALL))
    assert code == 0, lines
    result, record = _result(lines)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["samples"]["estimate_s"] >= run.MIN_CYCLES
    assert not (ROOT / ".perfbench_work").exists()


def test_traced_run_reports_every_layer_metric_and_matches_the_generator():
    code, lines = _bench("--workload", "fars_140k", "--seed", "3", "--seconds", "0.1", "--trace", "1",
                         "--scale", str(SMALL))
    assert code == 0, lines
    result, record = _result(lines)
    assert result["correct"], lines
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(metrics) == list(run.PER_LAYER)
    inputs = record["inputs"]
    assert metrics["datasets.fars_rows"] == inputs["crash_rows"]
    assert metrics["datasets.fars_warnings"] == inputs["crash_warnings"]
    assert metrics["datasets.key_reuse_ratio"] == pytest.approx(inputs["key_reuse_share"])
    assert metrics["catalog.rows"] == inputs["catalog_rows"]
    assert metrics["vpic.store_calls"] == inputs["decode_vins"] - inputs["service_omitted"]
    assert metrics["vpic.cache_hit_ratio"] == pytest.approx(1 - inputs["service_omitted"] / inputs["decode_vins"])
    assert metrics["datasets.cohort_records_scanned"] == metrics["datasets.cohort_calls"] * inputs["crash_rows"]
    assert metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]
    assert record["missing_wrappers"] == []


def test_a_wrapper_without_target_is_listed_and_its_metrics_are_null():
    import traced

    class Module:
        def present(self):
            return 1

    tracer = traced.Tracer("test")
    owner = Module()
    tracer.wrap_leaf(owner, "present", "datasets.present")
    tracer.wrap_leaf(owner, "fars_availability_fraction", "datasets.fars_availability_fraction")
    tracer.wrap_span(owner, "load_bundle", "cli.load_bundle")
    assert owner.present() == 1
    assert tracer.dump()["missing"] == ["datasets.fars_availability_fraction", "cli.load_bundle"]

    metrics = {"datasets.cohort_calls": 0, "datasets.cohort_records_scanned": 0, "cli.load_bundle_s": 0.0,
               "catalog.lookup_calls": 5, "datasets.self_s": 1.0, "trace.self_sum_s": 2.0}
    kept = run.drop_missing(metrics, tracer.missing)
    assert kept == {"datasets.cohort_calls": None, "datasets.cohort_records_scanned": None,
                    "cli.load_bundle_s": None, "catalog.lookup_calls": 5,
                    "datasets.self_s": None, "trace.self_sum_s": None}
    assert run.drop_missing(metrics, []) == metrics


def test_benchmark_json_lists_the_metrics_run_py_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    code, lines = _bench("--workload", "bundled_cli", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
