import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from click.testing import CliRunner

from adasfleet.cli import main
from adasfleet.datasets import bundled_data_dir

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "make_bundled_data.py"


def test_make_bundled_data_reproduces_the_bundled_files(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("make_bundled_data", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "DATA_DIR", tmp_path)
    script.main()
    for name in ("catalog.csv", "fars_vehicles.csv"):
        assert (tmp_path / name).read_bytes() == (bundled_data_dir() / name).read_bytes(), name


def test_benchmark_tracer_finds_every_name_it_wraps():
    """perfbench/traced.py wraps package names from outside; unbinding one must fail here.

    Runs in a child process so the wrappers `install()` places stay out of this one.
    """
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import traced; "
        "print(json.dumps(traced.install(traced.Tracer('names'))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


@pytest.mark.parametrize("workload", ["bundled_cli", "fars_140k", "vpic_20k"])
def test_traced_benchmark_run_reports_every_metric(workload):
    """A short traced run of each workload ends in a correct result line whose every metric is a number.

    The tracer derives some metrics from counts of wrapped calls, such as catalog lookups; a change that
    stops making such a call leaves the metric null, and the run's result line cannot be read.
    """
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", "1", "--scale", "0.02"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert last["correct"] is True
    values = {name: metric["value"] for name, metric in last["metrics"].items()}
    assert values and all(isinstance(v, (int, float)) and math.isfinite(v) for v in values.values()), values


def test_benchmark_generator_and_checker_import():
    """perfbench/gen.py and perfbench/check.py import package names; removing one must fail here.

    Runs in a child process with the path the benchmark itself sets up.
    """
    code = "import sys; sys.path[:0] = sys.argv[1:]; import gen, check"
    paths = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "tests")]
    result = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, text=True, timeout=60, cwd=ROOT)
    assert result.returncode == 0, result.stderr


def test_benchmark_command_lines_run(tmp_path):
    """perfbench/run.py's `estimate` and `decode` argv must keep running; a CLI change that breaks one fails here."""
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    (tmp_path / "vins.csv").write_text("vin\n11111111111111111\n1HGCM82633A004352\n", encoding="utf-8")
    bench = SimpleNamespace(workload="bundled_cli", data=tmp_path)
    for args in (run.estimate_args(bench), run.decode_args(bench, bench.data)):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, (args, result.output)


def test_benchmark_record_then_replay_round_trip(tmp_path, monkeypatch):
    """The vpic_20k workload, scaled down: record through the fake service, replay through the CLI.

    A store or replay change that would make the benchmark count failures fails here.
    """
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import check
    import gen
    from adasfleet import vpic

    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    manifest = gen.generate("vpic_20k", 1, tmp_path, scale=0.01)
    vehicles = json.loads((tmp_path / "vehicles.json").read_text(encoding="utf-8"))
    makes = check.expected_makes(vehicles)
    assert manifest["decode_vins"] == len(vehicles) > 0 and manifest["service_omitted"] > 0

    data = tmp_path / "data"
    cache = vpic.FixtureCache(data / "vpic_cache", vpic.CacheMode.RECORD_THEN_REPLAY)
    records = vpic.batch_decode([v["vin"] for v in vehicles], cache, transport=gen.service_transport(vehicles))
    cached = sum(1 for _ in (data / "vpic_cache").iterdir())
    assert check.check_record([r.make for r in records], makes, cached) == []

    bench = SimpleNamespace(workload="vpic_20k", data=data)
    result = CliRunner().invoke(main, run.decode_args(bench, data))
    assert result.exit_code == 0, result.output
    assert check.check_decode(result.stdout, makes) == []
