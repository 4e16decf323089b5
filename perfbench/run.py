#!/usr/bin/env python3
"""adasfleet benchmark: CLI wall time at bundled and FARS scale, vPIC record and
replay, and a traced per-layer run.

    python3 perfbench/run.py --workload bundled_cli|fars_140k|vpic_20k \\
        --seed N --seconds S --trace 0|1

Run from the checkout root. Each workload is a closed loop with one client.
The workload's VINs are recorded once through a fake vPIC service, in
process. Then each cycle runs `estimate` and a `decode` replay of those VINs
as subprocesses, and the next cycle starts only when the previous one has
ended. Cycles repeat until S seconds have passed (and at least MIN_CYCLES
ran). Every output is checked; a wrong output or a nonzero exit is a failure.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run (see traced.py).
The lines before it print every metric by name and unit, and one
`record {...}` line with the machine, inputs and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

YEAR = "2022"
MIN_CYCLES = 3
MIN_SAMPLES = 9
SETUP_RUNS = 5
CHILD_TIMEOUT_S = 150
# Seeds reserved for checking a claim on inputs it was not tuned on.
HELD_OUT_SEEDS = range(1000, 1010)

END_TO_END = {
    "setup_s": "s",
    "estimate_s": "s",
    "decode_vins_per_s": "VINs/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.load_bundle_s": "s",
    "cli.build_fars_series_s": "s",
    "cli.command_s": "s",
    "cli.decode_command_s": "s",
    "catalog.load_s": "s",
    "catalog.rows": "count",
    "catalog.lookup_calls": "count",
    "catalog.lookup_s": "s",
    "catalog.hit_ratio": "ratio",
    "vin.parse_calls": "count",
    "vin.parse_s": "s",
    "vin.check_digit_warnings": "count",
    "datasets.series_read_s": "s",
    "datasets.ingest_fars_s": "s",
    "datasets.fars_rows": "count",
    "datasets.fars_warnings": "count",
    "datasets.key_reuse_ratio": "ratio",
    "datasets.cohort_series_s": "s",
    "datasets.cohort_calls": "count",
    "datasets.cohort_records_scanned": "count",
    "estimator.estimate_table_s": "s",
    "estimator.match_lag_calls": "count",
    "estimator.match_lag_s": "s",
    "estimator.pairs_tried": "count",
    "estimator.pairs_admissible": "count",
    "vpic.store_calls": "count",
    "vpic.store_s": "s",
    "vpic.bytes_written": "bytes",
    "vpic.load_calls": "count",
    "vpic.load_s": "s",
    "vpic.cache_hit_ratio": "ratio",
    "vpic.normalize_s": "s",
    "vpic.variable_map_loads": "count",
    "catalog.load_peak_mb": "MB",
    "datasets.ingest_fars_peak_mb": "MB",
    "datasets.cohort_series_peak_mb": "MB",
    "cli.self_s": "s",
    "catalog.self_s": "s",
    "vin.self_s": "s",
    "datasets.self_s": "s",
    "estimator.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_s": "s",
}
LAYERS = ("cli", "catalog", "vin", "datasets", "estimator")

# The tracer wrappers each per-layer metric is computed from. When the
# traced child could not place one (the function was renamed or removed),
# the metric is reported as missing, not as 0.
SOURCES = {
    "cli.load_bundle_s": ("cli.load_bundle",),
    "cli.build_fars_series_s": ("cli.build_fars_series",),
    "catalog.load_s": ("catalog.load_catalog",),
    "catalog.rows": ("catalog.load_catalog",),
    "catalog.lookup_calls": ("catalog.lookup_availability",),
    "catalog.lookup_s": ("catalog.lookup_availability",),
    "catalog.hit_ratio": ("catalog.lookup_availability", "catalog.load_catalog", "catalog.Catalog.records"),
    "vin.parse_calls": ("vin.parse_vin_lenient", "vin.parse_vin"),
    "vin.parse_s": ("vin.parse_vin_lenient", "vin.parse_vin"),
    "vin.check_digit_warnings": ("vin.parse_vin_lenient",),
    "datasets.series_read_s": ("datasets.series_read",),
    "datasets.fars_rows": ("datasets.ingest_fars_csv",),
    "datasets.fars_warnings": ("datasets.ingest_fars_csv",),
    "datasets.key_reuse_ratio": ("catalog.lookup_availability",),
    "datasets.cohort_series_s": ("datasets.fars_adoption_series",),
    "datasets.cohort_calls": ("datasets.fars_availability_fraction",),
    "datasets.cohort_records_scanned": ("datasets.fars_availability_fraction",),
    "estimator.estimate_table_s": ("estimator.estimate_table",),
    "estimator.match_lag_calls": ("estimator.match_lag",),
    "estimator.match_lag_s": ("estimator.match_lag",),
    "estimator.pairs_tried": ("estimator.match_lag",),
    "estimator.pairs_admissible": ("estimator.match_lag",),
    "vpic.store_calls": ("vpic.store",),
    "vpic.store_s": ("vpic.store",),
    "vpic.load_calls": ("vpic.load",),
    "vpic.load_s": ("vpic.load",),
    "vpic.cache_hit_ratio": ("vpic.load",),
    "vpic.normalize_s": ("vpic.normalize_vpic_record",),
    "vpic.variable_map_loads": ("vpic.load_variable_map",),
    **{name: (name,) for name in ("catalog.load_peak_mb", "datasets.ingest_fars_peak_mb",
                                  "datasets.cohort_series_peak_mb")},
}
# Self times: a missing wrapper moves its time into its caller's self time,
# so any missing wrapper makes all of these missing.
SELF_TIMES = ("cli.command_s", "cli.decode_command_s", "datasets.ingest_fars_s",
              *(f"{layer}.self_s" for layer in LAYERS), "trace.self_sum_s")


def drop_missing(metrics: dict, missing: list[str]) -> dict:
    """`metrics` with every metric that rests on a missing wrapper set to None."""
    return {name: None if missing and (name in SELF_TIMES or set(SOURCES.get(name, ())) & set(missing))
            else value for name, value in metrics.items()}


class Child:
    """One finished subprocess: wall time, its own peak RSS, exit code and output."""

    def __init__(self, wall: float, rss_mb: float, code: int, out: Path, err: Path):
        self.wall, self.rss_mb, self.code, self.out, self.err = wall, rss_mb, code, out, err

    def output(self) -> str:
        return self.out.read_text(encoding="utf-8", errors="replace")

    def error_tail(self) -> str:
        return self.err.read_text(encoding="utf-8", errors="replace")[-400:]


class Bench:
    def __init__(self, workload: str, work: Path):
        self.workload, self.work = workload, work
        self.data = work / "data"
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.warmed = False
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))

    def run_child(self, args: list[str], name: str) -> Child:
        out, err = self.work / f"{name}.out", self.work / f"{name}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=fo, stderr=fe, cwd=ROOT, env=self.env)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        # ru_maxrss is in KiB on Linux.
        return Child(wall, usage.ru_maxrss / 1024, proc.returncode, out, err)

    def outcome(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems[:3])
        return not problems

    def cli(self, args: list[str], name: str) -> Child:
        return self.run_child(["-m", "adasfleet", *args], name)

    def exited_ok(self, child: Child) -> list[str]:
        return [] if child.code == 0 else [f"exit {child.code}: {child.error_tail()}"]


def measure_setup(bench: Bench, runs: int) -> list[float]:
    """Wall times of fresh interpreters importing adasfleet.cli and exiting.

    The first call in a checkout compiles bytecode; users pay that once, so
    a warm-up run precedes the first samples.
    """
    if not bench.warmed:
        bench.run_child(["-c", "import adasfleet.cli"], "setup")
        bench.warmed = True
    samples = []
    for _ in range(runs):
        child = bench.run_child(["-c", "import adasfleet.cli"], "setup")
        bench.outcome("setup", bench.exited_ok(child))
        samples.append(child.wall)
    return samples


def estimate_args(bench: Bench) -> list[str]:
    data_dir = [] if bench.workload == "bundled_cli" else ["--data-dir", str(bench.data)]
    return [*data_dir, "estimate", "--year", YEAR, "--format", "json"]


def decode_args(bench: Bench, data_dir: Path) -> list[str]:
    return ["--data-dir", str(data_dir), "decode", "--file", str(bench.data / "vins.csv"), "--format", "json"]


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest percentile with at least 10 samples above it."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    return 100 * (len(ordered) - 10) / len(ordered), ordered[-11]


def run_untraced(bench: Bench, manifest: dict, seconds: float, expected: dict, makes: list) -> tuple[dict, dict]:
    """Record the VINs once, then run cycles of `estimate` and `decode` until time is up.

    Interpreter set-up is sampled before the cycles and once more per cycle,
    so its median covers the same stretch of time as the other metrics.
    """
    import check
    import gen
    from adasfleet import vpic

    vehicles = json.loads((bench.work / "vehicles.json").read_text(encoding="utf-8"))
    vins = [v["vin"] for v in vehicles]
    setup = measure_setup(bench, SETUP_RUNS)

    cache_dir = bench.data / "vpic_cache"
    cache = vpic.FixtureCache(cache_dir, vpic.CacheMode.RECORD_THEN_REPLAY)
    began = time.perf_counter()
    records = vpic.batch_decode(vins, cache, transport=gen.service_transport(vehicles))
    record_s = time.perf_counter() - began
    cached = sum(1 for _ in cache_dir.iterdir())
    bench.outcome("record", check.check_record([r.make for r in records], makes, cached))
    del records

    estimate, decode, rss = [], [], []

    def run_decode() -> float:
        child = bench.cli(decode_args(bench, bench.data), "decode")
        bench.outcome("decode", bench.exited_ok(child) or check.check_decode(child.output(), makes))
        decode.append(child.wall)
        return child.rss_mb

    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(estimate) < MIN_CYCLES:
        child = bench.cli(estimate_args(bench), "estimate")
        bench.outcome("estimate", bench.exited_ok(child) or check.check_estimate(child.output(), expected))
        estimate.append(child.wall)
        rss.append(max(child.rss_mb, run_decode()))
        setup += measure_setup(bench, 1)
    # Where a long estimate ends the run after a few cycles, the short steps
    # still get MIN_SAMPLES samples for their medians.
    while len(decode) < MIN_SAMPLES or len(setup) < MIN_SAMPLES:
        if len(decode) < MIN_SAMPLES:
            run_decode()
        if len(setup) < MIN_SAMPLES:
            setup += measure_setup(bench, 1)

    median = statistics.median
    metrics = {
        "setup_s": (median(setup), len(setup)),
        "estimate_s": (median(estimate), len(estimate)),
        "decode_vins_per_s": (len(vins) / median(decode), len(decode)),
        "peak_rss_mb": (median(rss), len(rss)),
    }
    extra = {
        "estimate_tail": tail(estimate),
        "crash_rows_per_s": manifest["crash_rows"] / median(estimate),
        "record_vins_per_s": len(vins) / record_s,
        "cycles": len(estimate),
    }
    return {name: metrics[name] for name in END_TO_END}, extra


def _spans(dump: dict, name: str) -> list[dict]:
    return [s for s in dump["spans"] if s["name"] == name]


def _span_total(dump: dict, name: str) -> float:
    return sum(s["end"] - s["start"] for s in _spans(dump, name))


def _span_self(dump: dict, name: str) -> float:
    return sum(s["self"] for s in _spans(dump, name))


def _leaf(dumps: list[dict], name: str, root: str | None = None) -> tuple[int, float]:
    calls = total = 0
    for dump in dumps:
        for leaf_name, leaf_root, n, duration, _ in dump["leaves"]:
            if leaf_name == name and root in (None, leaf_root):
                calls += n
                total += duration
    return calls, total


def _count(dumps: list[dict], name: str, root: str | None = None) -> int:
    return sum(n for dump in dumps for c, r, n in dump["counts"] if c == name and root in (None, r))


def layer_self(dump: dict) -> dict[str, float]:
    """Self time per layer: spans and leaves, grouped by the prefix of their name."""
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in dump["spans"]:
        layer = span["name"].split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + span["self"]
    for name, _, _, _, self_time in dump["leaves"]:
        layer = name.split(".")[0]
        totals[layer] = totals.get(layer, 0.0) + self_time
    return totals


def estimate_layer_metrics(dump: dict) -> dict[str, float]:
    lookups = dump["lookups"]
    calls = lookups["lookup_calls"]
    self_times = layer_self(dump)
    metrics = {
        "cli.import_s": _span_total(dump, "cli.import"),
        "cli.load_bundle_s": _span_total(dump, "cli.load_bundle"),
        "cli.build_fars_series_s": _span_total(dump, "cli.build_fars_series"),
        "cli.command_s": _span_self(dump, "cli.command"),
        "catalog.load_s": _span_total(dump, "catalog.load_catalog"),
        "catalog.rows": _count([dump], "catalog.rows"),
        "catalog.lookup_calls": calls,
        "catalog.lookup_s": _leaf([dump], "catalog.lookup_availability")[1],
        "catalog.hit_ratio": lookups["lookup_hits"] / calls if calls and lookups["lookup_hits"] is not None else None,
        "datasets.series_read_s": _span_total(dump, "datasets.series_read"),
        "datasets.ingest_fars_s": _span_self(dump, "datasets.ingest_fars_csv"),
        "datasets.fars_rows": _count([dump], "datasets.fars_rows"),
        "datasets.fars_warnings": _count([dump], "datasets.fars_warnings"),
        "datasets.key_reuse_ratio": (calls - lookups["lookup_first_seen"]) / calls if calls else None,
        "datasets.cohort_series_s": _span_total(dump, "datasets.fars_adoption_series"),
        "datasets.cohort_calls": _leaf([dump], "datasets.fars_availability_fraction")[0],
        "datasets.cohort_records_scanned": _count([dump], "datasets.cohort_records_scanned"),
        "estimator.estimate_table_s": _span_total(dump, "estimator.estimate_table"),
        "estimator.match_lag_calls": _leaf([dump], "estimator.match_lag")[0],
        "estimator.match_lag_s": _leaf([dump], "estimator.match_lag")[1],
        "estimator.pairs_tried": _count([dump], "estimator.pairs_tried"),
        "estimator.pairs_admissible": _count([dump], "estimator.pairs_admissible"),
        "vin.parse_calls": sum(_leaf([dump], n)[0] for n in ("vin.parse_vin_lenient", "vin.parse_vin")),
        "vin.parse_s": sum(_leaf([dump], n)[1] for n in ("vin.parse_vin_lenient", "vin.parse_vin")),
        "vin.check_digit_warnings": _count([dump], "vin.check_digit_warnings"),
        "trace.self_sum_s": sum(self_times[layer] for layer in LAYERS),
    }
    metrics.update({f"{layer}.self_s": self_times[layer] for layer in LAYERS})
    return metrics


def run_traced(bench: Bench, manifest: dict, seconds: float, expected: dict, makes: list) -> tuple[dict, dict]:
    """Alternate untraced CLI and traced child runs of `estimate` for half the time,
    then one traced record-and-replay and one tracemalloc pass."""
    import check

    def traced(phase: str, args: list[str]) -> tuple[Child, dict | None, list[str]]:
        out = bench.work / f"trace-{phase}.json"
        child = bench.run_child([str(HERE / "traced.py"), phase, str(bench.work), str(out), json.dumps(args)],
                                f"trace-{phase}")
        problems = bench.exited_ok(child)
        dump = json.loads(out.read_text(encoding="utf-8")) if not problems else None
        if dump is not None and dump["exit_code"] != 0:
            problems = [f"traced command exited {dump['exit_code']}: {dump['output'][-400:]}"]
            dump = None
        return child, dump, problems

    untraced, walls, per_run = [], [], []
    missing: set[str] = set()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds / 2 or not per_run:
        child = bench.cli(estimate_args(bench), "estimate")
        bench.outcome("estimate", bench.exited_ok(child) or check.check_estimate(child.output(), expected))
        untraced.append(child.wall)
        child, dump, problems = traced("estimate", estimate_args(bench))
        if dump is not None:
            problems = check.check_estimate(dump["output"], expected)
            missing.update(dump["missing"])
        if bench.outcome("traced estimate", problems):
            walls.append(child.wall)
            per_run.append(estimate_layer_metrics(dump))
        elif not walls and time.perf_counter() - start > seconds:
            break

    child, decode, problems = traced("decode", decode_args(bench, bench.data))
    if decode is not None:
        cached = sum(1 for _ in (bench.data / "vpic_cache").iterdir())
        problems = (check.check_record(decode["record_makes"], makes, cached)
                    + check.check_decode(decode["output"], makes))
    bench.outcome("traced decode", problems)
    child, memory, problems = traced("memory", estimate_args(bench))
    if memory is not None:
        problems = check.check_estimate(memory["output"], expected)
    bench.outcome("tracemalloc estimate", problems)

    metrics = ({name: statistics.median(run[name] for run in per_run) for name in per_run[0]
                if all(run[name] is not None for run in per_run)} if per_run else {})
    metrics["trace.untraced_s"] = statistics.median(untraced)
    if walls:
        metrics["trace.wall_s"] = statistics.median(walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_s"]
    decode_dumps = [decode] if decode is not None else []
    for name in ("vin.parse_vin_lenient", "vin.parse_vin"):
        calls, duration = _leaf(decode_dumps, name)
        metrics["vin.parse_calls"] = metrics.get("vin.parse_calls", 0) + calls
        metrics["vin.parse_s"] = metrics.get("vin.parse_s", 0.0) + duration
    metrics["vin.check_digit_warnings"] = (metrics.get("vin.check_digit_warnings", 0)
                                           + _count(decode_dumps, "vin.check_digit_warnings"))
    load_calls, load_s = _leaf(decode_dumps, "vpic.load", "cli.command")
    store_calls, store_s = _leaf(decode_dumps, "vpic.store")
    metrics.update({
        "cli.decode_command_s": sum(_span_self(d, "cli.command") for d in decode_dumps),
        "vpic.store_calls": store_calls,
        "vpic.store_s": store_s,
        "vpic.bytes_written": sum(d["bytes_written"] for d in decode_dumps),
        "vpic.load_calls": load_calls,
        "vpic.load_s": load_s,
        "vpic.cache_hit_ratio": _count(decode_dumps, "vpic.load_hits", "cli.command") / load_calls if load_calls else None,
        "vpic.normalize_s": _leaf(decode_dumps, "vpic.normalize_vpic_record")[1],
        "vpic.variable_map_loads": _leaf(decode_dumps, "vpic.load_variable_map")[0],
    })
    peaks = memory["peaks"] if memory is not None else {}
    for name, peak in peaks.items():
        metrics[name] = peak / 2**20
    for d in (decode, memory):
        if d is not None:
            missing.update(d["missing"])
    missing = sorted(missing)
    metrics = drop_missing(metrics, missing)
    extra = {"traced_runs": len(walls), "untraced_runs": len(untraced), "missing_wrappers": missing}
    # Estimate-side metrics are medians over the traced estimate runs; the
    # decode and tracemalloc passes run once.
    samples = {name: len(per_run) for name in PER_LAYER}
    samples.update({name: 1 for name in PER_LAYER if name.startswith("vpic.") or name.endswith("_peak_mb")})
    samples.update({"cli.decode_command_s": 1, "trace.wall_s": len(walls), "trace.overhead_s": len(walls),
                    "trace.untraced_s": len(untraced)})
    return {name: (metrics.get(name), samples[name]) for name in PER_LAYER}, extra


def machine() -> dict:
    """The hardware and software the numbers were measured on."""
    def read(path: str) -> str:
        try:
            return Path(path).read_text(encoding="utf-8", errors="replace")
        except OSError:
            return ""

    cpuinfo = read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), "")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{index}/level").strip(), read(f"{index}/type").strip()
        caches[f"L{level}{kind[0].lower() if kind in ('Data', 'Instruction') else ''}"] = read(f"{index}/size").strip()
    meminfo = read("/proc/meminfo")
    mem_total = next((line.split(":", 1)[1].strip() for line in meminfo.splitlines() if line.startswith("MemTotal")), "")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "mem_total": mem_total,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        **git_state(),
    }


def git_state() -> dict:
    """Commit and dirty flag, or nulls when the checkout is not a git repository."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return {"git_sha": None, "git_dirty": None}
    if sha.returncode != 0:
        return {"git_sha": None, "git_dirty": None}
    return {"git_sha": sha.stdout.strip(), "git_dirty": bool(status.stdout.strip())}


def input_sizes(manifest: dict, work: Path) -> dict:
    sizes = {k: manifest[k] for k in ("crash_rows", "catalog_rows", "decode_vins", "service_omitted",
                                        "crash_warnings", "key_reuse_share") if k in manifest}
    sizes["bytes"] = {p.name: p.stat().st_size for p in sorted((work / "data").iterdir()) if p.is_file()}
    return sizes


def report(units: dict, measured: dict) -> None:
    for name, unit in units.items():
        value, samples = measured[name]
        shown = f"{value:>16.6g}" if value is not None else f"{'missing':>16}"
        print(f"  {name:<34} {shown} {unit:<8} ({samples} samples)")


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs for a quick check; results are not comparable")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "adasfleet" / "__init__.py").is_file():
        print(f"error: no adasfleet package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE), str(ROOT / "tests")]
    import check
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(gen.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        began = time.perf_counter()
        manifest = gen.generate(args.workload, args.seed, work, args.scale)
        for path in (work / "data").iterdir():
            if path.is_file():
                settle(path)
        generate_s = time.perf_counter() - began
        expected = check.expected_estimates(manifest)
        vehicles = json.loads((work / "vehicles.json").read_text(encoding="utf-8"))
        makes = check.expected_makes(vehicles)
        bench = Bench(args.workload, work)
        runner = run_traced if args.trace else run_untraced
        measured, extra = runner(bench, manifest, args.seconds, expected, makes)
        units = PER_LAYER if args.trace else END_TO_END

        print(f"adasfleet benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}, "
              f"{time.perf_counter() - began:.1f} s")
        report(units, measured)
        if args.trace:
            m = {name: value for name, (value, _) in measured.items()}
            if extra["missing_wrappers"]:
                print(f"  missing wrappers (their metrics are null): {', '.join(extra['missing_wrappers'])}")
            if None not in (m["trace.wall_s"], m["trace.self_sum_s"]):
                gap = m["trace.wall_s"] - m["trace.self_sum_s"]
                print(f"  self times of {', '.join(LAYERS)} cover {m['trace.self_sum_s']:.4f} s of the "
                      f"{m['trace.wall_s']:.4f} s traced wall; the {gap:.4f} s left is "
                      f"{'within' if abs(gap) <= abs(m['trace.overhead_s']) else 'outside'} the "
                      f"{m['trace.overhead_s']:.4f} s tracing overhead")
        else:
            # Reported but not gated: see README.md for why each has no bound.
            pct = extra["estimate_tail"]
            n = measured["estimate_s"][1]
            print(f"  {'estimate_tail_s':<34} " + (f"{pct[1]:>16.6g} s        (p{pct[0]:.1f} of {n} samples)" if pct
                  else f"{'n/a':>16} s        (needs 11 samples, have {n})"))
            print(f"  {'crash_rows_per_s':<34} {extra['crash_rows_per_s']:>16.6g} rows/s   ({n} samples)")
            print(f"  {'record_vins_per_s':<34} {extra['record_vins_per_s']:>16.6g} VINs/s   (1 sample)")
        print(f"  {'fail_ratio':<34} {bench.failed / max(bench.attempted, 1):>16.6g} failed/attempted "
              f"({bench.failed} of {bench.attempted})")
        for problem in bench.problems[:10]:
            print(f"  failure: {problem}")
        record = {
            "workload": args.workload, "seed": args.seed,
            "seed_set": "held_out" if args.seed in HELD_OUT_SEEDS else "tuning",
            "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
            "generate_s": generate_s, "machine": machine(), "inputs": input_sizes(manifest, work),
            "samples": {name: samples for name, (_, samples) in measured.items()}, **extra,
        }
        print("record " + json.dumps(record, sort_keys=True))
        print(json.dumps({
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _) in measured.items()},
        }))
        return 0
    finally:
        remove(work)


def settle(path: Path) -> None:
    """Commit pending file-system work on `path` to disk.

    Creating and deleting tens of thousands of cache files leaves journal
    work that would otherwise slow the next timed file writes, in this run
    or the next one. fsync on the directory acts only on this checkout.
    """
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def remove(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    parent = work.parent
    if parent.is_dir() and not any(parent.iterdir()):
        parent.rmdir()
    settle(parent if parent.is_dir() else ROOT)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
