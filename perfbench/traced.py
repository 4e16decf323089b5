"""Traced child process: runs one phase of a workload with timing wrappers.

The wrappers are installed from outside the package, on the names the
package looks functions up by (for example `datasets.parse_vin_lenient`,
which `ingest_fars_csv` calls through its module globals). Coarse calls are
recorded as spans (name, start, end, parent, run id); hot calls such as
catalog lookups are aggregated per (name, root span) so that 1.4M lookups
do not become 1.4M records. Both are kept in memory and written out once,
at the end, as JSON. A wrapper whose target no longer exists is listed
under "missing" in that JSON, so run.py reports its metrics as missing
rather than as zero.

Usage (run from the checkout root; run.py does this):

    python3 perfbench/traced.py estimate|decode|memory WORK_DIR OUT.json CLI_ARGS_JSON
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]


class Tracer:
    """Spans and aggregated leaf calls with exact self-time accounting.

    Every open call owns a frame whose first slot accumulates the time of
    its children, so self time = duration - children, and the self times
    of all spans and leaves under a root add up to the root's duration.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.leaves: dict[tuple[str, str], list] = {}  # (name, root) -> [calls, total, self]
        self.counts: dict[tuple[str, str], int] = {}   # (name, root) -> n
        self.hook_s = 0.0  # time in the wrappers' own counting hooks, outside every layer
        self.missing: list[str] = []  # names of wrappers whose target was not found
        self.tables: dict = {}  # side tables the counting hooks fill; see install()
        self._stack: list[list] = []

    @property
    def root(self) -> str:
        return self._stack[0][1] if self._stack else "-"

    def count(self, name: str, n: int = 1) -> None:
        key = (name, self.root)
        self.counts[key] = self.counts.get(key, 0) + n

    def span(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1][2] if self._stack else None
        frame = [0.0, name, len(self.spans)]
        self.spans.append({"name": name, "parent": parent, "run_id": self.run_id})
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][0] += end - start
            self.spans[frame[2]].update(start=start, end=end, self=end - start - frame[0])

    def _hook(self, hook, args, kwargs, result) -> None:
        """Run a counting hook and keep its time out of the caller's self time."""
        start = time.perf_counter()
        hook(args, kwargs, result)
        duration = time.perf_counter() - start
        self.hook_s += duration
        if self._stack:
            self._stack[-1][0] += duration

    def target(self, owner, attr: str, name: str):
        """The function a wrapper named `name` would wrap, or None, listed as missing."""
        fn = getattr(owner, attr, None)
        if fn is None and name not in self.missing:
            self.missing.append(name)
        return fn

    def wrap_span(self, owner, attr: str, name: str, on_result=None) -> None:
        fn = self.target(owner, attr, name)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if on_result is not None:
                self._hook(on_result, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def wrap_leaf(self, owner, attr: str, name: str, on_call=None) -> None:
        fn = self.target(owner, attr, name)
        if fn is None:
            return
        stack, leaves, clock = self._stack, self.leaves, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                key = (name, stack[0][1] if stack else "-")
                agg = leaves.get(key)
                if agg is None:
                    agg = leaves[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
            if on_call is not None:
                self._hook(on_call, args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "leaves": [[name, root, *agg] for (name, root), agg in self.leaves.items()],
            "counts": [[name, root, n] for (name, root), n in self.counts.items()],
            "hook_s": self.hook_s,
            "missing": self.missing,
        }


def install(tracer: Tracer) -> list[str]:
    """Wrap each layer's public functions where the package looks them up.

    Returns the names of the wrappers it could not place. The side tables
    the hooks fill, catalog lookup keys (for hit and reuse ratios) and the
    catalogs seen, are left in `tracer.tables`.
    """
    from adasfleet import catalog, cli, datasets, estimator, vpic

    keys: dict[tuple, int] = {}
    catalogs: list = []

    def on_lookup(args, kwargs, result):
        if len(args) != 5:
            return
        cat, make, model, year, feature = args
        key = (make.strip().lower(), model.strip().lower(), year, feature)
        keys[key] = keys.get(key, 0) + 1

    def on_parse(args, kwargs, result):
        vin, warning = result
        if vin is not None and warning is not None:
            tracer.count("vin.check_digit_warnings")

    def on_catalog(args, kwargs, result):
        catalogs.append(result)
        tracer.count("catalog.rows", len(result))

    def on_fars(args, kwargs, result):
        tracer.count("datasets.fars_rows", len(result.records))
        tracer.count("datasets.fars_warnings", len(result.warnings))

    def on_fraction(args, kwargs, result):
        records = args[0] if args else kwargs["records"]
        tracer.count("datasets.cohort_records_scanned", len(records))

    def on_load(args, kwargs, result):
        if result is not None:
            tracer.count("vpic.load_hits")

    tracer.wrap_span(cli, "load_bundle", "cli.load_bundle")
    tracer.wrap_span(cli, "build_fars_series", "cli.build_fars_series")
    tracer.wrap_span(cli, "load_catalog", "catalog.load_catalog", on_catalog)
    tracer.wrap_leaf(catalog.Catalog, "lookup_availability", "catalog.lookup_availability", on_lookup)
    for owner in (datasets, cli, vpic):
        tracer.wrap_leaf(owner, "parse_vin_lenient", "vin.parse_vin_lenient", on_parse)
    tracer.wrap_leaf(vpic, "parse_vin", "vin.parse_vin")
    for reader in ("ingest_adoption_csv", "ingest_fleet_csv", "ingest_activation_csv"):
        tracer.wrap_span(datasets, reader, "datasets.series_read")
    tracer.wrap_span(datasets, "ingest_fars_csv", "datasets.ingest_fars_csv", on_fars)
    tracer.wrap_span(datasets, "fars_adoption_series", "datasets.fars_adoption_series")
    tracer.wrap_leaf(datasets, "fars_availability_fraction", "datasets.fars_availability_fraction", on_fraction)
    tracer.wrap_span(estimator, "estimate_table", "estimator.estimate_table")
    _wrap_match_lag(tracer, estimator)
    tracer.wrap_span(vpic, "batch_decode", "vpic.batch_decode")
    tracer.wrap_leaf(vpic.FixtureCache, "load", "vpic.load", on_load)
    tracer.wrap_leaf(vpic.FixtureCache, "store", "vpic.store")
    tracer.wrap_leaf(vpic, "normalize_vpic_record", "vpic.normalize_vpic_record")
    tracer.wrap_leaf(vpic, "load_variable_map", "vpic.load_variable_map")
    tracer.tables = {"keys": keys, "catalogs": catalogs}
    return tracer.missing


def _wrap_match_lag(tracer: Tracer, estimator) -> None:
    """Time match_lag and count the (analog, lag) pairs its admissible filter sees."""
    fn = tracer.target(estimator, "match_lag", "estimator.match_lag")
    if fn is None:
        return

    def counted(admissible):
        def check(feature, lag):
            ok = admissible(feature, lag)
            tracer.count("estimator.pairs_tried")
            tracer.count("estimator.pairs_admissible", bool(ok))
            return ok
        return check

    def match_lag(*args, **kwargs):
        if len(args) > 3 and args[3] is not None:
            args = (*args[:3], counted(args[3]), *args[4:])
        elif kwargs.get("admissible") is not None:
            kwargs["admissible"] = counted(kwargs["admissible"])
        return fn(*args, **kwargs)

    estimator.match_lag = match_lag
    tracer.wrap_leaf(estimator, "match_lag", "estimator.match_lag")


def _lookup_summary(tracer: Tracer) -> dict:
    """Catalog hit ratio and key reuse from the recorded lookup keys.

    The hit count needs each catalog's `records`; without them it is None
    and "catalog.Catalog.records" is listed as missing.
    """
    keys = tracer.tables["keys"]
    calls = sum(keys.values())
    known = set()
    for cat in tracer.tables["catalogs"]:
        records = getattr(cat, "records", None)
        if records is None:
            tracer.missing.append("catalog.Catalog.records")
            return {"lookup_calls": calls, "lookup_hits": None, "lookup_first_seen": len(keys)}
        for rec in records:
            known.add((rec.make.strip().lower(), rec.model.strip().lower(), rec.model_year, rec.feature))
    hits = sum(n for key, n in keys.items() if key in known)
    return {"lookup_calls": calls, "lookup_hits": hits, "lookup_first_seen": len(keys)}


def _invoke(tracer: Tracer, args: list[str]) -> dict:
    from click.testing import CliRunner

    from adasfleet import cli

    result = tracer.span("cli.command", CliRunner().invoke, cli.main, args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return {"exit_code": result.exit_code, "output": result.output}


def _import_cli(tracer: Tracer) -> None:
    import importlib

    tracer.span("cli.import", importlib.import_module, "adasfleet.cli")


def run_estimate(work: Path, cli_args: list[str]) -> dict:
    tracer = Tracer(f"estimate-{os.getpid()}")
    _import_cli(tracer)
    install(tracer)
    outcome = _invoke(tracer, cli_args)
    lookups = _lookup_summary(tracer)
    return {**tracer.dump(), **outcome, "lookups": lookups}


def run_decode(work: Path, cli_args: list[str]) -> dict:
    """Record the workload's VINs through the fake service, then replay them with `decode`."""
    import shutil

    import gen

    tracer = Tracer(f"decode-{os.getpid()}")
    _import_cli(tracer)
    from adasfleet import vpic

    vehicles = json.loads((work / "vehicles.json").read_text(encoding="utf-8"))
    cache_dir = work / "data" / "vpic_cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir()
    transport = gen.service_transport(vehicles)
    install(tracer)
    cache = vpic.FixtureCache(cache_dir, vpic.CacheMode.RECORD_THEN_REPLAY)
    records = vpic.batch_decode([v["vin"] for v in vehicles], cache, transport=transport)
    bytes_written = sum(p.stat().st_size for p in cache_dir.iterdir())
    outcome = _invoke(tracer, cli_args)
    return {**tracer.dump(), **outcome, "bytes_written": bytes_written,
            "record_makes": [r.make for r in records]}


def run_memory(work: Path, cli_args: list[str]) -> dict:
    """Peak traced allocation of each heavy stage, with tracemalloc on.

    A stage's peak is the highest traced memory during the call minus the
    memory traced when it started, so earlier stages' data is not counted.
    Peaks are keyed by the metric they give.
    """
    import importlib
    import tracemalloc

    importlib.import_module("adasfleet.cli")
    from adasfleet import cli, datasets

    peaks: dict[str, int] = {}
    tracer = Tracer(f"memory-{os.getpid()}")

    def wrap(owner, attr, name):
        fn = tracer.target(owner, attr, name)
        if fn is None:
            return

        def wrapper(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = max(peaks.get(name, 0), tracemalloc.get_traced_memory()[1] - base)

        setattr(owner, attr, wrapper)

    wrap(cli, "load_catalog", "catalog.load_peak_mb")
    wrap(datasets, "ingest_fars_csv", "datasets.ingest_fars_peak_mb")
    wrap(datasets, "fars_adoption_series", "datasets.cohort_series_peak_mb")
    tracemalloc.start()
    try:
        outcome = _invoke(tracer, cli_args)
    finally:
        tracemalloc.stop()
    return {**outcome, "peaks": peaks, "missing": tracer.missing}


PHASES = {"estimate": run_estimate, "decode": run_decode, "memory": run_memory}


def main(argv: list[str]) -> int:
    phase, work, out, cli_args = argv
    result = PHASES[phase](Path(work), json.loads(cli_args))
    Path(out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
