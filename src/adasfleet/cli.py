"""Command-line surface: decode, ingest, estimate, report-forecast.

All commands read from a data directory that falls back, file by file, to
the datasets bundled with the package, so `adasfleet estimate --year 2022`
works out of the box. Exit codes: 0 success, 1 data or validation failure,
2 usage error.
"""

from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path
from types import SimpleNamespace

import click

from . import datasets, estimator, vpic
from .catalog import FeatureId, PRIORITY_FEATURES, Availability, load_catalog, text_lines
from .datasets import ActivationEntry, AdoptionSeries, FarsIngest, FleetSeries, bundled_data_dir
from .errors import AdasFleetError, EmptyCohort, IllegalYearCode
from .estimator import CAUTION_NOTES, CautionFlag, EstimatorConfig, PenetrationEstimate
from .vin import parse_vin_lenient
from .vpic import CacheMode, FixtureCache

DATA_FILES = {
    "adoption": "adoption.csv",
    "fleet": "fleet.csv",
    "activation": "activation.csv",
    "catalog": "catalog.csv",
    "fars": "fars_vehicles.csv",
}

_CACHE_DIR_NAME = "vpic_cache"
_FORMAT_CHOICE = click.Choice(["table", "csv", "json"])


def resolve(data_dir: Path | None, kind: str) -> Path:
    """User data directory first, bundled data second, per file; a data
    directory that does not exist is an error, not a fallback."""
    name = DATA_FILES[kind]
    if data_dir is not None:
        if not data_dir.is_dir():
            raise AdasFleetError(f"data directory {data_dir} does not exist")
        candidate = data_dir / name
        if candidate.exists():
            return candidate
    bundled = bundled_data_dir() / name
    if bundled.exists():
        return bundled
    raise AdasFleetError(f"no {name} in {data_dir or 'the data directory'} and none bundled")


@dataclass
class DataBundle:
    adoption: dict[FeatureId, AdoptionSeries]
    fleet: dict[FeatureId, FleetSeries]
    activation: dict[FeatureId, ActivationEntry]
    fars: FarsIngest


def load_bundle(data_dir: Path | None) -> DataBundle:
    """Load the full estimation input set with directory precedence."""
    catalog = load_catalog(resolve(data_dir, "catalog"))
    return DataBundle(
        adoption=datasets.ingest_adoption_csv(resolve(data_dir, "adoption")),
        fleet=datasets.ingest_fleet_csv(resolve(data_dir, "fleet")),
        activation=datasets.ingest_activation_csv(resolve(data_dir, "activation")),
        fars=datasets.ingest_fars_csv(resolve(data_dir, "fars"), catalog),
    )


def build_fars_series(bundle: DataBundle) -> dict[FeatureId, AdoptionSeries]:
    series = {}
    for feature in PRIORITY_FEATURES:
        try:
            series[feature] = datasets.fars_adoption_series(bundle.fars.records, feature)
        except EmptyCohort:
            continue
    return series


def _pp_text(value: Decimal) -> str:
    """Exact percentage-point text with at least one decimal: -2.0, 0.25."""
    text = format(value, "f")
    if "." not in text:
        return text + ".0"
    text = text.rstrip("0")
    return text + "0" if text.endswith(".") else text


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(row[i]) for row in [headers, *rows]) for i in range(len(headers))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() for row in [headers, *rows]]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def _json_rows(rows: list[dict[str, str]]) -> str:
    """`json.dumps(rows, indent=2)` for flat str -> str rows, byte for byte.

    Any indent makes `json.dumps` use its pure-Python encoder; this keeps the
    strings on the C escaper both encoders use.
    """
    quote = json.encoder.encode_basestring_ascii
    items = [
        "  {\n" + ",\n".join(f"    {quote(k)}: {quote(v)}" for k, v in row.items()) + "\n  }" if row else "  {}"
        for row in rows
    ]
    return "[\n" + ",\n".join(items) + "\n]" if items else "[]"


def _echo_csv(header: list[str], rows: list[list]) -> None:
    """Echo the header and the rows as CSV lines; a cell is quoted only when it holds a comma, a quote or a
    line break. `writerow` returns what `write` returns, here its record, echoed without the writer's
    default "\\r\\n" end, which is kept because it is what makes the writer quote a lone "\\r"."""
    record = csv.writer(SimpleNamespace(write=lambda text: text)).writerow
    click.echo("\n".join(record(row)[:-2] for row in [header, *rows]))


class _Cli(click.Group):
    """Ends an `AdasFleetError` from any command as one `error:` line and exit code 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except AdasFleetError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Cli, context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--data-dir", type=click.Path(file_okay=False, path_type=Path), default=None,
              help="Directory overriding bundled data files.")
@click.version_option()
@click.pass_context
def main(ctx, data_dir):
    """Estimate how much of the vehicle fleet carries and uses driver-assistance features."""
    ctx.obj = data_dir


def _decode_rows(vins: list[str], cache: FixtureCache, strict_vin: bool, vpic_url: str) -> list[dict]:
    """One row per VIN. Its status collects the row's notes (an error, warnings,
    a miss) in a list, and is joined with "; " at the end, or "ok" when empty."""
    rows, parsed = [], []
    for text in vins:
        vin, warning = parse_vin_lenient(text)
        row = {"vin": text.strip().upper(), "status": [], "model_year": "", "wmi": "",
               "make": "", "model": "", "features": ""}
        rows.append(row)
        if vin is None or (strict_vin and warning):
            row["status"].append(f"error: {warning}")
            continue
        if warning:
            row["status"].append(f"warning: {warning}")
        row["wmi"] = vin.wmi
        try:
            row["model_year"] = str(vin.model_year)
        except IllegalYearCode as exc:
            row["status"].append(f"warning: {exc}")
        parsed.append((row, vin))
    if parsed:
        records = vpic.batch_decode([vin for _, vin in parsed], cache, base_url=vpic_url)
        for (row, _), record in zip(parsed, records):
            if record.model_year is None:  # no document: a cache miss or a fetch that fell short
                row["status"].append(f"miss: {record.error_text}")
                continue
            row["make"], row["model"] = record.make, record.model
            present = [
                f"{f.value}={record.feature_flags[f].value}"
                for f in PRIORITY_FEATURES
                if record.feature_flags.get(f) in (Availability.STANDARD, Availability.OPTIONAL)
            ]
            row["features"] = ";".join(present)
    for row in rows:
        row["status"] = "; ".join(row["status"]) or "ok"
    return rows


@main.command()
@click.argument("vins", nargs=-1)
@click.option("--file", "vin_file", type=click.Path(exists=True, path_type=Path), default=None,
              help="File with one VIN per line (a leading 'vin' header line is skipped).")
@click.option("--format", "fmt", type=_FORMAT_CHOICE, default="table", show_default=True)
@click.option("--strict-vin", is_flag=True, help="Treat check-digit failures as hard errors.")
@click.option("--vpic-mode", type=click.Choice([m.value for m in CacheMode]), default="offline", show_default=True)
@click.option("--vpic-url", envvar="ADASFLEET_VPIC_URL", default=vpic.DEFAULT_BASE_URL, show_default=True)
@click.pass_obj
def decode(data_dir: Path | None, vins, vin_file, fmt, strict_vin, vpic_mode, vpic_url):
    """Parse and decode VINs; add make/model/features from the vPIC cache in <data-dir>/vpic_cache."""
    mode = CacheMode(vpic_mode)
    if mode is CacheMode.RECORD_THEN_REPLAY and data_dir is None:
        raise click.UsageError("--vpic-mode record needs --data-dir to hold its vpic_cache directory")
    collected = list(vins)
    if vin_file is not None:
        for line in text_lines(vin_file):
            cell = line.split(",")[0].strip()
            if cell and cell.lower() != "vin" and not cell.startswith("#"):
                collected.append(cell)
    if not collected:
        raise click.UsageError("no VINs given; pass them as arguments or with --file")
    cache = FixtureCache((data_dir or bundled_data_dir()) / _CACHE_DIR_NAME, mode)
    rows = _decode_rows(collected, cache, strict_vin, vpic_url)
    headers = ["vin", "status", "model_year", "wmi", "make", "model", "features"]
    if fmt == "json":
        click.echo(_json_rows(rows))
    elif fmt == "csv":
        _echo_csv(headers, [[row[h] for h in headers] for row in rows])
    else:
        click.echo(_table(headers, [[row[h] for h in headers] for row in rows]))
    if strict_vin and any(row["status"].startswith("error: ") for row in rows):
        sys.exit(1)


def _print_estimates(estimates: list[PenetrationEstimate], fmt: str) -> None:
    payload = [
        {
            "feature": est.feature.value,
            "year": est.year,
            "equipped_pct": est.equipped_pct,
            "activation_pct": est.activation_pct,
            "activated_of_fleet_pct": est.activated_of_fleet_pct,
            "provenance": est.equipped_provenance.render(),
            "cautions": sorted(flag.render() for flag in est.cautions),
        }
        for est in estimates
    ]
    if fmt == "json":
        click.echo(json.dumps({"year": estimates[0].year, "estimates": payload}, indent=2))
        return
    if fmt == "csv":
        for row in payload:
            row["cautions"] = ";".join(row["cautions"])
        _echo_csv(list(payload[0]), [list(row.values()) for row in payload])
        return
    markers: dict[str, str] = {}
    legend, rows = [], []
    for est, row in zip(estimates, payload):
        for flag in sorted(est.cautions, key=CautionFlag.render):
            caution = flag.render()
            if caution not in markers:
                markers[caution] = chr(ord("a") + len(markers))
                legend.append(f"  [{markers[caution]}] {caution}: {CAUTION_NOTES[flag.kind]}")
        flags = "".join(sorted(markers[c] for c in row["cautions"]))
        rows.append([
            est.feature.display_name,
            f"{est.equipped_pct}%" + (f" [{flags}]" if flags else ""),
            f"{est.activation_pct}%",
            f"{est.activated_of_fleet_pct}%",
            row["provenance"],
        ])
    click.echo(_table(["Technology", "Equipped", "Activated when equipped", "Activated of fleet", "Basis"], rows))
    if legend:
        click.echo("\n" + "\n".join(legend))


@main.command()
@click.option("--year", type=int, required=True)
@click.option("--format", "fmt", type=_FORMAT_CHOICE, default="table", show_default=True)
@click.option("--max-lag", type=click.IntRange(min=0), default=estimator.DEFAULT_CONFIG.max_lag,
              show_default=True, help="Largest adoption lag searched.")
@click.option("--min-overlap", type=click.IntRange(min=1), default=estimator.DEFAULT_CONFIG.min_overlap,
              show_default=True, help="Fewest overlapping years a match needs.")
@click.option("--long-lag-threshold", type=click.IntRange(min=0), default=estimator.DEFAULT_CONFIG.long_lag_threshold,
              show_default=True, help="Lag beyond which a caution is attached.")
@click.pass_obj
def estimate(data_dir: Path | None, year, fmt, max_lag, min_overlap, long_lag_threshold):
    """Per-feature equipped, activation, and activated-of-fleet percentages."""
    bundle = load_bundle(data_dir)
    estimates = estimator.estimate_table(
        year, bundle.fleet, bundle.adoption, build_fars_series(bundle), bundle.activation,
        EstimatorConfig(max_lag, min_overlap, long_lag_threshold),
    )
    _print_estimates(estimates, fmt)


@main.command()
@click.option("--kind", type=click.Choice(sorted(DATA_FILES)), required=True)
@click.argument("source", type=click.Path(exists=True, path_type=Path))
@click.pass_obj
def ingest(data_dir: Path | None, kind, source):
    """Validate a data file and print what it holds."""
    if kind in ("adoption", "fleet"):
        series = (datasets.ingest_adoption_csv if kind == "adoption" else datasets.ingest_fleet_csv)(source)
        points = sum(len(s.points) for s in series.values())
        click.echo(f"ok: {len(series)} {kind} series, {points} points")
        for s in series.values():
            gaps = datasets.missing_years(s, kind)
            if gaps:
                click.echo(f"note: {gaps}", err=True)
    elif kind == "activation":
        entries = datasets.ingest_activation_csv(source)
        click.echo(f"ok: {len(entries)} activation entries")
        missing = datasets.missing_activation(entries)
        if missing:
            click.echo(f"note: no entry for {', '.join(f.value for f in missing)}", err=True)
    elif kind == "catalog":
        catalog = load_catalog(source)
        click.echo(f"ok: {len(catalog)} catalog records")
    else:
        catalog = load_catalog(resolve(data_dir, "catalog"))
        result = datasets.ingest_fars_csv(source, catalog)
        click.echo(f"ok: {len(result.records)} vehicle records, {len(result.warnings)} warnings")
        for warning in result.warnings:
            click.echo(f"warning: {warning}", err=True)


@main.command("report-forecast")
@click.argument("predicted", type=click.Path(exists=True, path_type=Path))
@click.argument("estimated", type=click.Path(exists=True, path_type=Path))
@click.option("--year", type=int, required=True)
@click.option("--format", "fmt", type=_FORMAT_CHOICE, default="table", show_default=True)
def report_forecast(predicted, estimated, year, fmt):
    """Signed percentage-point error of predicted vs estimated equipped rates."""
    predicted_set = datasets.ingest_fleet_csv(predicted)
    estimated_set = datasets.ingest_fleet_csv(estimated)
    shared = [f for f in FeatureId if f in predicted_set and f in estimated_set]
    if not shared:
        raise AdasFleetError("the two files have no feature in common")
    errors = {f: estimator.forecast_error(predicted_set[f], estimated_set[f], year) for f in shared}
    mae = sum(abs(e) for e in errors.values()) / len(errors)
    rows = [
        {
            "feature": f.value,
            "predicted_pct": _pp_text(predicted_set[f].rate(year) * 100),
            "estimated_pct": _pp_text(estimated_set[f].rate(year) * 100),
            "error_pp": _pp_text(errors[f]),
        }
        for f in shared
    ]
    if fmt == "json":
        click.echo(json.dumps({"year": year, "rows": rows, "mean_absolute_error_pp": _pp_text(mae)}, indent=2))
    elif fmt == "csv":
        _echo_csv(
            ["feature", "year", "predicted_pct", "estimated_pct", "error_pp"],
            [[r["feature"], year, r["predicted_pct"], r["estimated_pct"], r["error_pp"]] for r in rows]
            + [["mean_absolute_error", year, "", "", _pp_text(mae)]],
        )
    else:
        click.echo(_table(
            ["Feature", "Predicted %", "Estimated %", "Error (pp)"],
            [[f.display_name, r["predicted_pct"], r["estimated_pct"], r["error_pp"]] for f, r in zip(shared, rows)],
        ))
        click.echo(f"\nMean absolute error: {_pp_text(mae)} pp")

