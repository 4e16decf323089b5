"""Command-line surface: decode, ingest, estimate, report-forecast.

All commands read from a data directory that falls back, file by file, to
the datasets bundled with the package, so `adasfleet estimate --year 2022`
works out of the box. Exit codes: 0 success, 1 data or validation failure,
2 usage error.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path

import click

from . import datasets, estimator, vpic
from .catalog import Catalog, FeatureId, PRIORITY_FEATURES, Availability, load_catalog, text_lines
from .datasets import ActivationTable, AdoptionSeries, FarsIngest, FleetSeries, bundled_data_dir
from .errors import AdasFleetError, EmptyCohort
from .estimator import CautionFlag, EstimatorConfig, PenetrationEstimate
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


@dataclass
class RunConfig:
    data_dir: Path | None = None
    strict_vin: bool = False
    output_format: str = "table"
    vpic_mode: CacheMode = CacheMode.OFFLINE
    vpic_url: str = vpic.DEFAULT_BASE_URL
    thresholds: EstimatorConfig = field(default_factory=EstimatorConfig)

    def resolve(self, kind: str) -> Path:
        """User data directory first, bundled data second, per file."""
        name = DATA_FILES[kind]
        if self.data_dir is not None:
            candidate = Path(self.data_dir) / name
            if candidate.exists():
                return candidate
        bundled = bundled_data_dir() / name
        if bundled.exists():
            return bundled
        raise AdasFleetError(f"no {name} in {self.data_dir or 'the data directory'} and none bundled")


@dataclass
class DataBundle:
    adoption: dict[FeatureId, AdoptionSeries]
    fleet: dict[FeatureId, FleetSeries]
    activation: ActivationTable
    catalog: Catalog
    fars: FarsIngest


def load_bundle(config: RunConfig) -> DataBundle:
    """Load the full estimation input set with directory precedence.

    Published series are isolated data points by nature, so gaps between
    years are allowed here; strict contiguity applies to `ingest` instead.
    """
    catalog = load_catalog(config.resolve("catalog"))
    return DataBundle(
        adoption=datasets.ingest_adoption_csv(config.resolve("adoption"), allow_gaps=True),
        fleet=datasets.ingest_fleet_csv(config.resolve("fleet"), allow_gaps=True),
        activation=datasets.ingest_activation_csv(config.resolve("activation")),
        catalog=catalog,
        fars=datasets.ingest_fars_csv(config.resolve("fars"), catalog),
    )


def build_fars_series(bundle: DataBundle) -> dict[FeatureId, AdoptionSeries]:
    series = {}
    for feature in PRIORITY_FEATURES:
        try:
            series[feature] = datasets.fars_adoption_series(bundle.fars.records, feature)
        except EmptyCohort:
            continue
    return series


def _render_cautions(cautions: frozenset[CautionFlag]) -> list[str]:
    return sorted(flag.render() for flag in cautions)


def _pp_text(value: Decimal) -> str:
    """Exact percentage-point text with at least one decimal: -2.0, 0.25."""
    text = format(value, "f")
    if "." not in text:
        return text + ".0"
    text = text.rstrip("0")
    return text + "0" if text.endswith(".") else text


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _echo_error(exc: Exception) -> None:
    click.echo(f"error: {exc}", err=True)


pass_config = click.make_pass_decorator(RunConfig, ensure=True)


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.option("--data-dir", type=click.Path(path_type=Path), default=None, help="Directory overriding bundled data files.")
@click.option("--format", "output_format", type=click.Choice(["table", "csv", "json"]), default="table", show_default=True)
@click.option("--strict-vin", is_flag=True, help="Treat check-digit failures as hard errors.")
@click.option("--vpic-mode", type=click.Choice([m.value for m in CacheMode]), default="offline", show_default=True)
@click.option("--vpic-url", envvar="ADASFLEET_VPIC_URL", default=vpic.DEFAULT_BASE_URL, show_default=True)
@click.version_option()
@click.pass_context
def main(ctx, data_dir, output_format, strict_vin, vpic_mode, vpic_url):
    """Estimate how much of the vehicle fleet carries and uses driver-assistance features."""
    ctx.obj = RunConfig(
        data_dir=data_dir,
        strict_vin=strict_vin,
        output_format=output_format,
        vpic_mode=CacheMode(vpic_mode),
        vpic_url=vpic_url,
    )


def _decode_rows(vins: list[str], config: RunConfig) -> tuple[list[dict], bool]:
    cache = FixtureCache(Path(config.data_dir or bundled_data_dir()) / _CACHE_DIR_NAME, config.vpic_mode)
    rows, any_failed, parsed = [], False, []
    for text in vins:
        vin, warning = parse_vin_lenient(text)
        row = {"vin": text.strip().upper(), "status": "ok", "model_year": "", "wmi": "",
               "make": "", "model": "", "features": ""}
        if vin is None or (config.strict_vin and warning):
            row["status"] = f"error: {warning}"
            any_failed = True
            rows.append(row)
            continue
        if warning:
            row["status"] = f"warning: {warning}"
        row["wmi"] = vin.wmi
        try:
            row["model_year"] = str(vin.model_year)
        except AdasFleetError as exc:
            row["status"] = f"warning: {exc}"
        parsed.append((row, vin.raw))
        rows.append(row)
    if parsed:
        records = vpic.batch_decode([raw for _, raw in parsed], cache, base_url=config.vpic_url)
        for (row, _), record in zip(parsed, records):
            if record.error_text is not None and not record.make:
                continue
            row["make"], row["model"] = record.make, record.model
            present = [
                f"{f.value}={record.feature_flags[f].value}"
                for f in PRIORITY_FEATURES
                if record.feature_flags.get(f) in (Availability.STANDARD, Availability.OPTIONAL)
            ]
            row["features"] = ";".join(present)
    return rows, any_failed


@main.command()
@click.argument("vins", nargs=-1)
@click.option("--file", "vin_file", type=click.Path(exists=True, path_type=Path), default=None,
              help="File with one VIN per line (a leading 'vin' header line is skipped).")
@click.option("--format", "output_format", type=click.Choice(["table", "csv", "json"]), default=None)
@click.option("--strict-vin", is_flag=True, default=None)
@pass_config
def decode(config: RunConfig, vins, vin_file, output_format, strict_vin):
    """Parse and decode VINs; add make/model/features from the vPIC cache in <data-dir>/vpic_cache."""
    if config.vpic_mode is CacheMode.RECORD_THEN_REPLAY and config.data_dir is None:
        raise click.UsageError("--vpic-mode record needs --data-dir to hold its vpic_cache directory")
    collected = list(vins)
    if strict_vin:
        config.strict_vin = True
    fmt = output_format or config.output_format
    try:
        if vin_file is not None:
            for line in text_lines(vin_file):
                cell = line.split(",")[0].strip()
                if cell and cell.lower() != "vin" and not cell.startswith("#"):
                    collected.append(cell)
        if not collected:
            raise click.UsageError("no VINs given; pass them as arguments or with --file")
        rows, any_failed = _decode_rows(collected, config)
    except AdasFleetError as exc:
        _echo_error(exc)
        sys.exit(1)
    headers = ["vin", "status", "model_year", "wmi", "make", "model", "features"]
    if fmt == "json":
        click.echo(json.dumps(rows, indent=2))
    elif fmt == "csv":
        click.echo(",".join(headers))
        for row in rows:
            click.echo(",".join(row[h] for h in headers))
    else:
        click.echo(_table(headers, [[row[h] for h in headers] for row in rows]))
    if any_failed and config.strict_vin:
        sys.exit(1)


_CAUTION_NOTES = {
    "analog_under_mandate": "analog fleet rate read from a year at or after its mandate announcement",
    "long_lag": "lag exceeds the long-lag threshold (years)",
    "optional_share_divergence": "standard/optional mix differs at the matched years (pp)",
    "small_overlap": "match rests on few overlapping years",
}


def _estimate_payload(estimates: list[PenetrationEstimate]) -> list[dict]:
    return [
        {
            "feature": est.feature.value,
            "year": est.year,
            "equipped_pct": est.equipped_pct,
            "activation_pct": est.activation_pct,
            "activated_of_fleet_pct": est.activated_of_fleet_pct,
            "provenance": est.equipped_provenance.render(),
            "cautions": _render_cautions(est.cautions),
        }
        for est in estimates
    ]


def _print_estimates(estimates: list[PenetrationEstimate], fmt: str) -> None:
    payload = _estimate_payload(estimates)
    if fmt == "json":
        click.echo(json.dumps({"year": estimates[0].year, "estimates": payload}, indent=2))
        return
    if fmt == "csv":
        click.echo("feature,year,equipped_pct,activation_pct,activated_of_fleet_pct,provenance,cautions")
        for row in payload:
            click.echo(
                f"{row['feature']},{row['year']},{row['equipped_pct']},{row['activation_pct']},"
                f"{row['activated_of_fleet_pct']},{row['provenance']},{';'.join(row['cautions'])}"
            )
        return
    markers: dict[str, str] = {}
    rows = []
    for est, row in zip(estimates, payload):
        for caution in row["cautions"]:
            markers.setdefault(caution, chr(ord("a") + len(markers)))
        flags = "".join(sorted(markers[c] for c in row["cautions"]))
        rows.append([
            est.feature.display_name,
            f"{est.equipped_pct}%" + (f" [{flags}]" if flags else ""),
            f"{est.activation_pct}%",
            f"{est.activated_of_fleet_pct}%",
            row["provenance"],
        ])
    click.echo(_table(["Technology", "Equipped", "Activated when equipped", "Activated of fleet", "Basis"], rows))
    if markers:
        click.echo("")
        for caution, mark in sorted(markers.items(), key=lambda kv: kv[1]):
            kind = caution.split("(")[0]
            click.echo(f"  [{mark}] {caution}: {_CAUTION_NOTES.get(kind, kind)}")


@main.command()
@click.option("--year", type=int, required=True)
@click.option("--format", "output_format", type=click.Choice(["table", "csv", "json"]), default=None)
@click.option("--max-lag", type=int, default=None, help="Largest adoption lag searched.")
@click.option("--min-overlap", type=int, default=None, help="Fewest overlapping years a match needs.")
@click.option("--long-lag-threshold", type=int, default=None, help="Lag beyond which a caution is attached.")
@pass_config
def estimate(config: RunConfig, year, output_format, max_lag, min_overlap, long_lag_threshold):
    """Per-feature equipped, activation, and activated-of-fleet percentages."""
    fmt = output_format or config.output_format
    overrides = {}
    if max_lag is not None:
        overrides["max_lag"] = max_lag
    if min_overlap is not None:
        overrides["min_overlap"] = min_overlap
    if long_lag_threshold is not None:
        overrides["long_lag_threshold"] = long_lag_threshold
    if overrides:
        config.thresholds = dataclasses.replace(config.thresholds, **overrides)
    try:
        bundle = load_bundle(config)
        missing = bundle.activation.missing_priority()
        if missing:
            raise AdasFleetError(
                f"activation table lacks entries for: {', '.join(f.value for f in missing)}"
            )
        estimates = estimator.estimate_table(
            year,
            bundle.fleet,
            bundle.adoption,
            build_fars_series(bundle),
            bundle.activation,
            config.thresholds,
        )
    except AdasFleetError as exc:
        _echo_error(exc)
        if getattr(exc, "hint", None):
            click.echo(
                "hint: supply a fleet or adoption series covering the requested year, "
                "or crash records for the feature, via --data-dir",
                err=True,
            )
        sys.exit(1)
    _print_estimates(estimates, fmt)


@main.command()
@click.option("--kind", type=click.Choice(sorted(DATA_FILES)), required=True)
@click.argument("source", type=click.Path(exists=True, path_type=Path))
@pass_config
def ingest(config: RunConfig, kind, source):
    """Validate a data file and print what it holds."""
    try:
        if kind == "adoption":
            series = datasets.ingest_adoption_csv(source)
            points = sum(len(s.points) for s in series.values())
            click.echo(f"ok: {len(series)} adoption series, {points} points")
        elif kind == "fleet":
            series = datasets.ingest_fleet_csv(source)
            points = sum(len(s.points) for s in series.values())
            click.echo(f"ok: {len(series)} fleet series, {points} points")
        elif kind == "activation":
            table = datasets.ingest_activation_csv(source)
            click.echo(f"ok: {len(table.entries)} activation entries")
            missing = table.missing_priority()
            if missing:
                click.echo(f"note: no entry for {', '.join(f.value for f in missing)}", err=True)
        elif kind == "catalog":
            catalog = load_catalog(source)
            click.echo(f"ok: {len(catalog)} catalog records")
        else:
            catalog = load_catalog(config.resolve("catalog"))
            result = datasets.ingest_fars_csv(source, catalog)
            click.echo(f"ok: {len(result.records)} vehicle records, {result.warning_count} warnings")
            for warning in result.warnings:
                click.echo(f"warning: {warning}", err=True)
    except AdasFleetError as exc:
        _echo_error(exc)
        sys.exit(1)


@main.command("report-forecast")
@click.argument("predicted", type=click.Path(exists=True, path_type=Path))
@click.argument("estimated", type=click.Path(exists=True, path_type=Path))
@click.option("--year", type=int, required=True)
@click.option("--format", "output_format", type=click.Choice(["table", "csv", "json"]), default=None)
@pass_config
def report_forecast(config: RunConfig, predicted, estimated, year, output_format):
    """Signed percentage-point error of predicted vs estimated equipped rates."""
    fmt = output_format or config.output_format
    try:
        predicted_set = datasets.ingest_fleet_csv(predicted, allow_gaps=True)
        estimated_set = datasets.ingest_fleet_csv(estimated, allow_gaps=True)
        shared = [f for f in FeatureId if f in predicted_set and f in estimated_set]
        if not shared:
            raise AdasFleetError("the two files have no feature in common")
        errors = {f: estimator.forecast_error(predicted_set[f], estimated_set[f], year) for f in shared}
    except AdasFleetError as exc:
        _echo_error(exc)
        sys.exit(1)
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
        click.echo("feature,year,predicted_pct,estimated_pct,error_pp")
        for row in rows:
            click.echo(f"{row['feature']},{year},{row['predicted_pct']},{row['estimated_pct']},{row['error_pp']}")
        click.echo(f"mean_absolute_error,{year},,,{_pp_text(mae)}")
    else:
        click.echo(_table(
            ["Feature", "Predicted %", "Estimated %", "Error (pp)"],
            [[FeatureId(r["feature"]).display_name, r["predicted_pct"], r["estimated_pct"], r["error_pp"]] for r in rows],
        ))
        click.echo(f"\nMean absolute error: {_pp_text(mae)} pp")


if __name__ == "__main__":
    main()
