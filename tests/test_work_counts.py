"""Exact work counts of `estimate` and `ingest --kind fars` on perfbench's generated `fars_140k`
inputs, and of `decode` on its `vpic_20k` inputs, each at two small scales.

Counts, unlike wall times, do not depend on the machine, so they can gate
the per-row paths: one VIN parse per crash row that the batch VIN check
flags and none for the others, one catalog lookup per feature per distinct
vehicle key, no per-row record on the way to the
table, one read of each input file, and for `decode` one VIN parse per
VIN, one cache read per structurally valid VIN and no cache write. Each
bound is a formula over the generated input file, which the test reads
itself.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from adasfleet import catalog, cli, datasets, vpic
from adasfleet.catalog import Catalog, FeatureId
from adasfleet.cli import main

from oracles import CHAR_VALUES, YEAR_CODE_TABLE, oracle_check_digit, oracle_model_year

ROOT = Path(__file__).resolve().parent.parent


def crash_file_work(path: Path) -> tuple[int, int, int]:
    """(crash rows, distinct resolvable (make, model, model year) keys, flagged rows) of a
    `vin,crash_year,make,model` file. A row is flagged unless it has a make, a model and a VIN of 17 legal
    upper-case characters with a legal year code and the right check digit."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if line and not line.startswith("#")]
    assert lines[0] == "vin,crash_year,make,model"
    keys, flagged = set(), 0
    for line in lines[1:]:
        vin, _, make, model = line.split(",")
        if make and model and len(vin) == 17 and all(c in CHAR_VALUES for c in vin) and vin[9] in YEAR_CODE_TABLE:
            keys.add((make, model, oracle_model_year(vin[9], vin[6])))
            flagged += oracle_check_digit(vin) != vin[8]
        else:
            flagged += 1
    return len(lines) - 1, len(keys), flagged


def counting(monkeypatch, owner, name: str) -> list[int]:
    """Replace `owner.name` with a wrapper that counts its calls; the count is the list's one item."""
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def perfbench_gen(monkeypatch):
    with monkeypatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        import gen
    return gen


@pytest.mark.parametrize("args", [
    ["estimate", "--year", "2022", "--format", "json"],
    ["ingest", "--kind", "fars", "{data}/fars_vehicles.csv"],
])
@pytest.mark.parametrize("scale", [0.02, 0.04])
def test_each_row_is_parsed_once_and_each_key_looked_up_once_per_feature(scale, args, tmp_path, monkeypatch):
    perfbench_gen(monkeypatch).generate("fars_140k", 1, tmp_path, scale=scale)
    data = tmp_path / "data"
    rows, keys, flagged = crash_file_work(data / "fars_vehicles.csv")
    lookups = counting(monkeypatch, Catalog, "lookup_availability")
    parses = counting(monkeypatch, datasets, "parse_vin_lenient")
    records = counting(monkeypatch, datasets, "VehicleRecord")
    reads = counting(monkeypatch, catalog, "text_lines")

    result = CliRunner().invoke(main, ["--data-dir", str(data), *(a.format(data=data) for a in args)])

    assert result.exit_code == 0, result.output
    assert keys < rows  # the generated keys repeat, so per-row and per-key work differ
    assert lookups[0] == keys * len(FeatureId)
    assert 0 < flagged < rows and parses[0] == flagged  # only the flagged rows are parsed one by one
    assert records[0] == 0
    # One read per input: catalog, adoption, fleet, activation, crash file; `ingest` reads the first and last.
    assert reads[0] == {"estimate": 5, "ingest": 2}[args[0]]


def vin_file_work(path: Path) -> tuple[int, int]:
    """(VINs, structurally valid VINs) of a `vin` file: 17 characters, each with a transliteration value."""
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "vin"
    vins = [line.strip().upper() for line in lines[1:]]
    return len(vins), sum(len(vin) == 17 and all(c in CHAR_VALUES for c in vin) for vin in vins)


@pytest.mark.parametrize("scale", [0.02, 0.04])
def test_decode_parses_each_vin_once_and_reads_each_valid_vin_from_the_cache_once(scale, tmp_path, monkeypatch):
    gen = perfbench_gen(monkeypatch)
    gen.generate("vpic_20k", 1, tmp_path, scale=scale)
    data = tmp_path / "data"
    vehicles = json.loads((tmp_path / "vehicles.json").read_text(encoding="utf-8"))
    recorder = vpic.FixtureCache(data / "vpic_cache", vpic.CacheMode.RECORD_THEN_REPLAY)
    vpic.batch_decode([v["vin"] for v in vehicles], recorder, transport=gen.service_transport(vehicles))
    vins, valid = vin_file_work(data / "vins.csv")
    parses = [counting(monkeypatch, cli, "parse_vin_lenient"), counting(monkeypatch, vpic, "parse_vin_lenient"),
              counting(monkeypatch, vpic, "parse_vin")]
    loads = counting(monkeypatch, vpic.FixtureCache, "load")
    stores = counting(monkeypatch, vpic.FixtureCache, "store")

    result = CliRunner().invoke(main, ["--data-dir", str(data), "decode", "--file", str(data / "vins.csv"),
                                       "--format", "json"])

    assert result.exit_code == 0, result.output
    assert len(json.loads(result.output)) == vins
    assert sum(calls[0] for calls in parses) == vins
    assert loads[0] == valid
    assert stores[0] == 0
