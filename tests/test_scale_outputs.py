"""Every byte of the CLI's outputs on a generated crash file near 2,800 vehicles.

The bundled crash file has 100 vehicles of one model year and gives no
warnings, so `tests/golden/` exercises one cohort year and no warning text.
This module generates perfbench's `fars_140k` inputs at scale 0.02 (2,778
crash rows over 20 model years, 37 warnings, a 7,567-row catalog) and pins
stdout, stderr and exit code of `estimate`, `ingest --kind fars` and a
replayed `decode` against `tests/golden/scale/`.

The generated files are pinned by sha256, so a change to `perfbench/gen.py`
shows up as a generator change and not as a program regression. The
crash-cohort rows are also checked against perfbench's independent
reference, so the goldens do not merely freeze today's output.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from adasfleet import vpic
from adasfleet.cli import main
from adasfleet.datasets import bundled_data_dir

from oracles import data_dir_files, oracle_estimate_table

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden" / "scale"

GENERATED_SHA256 = {
    "data/catalog.csv": "c452aba26c432c69b5c2e7046ea4bbbfa616d6bd55867847acfbda7f0b0214b3",
    "data/fars_vehicles.csv": "0ecf5d0bc29ee9436b79fae28572847dd69ea53de8c6b7dfd484aea5c9854b71",
    "data/vins.csv": "d1ffd217d6d2faa755283160bc8d32bf534a76c8806fee36ed92c53f75bb4115",
    "manifest.json": "013cfe8a050d6debff855fa8f11be39f9cf4b076f5a62d23e32c6395464c37cf",
    "vehicles.json": "1c099438bfa11d8d5cfe5239a8722effbe29e936fb65a8c012f411885d9e3cce",
}


@pytest.fixture(scope="module")
def scale(tmp_path_factory):
    """(output dir, manifest, sha256 per generated file) of `fars_140k` seed 1 at scale 0.02,
    with its decode VINs then recorded into the cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        import gen
    out = tmp_path_factory.mktemp("scale")
    manifest = gen.generate("fars_140k", 1, out, scale=0.02)
    vehicles = json.loads((out / "vehicles.json").read_text(encoding="utf-8"))
    hashes = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.rglob("*")) if p.is_file()}
    cache = vpic.FixtureCache(out / "data" / "vpic_cache", vpic.CacheMode.RECORD_THEN_REPLAY)
    vpic.batch_decode([v["vin"] for v in vehicles], cache, transport=gen.service_transport(vehicles))
    return out, manifest, hashes


def test_generated_inputs_are_the_pinned_files(scale):
    _, manifest, hashes = scale
    assert hashes == GENERATED_SHA256
    assert (manifest["crash_rows"], manifest["crash_warnings"], manifest["catalog_rows"]) == (2778, 37, 7567)


@pytest.mark.parametrize("args, stdout, stderr", [
    (["estimate", "--year", "2022", "--format", "table"], "estimate_2022_table.txt", None),
    (["estimate", "--year", "2022", "--format", "csv"], "estimate_2022.csv", None),
    (["estimate", "--year", "2022", "--format", "json"], "estimate_2022.json", None),
    (["ingest", "--kind", "fars", "{data}/fars_vehicles.csv"], "ingest_fars.txt", "ingest_fars_warnings.txt"),
    (["decode", "--file", "{data}/vins.csv", "--format", "json"], "decode.json", None),
])
def test_output_matches_golden(scale, args, stdout, stderr):
    """stdout, stderr and exit code, byte for byte; stderr is empty where no golden names it."""
    data = scale[0] / "data"
    result = CliRunner().invoke(main, ["--data-dir", str(data), *(a.format(data=data) for a in args)])
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (GOLDEN / stdout).read_bytes()
    assert result.stderr_bytes == ((GOLDEN / stderr).read_bytes() if stderr else b"")


def test_crash_cohort_rows_match_the_independent_reference(scale, monkeypatch):
    """The LCA and PAEB rows come from the generated cohorts; perfbench's reference recomputes them."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import check

    out, manifest, _ = scale
    expected = check.crash_cohort_reference(manifest["cohort_counts"])
    assert set(expected) == {"lane_centering_assist", "pedestrian_automatic_emergency_braking"}
    result = CliRunner().invoke(main, ["--data-dir", str(out / "data"), "estimate", "--year", "2022", "--format", "json"])
    rows = json.loads(result.stdout)["estimates"]
    got = {r["feature"]: (r["equipped_pct"], r["activation_pct"], r["activated_of_fleet_pct"], r["provenance"])
           for r in rows if r["feature"] in expected}
    assert got == expected


def test_estimate_equals_the_whole_table_oracle(scale):
    data = scale[0] / "data"
    result = CliRunner().invoke(main, ["--data-dir", str(data), "estimate", "--year", "2022", "--format", "json"])
    assert result.exit_code == 0, result.output
    files = data_dir_files(data, bundled_data_dir())
    assert json.loads(result.stdout)["estimates"] == oracle_estimate_table(files, 2022, 25, 1, 8)
