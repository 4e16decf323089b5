"""Seeded inputs for the benchmark workloads.

`generate(workload, seed, out)` writes everything a workload reads into
`out` and returns a manifest of what it wrote and what the program should
make of it. The same seed gives byte-identical files. Nothing is written
into the package's own data directory.

Layout of `out`:

    data/                the --data-dir the CLI is pointed at
      catalog.csv        fars_140k only
      fars_vehicles.csv  fars_140k only
      vins.csv           VINs for `decode --file`
      vpic_cache/        created empty: `decode` skips the cache without it
    vehicles.json        what the fake vPIC service knows about each VIN
    manifest.json        sizes, expected cohort counts, key-reuse share

VINs follow the trick in scripts/make_bundled_data.py: draft the VIN with a
placeholder check digit, then substitute `compute_check_digit(draft)`.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from adasfleet.catalog import DEFAULT_COVERAGE_FLOOR, FeatureId, PRIORITY_FEATURES
from adasfleet.datasets import bundled_data_dir
from adasfleet.vin import compute_check_digit, encode_model_year

WORKLOADS = ("bundled_cli", "fars_140k", "vpic_20k")

# Criterion 4 of the acceptance suite uses the real FARS vehicle count.
FARS_VEHICLES = 138_899
# The crash VINs the fars_140k workload also decodes; small, so the
# estimate keeps dominating that workload.
FARS_DECODE_VINS = 2_000
VPIC_VINS = 20_000

MODEL_YEARS = tuple(range(2003, 2023))
CRASH_YEAR = 2022
# The traffic shape below is an assumption, not a property of FARS: no FARS
# tabulation is at hand to derive it from. 1,200 pairs, a popularity of
# 1/(rank+1)^0.9 and model-year weights rising 8% a year give about 85% of
# rows a (make, model, model year) key seen earlier; the manifest records
# the exact share. bundled_cli is the counterpart with no key reuse.
MAKES = 40
MODELS_PER_MAKE = 30  # 1,200 (make, model) pairs
POPULARITY_EXPONENT = 0.9
YEAR_WEIGHT_STEP = 0.08

# Fixed shares of defects. They are part of the workload, not tuning knobs:
# resizing them to hide a defect is not allowed.
CATALOG_GAP_SHARE = 0.05          # (pair, year, feature) rows left out of the catalog
CHECK_DIGIT_SHARE = 0.01          # crash and decode VINs with a wrong position 9
ILLEGAL_YEAR_SHARE = 0.001        # crash VINs with a U/Z/0 year code
MISSING_IDENTITY_SHARE = 0.002    # crash rows with make or model blank
SERVICE_OMIT_SHARE = 0.05         # VINs the fake vPIC service leaves out of its reply

# Per feature: the share of (make, model) pairs that ever offer it, and the
# model years it typically turns optional and standard on those that do.
_FEATURE_DEBUT = {
    FeatureId.ELECTRONIC_STABILITY_CONTROL: (1.0, 2001, 2007),
    FeatureId.REAR_PARKING_SENSORS: (0.8, 2004, 2012),
    FeatureId.LANE_DEPARTURE_WARNING: (0.8, 2008, 2016),
    FeatureId.ADAPTIVE_CRUISE_CONTROL: (0.7, 2008, 2018),
    FeatureId.FORWARD_COLLISION_PREVENTION: (0.9, 2009, 2016),
    FeatureId.AUTOMATIC_EMERGENCY_BRAKING: (0.9, 2011, 2017),
    FeatureId.LANE_KEEP_ASSIST: (0.6, 2012, 2018),
    FeatureId.LANE_DEPARTURE_PREVENTION: (0.6, 2012, 2019),
    FeatureId.PEDESTRIAN_AUTOMATIC_EMERGENCY_BRAKING: (0.75, 2014, 2019),
    FeatureId.LANE_CENTERING_ASSIST: (0.3, 2015, 2021),
}
_NEVER = 9999

_SERVICE_VALUE = {"standard": "Standard", "optional": "Optional", "not_available": "Not Available"}
# A real vPIC batch reply carries about 140 variables per VIN, mostly blank.
_FILLER_VARIABLES = tuple(f"Descriptor Field {i:03d}" for i in range(130))


def _vin(wmi: str, vds: str, year: int, plant: str, serial: int, year_code: str | None = None) -> str:
    """A 17-character VIN with a correct check digit.

    Position 7 is a letter from model year 2010 on and a digit before, which
    is what selects the year-code cycle.
    """
    p7 = "F" if year >= 2010 else "5"
    code = year_code or encode_model_year(year)
    draft = f"{wmi}{vds[:3]}{p7}{vds[3]}0{code}{plant}{serial:06d}"
    return draft[:8] + compute_check_digit(draft) + draft[9:]


def _wrong_check_digit(vin: str) -> str:
    right = vin[8]
    wrong = "0123456789X"[("0123456789X".index(right) + 1) % 11]
    return vin[:8] + wrong + vin[9:]


def _pair_schedules(rng: random.Random, pairs: list[tuple[str, str]]) -> dict:
    """Per (pair, feature): the model years it turns optional and standard."""
    schedules = {}
    for pair in pairs:
        for feature in FeatureId:
            reach, opt_year, std_year = _FEATURE_DEBUT[feature]
            if rng.random() >= reach:
                schedules[pair, feature] = (_NEVER, _NEVER)
                continue
            opt_year += rng.randint(-3, 4)
            std_year = max(opt_year, std_year + rng.randint(-4, 6))
            schedules[pair, feature] = (opt_year, std_year)
    return schedules


def _flag(schedule: tuple[int, int], year: int) -> str:
    opt_year, std_year = schedule
    if year >= std_year:
        return "standard"
    if year >= opt_year:
        return "optional"
    return "not_available"


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _mark_omitted(rng: random.Random, vehicles: list[dict]) -> None:
    omitted = set(rng.sample(range(len(vehicles)), round(SERVICE_OMIT_SHARE * len(vehicles))))
    for i, vehicle in enumerate(vehicles):
        vehicle["omitted"] = i in omitted


def _scaled(n: int, scale: float) -> int:
    return max(1, round(n * scale))


def _pairs(scale: float) -> list[tuple[str, str]]:
    models = _scaled(MODELS_PER_MAKE, scale)
    return [(f"make{m:02d}", f"model{m:02d}x{n:02d}") for m in range(MAKES) for n in range(models)]


def _fleet_catalog(seed: int, scale: float):
    """The (make, model) pairs, their popularity and availability schedules, and the catalog.

    The catalog is returned as (make, model, year) -> {feature value: availability}.
    """
    rng = random.Random(f"{seed}:catalog")
    pairs = _pairs(scale)
    rng.shuffle(pairs)
    schedules = _pair_schedules(rng, pairs)
    table: dict[tuple[str, str, int], dict[str, str]] = {}
    lines = ["# Synthetic availability catalog.", "make,model,model_year,feature,availability"]
    for make, model in pairs:
        for year in MODEL_YEARS:
            entry = table[make, model, year] = {}
            for feature in FeatureId:
                if rng.random() < CATALOG_GAP_SHARE:
                    continue
                flag = entry[feature.value] = _flag(schedules[(make, model), feature], year)
                lines.append(f"{make},{model},{year},{feature.value},{flag}")
    # Popularity falls off with rank, so a few models make up most crashes.
    weights = [1.0 / (rank + 1) ** POPULARITY_EXPONENT for rank in range(len(pairs))]
    return pairs, weights, schedules, table, lines


def _fars_vehicles(seed: int, n: int, pairs, weights) -> list[dict]:
    rng = random.Random(f"{seed}:fars")
    chosen = rng.choices(range(len(pairs)), weights=weights, k=n)
    year_weights = [1.0 + YEAR_WEIGHT_STEP * i for i in range(len(MODEL_YEARS))]
    years = rng.choices(MODEL_YEARS, weights=year_weights, k=n)
    n_check, n_year = round(CHECK_DIGIT_SHARE * n), round(ILLEGAL_YEAR_SHARE * n)
    defects = rng.sample(range(n), n_check + n_year + round(MISSING_IDENTITY_SHARE * n))
    kind = {i: "check_digit" for i in defects[:n_check]}
    kind.update({i: "illegal_year" for i in defects[n_check:n_check + n_year]})
    kind.update({i: "missing_identity" for i in defects[n_check + n_year:]})
    vehicles = []
    for i in range(n):
        make, model = pairs[chosen[i]]
        year = years[i]
        defect = kind.get(i)
        if defect == "illegal_year":
            vin = _vin("1G1", f"{chosen[i] % 1000:03d}A", year, "K", i, year_code="UZ0"[i % 3])
        else:
            vin = _vin("1G1", f"{chosen[i] % 1000:03d}A", year, "K", i)
        if defect == "check_digit":
            vin = _wrong_check_digit(vin)
        vehicles.append({"vin": vin, "make": make, "model": model, "model_year": year, "defect": defect})
    return vehicles


def _add_flags(vehicles: list[dict], schedules: dict) -> None:
    for v in vehicles:
        v["flags"] = {f.value: _flag(schedules[(v["make"], v["model"]), f], v["model_year"]) for f in FeatureId}


def _expected_cohorts(vehicles: list[dict], table: dict) -> tuple[dict, float, int]:
    """Exact (std, opt, known) per (priority feature, model year), the
    key-reuse share over resolvable rows, and the warning count."""
    rows_per_key: dict[tuple[str, str, int], int] = {}
    for v in vehicles:
        if v["defect"] not in ("illegal_year", "missing_identity"):
            key = (v["make"], v["model"], v["model_year"])
            rows_per_key[key] = rows_per_key.get(key, 0) + 1
    counts: dict[str, dict[str, list[int]]] = {f.value: {} for f in PRIORITY_FEATURES}
    for (make, model, year), rows in rows_per_key.items():
        entry = table.get((make, model, year), {})
        for feature in counts:
            flag = entry.get(feature, "unknown" if year < DEFAULT_COVERAGE_FLOOR else "not_available")
            if flag == "unknown":
                continue
            cell = counts[feature].setdefault(str(year), [0, 0, 0])
            cell[0] += rows * (flag == "standard")
            cell[1] += rows * (flag == "optional")
            cell[2] += rows
    resolvable = sum(rows_per_key.values())
    warnings = sum(v["defect"] is not None for v in vehicles)
    return counts, (resolvable - len(rows_per_key)) / resolvable, warnings


def _bundled_vehicles() -> list[dict]:
    """The bundled crash fixture's vehicles, with flags from the bundled catalog."""
    bundled = bundled_data_dir()
    flags: dict[str, dict[str, str]] = {}
    for line in (bundled / "catalog.csv").read_text(encoding="utf-8").splitlines()[3:]:
        make, model, year, feature, availability = line.split(",")
        flags.setdefault(model, {})[feature] = availability
    vehicles = []
    for line in (bundled / "fars_vehicles.csv").read_text(encoding="utf-8").splitlines()[2:]:
        vin, crash_year, make, model = line.split(",")
        row_flags = {f.value: flags.get(model, {}).get(f.value, "not_available") for f in FeatureId}
        vehicles.append({"vin": vin, "make": make, "model": model, "model_year": int(crash_year),
                         "defect": None, "flags": row_flags})
    return vehicles


def _vpic_vehicles(seed: int, n: int) -> list[dict]:
    """Distinct VINs across makes and model years, about 1% with a wrong check digit."""
    rng = random.Random(f"{seed}:vpic")
    pairs = _pairs(1.0)
    schedules = _pair_schedules(rng, pairs)
    bad = set(rng.sample(range(n), round(CHECK_DIGIT_SHARE * n)))
    vehicles = []
    for i in range(n):
        p = rng.randrange(len(pairs))
        make, model = pairs[p]
        year = rng.choice(MODEL_YEARS)
        vin = _vin("5YJ", f"{p % 1000:03d}B", year, "R", i)
        if i in bad:
            vin = _wrong_check_digit(vin)
        vehicles.append({"vin": vin, "make": make, "model": model, "model_year": year,
                         "defect": "check_digit" if i in bad else None})
    _add_flags(vehicles, schedules)
    return vehicles


def generate(workload: str, seed: int, out: Path, scale: float = 1.0) -> dict:
    """Write the inputs of one workload under `out`; return its manifest.

    `scale` shrinks the vehicle counts and the catalog for quick checks; the
    benchmark proper always runs at 1.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    out = Path(out)
    data = out / "data"
    (data / "vpic_cache").mkdir(parents=True, exist_ok=True)
    manifest: dict = {"workload": workload, "seed": seed, "scale": scale}
    if workload == "fars_140k":
        pairs, weights, schedules, table, catalog_lines = _fleet_catalog(seed, scale)
        _write_lines(data / "catalog.csv", catalog_lines)
        crash = _fars_vehicles(seed, _scaled(FARS_VEHICLES, scale), pairs, weights)
        fars_lines = ["# Synthetic crash-involved vehicles.", "vin,crash_year,make,model"]
        for i, v in enumerate(crash):
            # FARS spells make and model in capitals; the catalog does not.
            make, model = v["make"].upper(), v["model"].upper()
            if v["defect"] == "missing_identity":
                make, model = (make, "") if i % 2 else ("", model)
            fars_lines.append(f"{v['vin']},{CRASH_YEAR},{make},{model}")
        _write_lines(data / "fars_vehicles.csv", fars_lines)
        counts, reuse, warnings = _expected_cohorts(crash, table)
        decode = crash[:_scaled(FARS_DECODE_VINS, scale)]
        _add_flags(decode, schedules)
        manifest.update(crash_rows=len(crash), catalog_rows=len(catalog_lines) - 2, cohort_counts=counts,
                        key_reuse_share=reuse, crash_warnings=warnings)
    elif workload == "vpic_20k":
        decode = _vpic_vehicles(seed, _scaled(VPIC_VINS, scale))
        # `estimate` on this workload falls back to the bundled crash file.
        manifest.update(crash_rows=len(_bundled_vehicles()))
    else:
        decode = _bundled_vehicles()
        manifest.update(crash_rows=len(decode))
    _mark_omitted(random.Random(f"{seed}:service"), decode)
    _write_lines(data / "vins.csv", ["vin", *(v["vin"] for v in decode)])
    (out / "vehicles.json").write_text(json.dumps(decode, sort_keys=True), encoding="utf-8")
    manifest.update(decode_vins=len(decode), service_omitted=sum(v["omitted"] for v in decode))
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True), encoding="utf-8")
    return manifest


def variable_names() -> dict[str, str]:
    """feature value -> vPIC variable name, read from the package's mapping file."""
    path = bundled_data_dir().parent / "vpic_variables.csv"
    names = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#") and line != "variable,feature":
            variable, _, feature = line.rpartition(",")
            names[feature] = variable
    return names


def _document(vehicle: dict, names: dict[str, str]) -> dict:
    doc = {"VIN": vehicle["vin"], "Make": vehicle["make"], "Model": vehicle["model"],
           "Model Year": str(vehicle["model_year"]), "Error Code": "0", "Error Text": ""}
    doc.update(dict.fromkeys(_FILLER_VARIABLES, ""))
    for feature, flag in vehicle["flags"].items():
        if feature in names:
            doc[names[feature]] = _SERVICE_VALUE.get(flag, "")
    return doc


def service_transport(vehicles: list[dict]):
    """A fake vPIC batch endpoint that knows `vehicles` and leaves out the omitted ones.

    It builds each reply document when asked, as the real service would, so
    no process holds every document at once.
    """
    names = variable_names()
    known = {v["vin"]: v for v in vehicles if not v["omitted"]}

    def transport(url, body, timeout):
        results = [_document(known[vin], names) for vin in body["DATA"].split(";") if vin in known]
        return {"Count": len(results), "Message": "Results returned successfully", "Results": results}

    return transport
