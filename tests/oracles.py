"""Independent reference implementations the real code is checked against.

Kept deliberately naive: explicit tables, full enumeration, no sharing with
the package internals.
"""

from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

# 49 CFR 565 transliteration table, written out in full.
CHAR_VALUES = {
    "0": 0, "1": 1, "2": 2, "3": 3, "4": 4, "5": 5, "6": 6, "7": 7, "8": 8, "9": 9,
    "A": 1, "B": 2, "C": 3, "D": 4, "E": 5, "F": 6, "G": 7, "H": 8,
    "J": 1, "K": 2, "L": 3, "M": 4, "N": 5,
    "P": 7, "R": 9,
    "S": 2, "T": 3, "U": 4, "V": 5, "W": 6, "X": 7, "Y": 8, "Z": 9,
}

POSITION_WEIGHTS = {
    1: 8, 2: 7, 3: 6, 4: 5, 5: 4, 6: 3, 7: 2, 8: 10, 9: 0,
    10: 9, 11: 8, 12: 7, 13: 6, 14: 5, 15: 4, 16: 3, 17: 2,
}

# Position-10 model-year codes for the 1980-2009 cycle; add 30 for 2010-2039.
YEAR_CODE_TABLE = {
    "A": 1980, "B": 1981, "C": 1982, "D": 1983, "E": 1984, "F": 1985, "G": 1986,
    "H": 1987, "J": 1988, "K": 1989, "L": 1990, "M": 1991, "N": 1992, "P": 1993,
    "R": 1994, "S": 1995, "T": 1996, "V": 1997, "W": 1998, "X": 1999, "Y": 2000,
    "1": 2001, "2": 2002, "3": 2003, "4": 2004, "5": 2005, "6": 2006, "7": 2007,
    "8": 2008, "9": 2009,
}


def oracle_check_digit(vin17: str) -> str:
    total = 0
    for position in range(1, 18):
        total += CHAR_VALUES[vin17[position - 1]] * POSITION_WEIGHTS[position]
    remainder = total % 11
    return "X" if remainder == 10 else str(remainder)


def oracle_first_forbidden(text: str):
    """(character, 1-based position) of the first character with no transliteration value, or None."""
    position = 1
    for character in text:
        if character not in CHAR_VALUES:
            return character, position
        position += 1
    return None


def oracle_model_year(code: str, position7: str) -> int:
    base = YEAR_CODE_TABLE[code]
    return base + 30 if position7.isalpha() else base


def brute_force_match(target_points, candidates, max_lag, min_overlap=1, admissible=None, lags=None):
    """Exhaustive (candidate, lag) search.

    target_points: {year: combined availability}; candidates: ordered list of
    (name, {year: combined}); lags: the lags to try, every one in 0..max_lag
    when None. Returns (name, lag, distance) minimizing (distance, lag,
    candidate position), or None if nothing qualifies.
    """
    scored = []
    for position, (name, points) in enumerate(candidates):
        for lag in range(max_lag + 1) if lags is None else lags:
            if admissible is not None and not admissible(name, lag):
                continue
            shared = [y for y in sorted(target_points) if (y - lag) in points]
            if len(shared) < min_overlap:
                continue
            total = 0.0
            for y in shared:
                diff = float(target_points[y]) - float(points[y - lag])
                total += diff * diff
            scored.append((total / len(shared), lag, position, name))
    if not scored:
        return None
    distance, lag, _, name = min(scored)
    return name, lag, distance


def oracle_cohort_counts(records, feature, model_year):
    """(standard, optional, known) for one model-year cohort, by a full scan.

    Flags are compared by their text values; a missing or "unknown" flag is
    left out of the cohort.
    """
    standard = optional = known = 0
    for record in records:
        if record.model_year != model_year:
            continue
        flag = record.feature_flags.get(feature)
        value = "unknown" if flag is None else flag.value
        if value == "unknown":
            continue
        known += 1
        if value == "standard":
            standard += 1
        if value == "optional":
            optional += 1
    return standard, optional, known


def oracle_cohort_series(records, feature):
    """{model year: (standard, optional, known)} over every model year seen, one full scan per year."""
    series = {}
    for year in sorted({r.model_year for r in records if r.model_year is not None}):
        counts = oracle_cohort_counts(records, feature, year)
        if counts[2]:
            series[year] = counts
    return series


def oracle_availability(rows, make, model, model_year, feature, coverage_floor=2017):
    """Availability text for one lookup, by a full scan of (make, model, model_year, feature, availability) rows.

    Make and model match after stripping and lowercasing; a miss is "unknown"
    below the coverage floor and "not_available" at or above it.
    """
    wanted = (make.strip().lower(), model.strip().lower(), model_year, feature)
    for row_make, row_model, row_year, row_feature, availability in rows:
        if (row_make.strip().lower(), row_model.strip().lower(), row_year, row_feature) == wanted:
            return availability
    return "unknown" if model_year < coverage_floor else "not_available"


def oracle_half_up_pct(value):
    """Whole percent of a fraction, halves away from zero, in Fraction arithmetic only.

    A float stands for the decimal its `str` shows.
    """
    exact = Fraction(str(value)) if isinstance(value, float) else Fraction(value)
    pct = abs(exact) * 100
    whole = pct.numerator // pct.denominator
    if pct - whole >= Fraction(1, 2):
        whole += 1
    return whole if exact >= 0 else -whole


# The six features of the estimate table, in report order.
REPORT_FEATURES = (
    "adaptive_cruise_control", "automatic_emergency_braking", "forward_collision_prevention",
    "lane_centering_assist", "lane_departure_prevention", "pedestrian_automatic_emergency_braking",
)

# The year a mandate was announced, per analog feature: FMVSS 126 for electronic stability control.
MANDATE_YEARS = {"electronic_stability_control": 2006}


def oracle_numbered_rows(text):
    """(line number, row) for each data row of a comma-separated file text, the row a dict keyed by the header's names.

    A leading byte-order mark is dropped, blank and '#' lines are skipped and every cell is stripped.
    """
    lines = [(number, line) for number, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1)
             if line.strip() and not line.strip().startswith("#")]
    header = [cell.strip() for cell in lines[0][1].split(",")]
    return [(number, dict(zip(header, [cell.strip() for cell in line.split(",")]))) for number, line in lines[1:]]


def oracle_rows(text):
    """The data rows of `oracle_numbered_rows`, without their line numbers."""
    return [row for _, row in oracle_numbered_rows(text)]


def oracle_fraction(text):
    """A decimal fraction text as a Fraction, rounded to 60 places.

    The estimate's inputs carry far fewer digits; a value below 1e-60, such as 1e-30000000, changes no
    rounded percent, no float and no rendered caution, and as an exact Fraction it would not fit in memory.
    """
    return Fraction(Decimal(text).quantize(Decimal("1e-60"), context=Context(prec=100)))


def oracle_caution(kind, quantity):
    """`kind(q)`: q half-up to two places, trailing zeros dropped."""
    whole, cents = divmod(oracle_half_up_pct(quantity), 100)
    number = f"{whole}.{cents:02d}".rstrip("0").rstrip(".")
    return f"{kind}({number})"


def oracle_crash_records(catalog_rows, crash_text, features):
    """(VIN, crash year, model year, {feature: availability}, warnings) per crash row, from the row's cells,
    `oracle_model_year` and `oracle_availability` alone.

    The model year is the model_year cell, else the VIN's when the VIN is 17 legal characters with a legal
    year code. A row with a make, a model and a model year has a flag per feature; any other row has none.
    The warnings are the row's `row N: <reason>` texts, in order: the VIN's length, its first illegal
    character or its check digit; an illegal year code when the row has no model_year cell; and, in a file
    with make and model columns, a row with no earlier warning that lacks a make, a model or a model year.
    """
    by_year_feature = {}  # each lookup scans only the catalog rows of its model year and feature
    for row in catalog_rows:
        by_year_feature.setdefault((row[2], row[3]), []).append(row)
    records = []
    numbered = oracle_numbered_rows(crash_text)
    identity = numbered and "make" in numbered[0][1] and "model" in numbered[0][1]
    for number, row in numbered:
        vin = row["vin"].upper()
        forbidden = oracle_first_forbidden(vin)
        reasons = []
        if len(vin) != 17:
            reasons.append(f"VIN must be 17 characters, got {len(vin)}: {vin!r}")
        elif forbidden is not None:
            reasons.append("character {!r} at position {} is not legal in a VIN".format(*forbidden))
        elif oracle_check_digit(vin) != vin[8]:
            reasons.append(f"check digit mismatch in {vin!r}: expected {oracle_check_digit(vin)!r}, found {vin[8]!r}")
        model_year = None
        if row.get("model_year"):
            model_year = int(row["model_year"])
        elif len(vin) == 17 and forbidden is None:
            if vin[9] in YEAR_CODE_TABLE:
                model_year = oracle_model_year(vin[9], vin[6])
            else:
                reasons.append(f"{vin[9]!r} is not a legal model-year code")
        flags = {}
        if row.get("make") and row.get("model") and model_year is not None:
            flags = {f: oracle_availability(by_year_feature.get((model_year, f), []), row["make"], row["model"],
                                            model_year, f)
                     for f in features}
        elif identity and not reasons:
            reasons.append(f"cannot resolve features for {row['vin']!r} (missing make/model/model_year)")
        records.append((vin, int(row["crash_year"]), model_year, flags, [f"row {number}: {r}" for r in reasons]))
    return records


def oracle_crash_series(catalog_text, crash_text):
    """{feature: {model year: (standard, optional)}} of the crash cohorts, for each report feature with one."""
    catalog_rows = [(row["make"], row["model"], int(row["model_year"]), row["feature"], row["availability"])
                    for row in oracle_rows(catalog_text)]
    records = [SimpleNamespace(model_year=model_year,
                               feature_flags={f: SimpleNamespace(value=a) for f, a in flags.items()})
               for _, _, model_year, flags, _ in oracle_crash_records(catalog_rows, crash_text, REPORT_FEATURES)]
    series = {}
    for feature in REPORT_FEATURES:
        cohorts = oracle_cohort_series(records, feature)
        if cohorts:
            series[feature] = {y: (Fraction(s, n), Fraction(o, n)) for y, (s, o, n) in cohorts.items()}
    return series


def oracle_equipped(feature, year, fleet, adoption, crash, max_lag, min_overlap, long_lag_threshold):
    """(equipped fraction, provenance text, caution texts) of one feature, or None when no route serves it.

    Routes, first that serves wins: the feature's own fleet series at the year; then a lag match of its
    published adoption series; then one of its crash-cohort series. A match compares against the other
    features' adoption series, in file order, and admits (analog, lag) only when the analog's fleet series
    has year - lag, which is the year the equipped fraction is read from.
    """
    if year in fleet.get(feature, {}):
        return fleet[feature][year], "direct_fleet_series", []
    analogs = [(name, points) for name, points in adoption.items() if name != feature]
    for kind, target in (("lag_transfer", adoption.get(feature)), ("fars_lag_transfer", crash.get(feature))):
        if not target:
            continue
        # Only a lag that maps some target year onto some analog year can overlap; a huge --max-lag or a
        # far-off year in a file makes 0..max_lag too long to walk.
        lags = {y - c for y in target for _, points in analogs for c in points if 0 <= y - c <= max_lag}
        match = brute_force_match(
            {y: std + opt for y, (std, opt) in target.items()},
            [(name, {y: std + opt for y, (std, opt) in points.items()}) for name, points in analogs],
            max_lag, min_overlap, admissible=lambda name, lag: year - lag in fleet.get(name, {}), lags=lags,
        )
        if match is not None:
            break
    else:
        return None
    analog, lag, _ = match
    overlap = [y for y in sorted(target) if y - lag in adoption[analog]]
    cautions = []
    if lag > long_lag_threshold:
        cautions.append(oracle_caution("long_lag", lag))
    if len(overlap) < 3:
        cautions.append(oracle_caution("small_overlap", len(overlap)))
    divergence = max(abs(target[y][1] - adoption[analog][y - lag][1]) * 100 for y in overlap)
    if divergence > 15:
        cautions.append(oracle_caution("optional_share_divergence", divergence))
    if analog in MANDATE_YEARS:
        # The match's earliest analog year at or after the announcement, and the year read, each if any.
        under = [y - lag for y in overlap if y - lag >= MANDATE_YEARS[analog]]
        if under:
            cautions.append(oracle_caution("analog_under_mandate", min(under)))
        if year - lag >= MANDATE_YEARS[analog]:
            cautions.append(oracle_caution("analog_under_mandate", year - lag))
    return fleet[analog][year - lag], f"{kind}({analog}:{lag})", cautions


def oracle_estimate_table(files, year, max_lag, min_overlap, long_lag_threshold):
    """The `estimate --format json` rows of the five data files {file name: text}, in report order, with None
    for a feature no route serves.

    Equipped and activation fractions are each rounded half-up to a whole percent, and the activated share is
    their product rounded half-up again.
    """
    adoption, fleet = {}, {}
    for row in oracle_rows(files["adoption.csv"]):
        adoption.setdefault(row["feature"], {})[int(row["model_year"])] = (
            oracle_fraction(row["std_frac"]), oracle_fraction(row["opt_frac"]))
    for row in oracle_rows(files["fleet.csv"]):
        fleet.setdefault(row["feature"], {})[int(row["calendar_year"])] = oracle_fraction(row["equipped_frac"])
    activation = {row["feature"]: oracle_fraction(row["rate"]) for row in oracle_rows(files["activation.csv"])}
    crash = oracle_crash_series(files["catalog.csv"], files["fars_vehicles.csv"])
    rows = []
    for feature in REPORT_FEATURES:
        found = oracle_equipped(feature, year, fleet, adoption, crash, max_lag, min_overlap, long_lag_threshold)
        if found is None:
            rows.append(None)
            continue
        equipped, provenance, cautions = found
        equipped_pct, activation_pct = oracle_half_up_pct(equipped), oracle_half_up_pct(activation[feature])
        rows.append({
            "feature": feature,
            "year": year,
            "equipped_pct": equipped_pct,
            "activation_pct": activation_pct,
            "activated_of_fleet_pct": oracle_half_up_pct(Fraction(equipped_pct * activation_pct, 10000)),
            "provenance": provenance,
            "cautions": sorted(set(cautions)),
        })
    return rows


def data_dir_files(*dirs):
    """{file name: text} of the five input files `estimate` reads, each from the first of `dirs` that holds it."""
    names = ("adoption.csv", "fleet.csv", "activation.csv", "catalog.csv", "fars_vehicles.csv")
    return {name: next(Path(d) / name for d in dirs if (Path(d) / name).exists()).read_text(encoding="utf-8")
            for name in names}


def write_adoption_csv(series_set, path) -> None:
    """An adoption file with one row per (feature, model year) of {FeatureId: AdoptionSeries}."""
    lines = ["feature,model_year,std_frac,opt_frac"]
    for feature in series_set:
        for year, pt in sorted(series_set[feature].points.items()):
            lines.append(f"{feature.value},{year},{pt.std},{pt.opt}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_fleet_csv(series_set, path) -> None:
    """A fleet file with one row per (feature, calendar year) of {FeatureId: FleetSeries}."""
    lines = ["feature,calendar_year,equipped_frac"]
    for feature in series_set:
        for year, frac in sorted(series_set[feature].points.items()):
            lines.append(f"{feature.value},{year},{frac}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
