"""Independent reference implementations the real code is checked against.

Kept deliberately naive: explicit tables, full enumeration, no sharing with
the package internals.
"""

from fractions import Fraction
from pathlib import Path

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


def brute_force_match(target_points, candidates, max_lag, min_overlap=1, admissible=None):
    """Exhaustive (candidate, lag) search.

    target_points: {year: combined availability}; candidates: ordered list of
    (name, {year: combined}). Returns (name, lag, distance) minimizing
    (distance, lag, candidate position), or None if nothing qualifies.
    """
    scored = []
    for position, (name, points) in enumerate(candidates):
        for lag in range(max_lag + 1):
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
