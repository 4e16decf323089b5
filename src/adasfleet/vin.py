"""17-character VIN parsing: structure, check digit, and model year.

The check digit (position 9) is a weighted mod-11 sum over transliterated
characters; the model year (position 10) cycles through a 30-code alphabet
every 30 years and is disambiguated by whether position 7 is alphabetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .errors import CheckDigitMismatch, ForbiddenCharacter, IllegalYearCode, WrongLength

VIN_LENGTH = 17

# I, O and Q are never legal anywhere in a VIN.
LEGAL_CHARS = frozenset("0123456789ABCDEFGHJKLMNPRSTUVWXYZ")

# Character values for the check-digit sum. Digits map to themselves;
# letters restart at 1 after each excluded letter, except P=7 and R=9.
_TRANSLITERATION = {c: int(c) for c in "0123456789"}
_TRANSLITERATION.update(zip("ABCDEFGH", range(1, 9)))
_TRANSLITERATION.update(zip("JKLMN", range(1, 6)))
_TRANSLITERATION.update({"P": 7, "R": 9})
_TRANSLITERATION.update(zip("STUVWXYZ", range(2, 10)))

# The same values by byte, for bytes.translate; 255 marks a byte not legal in a VIN.
_VALUES = bytes(_TRANSLITERATION.get(chr(b), 255) for b in range(256))

# Positional weights; position 9 (the check digit itself) has weight 0.
_WEIGHTS = (8, 7, 6, 5, 4, 3, 2, 10, 0, 9, 8, 7, 6, 5, 4, 3, 2)

# Position-10 code alphabet, in year order. U, Z and 0 are excluded,
# leaving a 30-code cycle: A=1980 or 2010 ... 9=2009 or 2039.
YEAR_CODES = "ABCDEFGHJKLMNPRSTVWXY123456789"
_FIRST_CYCLE_BASE = 1980
_CYCLE = len(YEAR_CODES)
# Code -> (its 1980-2009 year, its 2010-2039 year).
_YEARS = {code: (_FIRST_CYCLE_BASE + i, _FIRST_CYCLE_BASE + _CYCLE + i) for i, code in enumerate(YEAR_CODES)}


@dataclass(frozen=True, slots=True)
class Vin:
    """A structurally valid VIN; its positional fields are slices of `raw`."""

    raw: str
    wmi = property(lambda self: self.raw[0:3])          # positions 1-3, world manufacturer identifier
    vds = property(lambda self: self.raw[3:8])          # positions 4-8, vehicle descriptor
    check_digit = property(lambda self: self.raw[8])    # position 9
    year_code = property(lambda self: self.raw[9])      # position 10
    plant_code = property(lambda self: self.raw[10])    # position 11
    serial = property(lambda self: self.raw[11:17])     # positions 12-17

    @property
    def model_year(self) -> int:
        """Decode the model year; raises IllegalYearCode for U/Z/0 codes."""
        return decode_model_year(self.raw[9], self.raw[6])


def _parse(text: str) -> tuple[Vin, str]:
    """The normalized VIN and the check digit implied by its other 16 characters.

    Only structural problems (length, character set) raise. Position 9 has
    weight 0, so its own value never affects the implied digit.
    """
    text = text.strip().upper()
    if len(text) != VIN_LENGTH:
        raise WrongLength(text)
    # "replace" turns each non-ASCII character into one "?", an illegal byte, so the bytes line up with `text`.
    values = text.encode("ascii", "replace").translate(_VALUES)
    if 255 in values:
        for i, c in enumerate(text, start=1):
            if c not in LEGAL_CHARS:
                raise ForbiddenCharacter(c, i)
    return Vin(text), "0123456789X"[sum(map(mul, values, _WEIGHTS)) % 11]


def compute_check_digit(text: str) -> str:
    """Check digit implied by the 16 non-check characters of a 17-char VIN."""
    return _parse(text)[1]


def parse_vin(text: str, strict: bool = True) -> Vin:
    """Parse and validate a VIN, normalizing to uppercase.

    Structural problems (length, character set) always raise. A check-digit
    mismatch raises only when strict; lenient callers that also want the
    warning text should use parse_vin_lenient.
    """
    vin, expected = _parse(text)
    if strict and vin.check_digit != expected:
        raise CheckDigitMismatch(expected, vin.check_digit, vin.raw)
    return vin


def parse_vin_lenient(text: str) -> tuple[Vin | None, str | None]:
    """Parse with check-digit failures downgraded to a warning.

    Returns (vin, warning). Structural failures give (None, message);
    a check-digit mismatch gives (vin, message); clean parses give (vin, None).
    """
    try:
        vin, expected = _parse(text)
    except (WrongLength, ForbiddenCharacter) as exc:
        return None, str(exc)
    if vin.raw[8] != expected:
        return vin, str(CheckDigitMismatch(expected, vin.raw[8], vin.raw))
    return vin, None


def decode_model_year(year_code: str, position7: str) -> int:
    """Model year for a position-10 code; anything but one legal code character is an IllegalYearCode.

    An alphabetic position 7 selects the 2010-2039 cycle, otherwise 1980-2009.
    """
    years = _YEARS.get(year_code)
    if years is None:
        raise IllegalYearCode(year_code)
    return years[position7.isalpha()]


def encode_model_year(year: int) -> str:
    """Position-10 code for a model year in [1980, 2039]."""
    if not _FIRST_CYCLE_BASE <= year < _FIRST_CYCLE_BASE + 2 * _CYCLE:
        raise IllegalYearCode(str(year))
    return YEAR_CODES[(year - _FIRST_CYCLE_BASE) % _CYCLE]
