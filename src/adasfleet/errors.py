"""Exception hierarchy shared across the package."""


class AdasFleetError(Exception):
    """Base class for all errors raised by this package."""


# --- VIN parsing ---

class VinError(AdasFleetError):
    """Base class for VIN structural and check-digit errors."""


class WrongLength(VinError):
    def __init__(self, text: str):
        super().__init__(f"VIN must be 17 characters, got {len(text)}: {text!r}")


class ForbiddenCharacter(VinError):
    def __init__(self, char: str, position: int):
        self.char = char
        self.position = position
        super().__init__(f"character {char!r} at position {position} is not legal in a VIN")


class CheckDigitMismatch(VinError):
    def __init__(self, expected: str, found: str, vin: str):
        self.expected = expected
        self.found = found
        super().__init__(f"check digit mismatch in {vin!r}: expected {expected!r}, found {found!r}")


class IllegalYearCode(VinError):
    def __init__(self, code: str):
        super().__init__(f"{code!r} is not a legal model-year code")


# --- tabular ingestion ---

class SchemaError(AdasFleetError):
    """Header or row does not conform to the declared file schema."""


class DuplicateKey(AdasFleetError):
    """A key that must be unique appears more than once."""


class BadEnumValue(AdasFleetError):
    """A cell holds a value outside its enumeration."""


class FractionOutOfRange(AdasFleetError):
    """A fraction falls outside [0, 1] or a fraction sum exceeds 1."""


class EmptyCohort(AdasFleetError):
    """No records match the requested cohort."""


# --- vPIC client ---

class NetworkError(AdasFleetError):
    """A live request failed after bounded retries."""


class MalformedResponse(AdasFleetError):
    """A decode response is missing required fields."""


# --- estimation ---

class NoCandidateQualifies(AdasFleetError):
    """No (candidate, lag) pair meets the overlap minimum."""


class YearNotInSeries(AdasFleetError):
    def __init__(self, feature, year: int):
        super().__init__(f"series for {getattr(feature, 'value', feature)} has no year {year}")


class InsufficientData(AdasFleetError):
    def __init__(self, feature, year: int, hint: str):
        self.hint = hint
        name = getattr(feature, "value", feature)
        super().__init__(f"cannot estimate {name} for {year}: {hint}")
