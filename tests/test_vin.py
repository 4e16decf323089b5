import dataclasses

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from adasfleet.errors import CheckDigitMismatch, ForbiddenCharacter, IllegalYearCode, WrongLength
from adasfleet.vin import (
    LEGAL_CHARS,
    YEAR_CODES,
    Vin,
    compute_check_digit,
    decode_model_year,
    encode_model_year,
    parse_vin,
    parse_vin_lenient,
    scan_batch,
)

from oracles import CHAR_VALUES, YEAR_CODE_TABLE, oracle_check_digit, oracle_first_forbidden, oracle_model_year

ALL_ONES = "1" * 17
ALL_ZEROS = "0" * 17
LEGAL = sorted(LEGAL_CHARS)


def make_vin(body16: str) -> str:
    """Insert the correct check digit into a 16-character body (positions 1-8 + 10-17)."""
    draft = body16[:8] + "0" + body16[8:]
    return body16[:8] + compute_check_digit(draft) + body16[8:]


valid_vins = st.text(alphabet=LEGAL, min_size=16, max_size=16).map(make_vin)


class TestParseVin:
    def test_all_ones_is_valid(self):
        vin = parse_vin(ALL_ONES)
        assert vin.wmi == "111"
        assert vin.vds == "11111"
        assert vin.check_digit == "1"
        assert vin.year_code == "1"
        assert vin.plant_code == "1"
        assert vin.serial == "111111"

    def test_sixteen_characters_wrong_length(self):
        with pytest.raises(WrongLength):
            parse_vin("1" * 16)

    def test_letter_o_forbidden(self):
        with pytest.raises(ForbiddenCharacter):
            parse_vin("11111O11111111111")

    @pytest.mark.parametrize("char", ["I", "O", "Q", "*", " "])
    def test_forbidden_characters(self, char):
        with pytest.raises(ForbiddenCharacter):
            parse_vin(ALL_ONES[:4] + char + ALL_ONES[5:])

    def test_check_digit_mismatch_carries_both_digits(self):
        bad = ALL_ONES[:8] + "5" + ALL_ONES[9:]
        with pytest.raises(CheckDigitMismatch) as exc_info:
            parse_vin(bad)
        assert exc_info.value.expected == "1"
        assert exc_info.value.found == "5"

    def test_lowercase_normalized(self):
        vin = make_vin("ABCDEFGHMAKP1234")
        assert parse_vin(vin.lower()).raw == vin

    def test_surrounding_whitespace_stripped(self):
        assert parse_vin(f"  {ALL_ONES} ").raw == ALL_ONES

    @given(valid_vins)
    def test_parse_idempotent(self, raw):
        first = parse_vin(raw)
        assert parse_vin(first.raw) == first

    @given(valid_vins)
    def test_fields_tile_the_vin(self, raw):
        vin = parse_vin(raw)
        assert vin.wmi + vin.vds + vin.check_digit + vin.year_code + vin.plant_code + vin.serial == raw

    def test_raw_is_the_only_stored_field(self):
        vin = parse_vin(ALL_ONES)
        assert [f.name for f in dataclasses.fields(vin)] == ["raw"]
        assert vin == Vin(ALL_ONES)


class TestCheckDigit:
    def test_all_ones(self):
        assert compute_check_digit(ALL_ONES) == "1"

    def test_all_zeros(self):
        assert compute_check_digit(ALL_ZEROS) == "0"

    @given(valid_vins)
    def test_matches_reference_tables(self, raw):
        assert compute_check_digit(raw) == oracle_check_digit(raw)

    @given(valid_vins, st.sampled_from(LEGAL))
    def test_position_nine_input_ignored(self, raw, filler):
        altered = raw[:8] + filler + raw[9:]
        assert compute_check_digit(altered) == compute_check_digit(raw)

    def test_zero_seed_substitutions_all_detected(self):
        for position in range(17):
            if position == 8:
                continue
            for alt in LEGAL:
                if alt == "0":
                    continue
                mutated = ALL_ZEROS[:position] + alt + ALL_ZEROS[position + 1:]
                with pytest.raises(CheckDigitMismatch):
                    parse_vin(mutated)

    @given(valid_vins, st.integers(min_value=0, max_value=16), st.sampled_from(LEGAL))
    def test_substitution_detected_iff_value_changes(self, raw, position, alt):
        """Same transliteration value is invisible to the weighted sum; any other change is caught."""
        if position == 8 or alt == raw[position]:
            return
        mutated = raw[:position] + alt + raw[position + 1:]
        if CHAR_VALUES[alt] == CHAR_VALUES[raw[position]]:
            assert parse_vin(mutated).raw == mutated
        else:
            with pytest.raises(CheckDigitMismatch):
                parse_vin(mutated)


class TestModelYear:
    def test_m_with_alphabetic_position7(self):
        assert decode_model_year("M", "A") == 2021

    def test_m_with_digit_position7(self):
        assert decode_model_year("M", "1") == 1991

    # The empty string and a code with more after it are not codes, though a substring search finds them.
    @pytest.mark.parametrize("code", ["Z", "U", "0", "I", "O", "Q", "", "AB", "1A", "a"])
    def test_illegal_codes(self, code):
        with pytest.raises(IllegalYearCode):
            decode_model_year(code, "A")

    def test_round_trip_both_cycles(self):
        for year in range(1980, 2010):
            assert decode_model_year(encode_model_year(year), "1") == year
        for year in range(2010, 2040):
            assert decode_model_year(encode_model_year(year), "A") == year

    def test_each_code_decodes_uniquely_per_cycle(self):
        old = {decode_model_year(c, "9") for c in YEAR_CODES}
        new = {decode_model_year(c, "B") for c in YEAR_CODES}
        assert old == set(range(1980, 2010))
        assert new == set(range(2010, 2040))

    @given(st.one_of(st.sampled_from(YEAR_CODES), st.text(max_size=3)), st.sampled_from(LEGAL))
    def test_agrees_with_published_table(self, code, position7):
        if code in YEAR_CODE_TABLE:
            assert decode_model_year(code, position7) == oracle_model_year(code, position7)
        else:
            with pytest.raises(IllegalYearCode):
                decode_model_year(code, position7)

    def test_encode_rejects_out_of_range(self):
        with pytest.raises(IllegalYearCode):
            encode_model_year(1979)
        with pytest.raises(IllegalYearCode):
            encode_model_year(2040)


class TestLenientParse:
    def test_structural_failure_returns_none(self):
        vin, warning = parse_vin_lenient("BADVIN")
        assert vin is None
        assert "17 characters" in warning

    def test_check_digit_failure_returns_vin_and_warning(self):
        bad = ALL_ONES[:8] + "5" + ALL_ONES[9:]
        vin, warning = parse_vin_lenient(bad)
        assert vin is not None
        assert vin.raw == bad
        assert "check digit" in warning

    def test_clean_parse_has_no_warning(self):
        vin, warning = parse_vin_lenient(ALL_ONES)
        assert vin.raw == ALL_ONES
        assert warning is None

    @given(st.one_of(
        st.text(max_size=20),
        # Mostly 17 legal characters with a random check digit, some lowercase, padded or illegal.
        st.text(alphabet=LEGAL + list("ioqaz \t"), min_size=16, max_size=19),
        valid_vins,
    ))
    def test_agrees_with_strict_mode(self, text):
        try:
            strict = parse_vin(text)
        except (WrongLength, ForbiddenCharacter) as exc:
            assert parse_vin_lenient(text) == (None, str(exc))
        except CheckDigitMismatch as exc:
            assert parse_vin_lenient(text) == (parse_vin(text, strict=False), str(exc))
        else:
            assert parse_vin_lenient(text) == (strict, None)


class TestAgainstOracle:
    # Padding, lowercase, the excluded I/O/Q, and non-ASCII letters, some of
    # which change length or become I/O/Q when uppercased ("ß" -> "SS", "ı" -> "I").
    @given(st.one_of(
        st.text(max_size=20),
        st.builds(
            lambda left, body, right: left + body + right,
            st.text(alphabet=" \t\n\u00a0", max_size=2),
            st.text(alphabet=LEGAL + list("abcxyz019ioqIOQéßıÅİ\ud800"), min_size=15, max_size=18),
            st.text(alphabet=" \t\n\u00a0", max_size=2),
        ),
        valid_vins,
    ))
    @example("Å" + "1" * 16)  # 17 characters, 18 bytes in UTF-8
    @example("1111\ud800" + "1" * 12)  # a lone surrogate has no UTF-8 encoding
    def test_parse_agrees_with_naive_scan(self, text):
        normalized = text.strip().upper()
        forbidden = oracle_first_forbidden(normalized)
        if len(normalized) != 17:
            with pytest.raises(WrongLength):
                parse_vin(text, strict=False)
        elif forbidden is not None:
            with pytest.raises(ForbiddenCharacter) as info:
                parse_vin(text, strict=False)
            assert (info.value.char, info.value.position) == forbidden
        else:
            expected = oracle_check_digit(normalized)
            assert parse_vin(text, strict=False).raw == normalized
            assert compute_check_digit(text) == expected
            if normalized[8] == expected:
                assert parse_vin(text).check_digit == expected
            else:
                with pytest.raises(CheckDigitMismatch) as info:
                    parse_vin(text)
                assert (info.value.expected, info.value.found) == (expected, normalized[8])


def mutated(vin: str, position: int, character: str) -> str:
    return vin[:position] + character + vin[position + 1:]


# Texts as a crash file's VIN cells may hold them: valid VINs and one-character mutations of them, the
# wrong length, lowercase, the excluded I/O/Q, and "ß", "é" and a lone surrogate, which no VIN holds.
SCAN_TEXTS = st.one_of(
    valid_vins,
    st.builds(mutated, valid_vins, st.integers(0, 16), st.sampled_from(LEGAL + list("aioqIOQß é\ud800"))),
    valid_vins.map(str.lower),
    st.text(alphabet=LEGAL + list("ioqIOQ"), min_size=15, max_size=19),
    st.sampled_from(["", "ß", "é", "\ud800", "ß" + "1" * 16, "1" * 16 + "\ud800"]),
)


class TestScanBatch:
    @settings(max_examples=300)
    @given(st.lists(SCAN_TEXTS, max_size=40))
    @example(["1ATCDEFG7MA000000", "1ATCDEFG7UA000001", "1atcdefg7ma000000", "1ATCDEFG7MA00000", "ß" + "1" * 16])
    def test_flags_exactly_what_a_lenient_parse_changes_or_warns_about(self, texts):
        """An unflagged text's check digit is the oracle's, and its model year the oracle's, None for U/Z/0."""
        flagged, years = scan_batch(texts)
        assert len(years) == len(texts)
        expected = []
        for i, text in enumerate(texts):
            vin, warning = parse_vin_lenient(text)
            if vin is None or warning is not None or vin.raw != text:
                expected.append(i)
                continue
            assert text[8] == oracle_check_digit(text)
            assert years[i] == (oracle_model_year(text[9], text[6]) if text[9] in YEAR_CODE_TABLE else None)
        assert flagged == expected
