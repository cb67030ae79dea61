import random

import pytest

from ramproc.bits import (
    bin_arith,
    bin_logic,
    bnot,
    bton,
    check_bits,
    compare,
    format_bits,
    ntob,
    parse_bits,
    shift,
)


def test_bton_lsb_first():
    assert bton("1101") == 11
    assert bton("11") == 3
    assert bton("01") == 2
    assert bton("0001") == 8
    assert bton("101") == 5
    assert bton("") == 0
    assert bton("0") == 0
    assert bton("000") == 0


def test_ntob():
    assert ntob(0) == "0"
    assert ntob(1) == "1"
    assert ntob(6) == "011"
    assert ntob(11) == "1101"
    for n in range(200):
        assert bton(ntob(n)) == n


def test_ntob_no_trailing_zero():
    for n in range(1, 64):
        assert ntob(n)[-1] == "1"


def test_check_bits():
    check_bits("")
    check_bits("010")
    with pytest.raises(ValueError):
        check_bits("012")
    with pytest.raises(ValueError):
        check_bits("1 0")


def test_arith():
    assert bin_arith("add", "11", "01") == "101"
    assert bin_arith("add", "", "") == "0"
    assert bin_arith("sub", "1101", "11") == "0001"
    # subtraction floors at zero
    assert bin_arith("sub", "11", "1101") == "0"
    assert bin_arith("sub", "101", "101") == "0"


def test_logic_keeps_length():
    assert bin_logic("and", "110", "011") == "010"
    assert bin_logic("or", "110", "011") == "111"
    # shorter operand is padded with zeros, leading zeros survive
    assert bin_logic("and", "1", "111") == "100"
    assert bin_logic("or", "00", "") == "00"


def test_not_and_shifts():
    assert bnot("0110") == "1001"
    assert bnot("") == ""
    assert shift("shl", "11") == "011"
    assert shift("shl", "") == ""
    assert shift("shr", "011") == "11"
    assert shift("shr", "") == ""


def test_compare():
    assert compare("eq", "11", "110") == 1  # numeric: 3 == 3
    assert compare("eq", "11", "01") == 0
    assert compare("gt", "01", "11") == 0  # 2 > 3 is false
    assert compare("gt", "11", "01") == 1
    assert compare("beq", "11", "110") == 0  # raw strings differ
    assert compare("beq", "", "") == 1


def test_format_parse():
    assert format_bits("") == "e"
    assert format_bits("01") == "01"
    assert parse_bits("e") == ""
    assert parse_bits("01") == "01"
    with pytest.raises(ValueError):
        parse_bits("x1")


def test_wide_numbers_round_trip():
    n = 2 ** 5000
    assert ntob(n) == "0" * 5000 + "1"
    assert bton(ntob(n)) == n
    assert bin_arith("add", ntob(n), ntob(n)) == ntob(2 * n)


def _check_bits_by_characters(w):
    """The character-by-character definition `check_bits` must agree with."""
    if not isinstance(w, str) or any(c not in "01" for c in w):
        raise ValueError("bit string must consist of 0/1 characters: %r" % (w,))
    return w


def _verdict(check, w):
    try:
        return "ok", check(w)
    except ValueError as e:
        return "error", str(e)


def test_check_bits_matches_character_definition():
    rng = random.Random(8)
    alphabet = "01" * 4 + " _\n\t2a ０１٠"
    sample = ["", "0", "1", "010", " 1", "1 ", "1_0", "0\n", "\n", "０１",
              "١", "01\x00", None, b"01", 5, 1.0, ["0"], ("1",)]
    sample += ["".join(rng.choice(alphabet) for _ in range(rng.randrange(8)))
               for _ in range(2000)]
    sample += ["".join(rng.choice("01") for _ in range(rng.randrange(40)))
               for _ in range(500)]
    for w in sample:
        assert _verdict(check_bits, w) == _verdict(_check_bits_by_characters, w), w
    assert sum(_verdict(check_bits, w)[0] == "ok" for w in sample) > 500
