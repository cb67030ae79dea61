import random
import sys

import pytest

from ramproc.bits import (
    BINARY,
    COMPARE,
    UNARY,
    check_bits,
    format_bits,
    ntob,
    num,
    parse_bits,
    parse_nat,
)

# The cores check nothing; a string from outside goes through `check_bits`
# first, as `MemState` does with register contents.
CORES = {**BINARY, **UNARY, **COMPARE}


def _checked(name, *args):
    return CORES[name](*map(check_bits, args))


def bton(w):
    return num(check_bits(w))


def bnot(w):
    return _checked("not", w)


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
    assert BINARY["add"]("11", "01") == "101"
    assert BINARY["add"]("", "") == "0"
    assert BINARY["sub"]("1101", "11") == "0001"
    # subtraction floors at zero
    assert BINARY["sub"]("11", "1101") == "0"
    assert BINARY["sub"]("101", "101") == "0"


def test_logic_keeps_length():
    assert BINARY["and"]("110", "011") == "010"
    assert BINARY["or"]("110", "011") == "111"
    # shorter operand is padded with zeros, leading zeros survive
    assert BINARY["and"]("1", "111") == "100"
    assert BINARY["or"]("00", "") == "00"


def test_not_and_shifts():
    assert UNARY["not"]("0110") == "1001"
    assert UNARY["not"]("") == ""
    assert UNARY["shl"]("11") == "011"
    assert UNARY["shl"]("") == ""
    assert UNARY["shr"]("011") == "11"
    assert UNARY["shr"]("") == ""


def test_compare():
    assert COMPARE["eq"]("11", "110") == 1  # numeric: 3 == 3
    assert COMPARE["eq"]("11", "01") == 0
    assert COMPARE["gt"]("01", "11") == 0  # 2 > 3 is false
    assert COMPARE["gt"]("11", "01") == 1
    assert COMPARE["beq"]("11", "110") == 0  # raw strings differ
    assert COMPARE["beq"]("", "") == 1


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
    assert BINARY["add"](ntob(n), ntob(n)) == ntob(2 * n)


def test_parse_nat_refuses_more_digits_than_int_converts():
    # the interpreter's limit stays as it is; parse_nat names it instead of
    # passing on int's advice to raise it
    limit = sys.get_int_max_str_digits()
    assert limit, "this check needs the conversion limit on"
    assert parse_nat(" %s\n" % ("0" * (limit - 1) + "7")) == 7
    for digits in ("1" * (limit + 1), "0" * limit + "1"):
        with pytest.raises(ValueError) as info:
            parse_nat(digits)
        assert str(info.value) == ("decimal natural of %d digits is over the limit of %d digits"
                                   % (limit + 1, limit))
    assert sys.get_int_max_str_digits() == limit


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


@pytest.mark.parametrize("call", [
    bton, bnot, format_bits,
    lambda w: _checked("add", "1", w), lambda w: _checked("sub", w, "1"),
    lambda w: _checked("and", w, ""), lambda w: _checked("or", "1", w),
    lambda w: _checked("shl", w), lambda w: _checked("shr", w),
    lambda w: _checked("eq", w, "1"), lambda w: _checked("gt", "1", w), lambda w: _checked("beq", w, w),
], ids=lambda f: getattr(f, "__name__", "op"))
@pytest.mark.parametrize("bad", ["12", "1_0", " 1", "0b1", None])
def test_public_operations_check_their_arguments(call, bad):
    # int(..., 2) alone, and so `num`, would take the underscore, the space
    # and the prefix
    with pytest.raises(ValueError, match="bit string must consist of 0/1 characters"):
        call(bad)


def _number(w):
    return sum(1 << k for k, c in enumerate(w) if c == "1")


def _string(n):
    out = ""
    while n:
        out, n = out + "01"[n & 1], n >> 1
    return out or "0"


# The operations by their definitions, character by character; the cores are
# checked against these, and the register kernels (test_ramops) against the
# cores behind `check_bits`.
DEFINITIONS = {
    "add": lambda a, b: _string(_number(a) + _number(b)),
    "sub": lambda a, b: _string(max(_number(a) - _number(b), 0)),
    "and": lambda a, b: "".join("1" if x == y == "1" else "0"
                                for x, y in zip(a.ljust(len(b), "0"), b.ljust(len(a), "0"))),
    "or": lambda a, b: "".join("1" if "1" in (x, y) else "0"
                               for x, y in zip(a.ljust(len(b), "0"), b.ljust(len(a), "0"))),
    "not": lambda a: "".join("1" if c == "0" else "0" for c in a),
    "shl": lambda a: "0" + a if a else a,
    "shr": lambda a: a[1:],
    "eq": lambda a, b: int(_number(a) == _number(b)),
    "gt": lambda a, b: int(_number(a) > _number(b)),
    "beq": lambda a, b: int(a == b),
}


def test_operations_match_their_definitions():
    rng = random.Random(1617)
    pool = ["", "0", "1", "01", "10", "000", "0100", "1" + "0" * 40]
    pool += ["".join(rng.choice("01") for _ in range(rng.choice([3, 8, 200]))) for _ in range(12)]
    assert DEFINITIONS.keys() == CORES.keys()
    for name, define in DEFINITIONS.items():
        arity = define.__code__.co_argcount
        for _ in range(300):
            args = [rng.choice(pool) for _ in range(arity)]
            assert CORES[name](*args) == define(*args), (name, args)
    assert bton("0" * 199 + "1") == 1 << 199 == _number("0" * 199 + "1")
