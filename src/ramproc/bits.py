"""Bit strings and the fixed operations registers support.

A bit string is a python str over '0'/'1', least significant bit first,
possibly empty.  The empty string is written `e` in textual formats and
doubles as the "register never written" marker, which is distinct from
"0" (the one-bit encoding of zero).  Numbers are unbounded.
"""

from __future__ import annotations

import sys


def check_bits(w: str) -> str:
    # stripping 0s and 1s from both ends leaves nothing exactly when every
    # character is one of them
    if not isinstance(w, str) or w.strip("01"):
        raise ValueError("bit string must consist of 0/1 characters: %r" % (w,))
    return w


def ntob(n: int) -> str:
    """Natural number to bit string, LSB first, no leading zeros; ntob(0) = "0"."""
    if n < 0:
        raise ValueError("naturals only")
    return bin(n)[:1:-1]


# The operations, on strings already known to be bit strings: `num` reads
# a bit string as a natural, and the tables map each operation name to its
# function.  add/sub drop leading zeros (sub floors at zero), and/or keep
# the longer operand's length, eq/gt compare values and beq raw strings.
# They check nothing, so they are for the contents of a `MemState`, which
# holds only checked strings (`ramops.compile_op` and its siblings); a
# caller with strings from outside runs `check_bits` first.

def num(w: str) -> int:
    return int(w[::-1] or "0", 2)


def _bitwise(f, w1, w2):
    n = max(len(w1), len(w2))
    return format(f(num(w1), num(w2)), "0%db" % n)[::-1] if n else ""


_FLIP = str.maketrans("01", "10")

BINARY = {
    "add": lambda w1, w2: bin(num(w1) + num(w2))[:1:-1],
    "sub": lambda w1, w2: bin(max(num(w1) - num(w2), 0))[:1:-1],
    "and": lambda w1, w2: _bitwise(int.__and__, w1, w2),
    "or": lambda w1, w2: _bitwise(int.__or__, w1, w2),
}
UNARY = {
    "not": lambda w: w.translate(_FLIP),
    "shl": lambda w: "0" + w if w else w,
    "shr": lambda w: w[1:],
}
COMPARE = {
    "eq": lambda w1, w2: int(num(w1) == num(w2)),
    "gt": lambda w1, w2: int(num(w1) > num(w2)),
    "beq": lambda w1, w2: int(w1 == w2),
}


def format_bits(w: str) -> str:
    """Textual form for files and labels: `e` for the empty string."""
    check_bits(w)
    return w if w else "e"


def parse_bits(text: str) -> str:
    text = text.strip()
    if text == "e":
        return ""
    return check_bits(text)


def parse_nat(text: str) -> int:
    """A decimal natural as the input formats write it: ASCII digits, with
    surrounding whitespace allowed.  `int` would also take a sign, `_`
    separators and the digits of other scripts.  A number longer than the
    interpreter's limit on decimal conversions is refused: it could not be
    printed either."""
    digits = text.strip()
    if not digits or digits.strip("0123456789"):
        raise ValueError("expected a decimal natural, got %r" % (text,))
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0 (no limit) before 3.10.7
    if limit and len(digits) > limit:
        raise ValueError("decimal natural of %d digits is over the limit of %d digits"
                         % (len(digits), limit))
    return int(digits)
