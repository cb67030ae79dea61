"""Bit strings and the fixed operations registers support.

A bit string is a python str over '0'/'1', least significant bit first,
possibly empty.  The empty string is written `e` in textual formats and
doubles as the "register never written" marker, which is distinct from
"0" (the one-bit encoding of zero).  Numbers are unbounded.
"""

from __future__ import annotations

ARITH_OPS = ("add", "sub")


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


def bton(w: str) -> int:
    """Bit string to natural number.  Tolerates leading (high-index) zeros."""
    return num(check_bits(w))


# The operations themselves, on strings already known to be bit strings:
# `num` is `bton`, and the tables map each operation name to its function.
# They check nothing, so they are for the contents of a `MemState`, which
# holds only checked strings (`ramops.compile_op` and its siblings); the
# public functions below check their arguments, then call them.

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


def bin_arith(op: str, w1: str, w2: str) -> str:
    """add / sub on the numeric values; sub is truncated at zero.

    Results round-trip through the numeric interpretation, so they never
    carry leading zeros ("0" is the only string for zero).
    """
    check_bits(w1)
    check_bits(w2)
    if op not in ARITH_OPS:
        raise ValueError("unknown arithmetic op %r" % (op,))
    return BINARY[op](w1, w2)


def bin_logic(op: str, w1: str, w2: str) -> str:
    """Bitwise and / or; the shorter operand is padded with zeros at the top.

    Result length is max(len(w1), len(w2)); leading zeros are kept.
    """
    check_bits(w1)
    check_bits(w2)
    if op not in ("and", "or"):
        raise ValueError("unknown logic op %r" % (op,))
    return BINARY[op](w1, w2)


def bnot(w: str) -> str:
    return UNARY["not"](check_bits(w))


def shift(op: str, w: str) -> str:
    """shl prepends a 0 at the LSB end (doubles the value), shr drops the LSB
    (halves, rounding down).  Both leave the empty string alone."""
    check_bits(w)
    if op not in ("shl", "shr"):
        raise ValueError("unknown shift op %r" % (op,))
    return UNARY[op](w)


def compare(op: str, w1: str, w2: str) -> int:
    """eq / gt compare numeric values; beq compares the raw sequences."""
    check_bits(w1)
    check_bits(w2)
    if op not in COMPARE:
        raise ValueError("unknown comparison %r" % (op,))
    return COMPARE[op](w1, w2)


def format_bits(w: str) -> str:
    """Textual form for files and labels: `e` for the empty string."""
    check_bits(w)
    return w if w else "e"


def parse_bits(text: str) -> str:
    text = text.strip()
    if text == "e":
        return ""
    return check_bits(text)
