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
    check_bits(w)
    return int(w[::-1] or "0", 2)


def bin_arith(op: str, w1: str, w2: str) -> str:
    """add / sub on the numeric values; sub is truncated at zero.

    Results round-trip through the numeric interpretation, so they never
    carry leading zeros ("0" is the only string for zero).
    """
    a, b = bton(w1), bton(w2)
    if op == "add":
        return ntob(a + b)
    if op == "sub":
        return ntob(max(a - b, 0))
    raise ValueError("unknown arithmetic op %r" % (op,))


def bin_logic(op: str, w1: str, w2: str) -> str:
    """Bitwise and / or; the shorter operand is padded with zeros at the top.

    Result length is max(len(w1), len(w2)); leading zeros are kept.
    """
    check_bits(w1)
    check_bits(w2)
    n = max(len(w1), len(w2))
    p1 = w1.ljust(n, "0")
    p2 = w2.ljust(n, "0")
    if op == "and":
        return "".join("1" if a == b == "1" else "0" for a, b in zip(p1, p2))
    if op == "or":
        return "".join("1" if "1" in (a, b) else "0" for a, b in zip(p1, p2))
    raise ValueError("unknown logic op %r" % (op,))


def bnot(w: str) -> str:
    check_bits(w)
    return "".join("1" if c == "0" else "0" for c in w)


def shift(op: str, w: str) -> str:
    """shl prepends a 0 at the LSB end (doubles the value), shr drops the LSB
    (halves, rounding down).  Both leave the empty string alone."""
    check_bits(w)
    if op == "shl":
        return "0" + w if w else w
    if op == "shr":
        return w[1:]
    raise ValueError("unknown shift op %r" % (op,))


def compare(op: str, w1: str, w2: str) -> int:
    """eq / gt compare numeric values; beq compares the raw sequences."""
    check_bits(w1)
    check_bits(w2)
    if op == "eq":
        return int(bton(w1) == bton(w2))
    if op == "gt":
        return int(bton(w1) > bton(w2))
    if op == "beq":
        return int(w1 == w2)
    raise ValueError("unknown comparison %r" % (op,))


def format_bits(w: str) -> str:
    """Textual form for files and labels: `e` for the empty string."""
    check_bits(w)
    return w if w else "e"


def parse_bits(text: str) -> str:
    text = text.strip()
    if text == "e":
        return ""
    return check_bits(text)
