"""RAM memory states: register-number -> bit string, almost everywhere empty.

States are immutable and hashable.  Only registers holding a non-empty
string are stored, which makes the cofinitely-empty invariant structural:
any state you can build satisfies it.
"""

from __future__ import annotations

import sys

from .bits import check_bits, parse_bits, parse_nat

_MODULUS = sys.hash_info.modulus  # keeps a memory's hash, a sum, a machine-sized int


class MemState:
    """Immutable RAM memory.  Unset registers read as the empty string."""

    __slots__ = ("_regs", "_hash")

    def __init__(self, regs=None):
        d = {}
        if regs:
            for i, w in dict(regs).items():
                if not isinstance(i, int) or i < 0:
                    raise ValueError("register numbers are naturals: %r" % (i,))
                check_bits(w)
                if w:
                    d[i] = w
        self._regs = d
        self._hash = sum(map(hash, d.items())) % _MODULUS

    def get(self, i: int) -> str:
        return self._regs.get(i, "")

    __call__ = get

    def set(self, i: int, w: str) -> "MemState":
        """Override: a fresh state with register i holding w."""
        if not isinstance(i, int) or i < 0:
            raise ValueError("register numbers are naturals: %r" % (i,))
        check_bits(w)
        return self._put(i, w)

    def _put(self, i: int, w: str) -> "MemState":
        """`set` without checks, for the register kernels of `ramops`.

        A state holds only checked bit strings (`__init__` and `set` check
        them), and the kernels rely on it: they read registers without
        checking and hand `_put` only strings computed from such contents
        or from immediates, and register numbers that are naturals.  The
        hash, a sum over the (register, string) pairs, changes by the
        written pair alone."""
        d = self._regs.copy()
        h = self._hash
        old = d.get(i)
        if old is not None:
            h -= hash((i, old))
        if w:
            d[i] = w
            h += hash((i, w))
        elif old is not None:
            del d[i]
        m = object.__new__(MemState)
        m._regs = d
        m._hash = h % _MODULUS
        return m

    def registers(self):
        """Sorted register numbers holding a non-empty string."""
        return sorted(self._regs)

    def items(self):
        return [(i, self._regs[i]) for i in sorted(self._regs)]

    def __eq__(self, other):
        return isinstance(other, MemState) and self._regs == other._regs

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "MemState(%r)" % (dict(self.items()),)

    def __str__(self):
        return format_mem(self)


EMPTY_MEM = MemState()


def merge_n(mems) -> MemState:
    """Interleave n memories into one: register i of memory k (1-based)
    lands at register n*i + k - 1 of the result."""
    mems = list(mems)
    n = len(mems)
    if n == 0:
        raise ValueError("need at least one memory")
    d = {}
    for k, sigma in enumerate(mems, start=1):
        for i, w in sigma.items():
            d[n * i + k - 1] = w
    return MemState(d)


def split_n(sigma: MemState, n: int):
    """Inverse of merge_n: register j of the merged state belongs to
    memory (j mod n) + 1 at index j div n."""
    if n < 1:
        raise ValueError("need at least one memory")
    parts = [{} for _ in range(n)]
    for j, w in sigma.items():
        parts[j % n][j // n] = w
    return [MemState(p) for p in parts]


def format_mem(sigma: MemState) -> str:
    """Inline literal used in term syntax: `[0:11, 3:101]`, `[]` for all-empty.
    A state holds only checked, non-empty strings, so each prints as itself."""
    return "[" + ", ".join(["%d:%s" % iw for iw in sigma.items()]) + "]"


def load_mem_file(path) -> MemState:
    """Memory file format: one `index=bitstring` per line; `e` is the empty
    string; blank lines and lines starting with # are skipped."""
    d = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            reg, sep, bits_text = line.partition("=")
            if not sep:
                raise ValueError("%s:%d: expected index=bitstring" % (path, lineno))
            try:
                d[parse_nat(reg)] = parse_bits(bits_text)
            except ValueError as exc:
                raise ValueError("%s:%d: %s" % (path, lineno, exc)) from None
    return MemState(d)

