"""Register-machine operator descriptors and their interpretation.

Descriptors cover the sequential operator set (binary/unary arithmetic and
logic, comparisons) and the shared-memory extension (ini, load, store).
Operand addressing: `#n` immediate, `n` direct, `@n` indirect (the register
whose number is stored in register n).  All valuations read the pre-state;
an instruction writes at most one register, chosen from the pre-state too.

The semantics is given once, by kernels: `compile_op`, `compile_prop` and
`compile_shared` resolve a descriptor's operands once and return a closure
over memories, and `apply_op`, `apply_prop` and `apply_shared` compile and
call.  A kernel reads registers and computes on them without checking them,
through the unchecked cores of `bits`.  It relies on the `MemState`
invariant: a memory holds only checked bit strings.  The constructor and
`set` check, and `MemState._put`, which the kernels write through, is
handed only strings the cores computed from such contents or immediates.

Canonical text forms: `add:#1:@2:5`, `mov:3:@0`, `gt:1:#0`, `ini:#2`,
`loa:@1:4`, `sto:#7:@1`.
"""

from __future__ import annotations

from . import bits
from .bits import ntob, num, parse_nat
from .memory import EMPTY_MEM, MemState, merge_n, split_n
from .nodes import node

BIN_NAMES = ("add", "sub", "and", "or")
UN_NAMES = ("not", "shl", "shr", "mov")
CMP_NAMES = ("eq", "gt", "beq")


@node
class Imm:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("immediate must be a natural")


@node
class Dir:
    i: int

    def __post_init__(self):
        if self.i < 0:
            raise ValueError("register numbers are naturals")


@node
class Ind:
    i: int

    def __post_init__(self):
        if self.i < 0:
            raise ValueError("register numbers are naturals")


def _check_src(s, what):
    if not isinstance(s, (Imm, Dir, Ind)):
        raise ValueError("%s must be an operand, got %r" % (what, s))


def _check_dst(d, what):
    if not isinstance(d, (Dir, Ind)):
        raise ValueError("%s must be a register operand (no immediates)" % (what,))


@node
class BinOp:
    name: str
    s1: object
    s2: object
    d: object

    def __post_init__(self):
        if self.name not in BIN_NAMES:
            raise ValueError("unknown binary op %r" % (self.name,))
        _check_src(self.s1, "source 1")
        _check_src(self.s2, "source 2")
        _check_dst(self.d, "destination")


@node
class UnOp:
    name: str
    s1: object
    d: object

    def __post_init__(self):
        if self.name not in UN_NAMES:
            raise ValueError("unknown unary op %r" % (self.name,))
        _check_src(self.s1, "source")
        _check_dst(self.d, "destination")


@node
class CmpOp:
    name: str
    s1: object
    s2: object

    def __post_init__(self):
        if self.name not in CMP_NAMES:
            raise ValueError("unknown comparison %r" % (self.name,))
        _check_src(self.s1, "source 1")
        _check_src(self.s2, "source 2")


@node
class Ini:
    i: int

    def __post_init__(self):
        if self.i < 1:
            raise ValueError("memory numbers start at 1")


@node
class Load:
    addr: Ind
    d: object

    def __post_init__(self):
        if not isinstance(self.addr, Ind):
            raise ValueError("load address must be indirect")
        _check_dst(self.d, "destination")


@node
class Store:
    s: object
    addr: Ind

    def __post_init__(self):
        _check_src(self.s, "source")
        if not isinstance(self.addr, Ind):
            raise ValueError("store address must be indirect")


SINGLE_MEM = (BinOp, UnOp)
SHARED_MEM = (Load, Store)


def _source(s):
    """Source operand s, resolved once, as a function of a memory's register
    dict (pre-state): an immediate is its bit string, a direct operand a
    register number, an indirect one a read of its address register.  The
    operator's constructor has checked that s is an operand."""
    if isinstance(s, Dir):
        i = s.i
        return lambda r: r.get(i, "")
    if isinstance(s, Imm):
        w = ntob(s.n)
        return lambda r: w
    addr = _dest(s)
    return lambda r: r.get(addr(r), "")


def _dest(d):
    """Destination operand d, direct or indirect, as a function of a
    register dict (pre-state)."""
    i = d.i
    if isinstance(d, Dir):
        return lambda r: i
    return lambda r: num(r.get(i, ""))


def compile_op(o):
    """The kernel of a single-memory, non-comparison operator: a function
    from a memory to its post-state."""
    if isinstance(o, BinOp):
        f, x1, x2 = bits.BINARY[o.name], _source(o.s1), _source(o.s2)
        value = lambda r: f(x1(r), x2(r))
    elif isinstance(o, UnOp) and o.name == "mov":
        value = _source(o.s1)
    elif isinstance(o, UnOp):
        f, x = bits.UNARY[o.name], _source(o.s1)
        value = lambda r: f(x(r))
    else:
        raise ValueError("apply_op takes a binary or unary operator, got %r" % (o,))
    if isinstance(o.d, Dir):
        i = o.d.i
        return lambda sigma: sigma._put(i, value(sigma._regs))
    dst = _dest(o.d)
    return lambda sigma: sigma._put(dst(sigma._regs), value(sigma._regs))


def compile_prop(p):
    """The kernel of a comparison: a function from a memory to 0 or 1."""
    if not isinstance(p, CmpOp):
        raise ValueError("apply_prop takes a comparison, got %r" % (p,))
    f, x1, x2 = bits.COMPARE[p.name], _source(p.s1), _source(p.s2)
    return lambda sigma: f(x1(sigma._regs), x2(sigma._regs))


def compile_shared(o):
    """The kernel of load or store: a function of the (private, shared)
    memories giving the updated private memory for a load and the updated
    shared one for a store; the other memory is read only.  The address
    register and the destination are read in the private memory."""
    if isinstance(o, Load):
        addr, dst = _dest(o.addr), _dest(o.d)

        def load(sigma_p, sigma_s):
            r = sigma_p._regs
            return sigma_p._put(dst(r), sigma_s._regs.get(addr(r), ""))
        return load
    if isinstance(o, Store):
        addr, x = _dest(o.addr), _source(o.s)

        def store(sigma_p, sigma_s):
            r = sigma_p._regs
            return sigma_s._put(addr(r), x(r))
        return store
    raise ValueError("apply_shared takes load or store, got %r" % (o,))


def apply_op(o, sigma: MemState) -> MemState:
    """Interpret a single-memory, non-comparison operator."""
    return compile_op(o)(sigma)


def apply_prop(p, sigma: MemState) -> int:
    """Interpret a comparison; 0 or 1, sigma untouched."""
    return compile_prop(p)(sigma)


def apply_ini(i: int) -> MemState:
    """Initialisation: an all-empty memory with register 0 = ntob(i).
    The pre-state is irrelevant by definition."""
    if i < 1:
        raise ValueError("memory numbers start at 1")
    return EMPTY_MEM._put(0, ntob(i))


def apply_shared(o, sigma_p: MemState, sigma_s: MemState) -> MemState:
    """Interpret load/store over (private, shared) memories (`compile_shared`)."""
    return compile_shared(o)(sigma_p, sigma_s)


# ---------------------------------------------------------------------------
# Region analysis

@node
class RegionInfo:
    """Which registers an operator may read (input) or write (output).

    registers=None means the region is unbounded (some indirect operand
    makes it depend on the state).
    """

    registers: object  # frozenset[int] | None

    @classmethod
    def finite(cls, regs):
        return cls(frozenset(regs))

    @classmethod
    def unbounded(cls):
        return cls(None)

    @property
    def is_unbounded(self):
        return self.registers is None


def _src_regions(operands):
    read = set()
    unbounded = False
    for s in operands:
        if isinstance(s, Dir):
            read.add(s.i)
        elif isinstance(s, Ind):
            read.add(s.i)
            unbounded = True
    return read, unbounded


def regions(o):
    """Static (input, output) region analysis of a descriptor.

    Exact for immediate/direct addressing.  An indirect source makes the
    input region unbounded; an indirect destination makes the output region
    unbounded and adds its address register to the input region.  Load and
    store are analysed over the 2-memory interleaving (private register i
    at even position 2i, shared register i at odd position 2i+1).
    """
    if isinstance(o, BinOp):
        read, unb = _src_regions([o.s1, o.s2])
        return _with_dst(read, unb, o.d)
    if isinstance(o, UnOp):
        read, unb = _src_regions([o.s1])
        return _with_dst(read, unb, o.d)
    if isinstance(o, CmpOp):
        read, unb = _src_regions([o.s1, o.s2])
        inp = RegionInfo.unbounded() if unb else RegionInfo.finite(read)
        return inp, RegionInfo.finite(())
    if isinstance(o, Ini):
        return RegionInfo.finite(()), RegionInfo.unbounded()
    if isinstance(o, Load):
        return RegionInfo.unbounded(), (
            RegionInfo.finite({2 * o.d.i}) if isinstance(o.d, Dir) else RegionInfo.unbounded()
        )
    if isinstance(o, Store):
        return RegionInfo.unbounded(), RegionInfo.unbounded()
    raise ValueError("not an operator descriptor: %r" % (o,))


def _with_dst(read, read_unbounded, d):
    if isinstance(d, Ind):
        read.add(d.i)
        out = RegionInfo.unbounded()
    else:
        out = RegionInfo.finite({d.i})
    inp = RegionInfo.unbounded() if read_unbounded else RegionInfo.finite(read)
    return inp, out


def merged_shared_op(o, sigma: MemState) -> MemState:
    """The load/store semantics transplanted onto a 2-way interleaved memory.

    Used to check that load/store behave as single-memory operations on the
    merged state: applying this to merge_n([p, s]) must equal merging the
    (post-private, post-shared) pair.
    """
    if not isinstance(o, SHARED_MEM):
        raise ValueError("merged form only defined for load/store")
    p, s = split_n(sigma, 2)
    if isinstance(o, Load):
        return merge_n([apply_shared(o, p, s), s])
    return merge_n([p, apply_shared(o, p, s)])


# ---------------------------------------------------------------------------
# Canonical text syntax

def format_operand(s) -> str:
    if isinstance(s, Imm):
        return "#%d" % s.n
    if isinstance(s, Dir):
        return "%d" % s.i
    if isinstance(s, Ind):
        return "@%d" % s.i
    raise ValueError("not an operand: %r" % (s,))


def parse_operand(text: str):
    text = text.strip()
    if text.startswith("#"):
        return Imm(parse_nat(text[1:]))
    if text.startswith("@"):
        return Ind(parse_nat(text[1:]))
    return Dir(parse_nat(text))


def format_op(o) -> str:
    if isinstance(o, BinOp):
        parts = [o.name, format_operand(o.s1), format_operand(o.s2), format_operand(o.d)]
    elif isinstance(o, UnOp):
        parts = [o.name, format_operand(o.s1), format_operand(o.d)]
    elif isinstance(o, CmpOp):
        parts = [o.name, format_operand(o.s1), format_operand(o.s2)]
    elif isinstance(o, Ini):
        parts = ["ini", "#%d" % o.i]
    elif isinstance(o, Load):
        parts = ["loa", format_operand(o.addr), format_operand(o.d)]
    elif isinstance(o, Store):
        parts = ["sto", format_operand(o.s), format_operand(o.addr)]
    else:
        raise ValueError("not an operator descriptor: %r" % (o,))
    return ":".join(parts)


def parse_op(text: str):
    parts = [p.strip() for p in text.strip().split(":")]
    name, args = parts[0], parts[1:]

    def arity(n):
        if len(args) != n:
            raise ValueError("%s takes %d operand(s), got %r" % (name, n, text))

    if name in BIN_NAMES:
        arity(3)
        return BinOp(name, parse_operand(args[0]), parse_operand(args[1]), parse_operand(args[2]))
    if name in UN_NAMES:
        arity(2)
        return UnOp(name, parse_operand(args[0]), parse_operand(args[1]))
    if name in CMP_NAMES:
        arity(2)
        return CmpOp(name, parse_operand(args[0]), parse_operand(args[1]))
    if name == "ini":
        arity(1)
        op = parse_operand(args[0])
        if not isinstance(op, Imm):
            raise ValueError("ini takes an immediate memory number")
        return Ini(op.n)
    if name == "loa":
        arity(2)
        return Load(parse_operand(args[0]), parse_operand(args[1]))
    if name == "sto":
        arity(2)
        return Store(parse_operand(args[0]), parse_operand(args[1]))
    raise ValueError("unknown operator %r" % (name,))
