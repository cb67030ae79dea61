import random

import pytest

from ramproc import bits
from ramproc.memory import EMPTY_MEM, MemState, merge_n
from ramproc.ramops import (
    BIN_NAMES,
    CMP_NAMES,
    UN_NAMES,
    BinOp,
    CmpOp,
    Dir,
    Imm,
    Ind,
    Ini,
    Load,
    Store,
    UnOp,
    apply_ini,
    apply_op,
    apply_prop,
    apply_shared,
    compile_op,
    compile_prop,
    compile_shared,
    format_op,
    merged_shared_op,
    parse_op,
    regions,
)

IMS = MemState({0: "11", 1: "1101", 6: "011"})


def _src_val(sigma, s):
    """What a `mov` from s writes, read back from its destination."""
    return compile_op(UnOp("mov", s, Dir(8)))(sigma).get(8)


def _dst_reg(sigma, d):
    """The register a `mov` to d writes: the one whose contents change."""
    after = compile_op(UnOp("mov", Imm(1), d))(sigma)
    (reg,) = [i for i, w in after.items() if sigma.get(i) != w]
    return reg


def test_src_val():
    assert _src_val(IMS, Imm(6)) == "011"
    assert _src_val(IMS, Dir(1)) == "1101"
    assert _src_val(IMS, Dir(9)) == ""
    # register 0 holds 3, so @0 reads register 3 (empty)
    assert _src_val(IMS, Ind(0)) == ""
    # register 6 holds 6? no: "011" is 6, so @6 reads register 6
    assert _src_val(IMS, Ind(6)) == "011"


def test_dst_reg():
    assert _dst_reg(IMS, Dir(4)) == 4
    assert _dst_reg(IMS, Ind(7)) == 0  # empty register reads as 0
    assert _dst_reg(IMS, Ind(0)) == 3
    with pytest.raises(ValueError):
        UnOp("mov", Imm(1), Imm(1))


def test_constructor_validation():
    with pytest.raises(ValueError):
        BinOp("add", Dir(0), Dir(1), Imm(2))
    with pytest.raises(ValueError):
        UnOp("what", Dir(0), Dir(1))
    with pytest.raises(ValueError):
        CmpOp("add", Dir(0), Dir(1))
    with pytest.raises(ValueError):
        Ini(0)
    with pytest.raises(ValueError):
        Load(Dir(1), Dir(0))  # address must be indirect


def test_apply_op_pre_state():
    # both reads and the destination resolve in the pre-state
    m = MemState({0: "1", 1: "1"})
    out = apply_op(BinOp("add", Dir(0), Dir(1), Dir(0)), m)
    assert out == MemState({0: "01", 1: "1"})
    # destination through the value being overwritten
    m2 = MemState({0: "1"})
    out2 = apply_op(UnOp("mov", Imm(5), Ind(0)), m2)
    assert out2 == MemState({0: "1", 1: "101"})


def test_apply_prop():
    assert apply_prop(CmpOp("beq", Imm(0), Dir(0)), IMS) == 0
    assert apply_prop(CmpOp("eq", Dir(0), Imm(3)), IMS) == 1
    assert apply_prop(CmpOp("gt", Dir(1), Dir(0)), IMS) == 1


def test_apply_ini():
    assert apply_ini(6) == MemState({0: "011"})
    assert apply_ini(1) == MemState({0: "1"})
    with pytest.raises(ValueError):
        apply_ini(0)


def test_apply_shared():
    p = MemState({5: ""})
    s = MemState({0: "111"})
    # empty address register points at shared register 0
    assert apply_shared(Load(Ind(5), Dir(0)), p, s) == MemState({0: "111"})
    assert apply_shared(Store(Imm(2), Ind(5)), p, s) == MemState({0: "01"})
    # load leaves the shared memory argument alone by construction
    assert apply_shared(Load(Ind(5), Dir(0)), p, s).get(5) == ""


def test_merged_shared_op_embedding():
    p = MemState({0: "1", 1: "11"})
    s = MemState({2: "011"})
    for o in (Load(Ind(1), Dir(4)), Store(Dir(0), Ind(1))):
        m = merge_n([p, s])
        if isinstance(o, Load):
            post = merge_n([apply_shared(o, p, s), s])
        else:
            post = merge_n([p, apply_shared(o, p, s)])
        assert merged_shared_op(o, m) == post


def test_regions_examples():
    inp, out = regions(BinOp("add", Imm(1), Imm(2), Dir(5)))
    assert inp.registers == frozenset() and out.registers == frozenset({5})
    inp, out = regions(BinOp("add", Dir(3), Dir(4), Dir(5)))
    assert inp.registers == frozenset({3, 4}) and out.registers == frozenset({5})
    inp, out = regions(UnOp("mov", Imm(1), Ind(2)))
    assert inp.registers == frozenset({2}) and out.is_unbounded
    inp, out = regions(CmpOp("gt", Ind(1), Dir(0)))
    assert inp.is_unbounded and out.registers == frozenset()
    inp, out = regions(Ini(3))
    assert inp.registers == frozenset() and out.is_unbounded


def test_format_parse_roundtrip():
    ops = [
        BinOp("add", Imm(1), Ind(2), Dir(5)),
        BinOp("or", Dir(0), Dir(1), Ind(2)),
        UnOp("shl", Dir(3), Dir(3)),
        UnOp("mov", Imm(0), Dir(0)),
        CmpOp("gt", Dir(1), Imm(0)),
        CmpOp("beq", Imm(2), Ind(9)),
        Ini(4),
        Load(Ind(1), Dir(4)),
        Store(Imm(7), Ind(1)),
    ]
    for o in ops:
        assert parse_op(format_op(o)) == o
    assert format_op(BinOp("add", Imm(1), Ind(2), Dir(5))) == "add:#1:@2:5"
    assert format_op(Ini(4)) == "ini:#4"
    assert format_op(Load(Ind(1), Dir(4))) == "loa:@1:4"
    assert format_op(Store(Imm(7), Ind(1))) == "sto:#7:@1"
    with pytest.raises(ValueError):
        parse_op("add:1:2")
    with pytest.raises(ValueError):
        parse_op("frob:1:2:3")


# ---------------------------------------------------------------------------
# Kernels against the cores of `bits` behind `check_bits`

def _num(w):
    return bits.num(bits.check_bits(w))


def _value(sigma, s):
    if isinstance(s, Imm):
        return bits.ntob(s.n)
    if isinstance(s, Dir):
        return sigma.get(s.i)
    return sigma.get(_num(sigma.get(s.i)))


def _register(sigma, d):
    return d.i if isinstance(d, Dir) else _num(sigma.get(d.i))


_CORES = {**bits.BINARY, **bits.UNARY, **bits.COMPARE, "mov": lambda w: w}


def _checked(name, *args):
    return _CORES[name](*map(bits.check_bits, args))


def _reference(o, sigma, shared):
    """What o does, composed from the cores of `bits` on checked strings
    and the checked `MemState.set`."""
    if isinstance(o, BinOp):
        w = _checked(o.name, _value(sigma, o.s1), _value(sigma, o.s2))
        return sigma.set(_register(sigma, o.d), w)
    if isinstance(o, UnOp):
        return sigma.set(_register(sigma, o.d), _checked(o.name, _value(sigma, o.s1)))
    if isinstance(o, CmpOp):
        return _checked(o.name, _value(sigma, o.s1), _value(sigma, o.s2))
    if isinstance(o, Load):
        return sigma.set(_register(sigma, o.d), shared.get(_register(sigma, o.addr)))
    return shared.set(_register(sigma, o.addr), _value(sigma, o.s))


WIDE = "".join(random.Random(16).choice("01") for _ in range(199)) + "1"
CONTENTS = ["", "0", "1", "01", "11", "0100", "000", "1" + "0" * 40, WIDE, "1" * 200]


def _operand(rng, kinds=(Imm, Dir, Ind)):
    kind = rng.choice(kinds)
    if kind is Imm:
        return Imm(rng.choice([0, 1, 2, 5, 2 ** 70]))
    return kind(rng.randrange(6))


def _descriptor(rng):
    roll = rng.randrange(5)
    dst = (Dir, Ind)
    if roll == 0:
        return BinOp(rng.choice(BIN_NAMES), _operand(rng), _operand(rng), _operand(rng, dst))
    if roll == 1:
        return UnOp(rng.choice(UN_NAMES), _operand(rng), _operand(rng, dst))
    if roll == 2:
        return CmpOp(rng.choice(CMP_NAMES), _operand(rng), _operand(rng))
    if roll == 3:
        return Load(Ind(rng.randrange(6)), _operand(rng, dst))
    return Store(_operand(rng), Ind(rng.randrange(6)))


def _memory(rng):
    return MemState({i: rng.choice(CONTENTS) for i in range(6) if rng.random() < 0.7})


OPERANDS = {BinOp: ("s1", "s2", "d"), UnOp: ("s1", "d"), CmpOp: ("s1", "s2"),
            Load: ("addr", "d"), Store: ("s", "addr")}


def test_kernels_match_checked_composition():
    rng = random.Random(1616)
    names, kinds = set(), {}
    for _ in range(2500):
        o = _descriptor(rng)
        sigma, shared = _memory(rng), _memory(rng)
        if isinstance(o, CmpOp):
            got = compile_prop(o)(sigma)
            assert got == apply_prop(o, sigma)
        elif isinstance(o, (Load, Store)):
            got = compile_shared(o)(sigma, shared)
            assert got == apply_shared(o, sigma, shared)
        else:
            got = compile_op(o)(sigma)
            assert got == apply_op(o, sigma)
        want = _reference(o, sigma, shared)
        assert got == want and type(got) is type(want), o
        names.add(getattr(o, "name", type(o).__name__))
        for f in OPERANDS[type(o)]:
            kinds.setdefault((type(o), f), set()).add(type(getattr(o, f)))
    assert names == set(BIN_NAMES + UN_NAMES + CMP_NAMES + ("Load", "Store"))
    assert len(kinds) == sum(map(len, OPERANDS.values()))
    for (_, f), seen in kinds.items():
        assert seen == ({Ind} if f == "addr" else {Dir, Ind} if f == "d" else {Imm, Dir, Ind})


def test_kernels_on_chosen_memories():
    wide_addr = MemState({0: WIDE, 1: "0100", 2: "1"})
    # an indirect read through a wide address finds an empty register
    assert compile_op(UnOp("mov", Ind(0), Dir(3)))(wide_addr) == wide_addr.set(3, "")
    # and an indirect write lands on that register
    out = compile_op(UnOp("mov", Imm(1), Ind(0)))(wide_addr)
    assert out.get(bits.num(WIDE)) == "1"
    # leading zeros: numerically equal, but not the same sequence
    m = MemState({0: "1", 1: "10"})
    assert compile_prop(CmpOp("eq", Dir(0), Dir(1)))(m) == 1
    assert compile_prop(CmpOp("beq", Dir(0), Dir(1)))(m) == 0
    # and/or keep leading zeros, add/sub drop them
    assert compile_op(BinOp("or", Dir(1), Dir(9), Dir(2)))(m).get(2) == "10"
    assert compile_op(BinOp("add", Dir(1), Imm(0), Dir(2)))(m).get(2) == "1"
    # an empty address register points at register 0
    assert compile_shared(Load(Ind(7), Dir(1)))(EMPTY_MEM, MemState({0: "11"})) == MemState({1: "11"})


@pytest.mark.parametrize("compile_, wrong, message", [
    (compile_op, CmpOp("eq", Dir(0), Dir(1)), "apply_op takes a binary or unary operator"),
    (compile_prop, UnOp("mov", Dir(0), Dir(1)), "apply_prop takes a comparison"),
    (compile_shared, Ini(1), "apply_shared takes load or store"),
])
def test_kernel_errors_match_apply(compile_, wrong, message):
    with pytest.raises(ValueError, match=message):
        compile_(wrong)
