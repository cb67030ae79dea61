import random

import pytest

from ramproc.memory import (
    EMPTY_MEM,
    MemState,
    format_mem,
    load_mem_file,
    merge_n,
    split_n,
)
from ramproc.syntax import parse_term


def _parse_mem(text):
    """A memory literal, read by the term parser."""
    return parse_term("v := " + text).e.mem


def test_empty_registers_are_identified():
    assert MemState({3: ""}) == EMPTY_MEM
    assert MemState({}) == EMPTY_MEM
    assert MemState({0: "1", 1: ""}) == MemState({0: "1"})


def test_get_and_set():
    m = MemState({0: "11", 2: "101"})
    assert m(0) == "11"
    assert m(1) == ""
    assert m(2) == "101"
    m2 = m.set(1, "0")
    assert m2(1) == "0"
    assert m(1) == ""  # original untouched
    assert m.set(0, "") == MemState({2: "101"})


def test_hash_follows_writes():
    """The hash that `_put` updates from the written pair alone is the one
    the constructor gives the same registers, writes of the empty string
    and rewrites of a held register included."""
    rng = random.Random(18)
    m, regs = EMPTY_MEM, {}
    for _ in range(2000):
        i, w = rng.randrange(12), rng.choice(["", "", "0", "1", "01", "110"])
        m = m._put(i, w)
        if w:
            regs[i] = w
        else:
            regs.pop(i, None)
        fresh = MemState(regs)
        assert m == fresh and hash(m) == hash(fresh)
    assert hash(MemState({0: "1", 1: "0"})) == hash(MemState({1: "0", 0: "1"}))


def test_registers_sorted():
    m = MemState({5: "1", 2: "0"})
    assert m.registers() == [2, 5]
    assert m.items() == [(2, "0"), (5, "1")]


def test_hash_eq():
    assert hash(MemState({0: "1"})) == hash(MemState({0: "1", 7: ""}))
    assert MemState({0: "1"}) != MemState({0: "10"})


def test_initial_mem():
    assert MemState([(1, "11"), (3, "01")]) == MemState({1: "11", 3: "01"})
    assert MemState([(2, "")]) == EMPTY_MEM
    assert MemState([]) == EMPTY_MEM


def test_merge_split_roundtrip():
    a = MemState({0: "1", 2: "11"})
    b = MemState({1: "0"})
    m = merge_n([a, b])
    # register i of memory k (1-based) lands at n*i + k - 1
    assert m(0) == "1" and m(4) == "11" and m(3) == "0"
    assert split_n(m, 2) == [a, b]
    assert merge_n([a]) == a
    assert split_n(a, 1) == [a]


def test_format_parse_mem():
    m = MemState({0: "11", 3: "101"})
    assert format_mem(m) == "[0:11, 3:101]"
    assert format_mem(EMPTY_MEM) == "[]"
    assert _parse_mem(format_mem(m)) == m
    assert _parse_mem(format_mem(EMPTY_MEM)) == EMPTY_MEM
    with pytest.raises(ValueError):
        _parse_mem("[0:2]")


def test_mem_file_roundtrip(tmp_path):
    m = MemState({0: "1101", 5: "0"})
    p = tmp_path / "mem.txt"
    p.write_text("0=1101\n5=0\n")
    assert load_mem_file(p) == m
    p2 = tmp_path / "hand.txt"
    p2.write_text("# input\n0 = 11\n2=e\n\n7 = 01\n")
    assert load_mem_file(p2) == MemState({0: "11", 7: "01"})


@pytest.mark.parametrize("build, message", [
    (lambda: MemState({-1: "1"}), "register numbers are naturals: -1"),
    (lambda: MemState({"0": "1"}), "register numbers are naturals: '0'"),
    (lambda: MemState({0: "12"}), "bit string must consist of 0/1 characters: '12'"),
    (lambda: MemState({0: 1}), "bit string must consist of 0/1 characters: 1"),
    (lambda: MemState({0: "1"}).set(-2, "1"), "register numbers are naturals: -2"),
    (lambda: MemState({0: "1"}).set(3, "e"), "bit string must consist of 0/1 characters: 'e'"),
    (lambda: _parse_mem("[0:1, 2:3]"), "expected a bit string, got '3' at offset 13"),
    (lambda: _parse_mem("0:1"), "expected a data expression, got '0' at offset 5"),
])
def test_validation_messages_pinned(build, message):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_mem_file_validation_message_pinned(tmp_path):
    p = tmp_path / "bad.mem"
    p.write_text("0=11\n1=102\n")
    with pytest.raises(ValueError) as err:
        load_mem_file(p)
    assert str(err.value) == "%s:2: bit string must consist of 0/1 characters: '102'" % p


def test_register_operation_results_are_ordinary_states():
    from ramproc.ramops import BinOp, Dir, Imm, Ind, Load, Store, UnOp, apply_ini, apply_op, apply_shared

    sigma = MemState({0: "1", 1: "101", 2: "11"})
    results = [
        apply_op(BinOp("add", Dir(1), Dir(2), Dir(3)), sigma),
        apply_op(BinOp("and", Dir(5), Dir(6), Ind(0)), sigma),  # writes the empty string
        apply_op(UnOp("not", Dir(1), Dir(1)), sigma),
        apply_op(UnOp("mov", Imm(6), Dir(0)), sigma),
        apply_ini(3),
        apply_shared(Load(Ind(0), Dir(4)), sigma, MemState({1: "0"})),
        apply_shared(Store(Dir(2), Ind(0)), sigma, EMPTY_MEM),
    ]
    expected = [
        MemState({0: "1", 1: "101", 2: "11", 3: "0001"}),
        MemState({0: "1", 2: "11"}),
        MemState({0: "1", 1: "010", 2: "11"}),
        MemState({0: "011", 1: "101", 2: "11"}),
        MemState({0: "11"}),
        MemState({0: "1", 1: "101", 2: "11", 4: "0"}),
        MemState({1: "11"}),
    ]
    for got, want in zip(results, expected):
        assert got == want and hash(got) == hash(want) and got.items() == want.items()
