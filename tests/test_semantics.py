import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import zlib

import pytest

from ramproc import terms as T
from ramproc.bisim import rb_bisim
from ramproc.machines import (
    HALT,
    SMBRAM,
    Jmp,
    Op,
    Program,
    compose_async,
    compose_sync,
    parse_program,
    proc_of_bbram,
    proc_of_smbram_async,
    proc_of_smbram_sync,
)
from ramproc.memory import EMPTY_MEM, MemState
from ramproc.ramops import BinOp, CmpOp, Dir, Imm, Ind, Ini, Load, Store, UnOp
from ramproc import semantics
from ramproc.semantics import (
    DEFAULT_GAMMA,
    CommFunction,
    SemanticsError,
    UndecidedError,
    build_lts,
    count_maximal_paths,
    depth,
    eventually_halts,
    lts_to_dot,
    lts_to_json,
    _topo_order,
    normalize_basic,
    step,
    sync_merge_expand,
    terminal_valuations,
)
from ramproc.syntax import format_term, parse_term
from ramproc.terms import (
    DELTA,
    EPS,
    TAU,
    TRUE,
    Act,
    Alt,
    Assign,
    Assignment,
    Eval,
    FlexVar,
    Guard,
    MemLiteral,
    Par,
    Plain,
    Rec,
    RecSpec,
    Seq,
    SyncMerge,
    Tau,
    Valuation,
    Var,
)

import sample_terms
from axiom_defs import AXIOMS, GAMMA, Gen
from test_machines import _random_mem, _random_program

GAMMA_AB = CommFunction.make({("a", "b"): "c"})


def test_step_basics():
    ok, moves = step(EPS)
    assert ok and moves == ()
    ok, moves = step(DELTA)
    assert not ok and moves == ()
    ok, moves = step(Act("a"))
    assert not ok and moves == ((Plain("a"), EPS),)
    ok, moves = step(TAU)
    assert not ok and [lab for lab, _ in moves] == [Tau()]


def test_step_seq_and_alt():
    ok, moves = step(Seq(EPS, Act("a")))
    assert not ok and len(moves) == 1
    ok, moves = step(Alt(EPS, Act("a")))
    assert ok and len(moves) == 1
    ok, _ = step(Seq(Alt(EPS, Act("a")), EPS))
    assert ok


def test_step_eval_assignment():
    sigma = MemState({0: "1101"})
    rho = Valuation.make({"i": sigma, "d": EMPTY_MEM})
    t = Eval(rho, Seq(Assign("d", FlexVar("i")), EPS))
    ok, moves = step(t)
    assert not ok and len(moves) == 1
    lab, u = moves[0]
    assert lab == Assignment("d", sigma, frozenset())
    assert u == Eval(rho.set("d", sigma), Seq(EPS, EPS))


def test_step_par_communication():
    t = Par(Seq(Act("a"), EPS), Seq(Act("b"), EPS))
    ok, moves = step(t, gamma=GAMMA_AB)
    labs = sorted(str(lab) for lab, _ in moves)
    assert len(moves) == 3 and any("c" in s for s in labs)
    # without a matching pair there is no communication step
    ok, moves = step(t)
    assert len(moves) == 2


def test_step_guard_needs_ground_cond():
    t = Guard(T.DataEq(FlexVar("x"), MemLiteral(EMPTY_MEM)), EPS)
    with pytest.raises(SemanticsError):
        step(t)
    ok, _ = step(Eval(Valuation.make({"x": EMPTY_MEM}), t))
    assert ok


def test_build_lts_examples():
    l = build_lts(EPS, None, 10)
    assert len(l.states) == 1 and not l.transitions and 0 in l.success

    l = build_lts(sample_terms.abs_diff_term(), sample_terms.abs_diff_valuation())
    assert len(l.states) == 3 and len(l.transitions) == 2
    labs = [lab for _, lab, _ in l.transitions]
    assert labs[0].value == MemState({0: "1101"})
    assert labs[1].value == MemState({0: "0001"})

    two = parse_term("(u := [0:1] . u := [0:0]) || (w := [1:1] . w := [1:0])")
    l = build_lts(two, Valuation.make({"u": EMPTY_MEM, "w": EMPTY_MEM}))
    assert len(l.states) == 9 and len(l.transitions) == 12


def test_build_lts_cap():
    # a counter that never stops producing fresh memories
    t = parse_term("rec X {X = True :-> v := add:0:#1:0(v) . X}")
    l = build_lts(t, Valuation.make({"v": EMPTY_MEM}), max_states=5)
    assert l.exploded
    with pytest.raises(UndecidedError):
        eventually_halts(l)


def test_eventually_halts():
    assert eventually_halts(build_lts(EPS))
    assert not eventually_halts(build_lts(Seq(Act("a"), DELTA)))
    loop = parse_term("rec X {X = True :-> a . X}")
    assert not eventually_halts(build_lts(loop))
    # a cycle is enough even if an exit exists
    mixed = parse_term("rec X {X = True :-> a . X + True :-> eps}")
    assert not eventually_halts(build_lts(mixed))


def test_depth():
    assert depth(build_lts(EPS)) == 0
    assert depth(build_lts(parse_term("a . (tau . b . eps)"))) == 2
    assert depth(build_lts(parse_term("a . eps + b . c . eps"))) == 2
    with pytest.raises(SemanticsError):
        depth(build_lts(parse_term("rec X {X = True :-> a . X}")))


def test_depth_projection_coherence():
    rng = random.Random(7)
    names = "abc"
    for _ in range(40):
        t = EPS
        for _ in range(rng.randint(0, 4)):
            pre = TAU if rng.random() < 0.3 else Act(rng.choice(names))
            t = Seq(pre, t)
            if rng.random() < 0.3:
                t = Alt(t, Act(rng.choice(names)))
        l = build_lts(t)
        if not eventually_halts(l):
            continue
        d = depth(l)
        matches = [n for n in range(d + 2)
                   if rb_bisim(build_lts(T.Proj(n, t)), l)]
        assert matches and min(matches) == d


def test_sync_merge():
    s = parse_term("sync . eps")
    l = build_lts(SyncMerge(s, s))
    assert eventually_halts(l)
    assert depth(l) == 1
    assert [lab for _, lab, _ in l.transitions] == [Plain("sync")]

    l = build_lts(SyncMerge(s, EPS))
    assert not eventually_halts(l)  # unmatched sync deadlocks

    l = build_lts(SyncMerge(EPS, EPS))
    assert eventually_halts(l) and depth(l) == 0

    # expansion is a plain derived operator
    t = sync_merge_expand(s, s)
    assert rb_bisim(build_lts(t), build_lts(SyncMerge(s, s)))


def test_parallel_success_needs_both():
    good = Par(Seq(Act("a"), EPS), EPS)
    assert eventually_halts(build_lts(good))
    bad = Par(Seq(Act("a"), EPS), DELTA)
    assert not eventually_halts(build_lts(bad))


def test_interleaving_count():
    for m in range(5):
        for n in range(5):
            left = EPS
            for k in range(m):
                left = Seq(Assign("u", MemLiteral(MemState({k: "1"}))), left)
            right = EPS
            for k in range(n):
                right = Seq(Assign("w", MemLiteral(MemState({k: "1"}))), right)
            l = build_lts(Par(left, right),
                          Valuation.make({"u": EMPTY_MEM, "w": EMPTY_MEM}))
            assert count_maximal_paths(l) == math.comb(m + n, m)


def test_terminal_valuations_in_order():
    t = parse_term("v := [0:1] . eps + v := [0:0] . eps")
    l = build_lts(t, Valuation.make({"v": EMPTY_MEM}))
    vals = terminal_valuations(l)
    assert [v.get("v") for v in vals] == [MemState({0: "1"}), MemState({0: "0"})]


def test_normalize_basic():
    rho = Valuation.make({})
    assert normalize_basic(DELTA, rho) == DELTA
    assert normalize_basic(Alt(Guard(TRUE, EPS), DELTA), rho) == Guard(TRUE, EPS)
    got = normalize_basic(Seq(Act("a"), EPS), rho)
    assert got == Guard(TRUE, Seq(Act("a"), Guard(TRUE, EPS)))
    with pytest.raises(SemanticsError):
        normalize_basic(parse_term("rec X {X = True :-> a . X}"), rho)
    # the result is rb-bisimilar to the input
    t = parse_term("a . (b . eps + tau . eps)")
    assert rb_bisim(build_lts(normalize_basic(t, rho)), build_lts(t))


def test_normalize_division_chain():
    bt = normalize_basic(sample_terms.division_term(), sample_terms.division_valuation())
    # eight nested assignment prefixes, alternating q and r
    seen = []
    node = bt
    while isinstance(node, T.Guard) and isinstance(node.body, T.Seq):
        seen.append((node.body.l.var, node.body.l.e.mem))
        node = node.body.r
    assert node == Guard(TRUE, EPS)
    assert [v for v, _ in seen] == ["q", "r"] * 4
    assert seen[-1] == ("r", MemState({0: "01"}))


def test_rdp_unfolding_preserves_behavior():
    rng = random.Random(11)
    for _ in range(30):
        n_eq = rng.randint(1, 3)
        names = ["X%d" % k for k in range(n_eq)]
        eqs = []
        for i, name in enumerate(names):
            summands = []
            for _ in range(rng.randint(1, 2)):
                roll = rng.random()
                if roll < 0.25:
                    summands.append(Guard(TRUE, EPS))
                else:
                    pre = TAU if roll < 0.4 and i + 1 < n_eq else Act(rng.choice("ab"))
                    target = names[rng.randint(i, n_eq - 1)] if rng.random() < 0.5 else None
                    if target and (pre != TAU or target != name):
                        summands.append(Guard(TRUE, Seq(pre, Var(target))))
                    else:
                        summands.append(Guard(TRUE, Seq(pre, Var(names[-1]))))
            if i == n_eq - 1:
                summands.append(Guard(TRUE, EPS))
            rhs = summands[0]
            for s in summands[1:]:
                rhs = Alt(rhs, s)
            eqs.append((name, rhs))
        spec = RecSpec(tuple(eqs))
        if not T.validate_guarded(spec):
            continue
        t = Rec(names[0], spec)
        unfolded = T.subst_rec(spec.rhs(names[0]), spec)
        l1 = build_lts(t, max_states=500)
        l2 = build_lts(unfolded, max_states=500)
        if l1.exploded or l2.exploded:
            continue
        assert rb_bisim(l1, l2)


def test_lts_export():
    l = build_lts(parse_term("a . eps"))
    j = lts_to_json(l)
    assert j["initial"] == 0 and len(j["states"]) == 2
    assert j["transitions"][0]["label"] == "a"
    d = lts_to_dot(l)
    assert "digraph" in d and "->" in d


def test_lts_export_reads_a_hand_built_graph_in_source_order():
    """A graph built by hand is stored as an explored one is: `transitions`,
    `out` and both exports read it in source order, whatever the order set.
    Setting `transitions` again replaces the graph and its labels."""
    l = semantics.Lts()
    l.states = [EPS, EPS, EPS]
    l.transitions = [(1, Plain("c"), 2), (0, Plain("a"), 1), (0, T.TAU_LABEL, 2), (1, Plain("a"), 0)]
    assert l.transitions == [
        (0, Plain("a"), 1), (0, T.TAU_LABEL, 2), (1, Plain("c"), 2), (1, Plain("a"), 0)]
    assert l.out(1) == [(Plain("c"), 2), (Plain("a"), 0)]
    assert [(t["from"], t["label"], t["to"]) for t in lts_to_json(l)["transitions"]] == [
        (0, "a", 1), (0, "tau", 2), (1, "c", 2), (1, "a", 0)]
    assert [line for line in lts_to_dot(l).splitlines() if "[label=" in line] == [
        '  s0 -> s1 [label="a"];', '  s0 -> s2 [label="tau"];',
        '  s1 -> s2 [label="c"];', '  s1 -> s0 [label="a"];']
    l.transitions = [(2, Plain("b"), 0)]
    assert l.transitions == [(2, Plain("b"), 0)] and l.labels == [Plain("b")]
    assert l.out(0) == l.out(1) == [] and l.out(2) == [(Plain("b"), 0)]
    assert lts_to_json(l)["transitions"] == [{"from": 2, "label": "b", "to": 0}]


# ---------------------------------------------------------------------------
# Pinned transition systems: state numbering, state terms, success flags and
# transitions in exploration order, exactly as `lts_to_json` exports them.

APRAMP_STATES = [
    ("eval{RM = [], RM_1 = [], RM_2 = []}(rec X1 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> RM := sto:0:@0(RM_1, RM) . Y2, Y2 = True :-> eps} || rec X2 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y2, Y2 = True :-> eps})", False),
    ("eval{RM = [], RM_1 = [0:1], RM_2 = []}(eps . rec Y1 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> RM := sto:0:@0(RM_1, RM) . Y2, Y2 = True :-> eps} || rec X2 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y2, Y2 = True :-> eps})", False),
    ("eval{RM = [], RM_1 = [], RM_2 = [0:01]}(rec X1 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> RM := sto:0:@0(RM_1, RM) . Y2, Y2 = True :-> eps} || eps . rec Y1 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y2, Y2 = True :-> eps})", False),
    ("eval{RM = [1:1], RM_1 = [0:1], RM_2 = []}(eps . rec Y2 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> RM := sto:0:@0(RM_1, RM) . Y2, Y2 = True :-> eps} || rec X2 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y2, Y2 = True :-> eps})", False),
    ("eval{RM = [], RM_1 = [0:1], RM_2 = [0:01]}(eps . rec Y1 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> RM := sto:0:@0(RM_1, RM) . Y2, Y2 = True :-> eps} || eps . rec Y1 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y2, Y2 = True :-> eps})", False),
    ("eval{RM = [], RM_1 = [], RM_2 = [0:01]}(rec X1 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> RM := sto:0:@0(RM_1, RM) . Y2, Y2 = True :-> eps} || eps . rec Y2 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y2, Y2 = True :-> eps})", False),
    ("eval{RM = [1:1], RM_1 = [0:1], RM_2 = [0:01]}(eps . rec Y2 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> RM := sto:0:@0(RM_1, RM) . Y2, Y2 = True :-> eps} || eps . rec Y1 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y2, Y2 = True :-> eps})", False),
    ("eval{RM = [], RM_1 = [0:1], RM_2 = [0:01]}(eps . rec Y1 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> RM := sto:0:@0(RM_1, RM) . Y2, Y2 = True :-> eps} || eps . rec Y2 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y2, Y2 = True :-> eps})", False),
    ("eval{RM = [1:1], RM_1 = [0:1], RM_2 = [0:01]}(eps . rec Y2 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> RM := sto:0:@0(RM_1, RM) . Y2, Y2 = True :-> eps} || eps . rec Y2 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y2, Y2 = True :-> eps})", True),
]
APRAMP_TRANSITIONS = [
    (0, "RM_1 := [0:1]", 1),
    (0, "RM_2 := [0:01]", 2),
    (1, "RM := [1:1]", 3),
    (1, "RM_2 := [0:01]", 4),
    (2, "RM_1 := [0:1]", 4),
    (2, "RM_2 := [0:01]", 5),
    (3, "RM_2 := [0:01]", 6),
    (4, "RM := [1:1]", 6),
    (4, "RM_2 := [0:01]", 7),
    (5, "RM_1 := [0:1]", 7),
    (6, "RM_2 := [0:01]", 8),
    (7, "RM := [1:1]", 8),
]
SPRAMP_STATES = [
    ("eval{RM = [], RM_1 = [], RM_2 = []}(rec X1 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM := sto:0:@0(RM_1, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps} ||sync rec X2 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps})", False),
    ("eval{RM = [], RM_1 = [0:1], RM_2 = []}(rename[synced->sync](encap{sync}(rename[synced->sync](eps . rec Y1 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM := sto:0:@0(RM_1, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}) || rename[synced->sync](rec X2 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}))))", False),
    ("eval{RM = [], RM_1 = [], RM_2 = [0:01]}(rename[synced->sync](encap{sync}(rename[synced->sync](rec X1 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM := sto:0:@0(RM_1, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}) || rename[synced->sync](eps . rec Y1 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}))))", False),
    ("eval{RM = [], RM_1 = [0:1], RM_2 = [0:01]}(rename[synced->sync](encap{sync}(rename[synced->sync](eps . rec Y1 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM := sto:0:@0(RM_1, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}) || rename[synced->sync](eps . rec Y1 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}))))", False),
    ("eval{RM = [], RM_1 = [0:1], RM_2 = [0:01]}(rename[synced->sync](encap{sync}(rename[synced->sync](eps . rec Y2 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM := sto:0:@0(RM_1, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}) || rename[synced->sync](eps . rec Y2 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}))))", False),
    ("eval{RM = [1:1], RM_1 = [0:1], RM_2 = [0:01]}(rename[synced->sync](encap{sync}(rename[synced->sync](eps . rec Y3 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM := sto:0:@0(RM_1, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}) || rename[synced->sync](eps . rec Y2 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}))))", False),
    ("eval{RM = [], RM_1 = [0:1], RM_2 = [0:01]}(rename[synced->sync](encap{sync}(rename[synced->sync](eps . rec Y2 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM := sto:0:@0(RM_1, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}) || rename[synced->sync](eps . rec Y3 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}))))", False),
    ("eval{RM = [1:1], RM_1 = [0:1], RM_2 = [0:01]}(rename[synced->sync](encap{sync}(rename[synced->sync](eps . rec Y3 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM := sto:0:@0(RM_1, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}) || rename[synced->sync](eps . rec Y3 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}))))", False),
    ("eval{RM = [1:1], RM_1 = [0:1], RM_2 = [0:01]}(rename[synced->sync](encap{sync}(rename[synced->sync](eps . rec Y4 {X1 = True :-> RM_1 := ini:#1(RM_1) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM := sto:0:@0(RM_1, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}) || rename[synced->sync](eps . rec Y4 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> sync . Y2, Y2 = True :-> RM_2 := loa:@0:1(RM_2, RM) . Y3, Y3 = True :-> sync . Y4, Y4 = True :-> eps}))))", True),
]
SPRAMP_TRANSITIONS = [
    (0, "RM_1 := [0:1]", 1),
    (0, "RM_2 := [0:01]", 2),
    (1, "RM_2 := [0:01]", 3),
    (2, "RM_1 := [0:1]", 3),
    (3, "sync", 4),
    (4, "RM := [1:1]", 5),
    (4, "RM_2 := [0:01]", 6),
    (5, "RM_2 := [0:01]", 7),
    (6, "RM := [1:1]", 7),
    (7, "sync", 8),
]
DIVISION_STATES = [
    ("eval{RM = [1:101, 2:01]}(rec X1 {X1 = True :-> RM := mov:1:3(RM) . X2, X2 = gt:2:3(RM) = 1 :-> RM := RM . X6 + gt:2:3(RM) = 0 :-> RM := RM . X3, X3 = True :-> RM := sub:3:2:3(RM) . X4, X4 = True :-> RM := add:0:#1:0(RM) . X5, X5 = eq:#0:#0(RM) = 1 :-> RM := RM . X2 + eq:#0:#0(RM) = 0 :-> RM := RM . X6, X6 = True :-> eps})", False),
    ("eval{RM = [1:101, 2:01, 3:101]}(eps . rec X2 {X1 = True :-> RM := mov:1:3(RM) . X2, X2 = gt:2:3(RM) = 1 :-> RM := RM . X6 + gt:2:3(RM) = 0 :-> RM := RM . X3, X3 = True :-> RM := sub:3:2:3(RM) . X4, X4 = True :-> RM := add:0:#1:0(RM) . X5, X5 = eq:#0:#0(RM) = 1 :-> RM := RM . X2 + eq:#0:#0(RM) = 0 :-> RM := RM . X6, X6 = True :-> eps})", False),
    ("eval{RM = [1:101, 2:01, 3:101]}(eps . rec X3 {X1 = True :-> RM := mov:1:3(RM) . X2, X2 = gt:2:3(RM) = 1 :-> RM := RM . X6 + gt:2:3(RM) = 0 :-> RM := RM . X3, X3 = True :-> RM := sub:3:2:3(RM) . X4, X4 = True :-> RM := add:0:#1:0(RM) . X5, X5 = eq:#0:#0(RM) = 1 :-> RM := RM . X2 + eq:#0:#0(RM) = 0 :-> RM := RM . X6, X6 = True :-> eps})", False),
    ("eval{RM = [1:101, 2:01, 3:11]}(eps . rec X4 {X1 = True :-> RM := mov:1:3(RM) . X2, X2 = gt:2:3(RM) = 1 :-> RM := RM . X6 + gt:2:3(RM) = 0 :-> RM := RM . X3, X3 = True :-> RM := sub:3:2:3(RM) . X4, X4 = True :-> RM := add:0:#1:0(RM) . X5, X5 = eq:#0:#0(RM) = 1 :-> RM := RM . X2 + eq:#0:#0(RM) = 0 :-> RM := RM . X6, X6 = True :-> eps})", False),
    ("eval{RM = [0:1, 1:101, 2:01, 3:11]}(eps . rec X5 {X1 = True :-> RM := mov:1:3(RM) . X2, X2 = gt:2:3(RM) = 1 :-> RM := RM . X6 + gt:2:3(RM) = 0 :-> RM := RM . X3, X3 = True :-> RM := sub:3:2:3(RM) . X4, X4 = True :-> RM := add:0:#1:0(RM) . X5, X5 = eq:#0:#0(RM) = 1 :-> RM := RM . X2 + eq:#0:#0(RM) = 0 :-> RM := RM . X6, X6 = True :-> eps})", False),
    ("eval{RM = [0:1, 1:101, 2:01, 3:11]}(eps . rec X2 {X1 = True :-> RM := mov:1:3(RM) . X2, X2 = gt:2:3(RM) = 1 :-> RM := RM . X6 + gt:2:3(RM) = 0 :-> RM := RM . X3, X3 = True :-> RM := sub:3:2:3(RM) . X4, X4 = True :-> RM := add:0:#1:0(RM) . X5, X5 = eq:#0:#0(RM) = 1 :-> RM := RM . X2 + eq:#0:#0(RM) = 0 :-> RM := RM . X6, X6 = True :-> eps})", False),
    ("eval{RM = [0:1, 1:101, 2:01, 3:11]}(eps . rec X3 {X1 = True :-> RM := mov:1:3(RM) . X2, X2 = gt:2:3(RM) = 1 :-> RM := RM . X6 + gt:2:3(RM) = 0 :-> RM := RM . X3, X3 = True :-> RM := sub:3:2:3(RM) . X4, X4 = True :-> RM := add:0:#1:0(RM) . X5, X5 = eq:#0:#0(RM) = 1 :-> RM := RM . X2 + eq:#0:#0(RM) = 0 :-> RM := RM . X6, X6 = True :-> eps})", False),
    ("eval{RM = [0:1, 1:101, 2:01, 3:1]}(eps . rec X4 {X1 = True :-> RM := mov:1:3(RM) . X2, X2 = gt:2:3(RM) = 1 :-> RM := RM . X6 + gt:2:3(RM) = 0 :-> RM := RM . X3, X3 = True :-> RM := sub:3:2:3(RM) . X4, X4 = True :-> RM := add:0:#1:0(RM) . X5, X5 = eq:#0:#0(RM) = 1 :-> RM := RM . X2 + eq:#0:#0(RM) = 0 :-> RM := RM . X6, X6 = True :-> eps})", False),
    ("eval{RM = [0:01, 1:101, 2:01, 3:1]}(eps . rec X5 {X1 = True :-> RM := mov:1:3(RM) . X2, X2 = gt:2:3(RM) = 1 :-> RM := RM . X6 + gt:2:3(RM) = 0 :-> RM := RM . X3, X3 = True :-> RM := sub:3:2:3(RM) . X4, X4 = True :-> RM := add:0:#1:0(RM) . X5, X5 = eq:#0:#0(RM) = 1 :-> RM := RM . X2 + eq:#0:#0(RM) = 0 :-> RM := RM . X6, X6 = True :-> eps})", False),
    ("eval{RM = [0:01, 1:101, 2:01, 3:1]}(eps . rec X2 {X1 = True :-> RM := mov:1:3(RM) . X2, X2 = gt:2:3(RM) = 1 :-> RM := RM . X6 + gt:2:3(RM) = 0 :-> RM := RM . X3, X3 = True :-> RM := sub:3:2:3(RM) . X4, X4 = True :-> RM := add:0:#1:0(RM) . X5, X5 = eq:#0:#0(RM) = 1 :-> RM := RM . X2 + eq:#0:#0(RM) = 0 :-> RM := RM . X6, X6 = True :-> eps})", False),
    ("eval{RM = [0:01, 1:101, 2:01, 3:1]}(eps . rec X6 {X1 = True :-> RM := mov:1:3(RM) . X2, X2 = gt:2:3(RM) = 1 :-> RM := RM . X6 + gt:2:3(RM) = 0 :-> RM := RM . X3, X3 = True :-> RM := sub:3:2:3(RM) . X4, X4 = True :-> RM := add:0:#1:0(RM) . X5, X5 = eq:#0:#0(RM) = 1 :-> RM := RM . X2 + eq:#0:#0(RM) = 0 :-> RM := RM . X6, X6 = True :-> eps})", True),
]
DIVISION_TRANSITIONS = [
    (0, "RM := [1:101, 2:01, 3:101]", 1),
    (1, "RM := [1:101, 2:01, 3:101]", 2),
    (2, "RM := [1:101, 2:01, 3:11]", 3),
    (3, "RM := [0:1, 1:101, 2:01, 3:11]", 4),
    (4, "RM := [0:1, 1:101, 2:01, 3:11]", 5),
    (5, "RM := [0:1, 1:101, 2:01, 3:11]", 6),
    (6, "RM := [0:1, 1:101, 2:01, 3:1]", 7),
    (7, "RM := [0:01, 1:101, 2:01, 3:1]", 8),
    (8, "RM := [0:01, 1:101, 2:01, 3:1]", 9),
    (9, "RM := [0:01, 1:101, 2:01, 3:1]", 10),
]


def _pinned_parallel(compose, component):
    texts = ["sto:0:@0\nhalt\n", "loa:@0:1\nhalt\n"]
    term = compose([component(i, parse_program(p, SMBRAM)) for i, p in enumerate(texts, start=1)])
    return build_lts(term, Valuation.make({v: EMPTY_MEM for v in T.flexvars_term(term)}))


@pytest.mark.parametrize("build, states, transitions", [
    (lambda: _pinned_parallel(compose_async, proc_of_smbram_async),
     APRAMP_STATES, APRAMP_TRANSITIONS),
    (lambda: _pinned_parallel(compose_sync, proc_of_smbram_sync),
     SPRAMP_STATES, SPRAMP_TRANSITIONS),
    (lambda: build_lts(proc_of_bbram(parse_program(sample_terms.DIVISION_PROGRAM)),
                       Valuation.make({"RM": MemState({1: "101", 2: "01"})})),
     DIVISION_STATES, DIVISION_TRANSITIONS),
], ids=["apramp-2x1", "spramp-2x1", "division-5-by-2"])
def test_lts_identity_pinned(build, states, transitions):
    assert lts_to_json(build()) == {
        "initial": 0,
        "exploded": False,
        "states": [
            {"id": i, "term": term, "success": success}
            for i, (term, success) in enumerate(states)
        ],
        "transitions": [
            {"from": src, "label": label, "to": dst} for src, label, dst in transitions
        ],
    }


# ---------------------------------------------------------------------------
# Fingerprint corpus: one digest over the exported transition systems (state
# terms, success flags, transitions in exploration order) of a seeded corpus
# of sequential programs, interleaved and lockstep compositions, and law
# instances.  Any change to state numbering or move order changes it.

def _random_shared_program(rng, n_ops):
    def src():
        return rng.choice([Dir(rng.randint(0, 2)), Imm(rng.randint(0, 2))])

    instrs = []
    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.25:
            instrs.append(Op(Load(Ind(rng.randint(0, 1)), Dir(rng.randint(1, 2)))))
        elif roll < 0.5:
            instrs.append(Op(Store(src(), Ind(rng.randint(0, 1)))))
        elif roll < 0.65:
            instrs.append(Op(BinOp(rng.choice(["add", "sub", "and", "or"]), src(), src(),
                                   Dir(rng.randint(1, 2)))))
        elif roll < 0.75:
            instrs.append(Op(UnOp(rng.choice(["not", "shl", "shr", "mov"]), src(),
                                  Dir(rng.randint(0, 2)))))
        else:
            p = CmpOp(rng.choice(["eq", "gt", "beq"]), src(), src())
            instrs.append(Jmp(p, rng.randint(1, n_ops + 1)))
    instrs.append(HALT)
    return Program(tuple(instrs), SMBRAM)


def _corpus_inputs():
    """(label, `build_lts` arguments) of the corpus, in a fixed order."""
    rng = random.Random(6061)
    for k in range(40):
        prog = _random_program(rng, rng.randint(1, 6))
        rho = Valuation.make({"RM": _random_mem(rng)})
        yield "ramp-%d" % k, (proc_of_bbram(prog), rho, 300, DEFAULT_GAMMA)
    for model, component, compose in (("apramp", proc_of_smbram_async, compose_async),
                                      ("spramp", proc_of_smbram_sync, compose_sync)):
        for k in range(40):
            progs = [_random_shared_program(rng, rng.randint(1, 3))
                     for _ in range(rng.randint(2, 4))]
            term = compose([component(i, p) for i, p in enumerate(progs, start=1)])
            rho = Valuation.make({v: EMPTY_MEM for v in T.flexvars_term(term)})
            rho = rho.set("RM", _random_mem(rng))
            yield "%s-%d" % (model, k), (term, rho, 250, DEFAULT_GAMMA)
    for name in sorted(AXIOMS):
        g = Gen(zlib.crc32(name.encode()) * 1000003)
        for k in range(2):
            lhs, rhs = AXIOMS[name](g)
            yield "%s-%d-lhs" % (name, k), (lhs, None, 2000, GAMMA)
            yield "%s-%d-rhs" % (name, k), (rhs, None, 2000, GAMMA)


def _fingerprint_corpus():
    """(label, Lts) pairs of the corpus, in a fixed order."""
    for label, args in _corpus_inputs():
        yield label, build_lts(*args)


def _corpus_digest():
    h = hashlib.sha256()
    count = 0
    for label, l in _fingerprint_corpus():
        h.update(label.encode())
        h.update(json.dumps(lts_to_json(l), sort_keys=True).encode())
        h.update(json.dumps(sorted(l.success)).encode())
        count += 1
    return count, h.hexdigest()


CORPUS_DIGEST = (400, "5919d9a5d7a5c9573599fe2da2ae9ac7f4bdcb2ee25ac70be5d3a62f52ad7f04")


def test_lts_fingerprint_corpus_pinned():
    assert _corpus_digest() == CORPUS_DIGEST


def test_lts_fingerprint_corpus_ignores_hash_seed():
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    code = "import test_semantics as m; print(*m._corpus_digest())"
    for seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join([here, src]))
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=here,
                             capture_output=True, text=True, check=True).stdout.split()
        assert (int(out[0]), out[1]) == CORPUS_DIGEST, seed


def _hand_built(l):
    """A copy of l built by hand: its states, then its transitions, then its
    success set."""
    copy = semantics.Lts()
    copy.states = list(l.states)
    copy.transitions = l.transitions
    copy.success = set(l.success)
    return copy


def _answer(question, l):
    """question(l), or the class of the SemanticsError it raises."""
    try:
        return question(l)
    except SemanticsError as err:
        return type(err)


def test_both_construction_routes_give_one_store():
    """Every unexploded LTS of the corpus and of 100 more law instances, and
    its copy built by hand, read as one store: the same transitions (mentions
    included) and out-lists, byte-identical exports, the same answers, and
    rooted branching bisimilar.  Their label ids may differ: the vector
    explorer interns constant and communication labels when it compiles or
    lifts them."""
    laws = [build_lts(t, None, 2000, gamma=GAMMA) for name in sorted(AXIOMS)[:50]
            for t in AXIOMS[name](Gen(zlib.crc32(name.encode()) + 1))]
    explored = [l for _, l in _fingerprint_corpus() if not l.exploded]
    assert len(laws) == 100 and len(explored) > 300
    for l in explored + [l for l in laws if not l.exploded]:
        copy = _hand_built(l)
        assert copy.transitions == l.transitions and _mentions(copy) == _mentions(l)
        assert all(copy.out(sid) == l.out(sid) for sid in range(len(l)))
        assert json.dumps(lts_to_json(copy)) == json.dumps(lts_to_json(l))
        assert lts_to_dot(copy) == lts_to_dot(l)
        for question in (eventually_halts, depth, count_maximal_paths):
            assert _answer(question, copy) == _answer(question, l)
        assert rb_bisim(l, copy)


# ---------------------------------------------------------------------------
# Read sets: the kept sets and `flexvars_term` against a reference that looks
# at every compared field of every node, on law instances, compiled machines,
# the hand-built terms and some explored states, and their parsed and
# canonically renamed copies.

_DATA_CLASSES = (T.FlexVar, T.MemLiteral, T.Upd, T.Apply1, T.Apply2)
_COND_CLASSES = (T.TrueC, T.FalseC, T.PropAtom, T.DataEq, T.Not, T.And, T.Or, T.Implies)
_RULE_CLASSES = T._LEAF | T._BINARY | T._UNARY_BODY | {T.Rec}


def _reads_reference(x):
    """The names of the FlexVar nodes anywhere below x, plus the target of
    every assignment below it."""
    if isinstance(x, FlexVar):
        return {x.name}
    if isinstance(x, tuple):
        return set().union(*map(_reads_reference, x))
    out = {x.var} if isinstance(x, Assign) else set()
    for name in getattr(type(x), "_compared", ()):
        out |= _reads_reference(getattr(x, name))
    return out


def _nodes(x, seen):
    """Every node below x, x included, into the dict seen."""
    if isinstance(x, tuple):
        for y in x:
            _nodes(y, seen)
    elif hasattr(type(x), "_compared") and x not in seen:
        seen[x] = None
        for name in type(x)._compared:
            _nodes(getattr(x, name), seen)


def _read_set_corpus():
    rng = random.Random(4242)
    for name in sorted(AXIOMS):
        yield from AXIOMS[name](Gen(zlib.crc32(name.encode())))
    for _ in range(10):
        yield proc_of_bbram(_random_program(rng, rng.randint(1, 6)))
    yield sample_terms.abs_diff_term()
    yield sample_terms.division_term()
    for compose, component in ((compose_async, proc_of_smbram_async),
                               (compose_sync, proc_of_smbram_sync)):
        for _ in range(6):
            progs = [_random_shared_program(rng, rng.randint(1, 3))
                     for _ in range(rng.randint(2, 3))]
            term = compose([component(i, p) for i, p in enumerate(progs, start=1)])
            yield term
            rho = Valuation.make({v: EMPTY_MEM for v in _reads_reference(term)})
            yield from build_lts(term, rho, max_states=60).states
    yield from build_lts(sample_terms.division_term(), sample_terms.division_valuation()).states


def test_flexvars_term_matches_reference():
    seen = {}
    for t in _read_set_corpus():
        for u in (t, parse_term(format_term(t)), T.canonical_rename(t)):
            _nodes(u, seen)
    for x in seen:  # kept by the constructors, before any walk has run
        if type(x) is Assign or type(x) is Rec:
            assert (x if type(x) is Assign else x.spec)._flexvars == _reads_reference(x), x
    reading = {"data": 0, "cond": 0, "term": 0}
    for x in seen:
        kind = ("data" if isinstance(x, _DATA_CLASSES) else "cond" if isinstance(x, _COND_CLASSES)
                else "term" if type(x) in _RULE_CLASSES else None)
        if kind is not None:
            want = _reads_reference(x)
            assert T.flexvars_term(x) == want, x
            reading[kind] += bool(want)
    assert min(reading.values()) > 30, reading


# ---------------------------------------------------------------------------
# Exploration against a plain breadth-first loop over the public `step`.

def _bfs_over_step(t, rho):
    root = Eval(rho, t) if rho is not None else t
    states, index, transitions, success = [root], {root: 0}, [], set()
    for sid, state in enumerate(states):  # grows while it is walked
        ok, moves = step(state)
        if ok:
            success.add(sid)
        for lab, u in moves:
            if u not in index:
                index[u] = len(states)
                states.append(u)
            transitions.append((sid, lab, index[u]))
    return states, transitions, success


def _apramp(texts, shared=EMPTY_MEM):
    term = compose_async([proc_of_smbram_async(i, parse_program(p, SMBRAM))
                          for i, p in enumerate(texts, start=1)])
    rho = Valuation.make({v: EMPTY_MEM for v in T.flexvars_term(term)}).set("RM", shared)
    return term, rho


def _spramp(texts, shared=EMPTY_MEM):
    term = compose_sync([proc_of_smbram_sync(i, parse_program(p, SMBRAM))
                         for i, p in enumerate(texts, start=1)])
    rho = Valuation.make({v: EMPTY_MEM for v in T.flexvars_term(term)}).set("RM", shared)
    return term, rho


_DIV = proc_of_bbram(parse_program(sample_terms.DIVISION_PROGRAM))

# Both components point register 0 at shared address 1 first, so one
# component's store is the other's load.
_WRITER = "mov:#1:0\nsto:#1:@0\nsto:#0:@0\nhalt\n"
_READER = "mov:#1:0\nloa:@0:1\nloa:@0:2\nhalt\n"
# Loads the shared value and branches on it: the branch taken depends on
# how far the writer has got.
_BRANCHER = "mov:#1:0\nloa:@0:1\njmp:eq:1:#1:5\nsto:#1:@0\nhalt\n"


@pytest.mark.parametrize("build", [
    lambda: _apramp([_WRITER, _READER]),
    lambda: _apramp([_READER, _WRITER, _READER]),
    lambda: _apramp([_WRITER, _BRANCHER]),
    lambda: _apramp([_BRANCHER, _BRANCHER, _WRITER], MemState({1: "1"})),
    lambda: _spramp([_WRITER, _BRANCHER, _READER]),
    # equal component terms, each under its own memory
    lambda: (Par(Eval(Valuation.make({"RM": MemState({1: "101", 2: "01"})}), _DIV),
                 Eval(Valuation.make({"RM": MemState({1: "11", 2: "1"})}), _DIV)), None),
    # equal component terms reading one memory
    lambda: (Par(_DIV, _DIV), Valuation.make({"RM": MemState({1: "11", 2: "01"})})),
    # evaluated leaves under an outer valuation: explored on terms
    lambda: (Par(Eval(Valuation.make({"RM": MemState({1: "11", 2: "1"})}), _DIV),
                 Eval(Valuation.make({"RM": MemState({1: "1", 2: "1"})}), _DIV)),
             Valuation.make({"RM": EMPTY_MEM})),
], ids=["store-load", "load-store-load", "branch-on-shared", "two-branchers",
        "spramp-branch", "same-term-own-memories", "same-term-shared-memory",
        "eval-leaves-under-eval"])
def test_build_lts_matches_plain_step_exploration(build):
    term, rho = build()
    l = build_lts(term, rho)
    assert not l.exploded
    assert (l.states, l.transitions, l.success) == _bfs_over_step(term, rho)


# ---------------------------------------------------------------------------
# Machine compositions are explored on state vectors; the term explorer,
# `_build_terms`, is the referee.

def _explore_both(term, rho, max_states=100000, gamma=DEFAULT_GAMMA):
    """The vector path's LTS and the term path's, after checking that
    `build_lts` takes the vector path and the two export the same states
    and transitions.  A mismatch is reported at the first state or
    transition that differs, so the report stays short on a large LTS."""
    root = Eval(rho, term)
    assert semantics._machine_tree(root) is not None
    fast = build_lts(term, rho, max_states, gamma)
    slow = semantics._build_terms(root, max_states, gamma)
    assert type(fast.states) is semantics._StateTerms and type(slow.states) is list
    fast_json, slow_json = lts_to_json(fast), lts_to_json(slow)
    for key in ("states", "transitions"):
        xs, ys = fast_json[key], slow_json[key]
        i = _first_difference(xs, ys)
        assert i is None, "%s differ first at %d: %r != %r" % (key, i, xs[i:i + 1], ys[i:i + 1])
    for key in ("initial", "exploded"):
        assert fast_json[key] == slow_json[key], key
    assert fast.success == slow.success and fast.exploded == slow.exploded
    assert fast.states == slow.states and _mentions(fast) == _mentions(slow)
    return fast, slow


def _first_difference(xs, ys):
    """The first index where the lists xs and ys differ, or None."""
    for i, (x, y) in enumerate(zip(xs, ys)):
        if x != y:
            return i
    return None if len(xs) == len(ys) else min(len(xs), len(ys))


def _mentions(l):
    """The variables each transition's assignment mentions, which labels do
    not compare."""
    return [getattr(lab, "mentions", None) for _, lab, _ in l.transitions]


def test_vector_path_matches_terms_on_the_corpus():
    checked = 0
    for label, (term, rho, max_states, gamma) in _corpus_inputs():
        if label.startswith(("ramp-", "apramp-", "spramp-")):
            _explore_both(term, rho, max_states, gamma)
            checked += 1
    assert checked == 120


def _straight_line(rng, m):
    """m straight-line instructions with one store, like the benchmark's
    parallel components."""
    ops = [rng.choice(["add:0:#1:1", "sub:1:#1:2", "mov:1:2", "loa:@0:3", "not:2:1"])
           for _ in range(m)]
    ops[rng.randrange(m)] = "sto:1:@0"
    return "\n".join(ops + ["halt"]) + "\n"


def _ramp(text, regs, **extra):
    """A sequential machine and its valuation: RM holds regs, and each
    extra variable its memory."""
    return proc_of_bbram(parse_program(text)), Valuation.make({"RM": MemState(regs), **extra})


# The benchmark's never-halting loop: register 1 doubles on every pass.
_DOUBLING = "add:1:#1:1\nadd:1:1:1\njmp:eq:#0:#0:2\nhalt\n"


@pytest.mark.parametrize("build, states, halts", [
    (lambda rng: _apramp([_straight_line(rng, 5) for _ in range(4)]), 7 ** 4, True),
    (lambda rng: _spramp([_straight_line(rng, 5) for _ in range(6)]), 6 * 2 ** 6 + 1, True),
    (lambda rng: _ramp(sample_terms.DIVISION_PROGRAM, {1: "00010011", 2: "11"}), 267, True),
    (lambda rng: _ramp(_DOUBLING, {1: "1"}), 600, False),
], ids=["apramp-4x5", "spramp-6x5", "division", "doubling"])
def test_vector_path_matches_terms_on_benchmark_shapes(build, states, halts):
    term, rho = build(random.Random(states))
    fast, _ = _explore_both(term, rho, max_states=states)
    assert len(fast) == states and fast.exploded != halts
    for cap in (1, 2, states // 3, states - 1):
        fast, _ = _explore_both(term, rho, max_states=cap)
        assert fast.exploded and len(fast) == cap


def test_exploring_compositions_leaves_no_reference_cycles():
    # a query's terms, spec, program, exploration tables and closures are
    # freed by reference counting alone once they are dropped, so a query
    # leaves the collector nothing
    rng = random.Random(34)
    gc.collect()
    gc.disable()
    try:
        builds = [_apramp([_straight_line(rng, 4) for _ in range(3)]),
                  _spramp([_straight_line(rng, 4) for _ in range(3)]),
                  _ramp(sample_terms.DIVISION_PROGRAM, {1: "1101", 2: "11"})]
        for term, rho in builds:
            l = build_lts(term, rho)
            assert len(l) > 10 and l.states[len(l) - 1] is not None
            del l
        del builds, term, rho
        assert gc.collect() == 0
    finally:
        gc.enable()


def _rec(*equations):
    return Rec(equations[0][0], RecSpec(equations))


def _then(a, x):
    """The guarded linear summand `True :-> a . x`."""
    return Guard(TRUE, Seq(a, Var(x)))


_DONE = Guard(TRUE, EPS)
_FLIP_X = Assign("x", T.Apply1(UnOp("not", Dir(0), Dir(0)), FlexVar("x")))
_RECEIVED = T.DataAct("r", (MemLiteral(MemState({0: "0"})),))
_A_THEN_B = _rec(("A", _then(Act("a"), "B")), ("B", Alt(_then(Act("b"), "A"), _DONE)))
_B_OR_D = _rec(("C", Alt(_then(Act("b"), "C"), _then(Act("d"), "E"))), ("E", _DONE))
_SENDS = _rec(("S", _then(T.DataAct("s", (FlexVar("x"),)), "T")), ("T", _then(_FLIP_X, "S")))
_RECEIVES = _rec(("R", Alt(_then(_RECEIVED, "R"), _then(Act("sync"), "R"))))
# leaves that offer sync, synced and a data action named sync, which a
# SyncMerge blocks alone, renames, or pairs into its handshake
_SYNCS = _rec(("P", Alt(_then(Act("sync"), "Q"), _then(Act("synced"), "P"))),
              ("Q", Alt(_then(T.DataAct("sync", (FlexVar("x"),)), "P"),
                        Alt(_then(_FLIP_X, "P"), _DONE))))
_SYNCED = _rec(("U", Alt(_then(Act("synced"), "U"), _then(Act("a"), "V"))),
               ("V", Alt(_then(Act("sync"), "U"), _then(_RECEIVED, "V"))))
# guards and assignments of the shapes that the vector path once evaluated
# by decoding a valuation: connectives, equality, upd, literals, nested operators
_X_IS_ONE = T.PropAtom(CmpOp("eq", Dir(0), Imm(1)), FlexVar("x"), 1)
_X_ONE = T.DataEq(FlexVar("x"), MemLiteral(MemState({0: "1"})))
_MIXED = _rec(
    ("M", Alt(Guard(T.Not(_X_IS_ONE), Seq(Assign("x", T.Upd(FlexVar("x"), 0, "1")), Var("M"))),
              Alt(Guard(T.And(_X_IS_ONE, T.Or(T.FALSE, _X_ONE)), Seq(Act("a"), Var("N"))),
                  Guard(T.Implies(_X_IS_ONE, T.FALSE), Seq(Act("b"), Var("M")))))),
    ("N", Alt(Guard(_X_ONE, Seq(Assign("x", T.Apply1(UnOp("not", Dir(0), Dir(0)), T.Apply1(
                  UnOp("mov", Imm(1), Dir(1)), FlexVar("x")))), Var("M"))),
              Guard(T.Or(T.Not(_X_IS_ONE), TRUE),
                    Seq(Assign("x", MemLiteral(MemState({0: "0"}))), Var("M"))))))


_OTHER_GAMMA = CommFunction.make({("a", "b"): "c", ("b", "d"): "e", ("s", "r"): "t",
                                  ("sync", "sync"): "synced", ("a", "sync"): "synced"})


@pytest.mark.parametrize("term", [
    Par(_A_THEN_B, _B_OR_D),
    Par(Par(_A_THEN_B, _SENDS), _RECEIVES),
    SyncMerge(_A_THEN_B, Par(_B_OR_D, _RECEIVES)),
    Par(SyncMerge(_RECEIVES, _RECEIVES), SyncMerge(_SENDS, _B_OR_D)),
    # a | sync communicates to synced below the merge, which renames it
    SyncMerge(Par(_A_THEN_B, _RECEIVES), Par(_RECEIVES, _A_THEN_B)),
    Par(_MIXED, _B_OR_D),
    SyncMerge(SyncMerge(_SYNCS, _SYNCED), _A_THEN_B),
    SyncMerge(_SYNCED, SyncMerge(_SYNCS, SyncMerge(_B_OR_D, _RECEIVES))),
    SyncMerge(SyncMerge(SyncMerge(_A_THEN_B, _SYNCS), _SYNCS),
              SyncMerge(_SENDS, SyncMerge(_SYNCED, _RECEIVES))),
    SyncMerge(Par(_SYNCS, _A_THEN_B), SyncMerge(Par(_SYNCED, _RECEIVES), _SENDS)),
    Par(SyncMerge(Par(_SYNCS, _SYNCS), _B_OR_D), SyncMerge(_SYNCED, Par(_A_THEN_B, _SYNCED))),
], ids=["par", "nested-par", "sync-over-par", "par-over-syncs", "synced-below-sync",
        "other-expression-shapes", "sync-nest-3", "sync-nest-4", "sync-nest-6",
        "par-under-syncs", "syncs-under-par"])
def test_vector_path_matches_terms_under_other_communications(term):
    rho = Valuation.make({"x": MemState({0: "1"})})  # flips between 1 and 0
    fast, _ = _explore_both(term, rho, 2000, _OTHER_GAMMA)
    _explore_both(term, rho, 2000)
    assert {getattr(lab, "name", None) for _, lab, _ in fast.transitions} & {"c", "e", "t"}


def _merge_tree(rng, n):
    """A seeded tree of n leaves from the leaves above, each inner node a
    SyncMerge or, one time in four, a Par."""
    if n == 1:
        return rng.choice((_A_THEN_B, _B_OR_D, _SENDS, _RECEIVES, _SYNCS, _SYNCED))
    k = rng.randint(1, n - 1)
    merge = Par if rng.random() < 0.25 else SyncMerge
    return merge(_merge_tree(rng, k), _merge_tree(rng, n - k))


def test_vector_path_matches_terms_on_seeded_merge_trees():
    rng = random.Random(3206)
    rho = Valuation.make({"x": MemState({0: "1"})})
    for _ in range(24):
        term = _merge_tree(rng, rng.randint(3, 6))
        for gamma in (DEFAULT_GAMMA, _OTHER_GAMMA):
            _explore_both(term, rho, 300, gamma)


def test_vector_path_matches_terms_on_seeded_spramp():
    rng = random.Random(3232)
    for _ in range(30):
        progs = [_random_shared_program(rng, rng.randint(1, 3)) for _ in range(rng.randint(2, 6))]
        term = compose_sync([proc_of_smbram_sync(i, p) for i, p in enumerate(progs, start=1)])
        rho = Valuation.make({v: EMPTY_MEM for v in T.flexvars_term(term)})
        _explore_both(term, rho.set("RM", _random_mem(rng)), 400)


_LOOP = _rec(("X", Var("X")))


def test_unguarded_loops_raise_on_the_term_path():
    for term in (_LOOP, Par(_A_THEN_B, _LOOP), SyncMerge(_LOOP, Par(_LOOP, _A_THEN_B))):
        with pytest.raises(SemanticsError) as info:
            build_lts(term, Valuation())
        assert type(info.value) is SemanticsError
        assert str(info.value) == "recursion does not reach a guarded form"


_FLIP = Assign("RM", T.Apply1(UnOp("not", Dir(0), Dir(0)), FlexVar("RM")))
_IS_ONE = T.PropAtom(CmpOp("eq", Dir(0), Imm(1)), FlexVar("RM"), 1)
# X's prefix is no atomic action, so X is not a linear equation
_NOT_LINEAR = _rec(("X", Guard(TRUE, Seq(Seq(_FLIP, Act("a")), Var("Y")))),
                   ("Y", Alt(Guard(_IS_ONE, Seq(TAU, Var("X"))),
                             Alt(Guard(T.Not(_IS_ONE), Seq(Act("b"), Var("X"))), Guard(TRUE, EPS)))))
_LINEAR_SENDS = _rec(
    ("S", Guard(TRUE, Seq(T.DataAct("s", (FlexVar("x"),)), Var("T")))),
    ("T", Alt(Guard(TRUE, Seq(Assign("x", T.Apply1(UnOp("not", Dir(0), Dir(0)), FlexVar("x"))),
                              Var("S"))),
              Guard(TRUE, Seq(Act("b"), Var("S"))))))


@pytest.mark.parametrize("term, rho", [
    _ramp(sample_terms.DIVISION_PROGRAM, {1: "101", 2: "01"}),
    # an extra variable that nothing reads, as `run --mem X=FILE` makes
    _ramp(sample_terms.DIVISION_PROGRAM, {1: "0011", 2: "1"}, X=MemState({0: "1"})),
    # the loop of the four-variable division term, whose data are no
    # machine instruction's
    (sample_terms.division_term().r.r,
     sample_terms.division_valuation().set("r", MemState({0: "1101"}))),
    (_LINEAR_SENDS, Valuation.make({"x": MemState({0: "1"})})),
], ids=["division", "unread-variable", "four-variable-division", "actions"])
def test_one_leaf_machines_explore_on_vectors(monkeypatch, term, rho):
    # a lone recursion constant is a machine with no merges: its equations
    # are compiled to summands the first time they step
    compiled = []
    real = semantics._compile
    monkeypatch.setattr(semantics, "_compile", lambda *a: compiled.append(real(*a)) or compiled[-1])
    _explore_both(term, rho)
    assert compiled and all(type(c) is list and c for c in compiled)


@pytest.mark.parametrize("build", [
    lambda: _ramp(sample_terms.DIVISION_PROGRAM, {1: "101", 2: "01"}),
    lambda: _apramp([_WRITER, _BRANCHER]),
    lambda: _spramp([_WRITER, _BRANCHER, _READER]),
], ids=["sequential", "apramp", "spramp"])
def test_vector_path_compiles_without_unfolding(monkeypatch, build):
    # components compile straight from their spec's summands
    term, rho = build()
    slow = semantics._build_terms(Eval(rho, term), 10000, DEFAULT_GAMMA)

    def unfold(t):
        raise AssertionError("unfolded %s" % t.var)
    monkeypatch.setattr(T, "unfold", unfold)
    monkeypatch.setattr(semantics, "unfold", unfold)  # the name the term rules call
    fast = build_lts(term, rho)
    assert type(fast.states) is semantics._StateTerms
    assert (fast.states, fast.transitions, fast.success) == (slow.states, slow.transitions,
                                                             slow.success)
    assert _mentions(fast) == _mentions(slow)


def _leaf_specs(term):
    """The distinct specs of the recursion constants in term, in walk order."""
    specs, todo = [], [term]
    while todo:
        u = todo.pop()
        if type(u) is Rec and all(u.spec is not s for s in specs):
            specs.append(u.spec)
        todo.extend(T.children(u))
    return specs


@pytest.mark.parametrize("build", [
    lambda: _ramp(sample_terms.DIVISION_PROGRAM, {1: "101", 2: "01"}),
    lambda: _apramp([_WRITER, _BRANCHER]),
    lambda: _spramp([_WRITER, _BRANCHER, _READER]),
    lambda: (proc_of_bbram(parse_program(sample_terms.ADDITION_PROGRAM)), None),
], ids=["sequential", "apramp", "spramp", "check"])
def test_machine_specs_are_read_once(monkeypatch, build):
    # each spec's linear form is read once and kept on the spec: the
    # vector path reads no equation twice, and no read set from semantics
    from ramproc.complexity import FunctionSpec, all_inputs, check_computes
    from test_complexity import _add_oracle

    term, rho = build()
    equations = sum(len(spec.equations) for spec in _leaf_specs(term))
    calls = {"linear_summands": 0, "flexvars_term": 0}

    def counted(module, name, caller=None):
        """Count the calls of module.name, or only those made from module caller."""
        real = getattr(module, name)

        def spy(*args):
            if caller is None or sys._getframe(1).f_globals["__name__"] == caller.__name__:
                calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, spy)
    counted(T, "linear_summands")
    counted(T, "flexvars_term", caller=semantics)
    if rho is None:  # `check` over 49 inputs, each explored on vectors
        assert check_computes(term, FunctionSpec(2, _add_oracle, all_inputs(2, 2))).all_pass
        assert calls == {"linear_summands": equations, "flexvars_term": 0}
        return
    first = build_lts(term, rho)
    assert type(first.states) is semantics._StateTerms
    assert calls == {"linear_summands": equations, "flexvars_term": 0}
    again = build_lts(term, rho)
    assert calls == {"linear_summands": equations, "flexvars_term": 0}
    assert again.transitions == first.transitions


@pytest.mark.parametrize("build, explore", [
    (lambda: AXIOMS["CM1E"](Gen(19)), lambda t: build_lts(t, None, 2000, gamma=GAMMA)),
    (lambda: [Eval(*reversed(_ramp(sample_terms.DIVISION_PROGRAM, {1: "101", 2: "01"})))],
     lambda t: semantics._build_terms(t, 10000, DEFAULT_GAMMA)),
], ids=["law-instance", "division"])
def test_term_path_builds_no_kernel_through_apply(monkeypatch, build, explore):
    # guards, assignments and data actions on terms are evaluated through
    # `terms.compile_cond`/`compile_data`; none calls `ramops.apply_*`
    from ramproc import ramops

    def refuse(*args):
        raise AssertionError("a register kernel was built for one evaluation")
    for module in (ramops, T, semantics):
        for name in ("apply_op", "apply_prop", "apply_shared"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    stepped = set()
    for cls in (T.Guard, T.Assign):
        def spy(t, env, gamma, rule=semantics._RULES[cls]):
            stepped.add(type(t))
            return rule(t, env, gamma)
        monkeypatch.setitem(semantics._RULES, cls, spy)
    assert all(explore(t).transitions for t in build())
    assert stepped == {T.Guard, T.Assign}


def test_linear_form_reads_what_flexvars_term_reads():
    checked = 0
    for label, (term, rho, max_states, gamma) in _corpus_inputs():
        for spec in _leaf_specs(term):
            form = T.linear_form(RecSpec(spec.equations))  # a copy with no linear form kept
            if form is not False:
                assert form[1] == T.flexvars_term(Rec(spec.vars()[0], spec)), label
                assert list(form[0]) == list(spec.vars())
                checked += 1
    assert checked == 286
    assert T.linear_form(_LOOP.spec) is False and T.linear_form(_NOT_LINEAR.spec) is False


def _random_data(rng, names, depth):
    """A seeded data expression over the variables names, nesting at most
    depth levels; about one node in six is an ini."""
    k = rng.randrange(6) if depth else rng.randrange(2)
    if k == 0:
        return FlexVar(rng.choice(names))
    if k == 1:
        return MemLiteral(_random_mem(rng))
    if k == 2:
        return T.Upd(_random_data(rng, names, depth - 1), rng.randrange(3), rng.choice("01"))
    if k == 3:
        return T.Apply1(Ini(rng.randint(1, 3)), _random_data(rng, names, depth - 1))
    if k == 4:
        return T.Apply1(BinOp("add", Dir(0), Imm(1), Dir(0)), _random_data(rng, names, depth - 1))
    return T.Apply2(Load(Ind(1), Dir(0)), _random_data(rng, names, depth - 1),
                    _random_data(rng, names, depth - 1))


def _reads_outside_ini(e):
    """The variables of data expression e that no ini hides from its value."""
    if type(e) is FlexVar:
        return {e.name}
    if type(e) is T.Apply1 and type(e.op) is Ini:
        return set()
    return set().union(*[_reads_outside_ini(getattr(e, f)) for f in T._READ_FIELDS.get(type(e), ())])


def test_first_step_fills_the_read_set_flexvars_term_gives():
    # an assignment's step on terms labels its move with the read set its
    # constructor keeps; an ini ignores its operand's value, yet its variables count
    names = ("RM", "RM_1", "RM_2")
    rho = Valuation.make({x: EMPTY_MEM for x in names})
    rng = random.Random(2626)
    cases = [Assign("RM", T.Apply1(Ini(1), FlexVar("RM_1")))]
    cases += [Assign(rng.choice(names), _random_data(rng, names, 3)) for _ in range(400)]
    hidden = 0
    for a in cases:
        (lab, _), = step(a, rho)[1]
        want = T.flexvars_term(Assign(a.var, a.e))  # a fresh node that no step has seen
        assert lab.mentions == a._flexvars == want, a
        hidden += bool(want - {a.var} - _reads_outside_ini(a.e))
    assert step(cases[0], rho)[1][0][0].mentions == {"RM", "RM_1"}
    assert hidden >= 25, hidden  # cases where only an ini reads a variable


def test_term_explorer_compiles_each_condition_once(monkeypatch):
    # on terms a condition compiles the first time a state steps it, and the
    # closure is kept on the node; an assignment's read set is kept from its
    # construction, never walked by `flexvars_term`
    compiled, walkers = {}, []
    real_compile, real_walk = T.compile_cond, T.flexvars_term

    def compile_cond(c, read):
        compiled[id(c)] = compiled.get(id(c), 0) + 1
        return real_compile(c, read)

    def flexvars_term(x):
        walkers.append(sys._getframe(1).f_code.co_name)
        return real_walk(x)
    monkeypatch.setattr(T, "compile_cond", compile_cond)
    monkeypatch.setattr(T, "flexvars_term", flexvars_term)
    term, rho = _ramp(sample_terms.DIVISION_PROGRAM, {1: "001101001", 2: "1"})  # 300 / 1
    parsed = parse_term(format_term(term))  # the same machine, built by the parser
    mentions = []
    for t in (term, parsed):
        conds = {c for _, rhs in t.spec.equations for g in T.flatten(rhs, Alt)
                 for c in [g.cond] if c._code is None}
        compiled.clear()
        l = semantics._build_terms(Eval(rho, t), 10000, DEFAULT_GAMMA)
        assert len(l) == 1203 and not l.exploded
        assert compiled == {id(c): 1 for c in conds}
        mentions.append([lab.mentions for _, lab, _ in l.transitions if type(lab) is Assignment])
    assert mentions[0] == mentions[1] and len(mentions[0]) > 1000
    assert "_assign" not in walkers


def test_kept_closures_stay_with_their_kind():
    # a node keeps the closure of the kind it was first evaluated as; used as
    # the other kind it still raises the compiler's error
    atom, mem = T.DataEq(FlexVar("RM"), FlexVar("RM")), MemLiteral(EMPTY_MEM)
    rho = Valuation.make({"RM": EMPTY_MEM})
    assert step(Guard(atom, Assign("RM", mem)), rho)[1][0][0].value == EMPTY_MEM
    assert atom._code is not None and mem._code is not None
    for t, message in ((T.DataAct("a", (atom,)), "not a data expression: %r" % (atom,)),
                       (Guard(mem, EPS), "not a condition: %r" % (mem,))):
        with pytest.raises(ValueError) as info:
            step(t, rho)
        assert str(info.value) == message


@pytest.mark.parametrize("term, rho", [
    (Par(_DIV, Act("a")), Valuation.make({"RM": EMPTY_MEM})),
    (Par(_DIV, _DIV), Valuation.make({"RM_1": EMPTY_MEM})),
    (Par(_DIV, _DIV), Valuation((("RM", EMPTY_MEM), ("A", EMPTY_MEM)))),
    (Par(_DIV, _DIV), None),
    (Eval(Valuation.make({"RM": EMPTY_MEM}), Par(_DIV, _DIV)), Valuation()),
    # leaves whose specs are not linear
    (_LOOP, Valuation()),
    (Par(_A_THEN_B, _LOOP), Valuation()),
    (_rec(("A", Seq(Act("a"), Var("B"))), ("B", Alt(Seq(Act("b"), Var("A")), EPS))), Valuation()),
    (Par(_A_THEN_B, _rec(("C", Alt(Seq(Act("b"), Var("C")), Seq(Act("d"), Var("E")))),
                         ("E", EPS))), Valuation()),
    (_NOT_LINEAR, Valuation.make({"RM": MemState({0: "0"})})),
    # Z is not linear, and no step reaches it
    (_rec(("A", _then(Act("a"), "A")), ("Z", Seq(Act("z"), Var("A")))), Valuation()),
    # Z guards on RM, which rho does not bind, and no step reaches it
    (_rec(("A", _then(Act("a"), "A")), ("Z", Guard(_IS_ONE, Seq(Act("z"), Var("A"))))),
     Valuation.make({"x": MemState({0: "1"})})),
], ids=["action-leaf", "unbound-read", "unsorted-names", "no-valuation",
        "eval-body", "loop", "par-with-loop", "unguarded", "par-with-unguarded", "not-linear",
        "unreachable-not-linear", "unreachable-unbound-read"])
def test_other_terms_stay_on_the_term_path(term, rho):
    root = Eval(rho, term) if rho is not None else term
    assert semantics._machine_tree(root) is None


def test_vector_states_are_rebuilt_only_when_asked_for(monkeypatch, tmp_path, capsys):
    from ramproc import cli, complexity

    term, rho = _apramp([_WRITER, _BRANCHER])
    want = semantics._build_terms(Eval(rho, term), 10000, DEFAULT_GAMMA)

    def no_terms(self, *i):
        raise AssertionError("state term rebuilt")

    monkeypatch.setattr(semantics._StateTerms, "__getitem__", no_terms)
    monkeypatch.setattr(semantics._StateTerms, "__iter__", no_terms)
    l = build_lts(term, rho)
    assert len(l) == len(want.states) and l.transitions == want.transitions
    assert terminal_valuations(l) == terminal_valuations(want)
    assert eventually_halts(l) and depth(l) == depth(want)
    assert complexity.aputm(term, rho).states == len(want.states)
    # a sequential machine: `run` without --lts, sutm and swm
    (tmp_path / "div.rp").write_text(sample_terms.DIVISION_PROGRAM)
    (tmp_path / "div.mem").write_text("1=101\n2=01\n")
    assert cli.main(["run", str(tmp_path / "div.rp"), "--mem", "RM=%s" % (tmp_path / "div.mem")]) == 0
    assert "final memory: RM = [0:01, 1:101, 2:01, 3:1]" in capsys.readouterr().out.splitlines()
    seq_rho = Valuation.make({"RM": MemState({1: "101", 2: "01"})})
    assert complexity.sutm(_DIV, seq_rho).value == complexity.swm(_DIV, seq_rho).value == 10
    monkeypatch.undo()
    assert l.states == want.states and want.states == l.states and l.states != tuple(l.states)
    assert l.states[-1] == want.states[-1] and l.states[5:1:-2] == want.states[5:1:-2]
    assert list(reversed(l.states))[-1] == want.states[0]
    assert hash(want.states[0]) == hash(l.states[0])
    with pytest.raises(TypeError):
        hash(l.states)


def test_step_returns_deduplicated_tuples():
    ok, moves = step(Alt(Act("a"), Act("a")))
    assert moves == ((Plain("a"), EPS),) and type(moves) is tuple

    f = T.ActionMap.make({"a": "c", "b": "c"})
    ok, moves = step(T.Rename(f, Alt(Act("a"), Act("b"))))
    assert moves == ((Plain("c"), T.Rename(f, EPS)),) and type(moves) is tuple

    gamma = CommFunction.make({("a", "b"): "c", ("d", "b"): "c"})
    ok, moves = step(Par(Alt(Act("a"), Act("d")), Act("b")), gamma=gamma)
    assert moves == (
        (Plain("a"), Par(EPS, Act("b"))),
        (Plain("d"), Par(EPS, Act("b"))),
        (Plain("b"), Par(Alt(Act("a"), Act("d")), EPS)),
        (Plain("c"), Par(EPS, EPS)),
    ) and type(moves) is tuple

    l = build_lts(Par(Alt(Act("a"), Act("d")), Act("b")), None, gamma=gamma)
    assert l.transitions[:4] == [
        (0, Plain("a"), 1), (0, Plain("d"), 1), (0, Plain("b"), 2), (0, Plain("c"), 3),
    ]


_UNBOUND = "flexible variable 'x' is unbound"


@pytest.mark.parametrize("t, error, message", [
    (Var("X"), SemanticsError, "free recursion variable X"),
    (Seq(EPS, Var("X")), SemanticsError, "free recursion variable X"),
    (5, SemanticsError, "cannot step 5"),
    (Alt(Act("a"), "junk"), SemanticsError, "cannot step 'junk'"),
    (Seq(EPS, 5), SemanticsError, "cannot step 5"),
    (T.Encap(T.ActionSet.labels(()), None), SemanticsError, "cannot step None"),
    (Eval(Valuation(), T.Proj(0, 5)), SemanticsError, "cannot step 5"),
    (Assign("d", FlexVar("x")), SemanticsError, "data not ground: " + _UNBOUND),
    (T.DataAct("a", (FlexVar("x"),)), SemanticsError, "data not ground: " + _UNBOUND),
    (Guard(T.DataEq(FlexVar("x"), MemLiteral(EMPTY_MEM)), EPS), SemanticsError,
     "condition not decidable without valuation: " + _UNBOUND),
    (T.DataAct("a", (5,)), ValueError, "not a data expression: 5"),
    (Assign("d", T.Upd(None, 0, "1")), ValueError, "not a data expression: None"),
    (Guard(5, EPS), ValueError, "not a condition: 5"),
    (Guard(T.Not(T.PropAtom(CmpOp("eq", Dir(0), Dir(1)), 5, 1)), EPS), ValueError,
     "not a data expression: 5"),
], ids=["var", "var-in-seq", "int", "str-in-alt", "int-in-seq", "none-in-encap",
        "int-in-eval-proj", "assign-unbound", "data-act-unbound", "guard-unbound",
        "data-act-int", "upd-none", "guard-int", "prop-atom-int"])
@pytest.mark.parametrize("explore", [step, build_lts], ids=["step", "build_lts"])
def test_step_error_messages_pinned(explore, t, error, message):
    with pytest.raises(ValueError) as info:
        explore(t)
    assert type(info.value) is error and str(info.value) == message


def _left_nested(n, wrap, leaf):
    t = leaf
    for _ in range(n):
        t = wrap(t)
    return t


_NONE = T.ActionSet.labels(())


@pytest.mark.parametrize("wrap", [
    lambda t: Alt(t, Act("b")),
    lambda t: Seq(t, EPS),
    lambda t: T.Encap(_NONE, t),
    lambda t: Par(t, EPS),
], ids=["alt", "seq", "encap", "par"])
def test_deep_left_nested_chains_explore(wrap):
    # each operator level costs the step rules one Python frame; 900 levels
    # stay inside the default recursion limit only if no rule adds a second
    l = build_lts(_left_nested(900, wrap, Act("a")))
    assert len(l.states) == 2 and not l.exploded


@pytest.mark.parametrize("explore", [step, build_lts, normalize_basic],
                         ids=["step", "build_lts", "normalize_basic"])
def test_too_deep_terms_raise_a_semantics_error(explore):
    # 2,000 levels need more Python frames than the recursion limit gives
    with pytest.raises(SemanticsError) as info:
        explore(_left_nested(2000, lambda t: Seq(t, EPS), Act("a")))
    assert type(info.value) is SemanticsError
    assert str(info.value).startswith("term too deep to explore: it nests 2001 operators")


@pytest.mark.parametrize("explore", [step, build_lts], ids=["step", "build_lts"])
def test_too_deep_conditions_count_their_levels(explore):
    # the count takes in the conditions and data the rules evaluate, not
    # only the process-term levels
    cond = T.TRUE
    for _ in range(3000):
        cond = T.And(cond, T.TRUE)
    with pytest.raises(SemanticsError) as info:
        explore(Guard(cond, EPS))
    assert str(info.value).startswith("term too deep to explore: it nests 3002 operators")


def test_rule_table_covers_every_process_term_class():
    from ramproc.semantics import _RULES

    process_classes = T._LEAF | T._BINARY | T._UNARY_BODY | {T.Rec}
    assert set(_RULES) == process_classes
    assert len(set(_RULES.values())) == len(_RULES)


# ---------------------------------------------------------------------------
# The explorer's breadth-first numbering, handed over as the topological order
# when no kept move goes back to a state numbered at or before its source.

def _handed_over(l):
    """The order `_explore` handed l, or None; read before any analysis."""
    return l._order if type(l._order) is range else None


def _is_reverse_topological(order, l):
    at = {sid: i for i, sid in enumerate(order)}
    return sorted(at) == list(range(len(l))) and all(
        at[dst] < at[src] for src, out in enumerate(l.outs) for _, dst in out)


_COUNTS = (lambda lab: not isinstance(lab, T.Tau), lambda lab: isinstance(lab, Assignment),
           lambda lab: True)


def _analyses(ltss, pairs):
    """The answers of every analysis that reads the topological order, then
    rb_bisim on the pairs of positions."""
    answers = [(eventually_halts(l), depth(l), semantics.depths(l, _COUNTS),
                count_maximal_paths(l)) for l in ltss]
    return answers, [rb_bisim(ltss[i], ltss[j]) for i, j in pairs]


def _handover_corpus():
    """(label, Lts) of the fingerprint corpus, both sides of each law on one
    seeded pass, and seeded halting compositions."""
    yield from _fingerprint_corpus()
    for name in sorted(AXIOMS):
        for side, t in zip(("lhs", "rhs"), AXIOMS[name](Gen(zlib.crc32(name.encode()) + 33))):
            yield "%s-%s" % (name, side), build_lts(t, None, 2000, gamma=GAMMA)
    rng = random.Random(33)
    for k in range(6):
        n = rng.randint(2, 3)
        yield "apramp-%d" % k, build_lts(*_apramp([_straight_line(rng, 3) for _ in range(n)]))
        yield "spramp-%d" % k, build_lts(*_spramp([_straight_line(rng, 3) for _ in range(n)]))


def test_handed_over_orders_are_reverse_topological_and_change_no_answer():
    corpus = list(_handover_corpus())
    given = [(label, l) for label, l in corpus if _handed_over(l) is not None]
    for label, l in given:
        assert not l.exploded and _is_reverse_topological(_handed_over(l), l), label
    ltss = [l for _, l in given]
    # a sequential machine's run is a chain: the order is handed over exactly
    # when it is acyclic, and on every seeded composition, which halts
    handed = {label for label, _ in given}
    for label, l in corpus:
        if label.startswith("ramp-"):
            assert (label in handed) == (not l.exploded and _topo_order(l) is not None), label
    assert {"apramp-%d" % k for k in range(6)} | {"spramp-%d" % k for k in range(6)} <= handed
    laws = [label for label, _ in corpus if label.endswith(("-lhs", "-rhs"))]
    assert len(handed.intersection(laws)) > 0.9 * len(laws)
    pairs = [(i, i) for i in range(len(ltss))] + [(i, i + 1) for i in range(len(ltss) - 1)]
    before = _analyses(ltss, pairs)
    for l in ltss:
        l._order = semantics._UNSET
    assert _analyses(ltss, pairs) == before
    assert not any(_handed_over(l) for l in ltss)  # each order came from Kahn's


def test_a_backward_edge_without_a_cycle_takes_kahns_order():
    # breadth first, d . c reaches c, numbered 1, from state 2
    l = build_lts(parse_term("a . c + b . (d . c)"))
    assert any(dst <= 2 for _, dst in l.outs[2])
    assert l._order is semantics._UNSET
    assert depth(l) == 3 and _is_reverse_topological(l._order, l)
    assert type(l._order) is list


@pytest.mark.parametrize("build", [
    lambda: build_lts(*_ramp("jmp:eq:#0:#0:1\nhalt\n", {})),
    lambda: build_lts(parse_term("rec X {X = a . X}")),
    lambda: build_lts(*_ramp(sample_terms.DIVISION_PROGRAM, {1: "1101", 2: "1"}), max_states=5),
    lambda: _hand_built(build_lts(parse_term("a . b + c"))),
], ids=["looping-program", "looping-term", "exploded", "hand-built"])
def test_no_order_is_handed_over(build):
    assert build()._order is semantics._UNSET


def test_setting_transitions_drops_the_handed_over_order():
    l = build_lts(parse_term("a . b"))
    assert type(l._order) is range
    l.transitions = [(1, Plain("b"), 0)] + l.transitions
    assert _topo_order(l) is None
