"""Halting, depth and path counting on hand-built transition graphs, checked
against brute-force enumeration of every run from the initial state; and
how often `depths` asks its predicates, on those graphs and on explored
ones."""

import random
import zlib

import pytest

import sample_terms
from axiom_defs import AXIOMS, GAMMA, Gen
from ramproc import terms as T
from ramproc.machines import (
    SMBRAM, compose_async, memory_name, parse_program, proc_of_bbram, proc_of_smbram_async,
)
from ramproc.memory import EMPTY_MEM, MemState
from ramproc.semantics import (
    Lts,
    SemanticsError,
    build_lts,
    count_maximal_paths,
    depth,
    depths,
    eventually_halts,
)
from ramproc.terms import TAU_LABEL, Assignment, Eval, Plain, Tau, Valuation

# Labels of every kind; the two assignments compare equal but mention
# different variables, so `depths` must tell them apart.
_X1 = MemState({0: "1"})
LABELS = [
    TAU_LABEL, Plain("a"), Plain("b"),
    Assignment("x", _X1, frozenset({"x"})),
    Assignment("x", _X1, frozenset({"x", "y"})),
    Assignment("y", MemState({1: "01"}), frozenset({"y"})),
]


def _key(lab):
    return (lab, lab.mentions) if isinstance(lab, Assignment) else lab


PREDICATES = [
    lambda lab: not isinstance(lab, Tau),
    lambda lab: isinstance(lab, Assignment) and "y" in lab.mentions,
    lambda lab: isinstance(lab, Plain),
]


def random_graph(rng, cyclic):
    """An Lts on 1-9 states, each reachable from state 0: a spanning edge
    into every state from an earlier one, forward edges (some parallel,
    under other labels), and back edges when cyclic."""
    n = rng.randint(1, 9)
    edges = set()
    for k in range(1, n):
        edges.add((rng.randrange(k), rng.choice(LABELS), k))
    for _ in range(rng.randint(0, 2 * n)):
        a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        if a < b:
            edges.add((a, rng.choice(LABELS), b))
    if cyclic:
        for _ in range(rng.randint(1, 2)):
            b = rng.randrange(n)
            edges.add((rng.randint(b, n - 1), rng.choice(LABELS), b))
    l = Lts()
    l.states = list(range(n))
    edges = sorted(edges, key=lambda e: (e[0], e[2], LABELS.index(e[1])))
    rng.shuffle(edges)
    l.transitions = edges
    l.success = {s for s in range(n) if rng.random() < 0.5}
    return l


def runs(l):
    """Every maximal run from the initial state as its list of labels, or
    None when some run from it returns to a state it has visited."""
    out = [[] for _ in l.states]
    for src, lab, dst in l.transitions:
        out[src].append((lab, dst))
    found = []
    todo = [(l.initial, (), frozenset({l.initial}))]
    while todo:
        sid, labs, seen = todo.pop()
        if not out[sid]:
            found.append((labs, sid))
        for lab, dst in out[sid]:
            if dst in seen:
                return None
            todo.append((dst, labs + (lab,), seen | {dst}))
    return found


@pytest.mark.parametrize("cyclic", [False, True], ids=["dag", "cyclic"])
def test_analysis_matches_brute_force(cyclic):
    rng = random.Random(1600 + cyclic)
    for _ in range(400):
        l = random_graph(rng, cyclic)
        found = runs(l)
        if found is None:
            assert not eventually_halts(l)
            with pytest.raises(SemanticsError):
                depths(l, PREDICATES[:1])
            with pytest.raises(SemanticsError):
                count_maximal_paths(l)
            continue
        assert eventually_halts(l) == all(end in l.success for _, end in found)
        assert count_maximal_paths(l) == len(found)
        for k in (1, 2, 3):
            preds = PREDICATES[:k]
            want = tuple(max(sum(map(p, labs)) for labs, _ in found) for p in preds)
            assert depths(l, preds) == want
        assert depth(l) == depths(l, PREDICATES[:1])[0]


def test_random_graphs_cover_both_verdicts():
    rng = random.Random(1600)
    verdicts = {eventually_halts(random_graph(rng, False)) for _ in range(100)}
    assert verdicts == {False, True}
    rng = random.Random(1601)
    assert any(runs(random_graph(rng, True)) is None for _ in range(100))


def _explored():
    """Explored LTSs, each with the predicates a question asks of it: the
    quotient-300 division machine on state vectors, a 3-component apramp
    machine under aputm's per-component predicates, whose stores give
    equal labels that mention different memories, and law instances on
    terms."""
    rho = Valuation.make({"RM": MemState({1: "001101001", 2: "1"})})  # 300 / 1
    div = build_lts(proc_of_bbram(parse_program(sample_terms.DIVISION_PROGRAM)), rho)
    assert (len(div), div.transition_count(), len(div.labels)) == (1203, 1202, 601)
    yield div, PREDICATES
    comp = "add:0:#1:1\nadd:1:#1:2\nsto:0:@0\nadd:2:2:3\nhalt\n"
    term = compose_async([proc_of_smbram_async(i, parse_program(comp, SMBRAM))
                          for i in (1, 2, 3)])
    rho = Valuation.make({v: EMPTY_MEM for v in T.flexvars_term(term)})
    l = build_lts(term, rho)
    labels = [lab for _, lab, _ in l.transitions]
    assert len(l) == 6 ** 3 and len(set(labels)) < len(set(map(_key, labels)))
    yield l, [T.ActionSet.mentioning(memory_name(i)).contains_label for i in (1, 2, 3)]
    for name in ("V4", "CM7Da", "GC1", "RN3", "T2"):
        g = Gen(zlib.crc32(name.encode()))
        for _ in range(10):
            for t in AXIOMS[name](g):
                l = build_lts(t, None, 2000, gamma=GAMMA)
                if not l.exploded and runs(l) is not None:
                    yield l, PREDICATES


def test_depths_asks_each_predicate_once_per_distinct_label():
    rng = random.Random(1602)
    graphs = [(random_graph(rng, False), PREDICATES) for _ in range(200)]
    for l, predicates in graphs + list(_explored()):
        asked = [[] for _ in predicates]

        def counting(k):
            def count(lab):
                asked[k].append(_key(lab))
                return predicates[k](lab)
            return count

        depths(l, [counting(k) for k in range(len(predicates))])
        distinct = {_key(lab) for _, lab, _ in l.transitions}
        for calls in asked:
            assert sorted(calls, key=repr) == sorted(distinct, key=repr)


@pytest.mark.parametrize("first, second, mentions, counted", [
    ("y", "x", {"x", "y"}, 1),
    ("x", "y", {"x"}, 0),
], ids=["reads-y-first", "reads-x-first"])
def test_dedup_keeps_the_first_of_equal_assignments(first, second, mentions, counted):
    # x := y and x := x assign the same memory when x and y hold it, so
    # their labels compare equal and the state keeps one transition: the
    # first, with the variables that one mentions
    m = MemState({0: "1"})
    t = Eval(Valuation.make({"x": m, "y": m}),
             T.Alt(T.Assign("x", T.FlexVar(first)), T.Assign("x", T.FlexVar(second))))
    l = build_lts(t)
    [(src, lab, dst)] = l.transitions
    assert (src, dst) == (0, 1) and lab == Assignment("x", m, frozenset())
    assert lab.mentions == mentions
    assert depths(l, [T.ActionSet.mentioning("y").contains_label]) == (counted,)


def test_order_is_kept_across_questions():
    rng = random.Random(1603)
    l = random_graph(rng, False)
    while runs(l) is None or len(l) < 5:
        l = random_graph(rng, False)
    first = (eventually_halts(l), count_maximal_paths(l), depths(l, PREDICATES))
    assert (eventually_halts(l), count_maximal_paths(l), depths(l, PREDICATES)) == first
