"""Halting, depth and path counting on hand-built transition graphs, checked
against brute-force enumeration of every run from the initial state."""

import random

import pytest

from ramproc.memory import MemState
from ramproc.semantics import (
    Lts,
    SemanticsError,
    count_maximal_paths,
    depth,
    depths,
    eventually_halts,
)
from ramproc.terms import TAU_LABEL, Assignment, Plain, Tau

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
    l.transitions = sorted(edges, key=lambda e: (e[0], e[2], LABELS.index(e[1])))
    rng.shuffle(l.transitions)
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


def test_depths_asks_each_predicate_once_per_distinct_label():
    rng = random.Random(1602)
    for _ in range(200):
        l = random_graph(rng, False)
        asked = [[] for _ in PREDICATES]

        def counting(k):
            def count(lab):
                asked[k].append(_key(lab))
                return PREDICATES[k](lab)
            return count

        depths(l, [counting(k) for k in range(len(PREDICATES))])
        distinct = {_key(lab) for _, lab, _ in l.transitions}
        for calls in asked:
            assert sorted(calls, key=repr) == sorted(distinct, key=repr)


def test_order_is_kept_across_questions():
    rng = random.Random(1603)
    l = random_graph(rng, False)
    while runs(l) is None or len(l) < 5:
        l = random_graph(rng, False)
    first = (eventually_halts(l), count_maximal_paths(l), depths(l, PREDICATES))
    assert (eventually_halts(l), count_maximal_paths(l), depths(l, PREDICATES)) == first
