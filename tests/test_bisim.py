import random
import zlib

import pytest

from ramproc import bisim
from ramproc.bisim import rb_bisim
from ramproc.memory import EMPTY_MEM, MemState
from ramproc.semantics import Lts, UndecidedError, _topo_order, build_lts
from ramproc.syntax import parse_term
from ramproc.terms import TAU_LABEL, Plain, Valuation

from axiom_defs import AXIOMS, GAMMA, Gen


def _b(s1, s2, rho=None):
    return rb_bisim(build_lts(parse_term(s1), rho), build_lts(parse_term(s2), rho))


def test_reflexive():
    assert _b("a . eps", "a . eps")
    assert _b("eps", "eps")
    assert _b("delta", "delta")


def test_basic_laws():
    assert _b("a + a", "a")
    assert _b("a + b", "b + a")
    assert _b("(a + b) + c", "a + (b + c)")
    assert _b("a . eps + delta", "a . eps")
    assert _b("delta . a", "delta")
    assert _b("eps . a", "a")
    assert _b("a . eps", "a")


def test_distinctions():
    assert not _b("a . b", "a . c")
    assert not _b("a", "a . b")
    assert not _b("eps", "delta")
    assert not _b("a . (b + c)", "a . b + a . c")
    assert not _b("a . delta", "a . eps")


def test_inert_tau():
    assert _b("a . tau . b", "a . b")
    assert _b("a . tau . eps", "a . eps")
    assert _b("a . (tau . (b + c) + b)", "a . (b + c)")
    # tau that discards an option is not inert
    assert not _b("a . (tau . b + c)", "a . (b + c)")


def test_rootedness():
    assert not _b("tau . a", "a")
    assert not _b("tau . eps", "eps")
    assert _b("a . tau", "a")


def test_success_distinguishes():
    assert not _b("a . (eps + b . eps)", "a . b . eps")
    assert _b("a . (eps + b . eps)", "a . (b . eps + eps)")


def test_assignment_payloads_compared():
    rho = Valuation.make({"v": EMPTY_MEM})
    assert not _b("v := [0:1] . eps", "v := [0:0] . eps", rho)
    assert _b("v := [0:1] . eps", "v := [0:1] . eps", rho)


def test_parallel_vs_expansion():
    assert _b("a || b", "a . b + b . a")
    assert not _b("a || b", "a . b")


def test_exploded_is_undecided():
    t = parse_term("rec X {X = True :-> v := add:0:#1:0(v) . X}")
    l = build_lts(t, Valuation.make({"v": EMPTY_MEM}), max_states=4)
    good = build_lts(parse_term("eps"))
    with pytest.raises(UndecidedError):
        rb_bisim(l, good)
    with pytest.raises(UndecidedError):
        rb_bisim(good, l)


def test_cyclic_lts_supported():
    # bisimilarity itself works fine on cyclic graphs
    assert _b("rec X {X = True :-> a . X}",
              "rec Y {Y = True :-> a . a . Y}")
    assert not _b("rec X {X = True :-> a . X}",
                  "rec Y {Y = True :-> a . b . Y}")
    # a root tau is not inert, even inside a cycle
    assert not _b("rec X {X = True :-> tau . Y, Y = True :-> a . X}",
                  "rec Z {Z = True :-> a . Z}")
    # but a tau after the first action is
    assert _b("rec X {X = True :-> a . Y, Y = True :-> tau . X}",
              "rec Z {Z = True :-> a . Z}")


# ---------------------------------------------------------------------------
# The one-pass path on acyclic systems, refereed by the signature refinement.

def _lts(n, edges, success):
    """An Lts on states 0..n-1 built from an edge list, starting at 0."""
    l = Lts()
    l.states = list(range(n))
    l.transitions = list(dict.fromkeys(edges))
    l.success = set(success)
    return l


_LABELS = [TAU_LABEL, TAU_LABEL, Plain("a"), Plain("b")]


def _random_dag(rng, most=6):
    """(n, edges, success) of an acyclic system on 1..most states, each
    reachable from state 0 by an edge from an earlier state, plus forward
    edges; about half of the labels are silent."""
    n = rng.randint(1, most)
    edges = [(rng.randrange(k), rng.choice(_LABELS), k) for k in range(1, n)]
    for _ in range(rng.randint(0, n) if n > 1 else 0):
        a, b = sorted(rng.sample(range(n), 2))
        edges.append((a, rng.choice(_LABELS), b))
    return n, edges, {s for s in range(n) if rng.random() < 0.4}


def _shifted(dag, by):
    n, edges, success = dag
    return [(a + by, lab, b + by) for a, lab, b in edges], {s + by for s in success}


def _stutter(rng, dag, extra):
    """`a . X` and `a . tau . X`, the tau state given an extra branch into X
    (extra 1) or its own termination (extra 2)."""
    n = dag[0]
    edges, success = _shifted(dag, 1)
    plain = _lts(n + 1, [(0, Plain("a"), 1)] + edges, success)
    edges, success = _shifted(dag, 2)
    edges = [(0, Plain("a"), 1), (1, TAU_LABEL, 2)] + edges
    if extra == 1:
        edges.append((1, rng.choice(_LABELS), rng.randrange(2, n + 2)))
    elif extra == 2:
        success.add(1)
    return plain, _lts(n + 2, edges, success)


def _renumbered(rng, dag):
    """The same system under a random numbering that keeps 0 first."""
    n, edges, success = dag
    perm = [0] + rng.sample(range(1, n), n - 1)
    return _lts(n, [(perm[a], lab, perm[b]) for a, lab, b in edges], {perm[s] for s in success})


def _edited(rng, dag):
    """The system with one edge relabelled or one termination flipped."""
    n, edges, success = dag
    edges, success = list(edges), set(success)
    if edges and rng.random() < 0.5:
        k = rng.randrange(len(edges))
        edges[k] = (edges[k][0], rng.choice(_LABELS), edges[k][2])
    else:
        success ^= {rng.randrange(n)}
    return _lts(n, edges, success)


def _random_pair(rng):
    kind = rng.randrange(4)
    x = _random_dag(rng)
    if kind == 0:
        return _lts(*x), _lts(*_random_dag(rng, 4))
    if kind == 1:
        return _stutter(rng, x, rng.randrange(3))
    return _lts(*x), (_renumbered if kind == 2 else _edited)(rng, x)


def _paths_agree(l1, l2):
    """The one-pass verdict on two acyclic systems, checked against the
    refinement's verdict on the same pair."""
    assert _topo_order(l1) is not None and _topo_order(l2) is not None
    verdict = bisim._one_pass(l1, l2)
    assert verdict == bisim._refined(l1, l2)
    return verdict


def test_one_pass_matches_refinement_on_random_acyclic_pairs():
    rng = random.Random(2404)
    verdicts = [_paths_agree(*_random_pair(rng)) for _ in range(20000)]
    assert 4000 < sum(verdicts) < 16000


def test_stutter_variants():
    rng = random.Random(24)
    for _ in range(200):
        assert _paths_agree(*_stutter(rng, _random_dag(rng), 0))
    a, b = Plain("a"), Plain("b")
    plain = _lts(3, [(0, a, 1), (1, a, 2)], {2})
    # an extra branch at the tau state makes the tau a choice
    assert not _paths_agree(plain, _lts(4, [(0, a, 1), (1, TAU_LABEL, 2), (2, a, 3),
                                            (1, b, 3)], {3}))
    # so does termination there, unless X can terminate at once
    assert not _paths_agree(plain, _lts(4, [(0, a, 1), (1, TAU_LABEL, 2), (2, a, 3)], {1, 3}))
    assert _paths_agree(_lts(3, [(0, a, 1), (1, a, 2)], {1, 2}),
                        _lts(4, [(0, a, 1), (1, TAU_LABEL, 2), (2, a, 3)], {1, 2, 3}))


def test_one_pass_matches_refinement_on_law_instances():
    checked = 0
    for name in sorted(AXIOMS):
        g = Gen(zlib.crc32(name.encode()) * 1000003 + 24)
        ltss = [[build_lts(t, None, 2000, gamma=GAMMA) for t in AXIOMS[name](g)]
                for _ in range(8)]
        # each law instance, and the left side of one against the next right side
        for l1, l2 in [p for p in ltss] + [(a[0], b[1]) for a, b in zip(ltss, ltss[1:])]:
            if _topo_order(l1) is not None and _topo_order(l2) is not None:
                _paths_agree(l1, l2)
                checked += 1
    assert checked > 900


def test_one_pass_matches_refinement_on_the_fingerprint_corpus():
    from test_semantics import _fingerprint_corpus

    ltss = [l for _, l in _fingerprint_corpus() if not l.exploded]
    checked = 0
    for l1, l2 in list(zip(ltss, ltss)) + list(zip(ltss, ltss[1:])):
        if _topo_order(l1) is not None and _topo_order(l2) is not None:
            _paths_agree(l1, l2)
            checked += 1
    assert checked > 600


def test_acyclic_pairs_skip_the_refinement(monkeypatch):
    def refuse(m):
        raise AssertionError("the refinement ran on an acyclic pair")

    monkeypatch.setattr(bisim, "_branching_blocks", refuse)
    assert _b("a . tau . b", "a . b")
    assert _b("a . (tau . (b + c) + b)", "a . (b + c)")
    assert not _b("a . (tau . b + c)", "a . (b + c)")
    assert not _b("tau . a", "a")
    assert _b("a || b", "a . b + b . a")


def test_cyclic_pairs_keep_the_refinement(monkeypatch):
    calls = []
    refine = bisim._branching_blocks
    monkeypatch.setattr(bisim, "_branching_blocks", lambda m: calls.append(m) or refine(m))
    loop = "rec X {X = True :-> tau . X + True :-> a . eps}"
    # the tau loop is inert below the root, but a root tau must be matched
    assert _b(loop, "rec Y {Y = True :-> tau . Y + True :-> a . eps}")
    assert not _b(loop, "a")
    # one side acyclic, one with a tau cycle
    assert _b(loop, "tau . a + a")
    assert not _b("tau . a", loop)
    assert len(calls) == 4
