"""Rooted branching bisimilarity on finite transition systems.

Two states are branching bisimilar when they have the same signature: the
moves, as (label, successor class), that they can make after silent steps
inside their own class, silent moves that stay in the class left out, plus
whether they can terminate there.  The roots are then rooted branching
bisimilar when their own moves, silent ones included, go to the same
classes under the same labels and they agree on immediate termination.

When both systems are acyclic, every successor of a state has its final
class before the state is reached in reverse topological order, so one
pass settles the classes (Dovier, Piazza & Policriti, TCS 2004): a state
joins the class of a silent successor whose signature holds all its other
moves and its termination, and otherwise its own moves are its signature.
When either system has a cycle, the classes of the two systems merged into
one are refined from a single block until no signature splits one
(Groote & Vaandrager, ICALP 1990).
"""

from __future__ import annotations

from .semantics import Lts, UndecidedError, _topo_order
from .terms import Tau

_DONE = ("<done>",)


class _Merged:
    def __init__(self, l1: Lts, l2: Lts):
        off = len(l1.states)
        self.n = off + len(l2.states)
        self.out = [
            [(lab, dst) for lab, dst in l1.out(i)] for i in range(len(l1.states))
        ] + [
            [(lab, dst + off) for lab, dst in l2.out(i)] for i in range(len(l2.states))
        ]
        self.success = l1.success | {s + off for s in l2.success}
        self.root1 = l1.initial
        self.root2 = l2.initial + off


def _signature(m: _Merged, s: int, block) -> frozenset:
    mine = block[s]
    closure = [s]
    seen = {s}
    sig = set()
    k = 0
    while k < len(closure):
        u = closure[k]
        k += 1
        if u in m.success:
            sig.add(_DONE)
        for lab, v in m.out[u]:
            if isinstance(lab, Tau) and block[v] == mine:
                if v not in seen:
                    seen.add(v)
                    closure.append(v)
            else:
                sig.add((lab, block[v]))
    return frozenset(sig)


def _branching_blocks(m: _Merged):
    block = [0] * m.n
    while True:
        keys = [(block[s], _signature(m, s, block)) for s in range(m.n)]
        remap = {}
        new = [0] * m.n
        for s in range(m.n):
            new[s] = remap.setdefault(keys[s], len(remap))
        if new == block:
            return block
        block = new


def _one_pass(l1: Lts, l2: Lts) -> bool:
    """`rb_bisim` on two acyclic systems, which share one class table."""
    classes, sigs, roots = {}, [], []
    for l in (l1, l2):
        labels, outs, success = l.labels, l.outs, l.success
        cls = [0] * len(l)
        for s in _topo_order(l):
            moves = {(labels[k], cls[dst]) for k, dst in outs[s]}
            if s in success:
                moves.add(_DONE)
            for m in moves:
                if type(m[0]) is Tau and all(x is m or x in sigs[m[1]] for x in moves):
                    cls[s] = m[1]
                    break
            else:
                sig = frozenset(moves)
                cls[s] = classes.setdefault(sig, len(sigs))
                if cls[s] == len(sigs):
                    sigs.append(sig)
            if s == l.initial:
                roots.append(moves)
    return roots[0] == roots[1]


def _refined(l1: Lts, l2: Lts) -> bool:
    """`rb_bisim` by refinement of the merged systems' blocks."""
    m = _Merged(l1, l2)
    block = _branching_blocks(m)
    roots = [{(lab, block[dst]) for lab, dst in m.out[r]} | ({_DONE} if r in m.success else set())
             for r in (m.root1, m.root2)]
    return roots[0] == roots[1]


def rb_bisim(l1: Lts, l2: Lts) -> bool:
    """Are the initial states rooted branching bisimilar?"""
    if l1.exploded or l2.exploded:
        raise UndecidedError("cannot compare a truncated transition system")
    if _topo_order(l1) is not None and _topo_order(l2) is not None:
        return _one_pass(l1, l2)
    return _refined(l1, l2)
