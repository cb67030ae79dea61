"""Operational semantics: stepping, transition-system construction, halting,
depth, basic-term normalization, and the synchronizing-merge expansion.

States are process terms themselves; a term under evaluation carries its
valuation in the Eval node, so structural equality of terms is state
identity.  All exploration is deterministic: summands left to right, left
argument before right, communication pairs in that induced order.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from functools import partial
from itertools import count
from operator import itemgetter

from . import terms as T
from .terms import (
    Assignment, DataAction, Plain, Tau, TAU_LABEL,
    EMPTY_VALUATION, Valuation, read_valuation, unfold,
)
from .memory import format_mem
from .nodes import node


class SemanticsError(ValueError):
    pass


class UndecidedError(SemanticsError):
    """Raised when a question cannot be settled within the exploration bound."""


@node
class CommFunction:
    """Commutative partial function pairing action names into a joint name."""

    pairs: tuple  # ((a, b), c) with a <= b

    @classmethod
    def make(cls, mapping):
        norm = {}
        for (a, b), c in mapping.items():
            key = (a, b) if a <= b else (b, a)
            if norm.get(key, c) != c:
                raise ValueError("conflicting communication for %s|%s" % key)
            norm[key] = c
        return cls(tuple(sorted(norm.items())))

    def pair(self, a: str, b: str):
        key = (a, b) if a <= b else (b, a)
        for k, c in self.pairs:
            if k == key:
                return c
        return None


DEFAULT_GAMMA = CommFunction.make({("sync", "sync"): "synced"})

_SYNC_RENAME = T.ActionMap.make({"synced": "sync"})
_SYNC_SET = T.ActionSet.labels(("sync",))


def sync_merge_expand(l, r):
    """The synchronizing merge as a derived operator: rename, interleave with
    communication, block lone handshakes, rename the joint action back."""
    return T.Rename(
        _SYNC_RENAME,
        T.Encap(_SYNC_SET, T.Par(T.Rename(_SYNC_RENAME, l), T.Rename(_SYNC_RENAME, r))),
    )


def _communicate(a, b, gamma: CommFunction):
    if isinstance(a, Plain) and isinstance(b, Plain):
        c = gamma.pair(a.name, b.name)
        return Plain(c) if c is not None else None
    if isinstance(a, DataAction) and isinstance(b, DataAction):
        c = gamma.pair(a.name, b.name)
        if c is not None and a.args == b.args:
            return DataAction(c, a.args)
    return None


def _communications(ml, mr, gamma):
    """The communicating pairs of two operands' moves, left moves outer."""
    moves = []
    for a, l2 in ml:
        for b, r2 in mr:
            c = _communicate(a, b, gamma)
            if c is not None:
                moves.append((c, T.Par(l2, r2)))
    return moves


def _ground(x, env, what="data not ground"):
    """x(env), x a compiled expression; an unbound variable is a SemanticsError."""
    try:
        return x(env)
    except LookupError as err:
        raise SemanticsError("%s: %s" % (what, err)) from None


def _code(x, compile, kinds):
    """compile(x, read_valuation), kept in x's hidden `_code` field when x is a
    node of kinds: states and both sides of a law share such nodes.  Any
    other x compiles each time, and compile raises its error."""
    if type(x) not in kinds:
        return compile(x, read_valuation)
    code = x._code
    if code is None:
        code = compile(x, read_valuation)
        object.__setattr__(x, "_code", code)
    return code


def step(t, rho: Valuation | None = None, gamma: CommFunction = DEFAULT_GAMMA):
    """One-step behavior of t under an ambient valuation.

    Returns (success, moves): whether t can terminate now, and the ordered
    deduplicated (label, successor) pairs.  A term too deep for the step
    rules raises SemanticsError.
    """
    env = rho if rho is not None else EMPTY_VALUATION
    try:
        success, moves = _RULES[type(t)](t, env, gamma)
    except RecursionError:
        raise _too_deep(t) from None
    return success, tuple(dict.fromkeys(moves))


# The one-step rules, one function per process-term class, all called as
# `_RULES[type(t)](t, env, gamma)` and returning (success, moves) of t
# under env.  A rule steps each operand through the table itself, so each
# operator level costs one Python frame and deep terms explore as far as
# the recursion limit allows.
#
# The moves come in rule order and may repeat; callers deduplicate once,
# keeping first occurrences.  That gives the same list as deduplicating at
# every operator: each rule builds its moves from its operands' moves by
# concatenation, by mapping labels and successors, by filtering, or by the
# ordered communication product, and under each of these a repeated operand
# move only yields repeats of moves produced earlier.

def _empty(t, env, gamma):
    return True, []


def _dead(t, env, gamma):
    return False, []


def _silent(t, env, gamma):
    return False, [(TAU_LABEL, T.EPS)]


def _act(t, env, gamma):
    return False, [(Plain(t.name), T.EPS)]


def _data_act(t, env, gamma):
    args = tuple([_ground(_code(e, T.compile_data, T._DATA), env) for e in t.args])
    return False, [(DataAction(t.name, args), T.EPS)]


def _assign(t, env, gamma):
    val = _ground(_code(t.e, T.compile_data, T._DATA), env)
    return False, [(Assignment(t.var, val, t._flexvars), T.EPS)]


def _alt(t, env, gamma):
    l, r = t.l, t.r
    sl, ml = _RULES[type(l)](l, env, gamma)
    sr, mr = _RULES[type(r)](r, env, gamma)
    return sl or sr, ml + mr


def _seq(t, env, gamma):
    l, r = t.l, t.r
    sl, ml = _RULES[type(l)](l, env, gamma)
    moves = [(a, T.Seq(l2, r)) for a, l2 in ml]
    sr = False
    if sl:
        sr, mr = _RULES[type(r)](r, env, gamma)
        moves.extend(mr)
    return sl and sr, moves


def _par(t, env, gamma):
    l, r = t.l, t.r
    sl, ml = _RULES[type(l)](l, env, gamma)
    sr, mr = _RULES[type(r)](r, env, gamma)
    moves = [(a, T.Par(l2, r)) for a, l2 in ml]
    moves.extend((b, T.Par(l, r2)) for b, r2 in mr)
    moves.extend(_communications(ml, mr, gamma))
    return sl and sr, moves


def _left_merge(t, env, gamma):
    l, r = t.l, t.r
    _, ml = _RULES[type(l)](l, env, gamma)
    return False, [(a, T.Par(l2, r)) for a, l2 in ml]


def _comm_merge(t, env, gamma):
    l, r = t.l, t.r
    _, ml = _RULES[type(l)](l, env, gamma)
    _, mr = _RULES[type(r)](r, env, gamma)
    return False, _communications(ml, mr, gamma)


def _guard(t, env, gamma):
    if not _ground(_code(t.cond, T.compile_cond, T._COND), env,
                   "condition not decidable without valuation"):
        return False, []
    b = t.body
    return _RULES[type(b)](b, env, gamma)


def _encap(t, env, gamma):
    b, acts = t.body, t.acts
    s, m = _RULES[type(b)](b, env, gamma)
    return s, [(a, T.Encap(acts, u)) for a, u in m if not acts.contains_label(a)]


def _abstr(t, env, gamma):
    b, acts = t.body, t.acts
    s, m = _RULES[type(b)](b, env, gamma)
    return s, [(TAU_LABEL if acts.contains_label(a) else a, T.Abstr(acts, u)) for a, u in m]


def _eval(t, env, gamma):
    b, rho = t.body, t.rho
    s, m = _RULES[type(b)](b, rho, gamma)
    moves = []
    for a, u in m:
        rho2 = rho.set(a.var, a.value) if isinstance(a, Assignment) else rho
        moves.append((a, T.Eval(rho2, u)))
    return s, moves


def _proj(t, env, gamma):
    b, n = t.body, t.n
    s, m = _RULES[type(b)](b, env, gamma)
    moves = []
    has_visible = False
    for a, u in m:
        if isinstance(a, Tau):
            moves.append((a, T.Proj(n, u)))
        elif n > 0:
            moves.append((a, T.Proj(n - 1, u)))
        else:
            has_visible = True
    return s or (n == 0 and has_visible), moves


def _rename(t, env, gamma):
    b, f = t.body, t.f
    s, m = _RULES[type(b)](b, env, gamma)
    return s, [(f.apply_label(a), T.Rename(f, u)) for a, u in m]


def _sync_merge(t, env, gamma):
    return _rename(sync_merge_expand(t.l, t.r), env, gamma)


def _rec(t, env, gamma):
    u, n = t, 0
    while isinstance(u, T.Rec):
        u = unfold(u)
        n += 1
        if n > 1000:
            raise SemanticsError("recursion does not reach a guarded form")
    return _RULES[type(u)](u, env, gamma)


def _var(t, env, gamma):
    raise SemanticsError("free recursion variable %s" % t.name)


def _stuck(t, env, gamma):
    raise SemanticsError("cannot step %r" % (t,))


_RULES = T.ByClass(_stuck, {
    T.Empty: _empty, T.Dead: _dead, T.Silent: _silent, T.Act: _act,
    T.DataAct: _data_act, T.Assign: _assign, T.Alt: _alt, T.Seq: _seq, T.Par: _par,
    T.LeftMerge: _left_merge, T.CommMerge: _comm_merge, T.Guard: _guard,
    T.Encap: _encap, T.Abstr: _abstr, T.Eval: _eval, T.Proj: _proj,
    T.Rename: _rename, T.SyncMerge: _sync_merge, T.Rec: _rec, T.Var: _var,
})


# ---------------------------------------------------------------------------
# Transition systems

_UNSET = object()


class Lts:
    """A finite labeled transition graph with explicit termination states.

    `states` holds the state terms in exploration order; after an
    exploration on state vectors it rebuilds each one on demand
    (`_StateTerms`).  When exploration hits the state cap, `exploded` is
    set and the graph is partial; consumers must treat it as inconclusive.
    The transitions are kept once, as out-lists `outs` of (label id,
    target) per state in transition order, with `labels` the label of each
    id.  `transitions` and `out(sid)` give labels themselves, built when
    asked for, in source order.  A graph built by hand sets `states`, then
    `transitions`.
    """

    def __init__(self):
        self.states = []
        self.success = set()
        self.initial = 0
        self.exploded = False
        self.labels, self.outs, self._ids, self._assigned = [], [], {}, {}
        self._order = _UNSET

    @property
    def transitions(self):
        """The (source, label, target) triples in source order."""
        labels = self.labels
        return [(src, labels[k], dst) for src, out in enumerate(self.outs) for k, dst in out]

    @transitions.setter
    def transitions(self, triples):
        """Replace the graph's transitions and labels by triples, between
        the states set before."""
        self.labels, self._ids, self._assigned, self._order = [], {}, {}, _UNSET
        self.outs = [[] for _ in self.states]
        for src, lab, dst in triples:
            self.outs[src].append((self.intern(lab), dst))

    def out(self, sid: int):
        labels = self.labels
        return [(labels[k], dst) for k, dst in self.outs[sid]]

    def transition_count(self) -> int:
        return sum(map(len, self.outs))

    def __len__(self):
        return len(self.states)

    def intern(self, lab) -> int:
        """lab's id, keyed by the label and an assignment's mentions:
        assignment labels that mention different variables compare equal
        yet get ids of their own, for the per-component measures count them
        apart."""
        labels = self.labels
        k = self._ids.setdefault((lab, lab.mentions) if type(lab) is Assignment else lab,
                                 len(labels))
        if k == len(labels):
            labels.append(lab)
        return k

    def assignments(self, var, i, col, mentions):
        """The ids, by memory id, of the labels that assign memory col[mid]
        to var, vector position i, and mention mentions; and the function
        that adds the label of a memory id to `labels` and to them."""
        ids = self._assigned.setdefault((i, mentions), {})

        def new(mid):
            k = ids[mid] = len(self.labels)
            self.labels.append(Assignment(var, col[mid], mentions))
            return k
        return ids, new


def build_lts(t, rho: Valuation | None = None, max_states: int = 10000,
              gamma: CommFunction = DEFAULT_GAMMA) -> Lts:
    """Explore the reachable states of t (wrapped in an evaluation context
    when a valuation is given).

    Each state's moves are `step`'s.  A machine, sequential or a
    composition (see `_machine_tree`), is explored on state vectors; every
    other term on terms.  Both give the same LTS.
    A term too deep for the step rules raises SemanticsError.
    """
    root = T.Eval(rho, t) if rho is not None else t
    try:
        shape = _machine_tree(root)
        if shape is not None:
            return _build_vectors(root, *shape, max_states, gamma)
        return _build_terms(root, max_states, gamma)
    except RecursionError:
        raise _too_deep(root) from None


def _too_deep(t):
    """The error for a term whose step rules ran out of stack."""
    return SemanticsError(
        "term too deep to explore: it nests %d operators, and the step rules ran out of "
        "stack (recursion limit %d)" % (_height(t), sys.getrecursionlimit()))


def _height(t):
    """The number of operator levels of t, counted without recursion: a fold
    over `T.operands`, so the conditions and data expressions the rules
    evaluate count as well as its children."""
    return T.fold(t, lambda u, heights: 1 + max(heights, default=0), T.operands)


def _build_terms(root, max_states, gamma) -> Lts:
    """`build_lts` on terms: breadth first over the step rules, each label
    interned as it comes."""
    l = Lts()
    intern = l.intern

    def moves(t):
        succ, ms = _RULES[type(t)](t, EMPTY_VALUATION, gamma)
        return succ, [(intern(lab), u) for lab, u in ms]
    return _explore(l, root, moves, max_states)


def _explore(l, first, moves, max_states) -> Lts:
    """Fill l, a new LTS, with the states reachable from first, breadth
    first: moves(s) gives s's success and its (label id, successor) moves in
    rule order, the ids from l.  The moves are deduplicated as they come,
    keeping the first of those whose labels compare equal into one
    successor, as `step` does; only a move into a state numbered before it
    can repeat one.  A new state past max_states marks the LTS exploded and
    ends the walk.  When no kept move goes to a state numbered at or before
    its source, the numbering read backwards is a reverse topological order,
    and l keeps it for `_topo_order`."""
    states, index, outs, out, labels = l.states, {first: 0}, l.outs, [], l.labels
    states.append(first)
    back = False
    for sid, s in enumerate(states):  # grows while it is walked
        succ, ms = moves(s)
        if succ:
            l.success.add(sid)
        for k, u in ms:
            dst = index.get(u)
            if dst is None:
                if len(states) >= max_states:
                    l.exploded = True
                    break
                dst = index[u] = len(states)
                states.append(u)
            elif any(d == dst and (j == k or labels[j] == labels[k]) for j, d in out):
                continue
            elif dst <= sid:
                back = True
            out.append((k, dst))
        outs.append(tuple(out))
        out.clear()
        if l.exploded:
            outs += [()] * (len(states) - len(outs))
            break
    if not (back or l.exploded):
        l._order = range(len(l) - 1, -1, -1)
    return l


# Machines on state vectors.  A state Eval(rho, body) is a tuple of ints: a
# memory id per variable of rho (interned per variable), a component id per
# leaf (interned from its term), and a bit per SyncMerge, set once the merge
# has become its `sync_merge_expand` form on its first move.  A component
# is a recursion constant X, or `eps . X`, of a linear spec, and is compiled
# into its guarded summands the first time it steps; the guards and
# assignments then read the memories straight from the vector.  In a
# composition, leaf steps are memoized on the component id and the memory
# ids of what it reads; merges combine their operands' moves as `_par` and
# `_sync_merge` do.  Each state's moves thus come in the step rules' order,
# and `_explore` numbers the vectors as it numbers the terms.

_MERGES = (T.Par, T.SyncMerge)
_COMMUNICATING = frozenset((Plain, DataAction))  # the labels `_communicate` can pair


def _machine_tree(root):
    """(tree, leaves, SyncMerge count) of a machine, or None.

    root is one when it is Eval(rho, body), with body a Rec constant (a
    sequential machine) or a tree of Par and SyncMerge nodes over Rec
    leaves (a composition), each of whose specs has a `T.linear_form` that
    reads only variables of rho, and rho's names sorted and distinct.  Every
    equation counts, reached or not.  In the tree a leaf is its position in the
    state vector, and a merge is (l, r, bit), where bit is the position of
    a SyncMerge's bit and None for a Par; a lone leaf is the whole tree.
    """
    if type(root) is not T.Eval:
        return None
    body, names = root.body, root.rho.names()
    leaves = [body] if type(body) is T.Rec else T.flatten(body, _MERGES)
    forms = [T.linear_form(u.spec) for u in leaves if type(u) is T.Rec]
    if (list(names) != sorted(set(names)) or len(forms) < len(leaves)
            or not all(form and form[1].issubset(names) for form in forms)):
        return None
    slots, bits = count(len(names)), count(len(names) + len(leaves))
    return _positions(body, slots, bits), leaves, next(bits) - len(names) - len(leaves)


def _positions(t, slots, bits):
    """`_machine_tree`'s tree of t, numbering leaves from slots and merge bits
    from bits."""
    if type(t) is T.Rec:
        return next(slots)
    return (_positions(t.l, slots, bits), _positions(t.r, slots, bits),
            next(bits) if type(t) is T.SyncMerge else None)


def _build_vectors(root, tree, leaves, syncs, max_states, gamma) -> Lts:
    """`_build_terms` for a machine: `_explore` on state vectors."""
    names = root.rho.names()
    mem_at, mems, mem_ids = {}, [], []  # per variable: position, id -> memory, and back
    for i, (x, m) in enumerate(root.rho.entries):
        mem_at[x] = i
        mems.append([m])
        mem_ids.append({m: 0})
    comps, comp_ids = [], {}  # id -> term, and back
    summands = []  # per id: summands, None until it steps
    single = type(tree) is int  # a sequential machine: one leaf, no merges
    # leaf position -> getter of the memo key: the component id, the memories the spec reads
    reads = {pos: itemgetter(pos, *[mem_at[x] for x in sorted(T.linear_form(u.spec)[1])])
             for pos, u in enumerate(leaves, len(names)) if not single}
    leaf_memo = {}
    l = Lts()

    def intern(u):
        cid = comp_ids.get(u)
        if cid is None:
            cid = comp_ids[u] = len(comps)
            comps.append(u)
            summands.append(None)
        return cid

    def mem_id(i, m):
        mid = mem_ids[i].get(m)
        if mid is None:
            mid = mem_ids[i][m] = len(mems[i])
            mems[i].append(m)
        return mid

    def valuation(v):
        return Valuation(tuple(zip(names, map(list.__getitem__, mems, v))))

    def successor(v, ch):
        w = list(v)
        for pos, val in ch:
            w[pos] = val
        return tuple(w)

    def leaf(node, v):
        """(success, moves) of the component at position node, each move a
        label id and its changes to v; a lone leaf's, its successor vector."""
        cid = v[node]
        ss = summands[cid]
        if ss is None:
            ss = summands[cid] = _compile(comps[cid], mem_at, mems, intern, mem_id, l)
        succ, out = False, []
        for hold, make, nxt in ss:
            if hold is None or hold(v):
                if nxt is None:
                    succ = True
                else:
                    a, ch = make(v)
                    ch = ((node, nxt),) + ch
                    out.append((a, successor(v, ch) if single else ch))
        return succ, out

    def memo_leaf(node, v):
        """`leaf`, memoized on the component and the memories it reads."""
        key = (node, reads[node](v))
        hit = leaf_memo.get(key)
        if hit is None:
            hit = leaf_memo[key] = leaf(node, v)
        return hit

    labels = l.labels

    def communicate(ab):
        lab = _communicate(labels[ab[0]], labels[ab[1]], gamma)
        return None if lab is None else l.intern(lab)

    def rename(k):
        lab = _SYNC_RENAME.apply_label(labels[k])
        return k if lab is labels[k] else l.intern(lab)

    def close(c):
        """A merge's communication result: dropped when a lone sync, else renamed."""
        return None if c is None or _SYNC_SET.contains_label(labels[c]) else renamed[c]

    # by label id or id pair, each entry made on first use: Par's communication, the id
    # after synced -> sync, and a SyncMerge's passing move (None: blocked) and communication
    pairs, renamed = _Table(communicate), _Table(rename)
    passing = _Table(lambda k: close(renamed[k]))
    joint = _Table(lambda ab: close(pairs[renamed[ab[0]], renamed[ab[1]]]))
    ops = (memo_leaf, labels, passing, pairs, joint)

    def moves(v):
        """The moves of a composition, each with its successor vector."""
        succ, ms = _tree_moves(ops, tree, v)
        return succ, [(k, successor(v, ch)) for k, ch in ms]

    def term(v):
        return T.Eval(valuation(v), _tree_term(tree, v, comps))

    def texts(mem):
        """The function from a vector to its state's `format_term` text, made of
        a `NAME = [..]` text per memory id, mem(m) for memory m, and a body
        text per control part: the component ids and merge bits."""
        from .syntax import format_term

        entries = [["%s = %s" % (x, mem(m)) for m in col] for x, col in zip(names, mems)]
        bodies, n = {}, len(names)

        def text(v):
            body = bodies.get(v[n:])
            if body is None:
                body = bodies[v[n:]] = "}(%s)" % format_term(_tree_term(tree, v, comps))
            return "eval{" + ", ".join(map(list.__getitem__, entries, v)) + body
        return text

    first = (0,) * len(names) + tuple(map(intern, leaves)) + (0,) * syncs
    # a lone leaf meets each state once, so it steps without the memo or the tree walk
    _explore(l, first, partial(leaf, tree) if single else moves, max_states)
    l.states = _StateTerms(l.states, term, valuation, texts)
    return l


def _tree_moves(ops, node, v):
    """(success, moves) of a merge node in state v, each move a label id and
    the (position, value) changes it makes to v.  ops are `leaf`, which
    steps the leaves, the labels by id, and `_build_vectors`'s tables by
    label id.  A SyncMerge steps as its `sync_merge_expand` form in one
    pass: its operands' moves renamed and filtered, then their renamed
    communications filtered and renamed once; its first move sets its bit."""
    leaf, labels, passing, pairs, joint = ops
    l, r, bit = node
    sl, ml = leaf(l, v) if type(l) is int else _tree_moves(ops, l, v)
    sr, mr = leaf(r, v) if type(r) is int else _tree_moves(ops, r, v)
    if bit is None:
        out, pair, tail = ml + mr, pairs, ()
    else:
        pair, tail = joint, () if v[bit] else ((bit, 1),)
        out = [(p, ch + tail) for a, ch in ml + mr if (p := passing[a]) is not None]
    for a, cl in ml:
        if type(labels[a]) in _COMMUNICATING:
            for b, cr in mr:
                c = pair[a, b]
                if c is not None:
                    out.append((c, cl + cr + tail))
    return sl and sr, out


class _Table(dict):
    """A dict that fills a missing key k with fill(k)."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, k):
        x = self[k] = self.fill(k)
        return x


def _tree_term(node, v, comps):
    """The process term of a tree node in state v, comps the component terms."""
    if type(node) is int:
        return comps[v[node]]
    l, r, bit = node
    l, r = _tree_term(l, v, comps), _tree_term(r, v, comps)
    if bit is None:
        return T.Par(l, r)
    return sync_merge_expand(l, r) if v[bit] else T.SyncMerge(l, r)


def _compile(u, mem_at, mems, intern, mem_id, l):
    """Component u's summands in `_RULES` order, u a recursion constant of
    a linear spec or `eps` before one, taken from the spec's `T.linear_form`
    kept by `_machine_tree`.  A summand is (condition, label maker, successor
    id): the condition is a test of the state vector (None when it is
    True), the maker gives the label's id in l and the memory changes
    of the move, and both are None in a success summand.  A prefix into Y
    leads to `eps . Rec(Y, spec)`, equal to the term the step rules reach;
    it is built here, for `T._rec_constants` would keep it in the spec and
    so leave the spec in a reference cycle.  Conditions and data are
    compiled as on terms, but read the vector through mem_at and mems;
    memories are interned with mem_id, successors with intern.  Every variable u reads is bound
    (`_machine_tree`), so no summand raises an unbound-variable error."""
    if type(u) is T.Seq:
        u = u.r

    def read(x):
        i, col = mem_at[x], mems[mem_at[x]]
        return lambda v: col[v[i]]

    def label(a):
        """The maker for prefix a, an atomic or silent action.  An assignment
        builds its label only for a memory id it has not met, and `x := x`
        keeps x's memory id without hashing the memory."""
        if type(a) is T.Assign:
            i = mem_at[a.var]
            ids, new = l.assignments(a.var, i, mems[i], a._flexvars)
            if type(a.e) is T.FlexVar and a.e.name == a.var:
                def keep(v):
                    mid = v[i]
                    k = ids.get(mid)
                    return (new(mid) if k is None else k), ()
                return keep
            x = T.compile_data(a.e, read)

            def assign(v):
                mid = mem_id(i, x(v))
                k = ids.get(mid)
                return (new(mid) if k is None else k), ((i, mid),)
            return assign
        if type(a) is T.DataAct:
            name, xs = a.name, [T.compile_data(e, read) for e in a.args]
            return lambda v: (l.intern(DataAction(name, tuple([x(v) for x in xs]))), ())
        const = l.intern(Plain(a.name) if type(a) is T.Act else TAU_LABEL), ()
        return lambda v: const

    return [(None if type(c) is T.TrueC else T.compile_cond(c, read),
             a and label(a), a and intern(T.Seq(T.EPS, T.Rec(y, u.spec))))
            for c, a, y in T.linear_form(u.spec)[0][u.var]]


class _StateTerms(Sequence):
    """The state terms of an LTS explored on vectors, each rebuilt from its
    vector when asked for; `valuation(sid)` decodes only the valuation, and
    `texts(mem)` gives the terms' texts without building them.
    It compares equal to the list of the same terms."""

    def __init__(self, vectors, term, valuation, texts):
        self._vectors, self._term, self._valuation, self._texts = vectors, term, valuation, texts

    def __len__(self):
        return len(self._vectors)

    def __getitem__(self, sid):
        if isinstance(sid, slice):
            return [self[i] for i in range(len(self))[sid]]
        return self._term(self._vectors[sid])

    def __iter__(self):
        return map(self._term, self._vectors)

    def valuation(self, sid):
        return self._valuation(self._vectors[sid])

    def texts(self, mem):
        """`format_term` of each state in order, with mem(m) the text of memory m."""
        return map(self._texts(mem), self._vectors)

    def __eq__(self, other):
        ok = isinstance(other, (list, _StateTerms))
        return list(self) == list(other) if ok else NotImplemented


def _check_bounded(l: Lts):
    if l.exploded:
        raise UndecidedError(
            "undecided at this bound: exploration stopped at %d states" % len(l)
        )


def eventually_halts(l: Lts) -> bool:
    """True iff every maximal run is finite and ends able to terminate."""
    _check_bounded(l)
    if _topo_order(l) is None:
        return False
    success = l.success
    return all(out or sid in success for sid, out in enumerate(l.outs))


def _topo_order(l: Lts):
    """States in reverse-topological order (successors first), or None when
    the graph has a cycle: the order `_explore` handed over, else Kahn's
    algorithm, run forwards and reversed.  It is computed once per LTS and
    kept on it."""
    if l._order is not _UNSET:
        return l._order
    indegree = [0] * len(l)
    outs = l.outs
    for out in outs:
        for _, dst in out:
            indegree[dst] += 1
    ready = [sid for sid, n in enumerate(indegree) if not n]
    order = []
    while ready:
        sid = ready.pop()
        order.append(sid)
        for _, dst in outs[sid]:
            indegree[dst] -= 1
            if not indegree[dst]:
                ready.append(dst)
    order.reverse()
    l._order = order if len(order) == len(l) else None
    return l._order


def _dag_order(l: Lts):
    _check_bounded(l)
    order = _topo_order(l)
    if order is None:
        raise SemanticsError("depth undefined: the graph has a cycle")
    return order


def depth(l: Lts, count=None) -> int:
    """Longest-path length from the initial state, counting only labels
    accepted by `count` (default: everything but the silent step).  count
    is asked once per label id that a transition carries: ids tell
    assignment labels apart by their mentioned variables too, though such
    labels compare equal."""
    if count is None:
        count = lambda lab: not isinstance(lab, Tau)
    order, outs, labels = _dag_order(l), l.outs, l.labels
    weights = [None] * len(labels)
    best = [0] * len(l)
    for sid in order:
        top = 0
        for k, dst in outs[sid]:
            w = weights[k]
            if w is None:
                w = weights[k] = 1 if count(labels[k]) else 0
            w += best[dst]
            if w > top:
                top = w
        best[sid] = top
    return best[l.initial]


def depths(l: Lts, counts) -> tuple:
    """`depth` for each predicate in counts."""
    _dag_order(l)
    return tuple([depth(l, count) for count in counts])


def count_maximal_paths(l: Lts) -> int:
    """Number of maximal runs (ending in a state with no outgoing step)."""
    total = [1] * len(l)
    outs = l.outs
    for sid in _dag_order(l):
        if outs[sid]:
            total[sid] = sum([total[d] for _, d in outs[sid]])
    return total[l.initial]


def terminal_valuations(l: Lts):
    """Valuations carried by termination-capable states, in state order.
    States explored as vectors decode only their valuation."""
    if type(l.states) is _StateTerms:
        return tuple(map(l.states.valuation, sorted(l.success)))
    out = []
    for sid in sorted(l.success):
        term = l.states[sid]
        if isinstance(term, T.Eval):
            out.append(term.rho)
    return tuple(out)


# ---------------------------------------------------------------------------
# Basic-term normalization

def _label_term(lab):
    if isinstance(lab, Tau):
        return T.TAU
    if isinstance(lab, Plain):
        return T.Act(lab.name)
    if isinstance(lab, DataAction):
        return T.DataAct(lab.name, tuple(T.MemLiteral(m) for m in lab.args))
    if isinstance(lab, Assignment):
        return T.Assign(lab.var, T.MemLiteral(lab.value))
    raise ValueError("not a label: %r" % (lab,))


def normalize_basic(t, rho: Valuation | None = None, bound: int = 10000,
                    gamma: CommFunction = DEFAULT_GAMMA):
    """Rebuild t's behavior as a basic term: alternatives of guarded action
    prefixes and guarded termination, with all guards True.

    The shape is canonical: one summand per transition in exploration order,
    the termination summand last, deadlock as the inaction constant.
    """
    l = build_lts(t, rho, bound, gamma)
    _check_bounded(l)
    order = _topo_order(l)
    if order is None:
        raise SemanticsError("no finite basic form: the behavior loops")
    built = {}
    for sid in order:
        parts = [
            T.Guard(T.TRUE, T.Seq(_label_term(lab), built[dst])) for lab, dst in l.out(sid)
        ]
        if sid in l.success:
            parts.append(T.Guard(T.TRUE, T.EPS))
        if not parts:
            built[sid] = T.DELTA
        else:
            acc = parts[0]
            for p in parts[1:]:
                acc = T.Alt(acc, p)
            built[sid] = acc
    return built[l.initial]


# ---------------------------------------------------------------------------
# Export

def lts_to_json(l: Lts) -> dict:
    from .syntax import format_term

    mem = _Table(format_mem).__getitem__  # memories print once per export
    names = _label_texts(l, mem)
    states, success = l.states, l.success
    texts = states.texts(mem) if type(states) is _StateTerms else map(format_term, states)
    return {
        "initial": l.initial,
        "exploded": l.exploded,
        "states": [{"id": i, "term": s, "success": i in success} for i, s in enumerate(texts)],
        "transitions": [
            {"from": src, "label": names[k], "to": dst}
            for src, out in enumerate(l.outs) for k, dst in out
        ],
    }


def lts_to_dot(l: Lts) -> str:
    names = [_dot_escape(s) for s in _label_texts(l, _Table(format_mem).__getitem__)]
    lines = ["digraph lts {"]
    for i in range(len(l)):
        shape = "doublecircle" if i in l.success else "circle"
        lines.append('  s%d [shape=%s, label="%d"];' % (i, shape, i))
    lines.append("  init [shape=point];")
    lines.append("  init -> s%d;" % l.initial)
    lines += ['  s%d -> s%d [label="%s"];' % (src, dst, names[k])
              for src, out in enumerate(l.outs) for k, dst in out]
    lines.append("}")
    return "\n".join(lines) + "\n"


def _label_texts(l: Lts, mem):
    """The text of each label by id, with mem(m) the text of memory m."""
    return [T.format_label(lab, mem) for lab in l.labels]


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')
