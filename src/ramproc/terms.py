"""Process-term language: data expressions, conditions, process constructors,
action labels, valuations, and recursion specifications.

Process terms form the usual algebra (choice, sequencing, merges, renaming,
encapsulation, abstraction, projection) extended with imperative pieces:
assignments to flexible variables, guarded commands, data-carrying actions,
and an evaluation operator that pushes a valuation through a term.

The data sort is fixed to MemState: every data expression denotes a RAM
memory, and flexible variables (RM, RM_1, ...) hold memories.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial
from graphlib import CycleError, TopologicalSorter
from operator import is_, itemgetter, methodcaller

from .memory import MemState, format_mem
from .nodes import node
from . import ramops
from .ramops import CmpOp, Ini, Load, Store, apply_ini, compile_op, compile_prop, compile_shared


# ---------------------------------------------------------------------------
# Nodes

class ByClass(dict):
    """A dispatch table from node class to the function that handles it.

    A class that is not in the table maps to `fallback`, so a single
    `table[type(x)]` picks the handler for any object and an object of an
    unknown kind gets the fallback's error.
    """

    def __init__(self, fallback, table):
        super().__init__(table)
        self.fallback = fallback

    def __missing__(self, cls):
        return self.fallback


# ---------------------------------------------------------------------------
# Data expressions.  Each data and condition node has a hidden `_code` field:
# its closure under `compile_data` or `compile_cond` over `read_valuation`,
# compiled and kept there the first time the term explorer evaluates it.

@node
class FlexVar:
    name: str
    _code: object


@node
class MemLiteral:
    mem: MemState
    _code: object


@node
class Upd:
    base: object
    idx: int
    val: str
    _code: object


@node
class Apply1:
    """A single-memory operator (or ini) applied to a memory expression."""

    op: object
    e: object
    _code: object

    def __post_init__(self):
        if not isinstance(self.op, ramops.SINGLE_MEM + (Ini,)):
            raise ValueError("Apply1 takes a single-memory operator or ini")


@node
class Apply2:
    """Load/store applied to (private, shared) memory expressions."""

    op: object
    e_priv: object
    e_shared: object
    _code: object

    def __post_init__(self):
        if not isinstance(self.op, (Load, Store)):
            raise ValueError("Apply2 takes load or store")


def compile_data(e, read):
    """e as a function of an environment, `read(name)` reading variable name from
    it; kernels resolve here, once.  One frame per level; no cells (values are defaults).
    An ini's value ignores its operand, which is not compiled."""
    cls = type(e)
    if cls is FlexVar:
        return read(e.name)
    if cls is MemLiteral or cls is Apply1 and isinstance(e.op, Ini):
        mem = e.mem if cls is MemLiteral else apply_ini(e.op.i)
        return lambda env, mem=mem: mem
    if cls is Upd:
        base, idx, val = compile_data(e.base, read), e.idx, e.val
        return lambda env, base=base, idx=idx, val=val: base(env).set(idx, val)
    if cls is Apply1:
        k, x = compile_op(e.op), compile_data(e.e, read)
        return lambda env, k=k, x=x: k(x(env))
    if cls is Apply2:
        k, p = compile_shared(e.op), compile_data(e.e_priv, read)
        s = compile_data(e.e_shared, read)
        return lambda env, k=k, p=p, s=s: k(p(env), s(env))
    raise ValueError("not a data expression: %r" % (e,))


read_valuation = partial(methodcaller, "get")  # `read` over a `Valuation`


def eval_data(e, rho: "Valuation") -> MemState:
    """The memory e denotes under rho (`compile_data`, called once)."""
    return compile_data(e, read_valuation)(rho)


_DATA = frozenset((FlexVar, MemLiteral, Upd, Apply1, Apply2))  # the data-expression classes


# ---------------------------------------------------------------------------
# Conditions (quantifier-free)

@node
class TrueC:
    _code: object


@node
class FalseC:
    _code: object


@node
class PropAtom:
    """A register-comparison applied to a memory expression, tested against
    an expected bit."""

    p: CmpOp
    e: object
    expected: int
    _code: object

    def __post_init__(self):
        if not isinstance(self.p, CmpOp):
            raise ValueError("PropAtom takes a comparison descriptor")
        if self.expected not in (0, 1):
            raise ValueError("expected bit must be 0 or 1")


@node
class DataEq:
    e1: object
    e2: object
    _code: object


@node
class Not:
    c: object
    _code: object


@node
class And:
    l: object
    r: object
    _code: object


@node
class Or:
    l: object
    r: object
    _code: object


@node
class Implies:
    l: object
    r: object
    _code: object


TRUE = TrueC()
FALSE = FalseC()
_CONSTANT_TESTS = {TrueC: lambda env: True, FalseC: lambda env: False}  # what they compile to


def compile_cond(c, read):
    """Whether c holds, as a function of an environment, as `compile_data`.  Operands
    that the value skips, like the right of `true or c`, are compiled too."""
    cls = type(c)
    if cls is TrueC or cls is FalseC:
        return _CONSTANT_TESTS[cls]
    if cls is PropAtom:
        k, x, bit = compile_prop(c.p), compile_data(c.e, read), c.expected
        return lambda env, k=k, x=x, bit=bit: k(x(env)) == bit
    if cls is And or cls is Or or cls is Implies:
        l, r = compile_cond(c.l, read), compile_cond(c.r, read)
        if cls is And:
            return lambda env, l=l, r=r: l(env) and r(env)
        if cls is Or:
            return lambda env, l=l, r=r: l(env) or r(env)
        return lambda env, l=l, r=r: not l(env) or r(env)
    if cls is Not:
        x = compile_cond(c.c, read)
        return lambda env, x=x: not x(env)
    if cls is DataEq:
        x, y = compile_data(c.e1, read), compile_data(c.e2, read)
        return lambda env, x=x, y=y: x(env) == y(env)
    raise ValueError("not a condition: %r" % (c,))


def eval_cond(c, rho: "Valuation") -> bool:
    """Whether c holds under rho (`compile_cond`, called once)."""
    return compile_cond(c, read_valuation)(rho)


_COND = frozenset((TrueC, FalseC, PropAtom, DataEq, Not, And, Or, Implies))  # the condition classes


# ---------------------------------------------------------------------------
# Valuations

@node
class Valuation:
    """Immutable flexible-variable environment (name -> MemState)."""

    entries: tuple = ()

    @classmethod
    def make(cls, mapping):
        items = tuple(sorted(mapping.items()))
        for _, mem in items:
            if not isinstance(mem, MemState):
                raise ValueError("valuations map names to memories")
        return cls(items)

    def get(self, name: str) -> MemState:
        for k, v in self.entries:
            if k == name:
                return v
        raise LookupError("flexible variable %r is unbound" % (name,))

    def set(self, name: str, mem: MemState) -> "Valuation":
        entries = self.entries
        i = bisect_left(entries, name, key=itemgetter(0))
        j = i + 1 if i < len(entries) and entries[i][0] == name else i
        return Valuation(entries[:i] + ((name, mem),) + entries[j:])

    def names(self):
        return tuple(map(itemgetter(0), self.entries))

    def __contains__(self, name):
        return any(k == name for k, _ in self.entries)

    def __str__(self):
        return ", ".join("%s = %s" % (k, format_mem(v)) for k, v in self.entries)


EMPTY_VALUATION = Valuation()


# ---------------------------------------------------------------------------
# Action labels (transition decorations) and action sets

@node
class Tau:
    pass


@node
class Plain:
    name: str


@node
class DataAction:
    name: str
    args: tuple  # evaluated MemState arguments


@node
class Assignment:
    """A performed assignment: the flexible variable and its new value.

    `mentions` records which flexible variables the original instruction
    touched (target plus the expression's variables).  It is bookkeeping for
    per-component step counting and does not participate in label equality.
    """

    var: str
    value: MemState
    mentions: frozenset

    uncompared = ("mentions",)


TAU_LABEL = Tau()


def format_label(l, mem=format_mem) -> str:
    """l as text, with mem(m) the text of memory m."""
    if isinstance(l, Tau):
        return "tau"
    if isinstance(l, Plain):
        return l.name
    if isinstance(l, DataAction):
        return "%s(%s)" % (l.name, ", ".join(map(mem, l.args)))
    if isinstance(l, Assignment):
        return "%s := %s" % (l.var, mem(l.value))
    raise ValueError("not a label: %r" % (l,))


@node
class ActionSet:
    """A set of actions for encapsulation/abstraction.

    kind: "labels" (extensional, by action name), "all" (every non-silent
    action), "alltau" (everything), "allbut" (every non-silent action except
    the named ones), "mentioning" / "notmentioning" (assignment steps
    touching, or non-silent steps not touching, a flexible variable).
    """

    kind: str
    data: object = None

    def __post_init__(self):
        if self.kind not in ("labels", "all", "alltau", "allbut", "mentioning", "notmentioning"):
            raise ValueError("unknown action-set kind %r" % (self.kind,))
        if self.kind in ("labels", "allbut") and not isinstance(self.data, frozenset):
            raise ValueError("%s needs a frozenset of names" % (self.kind,))
        if self.kind in ("mentioning", "notmentioning") and not isinstance(self.data, str):
            raise ValueError("%s needs a variable name" % (self.kind,))

    @classmethod
    def labels(cls, names):
        return cls("labels", frozenset(names))

    @classmethod
    def allbut(cls, names):
        return cls("allbut", frozenset(names))

    @classmethod
    def mentioning(cls, var):
        return cls("mentioning", var)

    @classmethod
    def not_mentioning(cls, var):
        return cls("notmentioning", var)

    def contains_label(self, l) -> bool:
        if self.kind == "alltau":
            return True
        if isinstance(l, Tau):
            return False
        if self.kind == "all":
            return True
        if self.kind == "labels":
            return isinstance(l, (Plain, DataAction)) and l.name in self.data
        if self.kind == "allbut":
            return not (isinstance(l, (Plain, DataAction)) and l.name in self.data)
        mentions = l.mentions if isinstance(l, Assignment) else frozenset()
        if self.kind == "mentioning":
            return self.data in mentions
        return self.data not in mentions  # notmentioning


# ---------------------------------------------------------------------------
# Renaming maps (plain/data action names; assignments and silence are fixed)

@node
class ActionMap:
    entries: tuple = ()  # sorted (old, new) name pairs

    @classmethod
    def make(cls, mapping):
        return cls(tuple(sorted(mapping.items())))

    def apply_name(self, name: str) -> str:
        for old, new in self.entries:
            if old == name:
                return new
        return name

    def apply_label(self, l):
        """l renamed; l itself when the map leaves its name alone."""
        if isinstance(l, (Plain, DataAction)):
            name = self.apply_name(l.name)
            if name != l.name:
                return Plain(name) if type(l) is Plain else DataAction(name, l.args)
        return l


# ---------------------------------------------------------------------------
# Process terms

@node
class Empty:
    pass


@node
class Dead:
    pass


@node
class Silent:
    pass


@node
class Act:
    name: str


@node
class DataAct:
    name: str
    args: tuple  # DataExpr tuple


@node
class Assign:
    var: str
    e: object
    # the target and the variables e mentions, an ini's operand too, filled in by the check
    _flexvars: frozenset

    def __post_init__(self):
        object.__setattr__(self, "_flexvars", flexvars_term(self.e) | {self.var})


@node
class Alt:
    l: object
    r: object


@node
class Seq:
    l: object
    r: object


@node
class Par:
    l: object
    r: object


@node
class LeftMerge:
    l: object
    r: object


@node
class CommMerge:
    l: object
    r: object


@node
class Encap:
    acts: ActionSet
    body: object


@node
class Abstr:
    acts: ActionSet
    body: object


@node
class Guard:
    cond: object
    body: object


@node
class Eval:
    rho: Valuation
    body: object


@node
class Var:
    """A recursion variable occurrence inside an equation right-hand side."""

    name: str


@node
class RecSpec:
    """A finite set of recursion equations, in declaration order."""

    equations: tuple  # (name, ProcTerm) pairs
    # name -> right-hand side, filled in by the check
    _rhs: dict
    # var -> the constant Rec(var, self), filled in by `_rec_constants`
    _consts: dict
    # var -> one-step unfolding of Rec(var, self), filled in by `unfold`
    _unfolded: dict
    # the flexible variables all right-hand sides read, filled in by the check
    _flexvars: frozenset
    # `linear_form(self)`, filled in by its first call
    _linear: object
    # the equations as `syntax.format_term` prints them, filled in by it
    _text: str
    # (number, handshakes, program) when `machines._compile` built this spec
    _decoded: tuple

    def __post_init__(self):
        rhs = dict(self.equations)
        if len(rhs) != len(self.equations):
            raise ValueError("duplicate equation variable")
        object.__setattr__(self, "_rhs", rhs)
        reads, seen = set(), set()
        for name, t in self.equations:
            _gather_reads(t, reads, seen, rhs, name)
        object.__setattr__(self, "_flexvars", frozenset(reads))

    def rhs(self, name: str):
        try:
            return self._rhs[name]
        except KeyError:
            raise KeyError("no equation for %r" % (name,)) from None

    def vars(self):
        return tuple(n for n, _ in self.equations)

    def __contains__(self, name):
        return name in self._rhs


@node
class Rec:
    """The constant denoting variable `var`'s solution of spec `spec`."""

    var: str
    spec: RecSpec

    def __post_init__(self):
        if self.var not in self.spec:
            raise ValueError("recursion constant for unknown variable %r" % (self.var,))


@node
class Proj:
    n: int
    body: object

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("projection depth is a natural")


@node
class Rename:
    f: ActionMap
    body: object


@node
class SyncMerge:
    l: object
    r: object


EPS = Empty()
DELTA = Dead()
TAU = Silent()


_BINARY = frozenset((Alt, Seq, Par, LeftMerge, CommMerge, SyncMerge))
_UNARY_BODY = frozenset((Encap, Abstr, Guard, Eval, Proj, Rename))  # fields: head, body
_LEAF = frozenset((Empty, Dead, Silent, Act, DataAct, Assign, Var))


_PREFIX = frozenset((Act, DataAct, Assign, Silent))  # atomic actions and the silent step


# ---------------------------------------------------------------------------
# Generic traversal

def children(t) -> tuple:
    """The process-term children of t, left to right.  A recursion constant's
    children are its equations' right-hand sides in declaration order."""
    cls = type(t)
    if cls in _LEAF:
        return ()
    if cls in _BINARY:
        return t.l, t.r
    if cls in _UNARY_BODY:
        return (t.body,)
    if cls is Rec:
        return tuple(rhs for _, rhs in t.spec.equations)
    raise ValueError("not a process term: %r" % (t,))


def with_children(t, kids):
    """t with its children, in `children` order, replaced by kids; every
    other field is kept.  t itself when each kid is the child it replaces."""
    if all(map(is_, kids, children(t))):  # a leaf, too
        return t
    cls = type(t)
    if cls in _BINARY:
        return cls(*kids)
    if cls in _UNARY_BODY:
        # the head is the first declared field, the body the second
        return cls(getattr(t, cls.__match_args__[0]), *kids)
    return Rec(t.var, RecSpec(tuple(zip(t.spec.vars(), kids))))


def fold(t, visit, kids=children):
    """visit(u, [the fold of each of kids(u)]) for t, bottom up on a stack of
    its own, so a term of any depth folds; each subterm object is visited once."""
    done, todo = {}, [(t, kids(t))]  # id of a visited subterm -> its value
    while todo:
        u, ks = todo[-1]
        if id(u) in done:  # a shared subterm, visited since it was pushed
            todo.pop()
            continue
        deeper = []
        for c in ks:
            if id(c) not in done:
                cks = kids(c)
                if cks:
                    deeper.append((c, cks))
                else:  # a leaf is visited where it is met
                    done[id(c)] = visit(c, [])
        if deeper:
            todo += deeper
        else:
            todo.pop()
            done[id(u)] = visit(u, [done[id(c)] for c in ks])
    return done[id(t)]


# The data and condition operands each node reads through, by field name.
_READ_FIELDS = {
    Upd: ("base",), Apply1: ("e",), Apply2: ("e_priv", "e_shared"), PropAtom: ("e",),
    DataEq: ("e1", "e2"), Not: ("c",), And: ("l", "r"), Or: ("l", "r"), Implies: ("l", "r"),
    Assign: ("e",), Guard: ("cond",),
}


def operands(u) -> tuple:
    """The operands of u: the data and conditions it reads through, then a
    data action's arguments or a process term's `children`."""
    cls = type(u)
    more = u.args if cls is DataAct else () if cls in _DATA or cls in _COND else children(u)
    return tuple([getattr(u, f) for f in _READ_FIELDS.get(cls, ())]) + more


def flexvars_term(x) -> frozenset:
    """The flexible variables x reads, plus an assignment's target, for a
    data expression, a condition or a process term x (inner valuations bind
    nothing here).  A recursion constant reads what its spec's right-hand
    sides read.  Assignments and specs keep their sets from construction,
    and the walk stops at them; an operand that is no node reads nothing."""
    reads = set()
    _gather_reads(x, reads, set())
    return frozenset(reads)


_WALKED = frozenset(_READ_FIELDS) | _BINARY | _UNARY_BODY | {DataAct}  # nodes with operands


def _gather_reads(x, reads, seen, bound=None, name=None):
    """Add what x reads, as `flexvars_term` counts it, to the set reads, walking the
    operands of each node not in the id set seen once; those of the commonest kinds,
    binary nodes and guards, without an `operands` call, as specs are built per query.
    With bound (a spec's names), a `Var` not in it is free in the equation for name."""
    todo = [x]
    while todo:
        u = todo.pop()
        cls = type(u)
        if cls is FlexVar:
            reads.add(u.name)
        elif cls is Assign:
            reads |= u._flexvars
        elif cls is Rec:  # an inner spec binds its own names
            reads |= u.spec._flexvars
        elif cls is Var:
            if bound is not None and u.name not in bound:
                raise ValueError("free recursion variable %s in the equation for %s"
                                 % (u.name, name))
        elif cls in _WALKED and id(u) not in seen:
            seen.add(id(u))
            todo += ((u.l, u.r) if cls in _BINARY else (u.cond, u.body) if cls is Guard
                     else operands(u))


# ---------------------------------------------------------------------------
# Recursion plumbing

def subst_vars(t, mapping, leaf=Var):
    """t with each `leaf` node whose name `mapping` (name -> ProcTerm) maps
    replaced.  Inner recursion constants bind their own variables and are kept."""
    return fold(t, lambda u, kids: with_children(u, kids) if kids else
                mapping.get(u.name, u) if type(u) is leaf else u,
                lambda u: () if type(u) is Rec else children(u))


def _rec_constants(E: RecSpec) -> dict:
    """Each variable Y of E mapped to the constant Rec(Y, E), built once per
    spec object and kept in its hidden `_consts` field, so all unfoldings
    of E share one constant per variable."""
    out = E._consts
    if out is None:
        out = {name: Rec(name, E) for name in E.vars()}
        object.__setattr__(E, "_consts", out)
    return out


def subst_rec(t, E: RecSpec):
    """One-step unfolding: a recursion constant becomes its right-hand side
    with every variable occurrence Y closed off as the constant for Y."""
    if isinstance(t, Rec):
        E = t.spec
        t = E.rhs(t.var)
    return subst_vars(t, _rec_constants(E))


def unfold(t: Rec):
    """`subst_rec(t, t.spec)`, computed once per variable and spec object:
    unfolding the same constant again returns the same term."""
    spec = t.spec
    memo = spec._unfolded
    if memo is None:
        memo = {}
        object.__setattr__(spec, "_unfolded", memo)
    u = memo.get(t.var)
    if u is None:
        u = memo[t.var] = subst_rec(t, spec)
    return u


def _rename_specs(t, names):
    """t with each spec's variables renamed by names(spec), a dict from old
    name to new.  A spec renames only the variables it binds."""
    def visit(u, kids):
        if type(u) is not Rec:
            return with_children(u, kids)
        new = names(u.spec)
        occurrences = {old: Var(name) for old, name in new.items()}
        return Rec(new.get(u.var, u.var), RecSpec(tuple(
            (new.get(n, n), subst_vars(rhs, occurrences)) for n, rhs in zip(u.spec.vars(), kids))))
    return fold(t, visit)


def rename_rec_vars(t, mapping):
    """Consistently rename recursion variables (specs and occurrences)."""
    return _rename_specs(t, lambda spec: mapping)


def canonical_rename(t):
    """Rename every recursion spec's variables to V1, V2, ... in declaration
    order, so terms equal up to consistent renaming compare structurally."""
    return _rename_specs(t, lambda spec: {n: "V%d" % k for k, n in enumerate(spec.vars(), 1)})


# ---------------------------------------------------------------------------
# Grammar validators

def linear_summands(t):
    """The summands of a linear term t, left to right, or None when t is not
    linear.  A linear term is deadlock, a guarded success, a guarded atomic
    or silent prefix into a variable, or an alternative of linear terms.  A
    summand is (condition, prefix, variable name); a success has prefix and
    name None, and deadlock has no summands.  `flatten` keeps its own stack,
    so any number of summands reads."""
    out = []
    for s in flatten(t, Alt):
        cls = type(s)
        if cls is Guard and type(s.body) is Empty:
            out.append((s.cond, None, None))
        elif (cls is Guard and type(s.body) is Seq and type(s.body.l) in _PREFIX
              and type(s.body.r) is Var):
            out.append((s.cond, s.body.l, s.body.r.name))
        elif cls is not Dead:
            return None
    return out


def linear_form(E: RecSpec):
    """(summands, reads) of spec E, or False when a right-hand side is not
    linear: each variable's `linear_summands`, and E's kept `_flexvars`, which
    are what the summands' conditions and prefixes read."""
    if E._linear is None:
        summands = {name: linear_summands(rhs) for name, rhs in E.equations}
        object.__setattr__(E, "_linear",
                           None not in summands.values() and (summands, E._flexvars))
    return E._linear


def flatten(t, node):
    """The operands of a nest of binary `node` operators, left to right, as a
    list.  The walk keeps its own stack, so a nest of any depth flattens."""
    out, todo = [], [t]
    while todo:
        u = todo.pop()
        if isinstance(u, node):
            todo += (u.r, u.l)
        else:
            out.append(u)
    return out


def validate_guarded(E: RecSpec) -> bool:
    """A linear spec is guarded when no cycle of silent-prefixed summands
    exists: edges X -> Y for summands of shape (cond :-> tau . Y)."""
    form = linear_form(E)
    if form is False:
        name = next(n for n, rhs in E.equations if linear_summands(rhs) is None)
        raise ValueError("right-hand side for %s is not linear" % (name,))
    edges = {name: {y for _, a, y in summands if type(a) is Silent}
             for name, summands in form[0].items()}
    try:  # the tau-edge graph has a topological order iff it has no cycle
        TopologicalSorter(edges).prepare()
    except CycleError:
        return False
    return True
