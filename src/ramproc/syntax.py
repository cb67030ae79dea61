"""Canonical textual syntax for process terms.

Printing then parsing is the identity on every term whose names read back
(see below); parsing then printing is the identity on canonical text.

Operator levels, tightest first: `.` (sequencing), the merges (`||`, `||L`,
`|`, `||sync`), `:->` (guarding), then `+`, so `c :-> a || b` guards the
whole merge and `c :-> a + b` only `a`.  Binary operators associate to the
left.  Connectives, tightest first: `not`, `and`, `or`, then `=>`, which
associates to the right.  The parser and the printer both read these levels
from `TERM_OPS` and `COND_OPS`, and the bracketed operators from `WRAPPERS`.

The merge tokens are recognized greedily: `||sync` and `||L` must be written
without inner spaces, while `|| sync` is an interleaving with an action
named sync on the right.

Names that do not read back: an action or an assigned variable named `eps`,
`delta` or `tau` (it reads as the constant, or does not parse), and a flexible
variable named `not`, `True`/`true` or `False`/`false` left of `==`.  A
label set of `all` or `allbut` alone prints that label twice, and `allbut`
followed by a comma starts a list of labels, so neither reads as the keyword.
"""

from __future__ import annotations

from .bits import format_bits, parse_nat
from .memory import MemState, format_mem
from . import ramops
from . import terms as T

# Operator tables, loosest level first: token -> (node class, level).
# `cond :-> body` is a prefix: its body is read at its own level, and it is
# tried by backtracking wherever a term of that level or looser may start.
TERM_OPS = {
    "+": (T.Alt, 1),
    ":->": (T.Guard, 2),
    "||": (T.Par, 3),
    "||L": (T.LeftMerge, 3),
    "|": (T.CommMerge, 3),
    "||sync": (T.SyncMerge, 3),
    ".": (T.Seq, 4),
}
# token -> (node class, level, associates to the right); `not` is a prefix
# whose operand is read at its own level.
COND_OPS = {
    "=>": (T.Implies, 1, True),
    "or": (T.Or, 2, False),
    "and": (T.And, 3, False),
    "not": (T.Not, 4, False),
}
_TERM_TOKEN = {cls: (" %s " % tok, level) for tok, (cls, level) in TERM_OPS.items()}
_COND_TOKEN = {cls: (tok, level, right) for tok, (cls, level, right) in COND_OPS.items()}
_GUARD_LEVEL = TERM_OPS[":->"][1]

_CONSTANTS = {"eps": T.EPS, "delta": T.DELTA, "tau": T.TAU}
_CONSTANT_NAME = {type(c): name for name, c in _CONSTANTS.items()}
_TRUTH = {"True": T.TRUE, "true": T.TRUE, "False": T.FALSE, "false": T.FALSE}
_TRUTH_NAME = {T.TrueC: "True", T.FalseC: "False"}

# Longest first, so that no token is cut short by one of its prefixes.
_PUNCT = (
    "||sync", ":->", "||L", ":=", "==", "=>", "->", "||",
    "+", ".", "|", "(", ")", "{", "}", "[", "]", ",", "=", ":", "#", "@",
)


class ParseError(ValueError):
    pass


def _lex(text):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        for p in _PUNCT:
            # a token that ends in a letter (`||sync`, `||L`) followed by
            # more identifier characters is `||` and an identifier
            if text.startswith(p, i) and not (p[-1].isalpha() and _identch(text, i + len(p))):
                toks.append((p, p, i))
                i += len(p)
                break
        else:
            raise ParseError("unexpected character %r at offset %d" % (ch, i))
    toks.append(("end", "", n))
    return toks


def _identch(text, i):
    return i < len(text) and (text[i].isalnum() or text[i] == "_")


class _Parser:
    def __init__(self, text):
        self.toks = _lex(text)
        self.pos = 0

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        if t[0] != "end":
            self.pos += 1
        return t

    def expect(self, kind):
        t = self.next()
        if t[0] != kind:
            raise ParseError("expected %r, got %r at offset %d" % (kind, t[1], t[2]))
        return t

    def expect_ident(self, value=None):
        t = self.expect("ident")
        if value is not None and t[1] != value:
            raise ParseError("expected %r, got %r at offset %d" % (value, t[1], t[2]))
        return t[1]

    # -- terms

    def term(self, level=1):
        """A term whose operators all bind at `level` or tighter."""
        t = self.guard() if level <= _GUARD_LEVEL else None
        if t is None:
            t = self.atom()
        while True:
            cls, op_level = TERM_OPS.get(self.peek()[0], (None, 0))
            if op_level < level or cls is T.Guard:
                return t
            self.next()
            t = cls(t, self.term(op_level + 1))

    def guard(self):
        # a guard is a condition followed by :->; None if the text has none
        save = self.pos
        try:
            c = self.cond()
            self.expect(":->")
        except ParseError:
            self.pos = save
            return None
        return T.Guard(c, self.term(_GUARD_LEVEL))

    def atom(self):
        kind, text, off = self.peek()
        if kind == "(":
            return self.wrapped(self.term)
        if kind != "ident":
            raise ParseError("expected a term, got %r at offset %d" % (text, off))
        self.next()
        if text in _CONSTANTS:
            return _CONSTANTS[text]
        cls, opener, head, _ = WRAPPERS.get(text, (None,) * 4)
        if self.peek()[0] == opener:
            return cls(head(self), self.wrapped(self.term))
        if text == "rec" and self.peek()[0] == "ident":
            return self.rec()
        if self.peek()[0] == ":=":
            self.next()
            return T.Assign(text, self.expr())
        if self.peek()[0] == "(":
            self.next()
            return T.DataAct(text, tuple(self.listing(self.expr, ")")))
        return T.Act(text)

    def listing(self, item, close):
        """A possibly empty comma-separated list of items, then `close`."""
        return self.rest(item, close, [] if self.peek()[0] == close else [item()])

    def rest(self, item, close, out):
        """More comma-separated items after those in `out`, then `close`."""
        while self.peek()[0] == ",":
            self.next()
            out.append(item())
        self.expect(close)
        return out

    def wrapped(self, rule):
        self.expect("(")
        out = rule()
        self.expect(")")
        return out

    def rec(self):
        root = self.expect_ident()
        self.expect("{")
        eqs = self.rest(self.equation, "}", [self.equation()])
        # bodies are parsed before the names are known: an action that names an
        # equation becomes its variable, except inside inner specs, which bind their own
        names = {n: T.Var(n) for n, _ in eqs}
        fixed = tuple((n, T.subst_vars(rhs, names, T.Act)) for n, rhs in eqs)
        return T.Rec(root, T.RecSpec(fixed))

    def equation(self):
        name = self.expect_ident()
        self.expect("=")
        return name, self.term()

    # -- operator heads: action sets, maps, valuations, indices

    def action_set(self):
        self.expect("{")
        if self.peek()[0] == "}":
            self.next()
            return T.ActionSet.labels(())
        first = self.expect_ident()
        if first == "all" and self.peek()[0] == "+":
            self.next()
            self.expect_ident("tau")
            self.expect("}")
            return T.ActionSet("alltau")
        if first == "all" and self.peek()[0] == "}":
            self.next()
            return T.ActionSet("all")
        if first == "allbut" and self.peek()[0] != ",":
            return T.ActionSet.allbut(self.listing(self.expect_ident, "}"))
        if first in ("mentioning", "notmentioning") and self.peek()[0] == "ident":
            var = self.expect_ident()
            self.expect("}")
            return T.ActionSet(first, var)
        return T.ActionSet.labels(self.rest(self.expect_ident, "}", [first]))

    def action_map(self):
        self.expect("[")
        return T.ActionMap.make(dict(self.listing(self.renaming, "]")))

    def renaming(self):
        old = self.expect_ident()
        self.expect("->")
        return old, self.expect_ident()

    def valuation(self):
        self.expect("{")
        return T.Valuation.make(dict(self.listing(self.binding, "}")))

    def binding(self):
        name = self.expect_ident()
        self.expect("=")
        return name, self.mem_literal()

    def index(self):
        self.expect("[")
        n = parse_nat(self.expect("num")[1])
        self.expect("]")
        return n

    def mem_literal(self) -> MemState:
        self.expect("[")
        return MemState(dict(self.listing(self.cell, "]")))

    def cell(self):
        idx = parse_nat(self.expect("num")[1])
        self.expect(":")
        return idx, self.bit_string()

    def bit_string(self) -> str:
        kind, text, off = self.next()
        if kind == "num" and set(text) <= {"0", "1"}:
            return text
        if kind == "ident" and text == "e":
            return ""
        raise ParseError("expected a bit string, got %r at offset %d" % (text, off))

    # -- data expressions

    def expr(self):
        kind, text, off = self.peek()
        if kind == "[":
            return T.MemLiteral(self.mem_literal())
        if kind != "ident":
            raise ParseError("expected a data expression, got %r at offset %d" % (text, off))
        if text == "upd" and self.peek(1)[0] == "(":
            self.next()
            self.expect("(")
            base = self.expr()
            self.expect(",")
            idx = parse_nat(self.expect("num")[1])
            self.expect(",")
            val = self.bit_string()
            self.expect(")")
            return T.Upd(base, idx, val)
        if self.peek(1)[0] == ":":
            op = self.descriptor()
            self.expect("(")
            args = [self.expr()]
            if self.peek()[0] == ",":
                self.next()
                args.append(self.expr())
            self.expect(")")
            return (T.Apply2 if len(args) == 2 else T.Apply1)(op, *args)
        self.next()
        return T.FlexVar(text)

    def descriptor(self):
        parts = [self.expect_ident()]
        while self.peek()[0] == ":":
            self.next()
            kind, text, off = self.next()
            if kind in ("#", "@"):
                parts.append(kind + self.expect("num")[1])
            elif kind == "num":
                parts.append(text)
            else:
                raise ParseError("expected an operand, got %r at offset %d" % (text, off))
        try:
            return ramops.parse_op(":".join(parts))
        except ValueError as e:
            raise ParseError(str(e)) from None

    # -- conditions

    def cond(self, level=1):
        """A condition whose connectives all bind at `level` or tighter."""
        op = self.connective()
        if op is not None and op[0] is T.Not:
            self.next()
            c = T.Not(self.cond(op[1]))
        else:
            c = self.cond_atom()
        while True:
            cls, op_level, right = self.connective() or (None, 0, False)
            if op_level < level or cls is T.Not:
                return c
            self.next()
            c = cls(c, self.cond(op_level + (not right)))

    def connective(self):
        # `and`/`or`/`not` double as operation names; a following `:` means
        # a descriptor, not a connective
        kind, text, _ = self.peek()
        if kind == "ident" and self.peek(1)[0] == ":":
            return None
        return COND_OPS.get(text)

    def cond_atom(self):
        kind, text, off = self.peek()
        if kind == "(":
            return self.wrapped(self.cond)
        if kind == "ident" and text in _TRUTH:
            self.next()
            return _TRUTH[text]
        if kind == "ident" and text in ramops.CMP_NAMES and self.peek(1)[0] == ":":
            op = self.descriptor()
            self.expect("(")
            e = self.expr()
            self.expect(")")
            self.expect("=")
            bit = self.expect("num")[1]
            if bit not in ("0", "1"):
                raise ParseError("expected a bit after '='")
            return T.PropAtom(op, e, parse_nat(bit))
        e1 = self.expr()
        self.expect("==")
        return T.DataEq(e1, self.expr())


def parse_term(text: str):
    return _parse_all(text, _Parser.term)


def parse_cond(text: str):
    return _parse_all(text, _Parser.cond)


def _parse_all(text, rule):
    p = _Parser(text)
    try:
        out = rule(p)
    except RecursionError:
        raise ParseError("input nests too deeply to parse%s" % _nesting(p.toks)) from None
    kind, text_, off = p.peek()
    if kind != "end":
        raise ParseError("trailing input %r at offset %d" % (text_, off))
    return out


def _nesting(toks):
    """How deep the tokens' brackets nest, for an error message."""
    depth = deepest = 0
    for kind, _, _ in toks:
        depth += (kind in ("(", "[", "{")) - (kind in (")", "]", "}"))
        deepest = max(deepest, depth)
    return " (%d levels of brackets)" % deepest if deepest else ""


# ---------------------------------------------------------------------------
# Printing

def format_expr(e) -> str:
    return format_cond(e, None)


def format_cond(c, ctx: int | None = 0) -> str:
    """`c` as text, parenthesized if it binds looser than `ctx`; c is a data
    expression when ctx is None.  What is still to print waits on an explicit
    stack of text and (operand, context) pairs, as in `format_term`, so
    conditions and data of any depth print."""
    out, todo = [], [(c, ctx)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        x, ctx = item
        cls = type(x)
        if ctx is None:  # a data expression
            if cls is T.FlexVar or cls is T.MemLiteral:
                parts = [x.name if cls is T.FlexVar else format_mem(x.mem)]
            elif cls is T.Upd:
                parts = ["upd(", (x.base, None), ", %d, %s)" % (x.idx, format_bits(x.val))]
            elif cls is T.Apply1:
                parts = ["%s(" % ramops.format_op(x.op), (x.e, None), ")"]
            elif cls is T.Apply2:
                parts = ["%s(" % ramops.format_op(x.op), (x.e_priv, None), ", ",
                         (x.e_shared, None), ")"]
            else:
                raise ValueError("not a data expression: %r" % (x,))
        elif cls in _COND_TOKEN:
            tok, level, right = _COND_TOKEN[cls]
            parts = (["not ", (x.c, level)] if cls is T.Not else
                     [(x.l, level + right), " %s " % tok, (x.r, level + (not right))])
            if ctx > level:
                parts = ["(", *parts, ")"]
        elif cls is T.PropAtom:
            parts = ["%s(" % ramops.format_op(x.p), (x.e, None), ") = %d" % x.expected]
        elif cls is T.DataEq:
            parts = [(x.e1, None), " == ", (x.e2, None)]
        elif cls in _TRUTH_NAME:
            parts = [_TRUTH_NAME[cls]]
        else:
            raise ValueError("not a condition: %r" % (x,))
        todo += reversed(parts)
    return "".join(out)


def format_action_set(s: T.ActionSet) -> str:
    if s.kind == "labels":
        names = sorted(s.data)
        if names in (["all"], ["allbut"]):
            names *= 2  # alone, the label would read as the keyword
        return "{%s}" % ", ".join(names)
    if s.kind == "all":
        return "{all}"
    if s.kind == "alltau":
        return "{all+tau}"
    if s.kind == "allbut":
        return "{allbut %s}" % ", ".join(sorted(s.data))
    return "{%s %s}" % (s.kind, s.data)


def format_term(t, ctx: int = 0) -> str:
    """`t` as text, parenthesized if it binds looser than `ctx`.  It walks
    down each left spine in a loop and keeps what is still to print on an
    explicit stack of text and (term, context) pairs, as `terms` prints a
    node's repr, so chains of any length and nesting print."""
    out, todo = [], [(t, ctx)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        t, ctx = item
        while True:
            cls = type(t)
            if cls in _TERM_TOKEN:
                tok, level = _TERM_TOKEN[cls]
                if ctx > level:
                    out.append("(")
                    todo.append(")")
                if cls is T.Guard:
                    out.append("%s :-> " % format_cond(t.cond))
                    t, ctx = t.body, level
                else:
                    todo += [(t.r, level + 1), tok]
                    t, ctx = t.l, level
                continue
            if cls in _WRAPPER_OF:
                keyword, show = _WRAPPER_OF[cls]
                out.append("%s%s(" % (keyword, show(getattr(t, cls.__match_args__[0]))))
                todo.append(")")
                t, ctx = t.body, 0
                continue
            out.append(_format_leaf(t))
            break
    return "".join(out)


def _format_leaf(t) -> str:
    """A process term without process-term operands, as text."""
    cls = type(t)
    if cls in _CONSTANT_NAME:
        return _CONSTANT_NAME[cls]
    if cls is T.Act or cls is T.Var:
        return t.name
    if cls is T.DataAct:
        return "%s(%s)" % (t.name, ", ".join(format_expr(e) for e in t.args))
    if cls is T.Assign:
        return "%s := %s" % (t.var, format_expr(t.e))
    if cls is T.Rec:
        # a spec is printed once and kept: states share it, and it is most of their text
        spec = t.spec
        eqs = spec._text
        if eqs is None:
            eqs = ", ".join("%s = %s" % (n, format_term(rhs)) for n, rhs in spec.equations)
            object.__setattr__(spec, "_text", eqs)
        return "rec %s {%s}" % (t.var, eqs)
    raise ValueError("not a process term: %r" % (t,))


# Operators written `keyword head(body)`: keyword -> (node class, the token
# that opens the head, head reader, head printer).  The head is the node's
# first field and the body its second.
WRAPPERS = {
    "encap": (T.Encap, "{", _Parser.action_set, format_action_set),
    "abstr": (T.Abstr, "{", _Parser.action_set, format_action_set),
    "eval": (T.Eval, "{", _Parser.valuation, lambda rho: "{%s}" % rho),
    "proj": (T.Proj, "[", _Parser.index, lambda n: "[%d]" % n),
    "rename": (T.Rename, "[", _Parser.action_map,
               lambda f: "[%s]" % ", ".join("%s->%s" % p for p in f.entries)),
}
_WRAPPER_OF = {cls: (keyword, show) for keyword, (cls, _, _, show) in WRAPPERS.items()}
