"""Canonical textual syntax for process terms.

Printing then parsing is the identity on every term; parsing then printing
is the identity on canonical text.  Precedence, tightest first: `.`
(sequencing), `:->` (guarding), the merge operators (`||`, `||L`, `|`,
`||sync`), then `+`.  Binary operators at one level associate to the left;
right-nested occurrences are parenthesized.

The merge tokens are recognized greedily: `||sync` and `||L` must be written
without inner spaces, while `|| sync` is an interleaving with an action
named sync on the right.
"""

from __future__ import annotations

from .bits import format_bits, parse_bits
from .memory import MemState, format_mem
from . import ramops
from . import terms as T

_PUNCT = (
    ":->", ":=", "==", "=>", "->",
    "+", ".", "(", ")", "{", "}", "[", "]", ",", "=", ":", "#", "@",
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
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", text[i:j], i))
            i = j
            continue
        if ch == "|":
            if text.startswith("||sync", i) and not _identch(text, i + 6):
                toks.append(("||sync", "||sync", i))
                i += 6
                continue
            if text.startswith("||L", i) and not _identch(text, i + 3):
                toks.append(("||L", "||L", i))
                i += 3
                continue
            if text.startswith("||", i):
                toks.append(("||", "||", i))
                i += 2
                continue
            toks.append(("|", "|", i))
            i += 1
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
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
        k = min(self.pos + ahead, len(self.toks) - 1)
        return self.toks[k]

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

    # -- terms, outermost levels first

    def term(self):
        t = self.guarded()
        while self.peek()[0] == "+":
            self.next()
            t = T.Alt(t, self.guarded())
        return t

    def guarded(self):
        # a guard is a condition followed by :->; anything else is a merge
        save = self.pos
        try:
            c = self.cond()
            self.expect(":->")
        except ParseError:
            self.pos = save
            return self.merge()
        return T.Guard(c, self.guarded())

    def merge(self):
        ops = {"||": T.Par, "||L": T.LeftMerge, "|": T.CommMerge, "||sync": T.SyncMerge}
        t = self.seq()
        while self.peek()[0] in ops:
            node = ops[self.next()[0]]
            t = node(t, self.seq())
        return t

    def seq(self):
        t = self.atom()
        while self.peek()[0] == ".":
            self.next()
            t = T.Seq(t, self.atom())
        return t

    def atom(self):
        kind, text, off = self.peek()
        if kind == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        if kind != "ident":
            raise ParseError("expected a term, got %r at offset %d" % (text, off))
        if text == "eps":
            self.next()
            return T.EPS
        if text == "delta":
            self.next()
            return T.DELTA
        if text == "tau":
            self.next()
            return T.TAU
        if text == "encap" and self.peek(1)[0] == "{":
            self.next()
            return T.Encap(self.action_set(), self.wrapped())
        if text == "abstr" and self.peek(1)[0] == "{":
            self.next()
            return T.Abstr(self.action_set(), self.wrapped())
        if text == "eval" and self.peek(1)[0] == "{":
            self.next()
            return T.Eval(self.valuation(), self.wrapped())
        if text == "proj" and self.peek(1)[0] == "[":
            self.next()
            self.expect("[")
            n = int(self.expect("num")[1])
            self.expect("]")
            return T.Proj(n, self.wrapped())
        if text == "rename" and self.peek(1)[0] == "[":
            self.next()
            return T.Rename(self.action_map(), self.wrapped())
        if text == "rec" and self.peek(1)[0] == "ident":
            self.next()
            return self.rec()
        self.next()
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

    def wrapped(self):
        self.expect("(")
        t = self.term()
        self.expect(")")
        return t

    def rec(self):
        root = self.expect_ident()
        self.expect("{")
        eqs = self.rest(self.equation, "}", [self.equation()])
        names = {n for n, _ in eqs}
        fixed = tuple((n, _acts_to_vars(rhs, names)) for n, rhs in eqs)
        return T.Rec(root, T.RecSpec(fixed))

    def equation(self):
        name = self.expect_ident()
        self.expect("=")
        return name, self.term()

    # -- action sets, maps, valuations

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
        if first == "allbut":
            return T.ActionSet.allbut(self.rest(self.expect_ident, "}", [self.expect_ident()]))
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

    def mem_literal(self) -> MemState:
        self.expect("[")
        return MemState(dict(self.listing(self.cell, "]")))

    def cell(self):
        idx = int(self.expect("num")[1])
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
            idx = int(self.expect("num")[1])
            self.expect(",")
            val = self.bit_string()
            self.expect(")")
            return T.Upd(base, idx, val)
        if self.peek(1)[0] == ":":
            op = self.descriptor()
            self.expect("(")
            e1 = self.expr()
            if self.peek()[0] == ",":
                self.next()
                e2 = self.expr()
                self.expect(")")
                return T.Apply2(op, e1, e2)
            self.expect(")")
            return T.Apply1(op, e1)
        self.next()
        return T.FlexVar(text)

    def descriptor(self):
        parts = [self.expect_ident()]
        while self.peek()[0] == ":":
            self.next()
            kind, text, off = self.next()
            if kind == "#":
                parts.append("#" + self.expect("num")[1])
            elif kind == "@":
                parts.append("@" + self.expect("num")[1])
            elif kind == "num":
                parts.append(text)
            else:
                raise ParseError("expected an operand, got %r at offset %d" % (text, off))
        try:
            return ramops.parse_op(":".join(parts))
        except ValueError as e:
            raise ParseError(str(e)) from None

    # -- conditions

    def cond(self):
        l = self.cond_or()
        if self.peek()[0] == "=>":
            self.next()
            return T.Implies(l, self.cond())
        return l

    def cond_or(self):
        l = self.cond_and()
        while self._connective("or"):
            self.next()
            l = T.Or(l, self.cond_and())
        return l

    def cond_and(self):
        l = self.cond_not()
        while self._connective("and"):
            self.next()
            l = T.And(l, self.cond_not())
        return l

    def _connective(self, word):
        # `and`/`or`/`not` double as operator names; a following `:` means
        # a descriptor, not a connective
        return self.peek()[0] == "ident" and self.peek()[1] == word and self.peek(1)[0] != ":"

    def cond_not(self):
        if self._connective("not"):
            self.next()
            return T.Not(self.cond_not())
        return self.cond_atom()

    def cond_atom(self):
        kind, text, off = self.peek()
        if kind == "(":
            self.next()
            c = self.cond()
            self.expect(")")
            return c
        if kind == "ident" and text in ("True", "true"):
            self.next()
            return T.TRUE
        if kind == "ident" and text in ("False", "false"):
            self.next()
            return T.FALSE
        if kind == "ident" and text in ramops.CMP_NAMES and self.peek(1)[0] == ":":
            op = self.descriptor()
            self.expect("(")
            e = self.expr()
            self.expect(")")
            self.expect("=")
            bit = self.expect("num")[1]
            if bit not in ("0", "1"):
                raise ParseError("expected a bit after '='")
            return T.PropAtom(op, e, int(bit))
        e1 = self.expr()
        self.expect("==")
        return T.DataEq(e1, self.expr())


def parse_term(text: str):
    p = _Parser(text)
    t = p.term()
    kind, text_, off = p.peek()
    if kind != "end":
        raise ParseError("trailing input %r at offset %d" % (text_, off))
    return t


def parse_cond(text: str):
    p = _Parser(text)
    c = p.cond()
    kind, text_, off = p.peek()
    if kind != "end":
        raise ParseError("trailing input %r at offset %d" % (text_, off))
    return c


def _acts_to_vars(t, names):
    """Equation bodies are parsed before variable names are known; rewrite
    plain actions that name an equation into variable occurrences."""
    if isinstance(t, T.Act) and t.name in names:
        return T.Var(t.name)
    if isinstance(t, T.Rec):
        return t  # inner spec binds its own names
    return T.with_children(t, [_acts_to_vars(c, names) for c in T.children(t)])


# ---------------------------------------------------------------------------
# Printing

def format_expr(e) -> str:
    if isinstance(e, T.FlexVar):
        return e.name
    if isinstance(e, T.MemLiteral):
        return format_mem(e.mem)
    if isinstance(e, T.Upd):
        return "upd(%s, %d, %s)" % (format_expr(e.base), e.idx, format_bits(e.val))
    if isinstance(e, T.Apply1):
        return "%s(%s)" % (ramops.format_op(e.op), format_expr(e.e))
    if isinstance(e, T.Apply2):
        return "%s(%s, %s)" % (
            ramops.format_op(e.op), format_expr(e.e_priv), format_expr(e.e_shared),
        )
    raise ValueError("not a data expression: %r" % (e,))


def format_cond(c, ctx: int = 0) -> str:
    if isinstance(c, T.TrueC):
        return "True"
    if isinstance(c, T.FalseC):
        return "False"
    if isinstance(c, T.PropAtom):
        return "%s(%s) = %d" % (ramops.format_op(c.p), format_expr(c.e), c.expected)
    if isinstance(c, T.DataEq):
        return "%s == %s" % (format_expr(c.e1), format_expr(c.e2))
    if isinstance(c, T.Implies):
        s = "%s => %s" % (format_cond(c.l, 2), format_cond(c.r, 1))
        return "(%s)" % s if ctx > 1 else s
    if isinstance(c, T.Or):
        s = "%s or %s" % (format_cond(c.l, 2), format_cond(c.r, 3))
        return "(%s)" % s if ctx > 2 else s
    if isinstance(c, T.And):
        s = "%s and %s" % (format_cond(c.l, 3), format_cond(c.r, 4))
        return "(%s)" % s if ctx > 3 else s
    if isinstance(c, T.Not):
        return "not %s" % format_cond(c.c, 4)
    raise ValueError("not a condition: %r" % (c,))


def format_action_set(s: T.ActionSet) -> str:
    if s.kind == "labels":
        return "{%s}" % ", ".join(sorted(s.data))
    if s.kind == "all":
        return "{all}"
    if s.kind == "alltau":
        return "{all+tau}"
    if s.kind == "allbut":
        return "{allbut %s}" % ", ".join(sorted(s.data))
    return "{%s %s}" % (s.kind, s.data)


def format_term(t, ctx: int = 0) -> str:
    if isinstance(t, T.Empty):
        return "eps"
    if isinstance(t, T.Dead):
        return "delta"
    if isinstance(t, T.Silent):
        return "tau"
    if isinstance(t, (T.Act, T.Var)):
        return t.name
    if isinstance(t, T.DataAct):
        return "%s(%s)" % (t.name, ", ".join(format_expr(e) for e in t.args))
    if isinstance(t, T.Assign):
        return "%s := %s" % (t.var, format_expr(t.e))
    if isinstance(t, T.Alt):
        s = "%s + %s" % (format_term(t.l, 1), format_term(t.r, 2))
        return "(%s)" % s if ctx > 1 else s
    if isinstance(t, (T.Par, T.LeftMerge, T.CommMerge, T.SyncMerge)):
        op = {T.Par: "||", T.LeftMerge: "||L", T.CommMerge: "|", T.SyncMerge: "||sync"}[type(t)]
        s = "%s %s %s" % (format_term(t.l, 2), op, format_term(t.r, 3))
        return "(%s)" % s if ctx > 2 else s
    if isinstance(t, T.Guard):
        s = "%s :-> %s" % (format_cond(t.cond), format_term(t.body, 3))
        return "(%s)" % s if ctx > 3 else s
    if isinstance(t, T.Seq):
        s = "%s . %s" % (format_term(t.l, 4), format_term(t.r, 5))
        return "(%s)" % s if ctx > 4 else s
    if isinstance(t, T.Encap):
        return "encap%s(%s)" % (format_action_set(t.acts), format_term(t.body))
    if isinstance(t, T.Abstr):
        return "abstr%s(%s)" % (format_action_set(t.acts), format_term(t.body))
    if isinstance(t, T.Eval):
        return "eval{%s}(%s)" % (t.rho, format_term(t.body))
    if isinstance(t, T.Proj):
        return "proj[%d](%s)" % (t.n, format_term(t.body))
    if isinstance(t, T.Rename):
        pairs = ", ".join("%s->%s" % p for p in t.f.entries)
        return "rename[%s](%s)" % (pairs, format_term(t.body))
    if isinstance(t, T.Rec):
        eqs = ", ".join("%s = %s" % (n, format_term(rhs)) for n, rhs in t.spec.equations)
        return "rec %s {%s}" % (t.var, eqs)
    raise ValueError("not a process term: %r" % (t,))
