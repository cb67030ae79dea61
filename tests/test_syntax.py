import zlib

import pytest

from ramproc import terms as T
from ramproc.memory import EMPTY_MEM, MemState
from ramproc.ramops import BinOp, CmpOp, Dir, Imm, UnOp
from ramproc.syntax import ParseError, format_cond, format_term, parse_cond, parse_term
from ramproc.terms import (
    DELTA,
    EPS,
    TAU,
    TRUE,
    FALSE,
    Act,
    Alt,
    Assign,
    CommMerge,
    FlexVar,
    Guard,
    LeftMerge,
    Par,
    Seq,
    SyncMerge,
)

import sample_terms
from axiom_defs import AXIOMS, Gen


def test_atoms():
    assert parse_term("eps") == EPS
    assert parse_term("delta") == DELTA
    assert parse_term("tau") == TAU
    assert parse_term("a") == Act("a")
    assert parse_term("v := [0:1]") == Assign("v", T.MemLiteral(MemState({0: "1"})))
    assert parse_term("send([], w)") == T.DataAct("send", (T.MemLiteral(EMPTY_MEM), FlexVar("w")))


def test_precedence():
    # '.' binds tighter than the merges, which bind tighter than ':->',
    # which binds tighter than '+'
    assert parse_term("a . b + c") == Alt(Seq(Act("a"), Act("b")), Act("c"))
    assert parse_term("a + b . c") == Alt(Act("a"), Seq(Act("b"), Act("c")))
    assert parse_term("True :-> a . b") == Guard(TRUE, Seq(Act("a"), Act("b")))
    assert parse_term("True :-> a + b") == Alt(Guard(TRUE, Act("a")), Act("b"))
    assert parse_term("a || b + c") == Alt(Par(Act("a"), Act("b")), Act("c"))
    assert parse_term("a || b | c") == CommMerge(Par(Act("a"), Act("b")), Act("c"))
    assert parse_term("a . (b + c)") == Seq(Act("a"), Alt(Act("b"), Act("c")))


def test_merge_spellings():
    # '||sync' written without a space is the synchronous merge; with a
    # space it is a plain merge with an action named sync
    assert parse_term("a ||sync b") == SyncMerge(Act("a"), Act("b"))
    assert parse_term("a || sync") == Par(Act("a"), Act("sync"))
    assert parse_term("a ||L b") == LeftMerge(Act("a"), Act("b"))


def test_operators():
    t = parse_term("encap{a, b}(x)")
    assert t == T.Encap(T.ActionSet.labels(["a", "b"]), Act("x"))
    assert parse_term("encap{all+tau}(x)").acts == T.ActionSet("alltau")
    assert parse_term("abstr{allbut a}(x)").acts == T.ActionSet.allbut(["a"])
    assert parse_term("encap{mentioning v}(x)").acts == T.ActionSet.mentioning("v")
    assert parse_term("proj[2](a)") == T.Proj(2, Act("a"))
    assert parse_term("rename[a->b](c)") == T.Rename(T.ActionMap.make({"a": "b"}), Act("c"))
    t = parse_term("eval{v = [0:11]}(a)")
    assert t == T.Eval(T.Valuation.make({"v": MemState({0: "11"})}), Act("a"))


def test_rec():
    t = parse_term("rec X {X = True :-> a . Y, Y = True :-> eps}")
    assert isinstance(t, T.Rec)
    assert t.var == "X"
    assert t.spec.rhs("X") == Guard(TRUE, Seq(Act("a"), T.Var("Y")))
    # names not bound by the enclosing rec stay plain actions
    t2 = parse_term("rec X {X = True :-> a . X}")
    assert t2.spec.rhs("X").body.l == Act("a")


def test_conditions():
    c = parse_cond("eq:0:#1(RM) = 1")
    assert c == T.PropAtom(CmpOp("eq", Dir(0), Imm(1)), FlexVar("RM"), 1)
    c = parse_cond("not True and False or x == y")
    assert c == T.Or(T.And(T.Not(TRUE), T.FALSE),
                     T.DataEq(FlexVar("x"), FlexVar("y")))
    c = parse_cond("True => False => True")
    assert c == T.Implies(TRUE, T.Implies(T.FALSE, TRUE))


def test_exprs():
    e = parse_term("v := add:0:#1:0(w)")
    assert e == Assign("v", T.Apply1(BinOp("add", Dir(0), Imm(1), Dir(0)), FlexVar("w")))
    e = parse_term("v := upd(w, 3, 01)")
    assert e.e == T.Upd(FlexVar("w"), 3, "01")
    e = parse_term("v := [2:e]")
    assert e.e == T.MemLiteral(EMPTY_MEM)


def test_roundtrip_samples():
    cases = [
        EPS,
        Alt(Alt(Act("a"), Act("b")), Act("c")),
        Seq(Seq(Act("a"), Act("b")), Act("c")),
        Seq(Act("a"), Seq(Act("b"), Act("c"))),
        Alt(Seq(Act("a"), DELTA), Guard(T.FALSE, TAU)),
        Par(Act("a"), CommMerge(Act("b"), LeftMerge(Act("c"), Act("d")))),
        SyncMerge(Act("sync"), Par(Act("a"), Act("b"))),
        T.Proj(0, T.Rename(T.ActionMap.make({"a": "tau"}), Act("a"))),
        T.Abstr(T.ActionSet.allbut(["a"]), T.Encap(T.ActionSet("all"), Act("a"))),
        T.Encap(T.ActionSet.allbut(()), Act("a")),
        sample_terms.abs_diff_term(),
        sample_terms.division_term(),
        T.Eval(sample_terms.abs_diff_valuation(), sample_terms.abs_diff_term()),
    ]
    # a guard as either operand of each merge
    guard = Guard(TRUE, Act("a"))
    for merge in (Par, LeftMerge, CommMerge, SyncMerge):
        cases += [merge(guard, Act("b")), merge(Act("b"), guard)]
    for t in cases:
        s = format_term(t)
        assert parse_term(s) == t, s
        # printing is stable
        assert format_term(parse_term(s)) == s


def test_keyword_labels_read_back():
    # a lone `all` or `allbut` label prints twice, and `allbut ,` starts a
    # list of labels; the keyword sets keep their texts
    for names, text in ((["all"], "{all, all}"), (["allbut"], "{allbut, allbut}"),
                        (["allbut", "x"], "{allbut, x}"), (["all", "x"], "{all, x}")):
        t = T.Encap(T.ActionSet.labels(names), Act("a"))
        assert format_term(t) == "encap%s(a)" % text
        assert parse_term(format_term(t)) == t
    for s, text in ((T.ActionSet("all"), "{all}"), (T.ActionSet.allbut(()), "{allbut }"),
                    (T.ActionSet.allbut(["allbut"]), "{allbut allbut}")):
        assert format_term(T.Encap(s, Act("a"))) == "encap%s(a)" % text
        assert parse_term("encap%s(a)" % text).acts == s
    assert parse_term("encap{allbut}(a)").acts == T.ActionSet.allbut(())


# RN3 instances whose right-hand side is an action renamed to tau: `tau`
# reads back as the silent step, and `tau(...)` does not parse.
RN3_TAU_INSTANCES = (69, 71, 78, 85, 90)


def test_roundtrip_law_instances():
    # the seeds of test_axioms.check_law
    failed = []
    for name in sorted(AXIOMS):
        g = Gen(zlib.crc32(name.encode()) * 1000003)
        for k in range(100):
            for side, t in zip(("lhs", "rhs"), AXIOMS[name](g)):
                try:
                    ok = parse_term(format_term(t)) == t
                except ParseError:
                    ok = False
                if not ok:
                    failed.append((name, k, side))
    assert failed == [("RN3", k, "rhs") for k in RN3_TAU_INSTANCES]


def test_parse_deep_parentheses():
    assert parse_term("(" * 250 + "a" + ")" * 250) == Act("a")


@pytest.mark.parametrize("parse, text", [
    (parse_term, "(" * 400 + "a" + ")" * 400),
    (parse_cond, "(" * 400 + "True" + ")" * 400),
], ids=["term", "cond"])
def test_parse_too_deep_is_a_parse_error(parse, text):
    with pytest.raises(ParseError, match=r"nests too deeply to parse \(400 levels of brackets\)"):
        parse(text)


def test_format_deep_seq_chains():
    left = right = Act("a")
    for _ in range(900):
        left, right = Seq(left, Act("a")), Seq(Act("a"), right)
    assert format_term(left) == " . ".join(["a"] * 901)
    assert format_term(right) == "a . " + "(a . " * 899 + "a" + ")" * 899


@pytest.mark.parametrize("n", [3000, 20000])
def test_long_chains_print_and_read_back(n):
    for op, tok in ((Seq, " . "), (Alt, " + "), (Par, " || ")):
        left = Act("a0")
        for k in range(1, n):
            left = op(left, Act("a%d" % (k % 7)))
        text = format_term(left)
        assert text == tok.join("a%d" % (k % 7) for k in range(n))
        assert parse_term(text) == left
    right = Act("a")
    for _ in range(n - 1):
        right = Seq(Act("a"), right)
    assert format_term(right) == "a . " + "(a . " * (n - 2) + "a" + ")" * (n - 2)
    with pytest.raises(ParseError, match="nests too deeply"):
        parse_term(format_term(right))
    # a rec body's actions are renamed to variables without recursion too
    body = Act("a")
    for _ in range(n - 1):
        body = Seq(body, Act("a"))
    rec = T.Rec("X", T.RecSpec((("X", Seq(body, T.Var("X"))),)))
    text = format_term(rec)
    assert text == "rec X {X = %s . X}" % " . ".join(["a"] * n)
    assert parse_term(text) == rec
    # and the term rewrites walk it at the default recursion limit
    assert T.unfold(rec) == T.subst_rec(rec, rec.spec) == Seq(body, rec)
    assert T.unfold(rec).l is body  # the part without a variable is not copied
    renames = (("Y", T.rename_rec_vars(rec, {"X": "Y"})), ("V1", T.canonical_rename(rec)))
    for name, renamed in renames:
        assert renamed == T.Rec(name, T.RecSpec(((name, Seq(body, T.Var(name))),)))
    assert T.flexvars_term(rec) == frozenset()


def test_long_condition_chains_print_and_read_back():
    # the condition and data printers keep what is left to print on a stack of their
    # own, so any depth prints at the default recursion limit
    chain, nested, upd = TRUE, TRUE, FlexVar("RM")
    for k in range(3000):
        chain = T.And(chain, T.FALSE if k % 2 else TRUE)
        nested = T.Not(T.Or(nested, T.DataEq(FlexVar("RM"), FlexVar("RM_1"))))
        upd = T.Upd(upd, k % 4, "1")
    text = format_cond(chain)
    assert text == "True and " + " and ".join("False" if k % 2 else "True" for k in range(3000))
    assert parse_cond(text) == chain
    assert format_cond(nested) == "not (" * 3000 + "True" + " or RM == RM_1)" * 3000
    text = format_cond(T.DataEq(upd, FlexVar("RM")))
    assert text == "upd(" * 3000 + "RM" + "".join(", %d, 1)" % (k % 4) for k in range(3000)) + " == RM"


def test_deep_prefixes_and_wrappers_print():
    t = Act("b")
    for k in range(5000):
        t = Guard(TRUE, t) if k % 2 else T.Encap(T.ActionSet.labels(["a"]), t)
    assert format_term(t) == "True :-> encap{a}(" * 2500 + "b" + ")" * 2500


def test_guard_needs_parens_inside_seq():
    t = Seq(Guard(TRUE, Act("a")), Act("b"))
    s = format_term(t)
    assert parse_term(s) == t


def test_cond_roundtrip():
    cases = [
        TRUE,
        T.Not(T.And(TRUE, T.FALSE)),
        T.Implies(T.Or(TRUE, T.FALSE), TRUE),
        T.DataEq(FlexVar("x"), T.MemLiteral(MemState({1: "0"}))),
        T.PropAtom(CmpOp("gt", Dir(1), Dir(0)), FlexVar("RM"), 0),
    ]
    for c in cases:
        assert parse_cond(format_cond(c)) == c


def test_parse_errors():
    for bad in ["", "a +", "a . ", "(a", "rec X {}", "eval{v}(a)",
                "proj[-1](a)", "a ||", "v :=", "encap{}(", "add:0:0(x"]:
        with pytest.raises(ParseError):
            parse_term(bad)
    with pytest.raises(ParseError):
        parse_cond("True and")
    with pytest.raises(ParseError):
        parse_term("a b")


_A, _B, _C = Act("a"), Act("b"), Act("c")
_AND = BinOp("and", Dir(0), Dir(1), Dir(0))
_NOT = UnOp("not", Dir(0), Dir(0))


def _err(message):
    return ParseError, message


# Exact parse results (term, or exception type and message) for texts that
# exercise the tokenizer's merge spellings, operator levels, the guard's
# backtracking and connectives that double as operation names.
PARSE_PINS = [
    (parse_term, "a || sync", Par(_A, Act("sync"))),
    (parse_term, "a ||sync b", SyncMerge(_A, _B)),
    (parse_term, "a ||syncb", Par(_A, Act("syncb"))),
    (parse_term, "a ||Lx", Par(_A, Act("Lx"))),
    (parse_term, "a|b||c", Par(CommMerge(_A, _B), _C)),
    (parse_term, "a |||| b", _err("expected a term, got '||' at offset 4")),
    (parse_term, "True :-> False :-> a", Guard(TRUE, Guard(FALSE, _A))),
    (parse_term, "True :-> a || b", Guard(TRUE, Par(_A, _B))),
    (parse_term, "a || True :-> b", _err("trailing input ':->' at offset 10")),
    (parse_term, "a . True :-> b", _err("trailing input ':->' at offset 9")),
    (parse_term, "True :-> a + False :-> b . c",
     Alt(Guard(TRUE, _A), Guard(FALSE, Seq(_B, _C)))),
    (parse_term, "(True :-> a) . b", Seq(Guard(TRUE, _A), _B)),
    (parse_term, "not True :-> a", Guard(T.Not(TRUE), _A)),
    (parse_term, "a => b :-> c", _err("trailing input '=>' at offset 2")),
    (parse_term, "x == y => True or False :-> a",
     Guard(T.Implies(T.DataEq(FlexVar("x"), FlexVar("y")), T.Or(TRUE, FALSE)), _A)),
    (parse_term, "v := and:0:1:0(w)", Assign("v", T.Apply1(_AND, FlexVar("w")))),
    (parse_term, "not:0:0(x) == y :-> a",
     Guard(T.DataEq(T.Apply1(_NOT, FlexVar("x")), FlexVar("y")), _A)),
    (parse_cond, "True => False => True", T.Implies(TRUE, T.Implies(FALSE, TRUE))),
    (parse_cond, "True or False => True", T.Implies(T.Or(TRUE, FALSE), TRUE)),
    (parse_cond, "True => False or True", T.Implies(TRUE, T.Or(FALSE, TRUE))),
    (parse_cond, "not not True and False or True",
     T.Or(T.And(T.Not(T.Not(TRUE)), FALSE), TRUE)),
    (parse_cond, "and:0:1:0(x) == not:0:0(y)",
     T.DataEq(T.Apply1(_AND, FlexVar("x")), T.Apply1(_NOT, FlexVar("y")))),
    (parse_cond, "not", _err("expected a data expression, got '' at offset 3")),
    (parse_cond, "x == y or", _err("expected a data expression, got '' at offset 9")),
    # the error branches of test_parse_errors
    (parse_term, "", _err("expected a term, got '' at offset 0")),
    (parse_term, "a +", _err("expected a term, got '' at offset 3")),
    (parse_term, "a . ", _err("expected a term, got '' at offset 4")),
    (parse_term, "(a", _err("expected ')', got '' at offset 2")),
    (parse_term, "rec X {}", _err("expected 'ident', got '}' at offset 7")),
    (parse_term, "eval{v}(a)", _err("expected '=', got '}' at offset 6")),
    (parse_term, "proj[-1](a)", _err("unexpected character '-' at offset 5")),
    (parse_term, "a ||", _err("expected a term, got '' at offset 4")),
    (parse_term, "v :=", _err("expected a data expression, got '' at offset 4")),
    (parse_term, "encap{}(", _err("expected a term, got '' at offset 8")),
    (parse_term, "add:0:0(x", _err("trailing input ':' at offset 3")),
    (parse_term, "a b", _err("trailing input 'b' at offset 2")),
    (parse_cond, "True and", _err("expected a data expression, got '' at offset 8")),
]


@pytest.mark.parametrize("parse, text, expected", PARSE_PINS,
                         ids=["%s %r" % (p.__name__, s) for p, s, _ in PARSE_PINS])
def test_parse_pinned(parse, text, expected):
    if isinstance(expected, tuple):
        with pytest.raises(expected[0]) as info:
            parse(text)
        assert type(info.value) is expected[0]
        assert str(info.value) == expected[1]
    else:
        assert parse(text) == expected
