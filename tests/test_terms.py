import time
from dataclasses import FrozenInstanceError

import pytest

from ramproc import machines
from ramproc import terms as T
from ramproc.machines import SMBRAM, parse_program, proc_of_bbram, proc_of_smbram_async
from ramproc.memory import EMPTY_MEM, MemState
from ramproc.ramops import BinOp, CmpOp, Dir, Imm, Ind, Ini, Load, Store, apply_ini
from ramproc.semantics import SemanticsError, step
from ramproc.syntax import parse_term
from ramproc.terms import (
    DELTA,
    EPS,
    TAU,
    TRUE,
    ActionMap,
    ActionSet,
    Act,
    Alt,
    Assign,
    Assignment,
    DataAct,
    FlexVar,
    Guard,
    MemLiteral,
    Plain,
    PropAtom,
    Rec,
    RecSpec,
    Seq,
    Tau,
    Valuation,
    Var,
)

M1 = MemState({0: "1"})


def test_eval_data():
    rho = Valuation.make({"v": M1})
    assert T.eval_data(FlexVar("v"), rho) == M1
    assert T.eval_data(MemLiteral(M1), None) == M1
    e = T.Apply1(BinOp("add", Dir(0), Imm(2), Dir(0)), FlexVar("v"))
    assert T.eval_data(e, rho) == MemState({0: "11"})
    u = T.Upd(MemLiteral(EMPTY_MEM), 3, "01")
    assert T.eval_data(u, None) == MemState({3: "01"})
    with pytest.raises(LookupError):
        T.eval_data(FlexVar("w"), rho)


def test_eval_cond():
    rho = Valuation.make({"v": M1})
    atom = T.PropAtom(CmpOp("eq", Dir(0), Imm(1)), FlexVar("v"), 1)
    assert T.eval_cond(atom, rho) is True
    assert T.eval_cond(T.Not(atom), rho) is False
    assert T.eval_cond(T.Implies(T.FALSE, atom), None) is True
    assert T.eval_cond(T.DataEq(MemLiteral(M1), MemLiteral(M1)), None) is True
    assert T.eval_cond(T.Or(T.FALSE, T.And(TRUE, TRUE)), None) is True


def test_valuation():
    rho = Valuation.make({"b": M1, "a": EMPTY_MEM})
    assert rho.names() == ("a", "b")
    assert rho.get("a") == EMPTY_MEM
    assert "b" in rho and "c" not in rho
    rho2 = rho.set("a", M1)
    assert rho.get("a") == EMPTY_MEM and rho2.get("a") == M1
    with pytest.raises(LookupError):
        rho.get("c")
    assert str(Valuation.make({"RM": MemState({0: "1101"})})) == "RM = [0:1101]"


@pytest.mark.parametrize("name", [
    pytest.param("A", id="first"),
    pytest.param("RM_15", id="middle"),
    pytest.param("RM_9", id="last"),
    pytest.param("RM_1", id="replaced"),
])
def test_valuation_set_matches_make(name):
    mapping = {"RM": M1, "RM_1": EMPTY_MEM, "RM_2": M1, "RM_3": EMPTY_MEM}
    got = Valuation.make(mapping).set(name, MemState({2: "01"}))
    want = Valuation.make({**mapping, name: MemState({2: "01"})})
    assert got == want and hash(got) == hash(want)
    assert got.names() == tuple(sorted(set(mapping) | {name}))


def test_flexvars():
    t = Seq(Assign("d", FlexVar("i")), Guard(T.DataEq(FlexVar("j"), MemLiteral(M1)), EPS))
    assert T.flexvars_term(t) == frozenset({"d", "i", "j"})
    assert T.flexvars_term(Assign("d", FlexVar("i"))) == frozenset({"d", "i"})
    assert T.flexvars_term(T.DataEq(FlexVar("j"), T.Upd(FlexVar("k"), 0, "1"))) == {"j", "k"}
    assert T.flexvars_term(T.Not(TRUE)) == T.flexvars_term(MemLiteral(M1)) == frozenset()


def test_malformed_operands_read_nothing():
    # an operand that is no node of the language reads nothing, and an ini's
    # operand is not compiled; stepping a bad operand still raises
    bad = T.Upd(None, 0, "1")
    assert T.flexvars_term(Alt(Act("a"), "junk")) == T.flexvars_term(bad) == frozenset()
    assert T.flexvars_term(Seq(Assign("v", FlexVar("w")), 5)) == {"v", "w"}
    assert Assign("d", bad)._flexvars == {"d"}
    assert T.eval_data(T.Apply1(Ini(1), bad), Valuation()) == apply_ini(1)
    with pytest.raises(ValueError, match="^not a data expression: None$"):
        step(Assign("d", bad))


def test_action_sets():
    s = ActionSet.labels(["a", "b"])
    assert s.contains_label(Plain("a"))
    assert not s.contains_label(Plain("c"))
    assert not s.contains_label(Tau())
    assert ActionSet("alltau").contains_label(Tau())
    assert ActionSet("all").contains_label(Plain("x"))
    assert not ActionSet("all").contains_label(Tau())
    assert ActionSet.allbut(["a"]).contains_label(Plain("b"))
    assert not ActionSet.allbut(["a"]).contains_label(Plain("a"))
    asn = Assignment("v", M1, frozenset({"v", "w"}))
    assert ActionSet.mentioning("w").contains_label(asn)
    assert not ActionSet.not_mentioning("w").contains_label(asn)
    assert ActionSet.mentioning("z").contains_label(asn) is False


def test_action_map():
    f = ActionMap.make({"a": "b", "c": "tau"})
    assert f.apply_label(Plain("a")) == Plain("b")
    assert f.apply_label(Tau()) == Tau()
    asn = Assignment("v", M1, frozenset({"v"}))
    assert f.apply_label(asn) == asn


def test_assignment_mentions_not_compared():
    a1 = Assignment("v", M1, frozenset({"v"}))
    a2 = Assignment("v", M1, frozenset({"v", "w"}))
    assert a1 == a2
    assert hash(a1) == hash(a2)


def test_recspec():
    spec = RecSpec((("X", Guard(TRUE, EPS)),))
    assert spec.rhs("X") == Guard(TRUE, EPS)
    assert "X" in spec and "Y" not in spec
    with pytest.raises(ValueError):
        RecSpec((("X", EPS), ("X", DELTA)))
    with pytest.raises(ValueError):
        Rec("Y", spec)


def test_subst_rec_unfolds_one_level():
    spec = RecSpec((("X", Seq(Act("a"), Var("X"))),))
    t = T.subst_rec(spec.rhs("X"), spec)
    assert t == Seq(Act("a"), Rec("X", spec))


DIVISION = "mov:1:3\njmp:gt:2:3:6\nsub:3:2:3\nadd:0:#1:0\njmp:eq:#0:#0:2\nhalt\n"
COMPONENT = "add:1:1:1\nloa:@0:2\nsto:0:@0\njmp:eq:1:2:2\nhalt\n"


def test_equal_terms_hash_equal():
    built = [proc_of_bbram(parse_program(DIVISION)) for _ in range(2)]
    assert built[0] is not built[1] and built[0] == built[1]
    assert hash(built[0]) == hash(built[1])
    evals = [
        T.Eval(Valuation.make({"RM": MemState({1: "101"}), "RM_1": M1}), Seq(Act("a"), EPS))
        for _ in range(2)
    ]
    assert evals[0] is not evals[1] and evals[0] == evals[1]
    assert hash(evals[0]) == hash(evals[1])


def test_hash_is_stable():
    t = T.Eval(Valuation.make({"RM": M1}), proc_of_bbram(parse_program(DIVISION)))
    first = hash(t)
    assert hash(t) == first


def test_unfold_matches_subst_rec():
    comp = proc_of_smbram_async(1, parse_program(COMPONENT, SMBRAM))
    for name in comp.spec.vars():
        rec = Rec(name, comp.spec)
        assert T.unfold(rec) == T.subst_rec(rec, rec.spec)


def test_unfold_is_memoized():
    comp = proc_of_smbram_async(1, parse_program(COMPONENT, SMBRAM))
    assert T.unfold(comp) is T.unfold(comp)
    assert T.unfold(comp) is T.unfold(Rec(comp.var, comp.spec))


def _rec_nodes(t):
    """The recursion constants in t, outside the specs they close off."""
    if isinstance(t, Rec):
        return [t]
    return [r for c in T.children(t) for r in _rec_nodes(c)]


def test_unfoldings_share_rec_constants(monkeypatch):
    # the jumps make several equations name the same variable
    program = "add:1:1:1\n" * 12 + "jmp:eq:1:2:3\njmp:gt:1:2:7\nsto:0:@0\nhalt\n"
    comp = proc_of_smbram_async(1, parse_program(program, SMBRAM))
    spec = comp.spec
    built = []
    real_init = Rec.__init__
    monkeypatch.setattr(Rec, "__init__", lambda self, *a: built.append(a) or real_init(self, *a))
    found = {}
    for name in spec.vars():
        for r in _rec_nodes(T.unfold(Rec(name, spec))):
            assert found.setdefault(r.var, r) is r
    # one constant per equation, plus the ones this test unfolds
    assert len(found) > 1 and len(built) <= 2 * len(spec.equations)


def test_substitution_stops_at_inner_specs():
    # the inner spec binds its own X: unfolding the outer one leaves it alone
    inner = Rec("X", RecSpec((("X", Seq(Act("b"), Var("X"))),)))
    t = Rec("X", RecSpec((("X", Seq(Act("a"), Alt(Var("X"), inner))),)))
    assert T.unfold(t) == Seq(Act("a"), Alt(t, inner))
    # and an action named like an outer equation stays an action inside one
    inner = Rec("Y", RecSpec((("Y", Act("X")),)))
    assert parse_term("rec X {X = a . rec Y {Y = X}}") == Rec("X", RecSpec((
        ("X", Seq(Act("a"), inner)),)))


def test_canonical_rename():
    spec = RecSpec((
        ("Loop", Seq(Act("a"), Var("Stop"))),
        ("Stop", Guard(TRUE, EPS)),
    ))
    t = T.canonical_rename(Rec("Loop", spec))
    want = RecSpec((
        ("V1", Seq(Act("a"), Var("V2"))),
        ("V2", Guard(TRUE, EPS)),
    ))
    assert t == Rec("V1", want)
    # an inner spec that binds the outer spec's name renames only its own
    inner = RecSpec((("V1", Seq(Act("b"), Var("X"))), ("X", Act("c"))))
    t = Rec("X", RecSpec((("X", Seq(Act("a"), Rec("V1", inner))),)))
    inner = RecSpec((("V1", Seq(Act("b"), Var("V2"))), ("V2", Act("c"))))
    want = Rec("V1", RecSpec((("V1", Seq(Act("a"), Rec("V1", inner))),)))
    assert T.canonical_rename(t) == want
    # and so does an alpha-variant with both specs renamed
    inner = RecSpec((("P", Seq(Act("b"), Var("Q"))), ("Q", Act("c"))))
    assert T.canonical_rename(Rec("Y", RecSpec((("Y", Seq(Act("a"), Rec("P", inner))),)))) == want


def test_fold_visits_each_shared_subterm_once():
    t = Act("a")
    for _ in range(40):  # 2**40 paths through 41 objects
        t = Alt(t, t)
    visits = []
    assert T.fold(t, lambda u, heights: visits.append(u) or 1 + max(heights, default=0)) == 41
    assert len(visits) == len(set(map(id, visits))) == 41


def test_spec_walks_each_shared_subterm_once():
    # a spec's free-variable check and read set visit each subterm object once
    def shared(leaf):
        t = Seq(Assign("d", FlexVar("i")), leaf)
        for _ in range(40):  # 2**40 paths through 204 nodes
            t = Guard(T.DataEq(FlexVar("j"), MemLiteral(M1)), Seq(t, t))
        return t
    start = time.perf_counter()
    t = Rec("X", RecSpec((("X", shared(Var("X"))),)))
    assert time.perf_counter() - start < 1
    assert t.spec._flexvars == T.flexvars_term(t) == {"d", "i", "j"}
    with pytest.raises(ValueError, match="^free recursion variable Z in the equation for X$"):
        RecSpec((("X", shared(Var("Z"))),))
    t = Act("a")
    for _ in range(40):  # the 41 objects of `test_fold_visits_each_shared_subterm_once`
        t = Alt(t, t)
    start = time.perf_counter()
    assert T.flexvars_term(t) == frozenset() and time.perf_counter() - start < 1


def test_validate_linear():
    assert T.linear_summands(DELTA) is not None
    assert T.linear_summands(Guard(TRUE, EPS)) is not None
    assert T.linear_summands(Guard(TRUE, Seq(Act("a"), Var("X")))) is not None
    assert T.linear_summands(Alt(Guard(TRUE, EPS), Guard(T.FALSE, Seq(TAU, Var("X"))))) is not None
    assert T.linear_summands(EPS) is None
    assert T.linear_summands(Seq(Act("a"), Var("X"))) is None
    assert T.linear_summands(Guard(TRUE, Seq(Act("a"), Act("b")))) is None


# A compiled machine: X1 jumps to X3 when register 1 holds 1 and falls
# through to X2 otherwise, X2 adds 1 to register 1, X3 halts.
_JUMPS = proc_of_bbram(parse_program("jmp:eq:1:#1:3\nadd:1:#1:1\nhalt\n")).spec
_KEEP = Assign("RM", FlexVar("RM"))
_ADD = Assign("RM", T.Apply1(BinOp("add", Dir(1), Imm(1), Dir(1)), FlexVar("RM")))


def _holds(bit):
    return PropAtom(CmpOp("eq", Dir(1), Imm(1)), FlexVar("RM"), bit)


@pytest.mark.parametrize("t, want", [
    (_JUMPS.rhs("X1"), [(_holds(1), _KEEP, "X3"), (_holds(0), _KEEP, "X2")]),
    (_JUMPS.rhs("X2"), [(TRUE, _ADD, "X3")]),
    (_JUMPS.rhs("X3"), [(TRUE, None, None)]),
    (DELTA, []),
    (Alt(DELTA, Alt(Guard(T.FALSE, Seq(TAU, Var("X"))), Guard(TRUE, EPS))),
     [(T.FALSE, TAU, "X"), (TRUE, None, None)]),
    (Alt(Guard(TRUE, EPS), Guard(TRUE, Seq(Seq(Act("a"), Act("b")), Var("X")))), None),
    (Alt(Guard(TRUE, EPS), EPS), None),
], ids=["jmp", "op", "halt", "deadlock", "alt-deadlock", "seq-prefix", "unguarded-success"])
def test_linear_summands(t, want):
    assert T.linear_summands(t) == want
    form = T.linear_form(RecSpec((("X", t), ("X2", DELTA), ("X3", DELTA))))
    assert (form is False) if want is None else (form[0]["X"] == want)


def test_long_linear_right_hand_sides_validate():
    # 3,000 summands nest deeper than the recursion limit
    rhs = Guard(TRUE, EPS)
    for k in range(3000):
        rhs = Alt(rhs, Guard(TRUE, Seq(Act("a%d" % k), Var("X"))))
    assert len(T.linear_form(RecSpec((("X", rhs),)))[0]["X"]) == 3001
    assert T.validate_guarded(RecSpec((("X", rhs),)))
    assert len(T.linear_summands(rhs)) == 3001


def test_validate_guarded_rejects_tau_cycle():
    good = RecSpec((
        ("X", Guard(TRUE, Seq(TAU, Var("Y")))),
        ("Y", Guard(TRUE, Seq(Act("a"), Var("X")))),
    ))
    assert T.validate_guarded(good)
    self_loop = RecSpec((("X", Guard(TRUE, Seq(TAU, Var("X")))),))
    assert not T.validate_guarded(self_loop)
    two_cycle = RecSpec((
        ("X", Guard(TRUE, Seq(TAU, Var("Y")))),
        ("Y", Guard(TRUE, Seq(TAU, Var("X")))),
    ))
    assert not T.validate_guarded(two_cycle)
    unlinear = RecSpec((("X", Seq(Act("a"), Var("X"))),))
    with pytest.raises(ValueError):
        T.validate_guarded(unlinear)


def test_validate_guarded_matches_bruteforce():
    # compare against a direct search for silent-prefix chains longer than
    # the number of equations
    import random

    rng = random.Random(20260826)
    for _ in range(200):
        names = ["X%d" % k for k in range(1, rng.randint(2, 5))]
        eqs = []
        for n in names:
            summands = []
            for _ in range(rng.randint(1, 3)):
                kind = rng.random()
                target = Var(rng.choice(names))
                if kind < 0.4:
                    summands.append(Guard(TRUE, Seq(TAU, target)))
                elif kind < 0.8:
                    summands.append(Guard(TRUE, Seq(Act("a"), target)))
                else:
                    summands.append(Guard(TRUE, EPS))
            rhs = summands[0]
            for s in summands[1:]:
                rhs = Alt(rhs, s)
            eqs.append((n, rhs))
        spec = RecSpec(tuple(eqs))

        tau_edges = {n: set() for n in names}
        for n, rhs in eqs:
            stack = [rhs]
            while stack:
                s = stack.pop()
                if isinstance(s, Alt):
                    stack.extend([s.l, s.r])
                elif isinstance(s, Guard) and isinstance(s.body, Seq) and s.body.l == TAU:
                    tau_edges[n].add(s.body.r.name)

        def chain_exists(n, depth, seen_len):
            if seen_len > len(names):
                return True
            return any(chain_exists(m, depth, seen_len + 1) for m in tau_edges[n])

        brute_ok = not any(chain_exists(n, 0, 1) for n in names)
        assert T.validate_guarded(spec) == brute_ok


def _ramp_assign(o, succ):
    return Guard(TRUE, Seq(Assign("RM", T.Apply1(o, FlexVar("RM"))), Var(succ)))


def test_validate_ramp():
    spec = RecSpec((
        ("X1", _ramp_assign(BinOp("add", Dir(1), Dir(2), Dir(0)), "X2")),
        ("X2", Guard(TRUE, EPS)),
    ))
    assert machines.validate_ramp(Rec("X1", spec))
    # fall-through must go to the next listed equation
    bad = RecSpec((
        ("X1", _ramp_assign(BinOp("add", Dir(1), Dir(2), Dir(0)), "X1")),
    ))
    assert not machines.validate_ramp(Rec("X1", bad))
    assert not machines.validate_ramp(EPS)


def test_validate_ramp_rejects_shared_ops():
    spec = RecSpec((
        ("X1", Guard(TRUE, Seq(
            Assign("RM", T.Apply2(Load(Ind(1), Dir(0)), FlexVar("RM"), FlexVar("RM"))),
            Var("X2")))),
        ("X2", Guard(TRUE, EPS)),
    ))
    assert not machines.validate_ramp(Rec("X1", spec))


_INI1 = "X1 = True :-> RM_1 := ini:#1(RM_1) . Y1"
_TEST_RM = "eq:#0:#0(RM) = 1 :-> RM := RM . %s + eq:#0:#0(RM) = 0 :-> RM := RM . %s"
_TEST_RM1 = "eq:#0:#0(RM_1) = 1 :-> RM_1 := RM_1 . %s + eq:#0:#0(RM_1) = 0 :-> RM_1 := RM_1 . %s"
_NOT_COMPILED = "equation %s is not what its instruction compiles to"


def _bit0_first(test):
    """A compiled jump with its two summands swapped."""
    return " + ".join(reversed(test.split(" + ")))


@pytest.mark.parametrize("validator, text, expected", [
    pytest.param("validate_ramp",
                 "rec X1 {X1 = %s, X2 = True :-> eps}" % (_TEST_RM % ("X1", "X2")),
                 True, id="ramp-jump-to-root"),
    pytest.param("validate_ramp", "rec X1 {X1 = True :-> eps, X2 = True :-> eps}",
                 True, id="ramp-two-halts"),
    pytest.param("validate_ramp",
                 "rec X2 {X1 = True :-> RM := add:0:#1:0(RM) . X2, X2 = True :-> eps}",
                 False, id="ramp-root-not-first"),
    pytest.param("validate_ramp",
                 "rec X1 {X1 = True :-> RM_1 := add:0:#1:0(RM_1) . X2, X2 = True :-> eps}",
                 False, id="ramp-op-on-private-memory"),
    pytest.param("validate_ramp",
                 "rec X1 {X1 = %s, X2 = True :-> eps}" % (_bit0_first(_TEST_RM % ("X1", "X2"))),
                 False, id="ramp-jump-bit0-first"),
    pytest.param("validate_apramp",
                 "rec X1 {%s, Y1 = %s, Y2 = True :-> eps}" % (_INI1, _TEST_RM1 % ("X1", "Y2")),
                 _NOT_COMPILED % "Y1", id="apramp-jump-to-root"),
    pytest.param("validate_apramp",
                 "rec X1 {%s, Y1 = %s, Y2 = True :-> eps}"
                 % (_INI1, _bit0_first(_TEST_RM1 % ("Y1", "Y2"))),
                 _NOT_COMPILED % "Y1", id="apramp-jump-bit0-first"),
    pytest.param("validate_apramp",
                 "rec X1 {%s, Y1 = True :-> eps, Y2 = True :-> RM_1 := add:0:#1:0(RM_1) . Y3,"
                 " Y3 = True :-> eps}" % _INI1,
                 1, id="apramp-halt-mid-program"),
    pytest.param("validate_apramp",
                 "rec X2 {X2 = True :-> RM_2 := ini:#2(RM_2) . Y1, Y1 = True :-> eps}",
                 _NOT_COMPILED % "X2", id="apramp-misnumbered"),
    pytest.param("validate_apramp",
                 "rec X1 {X1 = True :-> RM_1 := add:0:#1:0(RM_1) . Y1, Y1 = True :-> eps}",
                 _NOT_COMPILED % "X1", id="apramp-no-ini"),
    pytest.param("validate_apramp",
                 "rec X1 {X1 = True :-> RM_2 := ini:#1(RM_2) . Y1, Y1 = True :-> eps}",
                 _NOT_COMPILED % "X1", id="apramp-wrong-memory"),
    pytest.param("validate_apramp",
                 "rec X1 {%s, Y0 = True :-> eps, Y1 = True :-> eps}" % _INI1,
                 _NOT_COMPILED % "X1", id="apramp-root-skips"),
    pytest.param("validate_apramp",
                 "rec X1 {%s, Y1 = True :-> sync . Y2, Y2 = True :-> eps}" % _INI1,
                 _NOT_COMPILED % "Y1", id="apramp-sync-step"),
    pytest.param("validate_spramp",
                 "rec X1 {%s, Y1 = True :-> sync . Y2, Y2 = True :-> RM_1 := add:0:0:0(RM_1) . Y3,"
                 " Y3 = True :-> sync . Y4, Y4 = %s, Y5 = True :-> sync . Y6, Y6 = True :-> eps}"
                 % (_INI1, _TEST_RM1 % ("Y2", "Y5")),
                 _NOT_COMPILED % "Y4", id="spramp-work-to-work"),
    pytest.param("validate_spramp",
                 "rec X1 {%s, Y1 = True :-> sync . Y2, Y2 = True :-> eps, Y3 = True :-> eps,"
                 " Y4 = True :-> sync . Y5, Y5 = True :-> eps}" % _INI1,
                 _NOT_COMPILED % "Y3", id="spramp-parity-shifted"),
    pytest.param("validate_spramp",
                 "rec X1 {%s, Y0 = True :-> eps, Y1 = True :-> eps}" % _INI1,
                 _NOT_COMPILED % "X1", id="spramp-root-skips"),
    pytest.param("validate_spramp",
                 "rec X1 {%s, Y1 = True :-> sync . Y3, Y2 = True :-> eps, Y3 = True :-> eps}"
                 % _INI1,
                 _NOT_COMPILED % "Y1", id="spramp-sync-skips"),
])
def test_validator_verdicts(validator, text, expected):
    t = parse_term(text)
    if isinstance(expected, str):
        with pytest.raises(ValueError) as info:
            getattr(machines, validator)(t)
        assert str(info.value) == expected
    else:
        got = getattr(machines, validator)(t)
        assert type(got) is type(expected) and got == expected


def _seq_chain(n):
    t = EPS
    for _ in range(n):
        t = Seq(Act("a"), t)
    return t


def test_node_constructor():
    assert Seq(Act("a"), r=EPS) == Seq(l=Act("a"), r=EPS) == Seq(Act("a"), EPS)
    assert Valuation() == Valuation(()) and Valuation().entries == ()
    assert ActionSet("all").data is None
    spec = RecSpec((("X", EPS),))
    assert (spec._consts, spec._unfolded, spec._flexvars, spec._text) == (
        None, None, frozenset(), None)
    assert Assign("v", FlexVar("v"))._flexvars == {"v"}
    with pytest.raises(FrozenInstanceError):
        Act("a").name = "b"
    with pytest.raises(FrozenInstanceError):
        del Act("a").name
    assert not hasattr(Act("a"), "__dict__")
    assert Seq.__match_args__ == ("l", "r")
    assert "mentions" in Assignment.__match_args__
    with pytest.raises(TypeError):
        Act()
    with pytest.raises(ValueError, match="^projection depth is a natural$"):
        T.Proj(-1, EPS)
    with pytest.raises(ValueError, match="^Apply2 takes load or store$"):
        T.Apply2(BinOp("add", Dir(0), Imm(2), Dir(0)), MemLiteral(M1), MemLiteral(M1))
    with pytest.raises(ValueError, match="^duplicate equation variable$"):
        RecSpec((("X", EPS), ("X", DELTA)))
    built = [Seq(Assign("v", T.Upd(FlexVar("v"), 0, "1")), Act("a")) for _ in range(2)]
    assert built[0] is not built[1] and hash(built[0]) == hash(built[1])


def test_node_repr_pinned():
    assert repr(Seq(Act("a"), EPS)) == "Seq(l=Act(name='a'), r=Empty())"
    assert (repr(Assignment("v", M1, frozenset({"v"})))
            == "Assignment(var='v', value=MemState({0: '1'}), mentions=frozenset({'v'}))")
    assert repr(ActionSet("all")) == "ActionSet(kind='all', data=None)"
    spec = RecSpec((("X", Seq(Act("a"), Var("X"))),))
    T.unfold(Rec("X", spec))
    T.flexvars_term(Rec("X", spec))
    assert spec._consts is not None and spec._unfolded is not None
    assert repr(spec) == "RecSpec(equations=(('X', Seq(l=Act(name='a'), r=Var(name='X'))),))"
    assert (repr(Valuation.make({"RM_1": EMPTY_MEM, "RM": M1}))
            == "Valuation(entries=(('RM', MemState({0: '1'})), ('RM_1', MemState({}))))")


def test_node_repr_any_depth():
    # the repr walks nodes and tuples with an explicit stack, so a deep term
    # prints, and so does an error message that embeds one
    chain = Act("a")
    for _ in range(3000):
        chain = Seq(chain, EPS)
    assert repr(chain) == "Seq(l=" * 3000 + "Act(name='a')" + ", r=Empty())" * 3000
    cond = TRUE
    for _ in range(3000):
        cond = T.Not(cond)
    with pytest.raises(SemanticsError) as info:
        step(Seq(EPS, cond))
    assert str(info.value) == "cannot step " + "Not(c=" * 3000 + "TrueC()" + ")" * 3000


def test_spec_refuses_free_recursion_variables():
    with pytest.raises(ValueError, match="^free recursion variable X9 in the equation for X1$"):
        RecSpec((("X1", Guard(TRUE, Seq(Act("a"), Var("X9")))),))
    with pytest.raises(ValueError, match="^free recursion variable Z in the equation for Y$"):
        RecSpec((("X", EPS), ("Y", Alt(Var("X"), T.Encap(ActionSet("all"), Var("Z"))))))
    # an inner constant binds its own names
    inner = Rec("Y", RecSpec((("Y", Guard(TRUE, Seq(Act("b"), Var("Y")))),)))
    assert RecSpec((("X", Alt(inner, Seq(Act("a"), Var("X")))),)).vars() == ("X",)


def test_node_hidden_field_defaults():
    @T.node
    class Tagged:
        name: str
        _tag: str = "untagged"

    assert Tagged("a")._tag == "untagged" and Tagged("a") == Tagged(name="a")
    assert repr(Tagged("a")).endswith("Tagged(name='a')")
    with pytest.raises(TypeError):
        Tagged("a", "b")


def test_deep_chain_hashes_and_explores():
    from ramproc.semantics import build_lts

    t = _seq_chain(3000)
    assert hash(t) == hash(_seq_chain(3000))
    l = build_lts(t)
    assert (len(l.states), len(l.transitions), l.success) == (3001, 3000, {3000})


def test_deep_equal_chains_compare():
    from ramproc.semantics import build_lts

    a, b = _seq_chain(3000), _seq_chain(3000)
    assert a is not b and a == b and not a != b
    assert RecSpec((("X", a),)) == RecSpec((("X", b),))
    assert len(build_lts(Alt(a, b)).states) == 3001


def test_shared_subterms_hash_once():
    t = Act("a")
    for _ in range(64):
        t = Alt(t, t)
    assert hash(t) == hash(Alt(t.l, t.r))


_CMP = CmpOp("eq", Dir(0), Dir(1))


@pytest.mark.parametrize("evaluate, e, message", [
    (T.eval_data, 5, "not a data expression: 5"),
    (T.eval_data, None, "not a data expression: None"),
    (T.eval_data, TRUE, "not a data expression: TrueC()"),
    (T.eval_data, T.Upd("x", 0, "1"), "not a data expression: 'x'"),
    (T.eval_data, T.Apply1(BinOp("add", Dir(0), Imm(2), Dir(0)), 5),
     "not a data expression: 5"),
    (T.eval_data, T.Apply2(Load(Ind(7), Dir(1)), MemLiteral(M1), 5),
     "not a data expression: 5"),
    (T.eval_cond, 5, "not a condition: 5"),
    (T.eval_cond, MemLiteral(M1), "not a condition: MemLiteral(mem=%r)" % (M1,)),
    (T.eval_cond, T.Not(None), "not a condition: None"),
    (T.eval_cond, T.And(TRUE, 5), "not a condition: 5"),
    (T.eval_cond, T.Implies(TRUE, "c"), "not a condition: 'c'"),
    (T.eval_cond, T.PropAtom(_CMP, 5, 1), "not a data expression: 5"),
    (T.eval_cond, T.DataEq(MemLiteral(M1), None), "not a data expression: None"),
    # an operand that the value skips is compiled all the same
    (T.eval_cond, T.Or(TRUE, 5), "not a condition: 5"),
    (T.eval_cond, T.And(T.FALSE, 5), "not a condition: 5"),
    (T.eval_cond, T.Implies(T.FALSE, 5), "not a condition: 5"),
], ids=["int", "none", "cond", "upd-str", "apply1-int", "apply2-int", "cond-int",
        "cond-data", "not-none", "and-int", "implies-str", "prop-atom-int", "data-eq-none",
        "or-skipped-int", "and-skipped-int", "implies-skipped-int"])
def test_eval_error_messages_pinned(evaluate, e, message):
    with pytest.raises(ValueError) as info:
        evaluate(e, Valuation())
    assert type(info.value) is ValueError and str(info.value) == message


def test_ini_does_not_read_its_operand():
    # ini makes the same memory whatever it is applied to, so an operand that is
    # no data expression is no error (a data operand compiles only for what it reads)
    assert T.eval_data(T.Apply1(Ini(2), 5), None) == MemState({0: "01"})


def test_deep_chains_evaluate():
    # each condition and data level costs the evaluators one Python frame;
    # 900 levels stay inside the default recursion limit only if none adds a second
    conj, neg, upd = TRUE, TRUE, MemLiteral(EMPTY_MEM)
    for k in range(900):
        conj, neg, upd = T.And(conj, TRUE), T.Not(neg), T.Upd(upd, k % 5, "1")
    assert T.eval_cond(conj, Valuation()) is True
    assert T.eval_cond(neg, Valuation()) is True
    assert T.eval_data(upd, Valuation()) == MemState({i: "1" for i in range(5)})
