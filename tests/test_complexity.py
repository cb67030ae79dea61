import random

import pytest

from ramproc import complexity
from ramproc import terms as T
from ramproc.bits import ntob, num
from ramproc.complexity import (
    MEASURES,
    CheckRow,
    FunctionSpec,
    MeasureUndefinedError,
    all_inputs,
    aputm,
    apwm,
    check_computes,
    check_measure_class,
    format_check_table,
    input_valuation,
    is_of_complexity,
    parse_affine,
    sputm,
    spwm,
    sutm,
    swm,
)
from ramproc.machines import (
    BBRAM,
    SMBRAM,
    compose_async,
    compose_sync,
    parse_program,
    proc_of_bbram,
    proc_of_smbram_async,
    proc_of_smbram_sync,
    run_bbram,
)
from ramproc.memory import EMPTY_MEM, MemState
from ramproc.semantics import SemanticsError, build_lts, depth, eventually_halts
from ramproc.syntax import parse_term

import sample_terms
from test_machines import _random_program


def _rho_for(t, mem=EMPTY_MEM):
    env = {v: EMPTY_MEM for v in T.flexvars_term(t)}
    env["RM"] = mem
    return T.Valuation.make(env)


def test_sutm_examples():
    t = proc_of_bbram(parse_program("halt\n"))
    assert sutm(t, _rho_for(t)).value == 0
    t = proc_of_bbram(parse_program("add:#1:#1:0\nhalt\n"))
    assert sutm(t, _rho_for(t)).value == 1
    assert sutm(sample_terms.division_term(), sample_terms.division_valuation()).value == 8


def test_swm_equals_sutm():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(0, 4)
        lines = ["add:%d:#%d:%d" % (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2))
                 for _ in range(n)] + ["halt"]
        t = proc_of_bbram(parse_program("\n".join(lines) + "\n"))
        rho = _rho_for(t, MemState({0: "1", 1: "11"}))
        a = sutm(t, rho)
        b = swm(t, rho)
        assert a.value == b.value
        assert a.measure == "sutm" and b.measure == "swm"


def test_measure_undefined_on_nonhalting():
    t = proc_of_bbram(parse_program("jmp:eq:#0:#0:1\nhalt\n"))
    with pytest.raises(MeasureUndefinedError, match="does not eventually halt"):
        sutm(t, _rho_for(t))


def _async(programs):
    comps = [proc_of_smbram_async(i, parse_program(p, SMBRAM))
             for i, p in enumerate(programs, start=1)]
    return compose_async(comps)


def _sync(programs):
    comps = [proc_of_smbram_sync(i, parse_program(p, SMBRAM))
             for i, p in enumerate(programs, start=1)]
    return compose_sync(comps)


def test_aputm_apwm_examples():
    t = _async(["halt\n", "halt\n"])
    rho = _rho_for(t)
    assert aputm(t, rho).value == 1  # each component: just its ini step
    assert apwm(t, rho).value == 2  # both ini steps on every maximal trace

    three_one = _async(["add:1:1:1\nadd:1:1:1\nadd:1:1:1\nhalt\n", "add:2:2:2\nhalt\n"])
    rho = _rho_for(three_one)
    r = aputm(three_one, rho)
    assert r.value == 4
    assert r.per_component == ((1, 4), (2, 2))
    assert apwm(three_one, rho).value == 6

    single = _async(["add:1:1:1\nhalt\n"])
    rho1 = _rho_for(single)
    assert aputm(single, rho1).value == apwm(single, rho1).value == 2


def test_aputm_per_component_with_equal_store_labels():
    # both components store 1 to shared cell 0, so their store steps carry
    # equal labels that mention different components
    t = _async(["sto:#1:@1\nhalt\n", "sto:#1:@1\nhalt\n"])
    rho = _rho_for(t)
    l = build_lts(t, rho)
    stores = [lab for _, lab, _ in l.transitions if isinstance(lab, T.Assignment)
              and lab.var == "RM" and lab.value == MemState({0: "1"})]
    assert {lab.mentions for lab in stores} == {frozenset({"RM", "RM_1"}),
                                                 frozenset({"RM", "RM_2"})}
    want = tuple((i, depth(l, T.ActionSet.mentioning("RM_%d" % i).contains_label))
                 for i in (1, 2))
    assert want == ((1, 2), (2, 2))
    r = aputm(t, rho)
    assert r.per_component == want and r.value == 2


def test_aputm_le_apwm_random():
    rng = random.Random(9)
    for _ in range(25):
        progs = []
        for i in range(1, rng.randint(2, 4)):
            k = rng.randint(0, 2)
            ops = ["add:%d:%d:%d" % (i, i, i)] * k
            progs.append("\n".join(ops + ["halt"]) + "\n")
        t = _async(progs)
        rho = _rho_for(t)
        assert aputm(t, rho).value <= apwm(t, rho).value


def test_sputm_spwm_examples():
    t = _sync(["halt\n", "halt\n"])
    rho = _rho_for(t)
    assert sputm(t, rho).value == 1
    assert spwm(t, rho).value == 2

    t = _sync(["add:1:1:1\nhalt\n", "add:2:2:2\nhalt\n"])
    rho = _rho_for(t)
    assert sputm(t, rho).value == 2
    assert spwm(t, rho).value == 4

    t = _sync(["halt\n"])
    rho = _rho_for(t)
    assert sputm(t, rho).value == 1
    assert spwm(t, rho).value == 1


def test_sputm_spwm_closed_forms():
    # straight-line equal-length components: k ops then halt
    for deg in (1, 2, 3):
        for k in (0, 1, 2):
            progs = []
            for i in range(1, deg + 1):
                ops = ["add:%d:%d:%d" % (i, i, i)] * k
                progs.append("\n".join(ops + ["halt"]) + "\n")
            t = _sync(progs)
            rho = _rho_for(t)
            assert sputm(t, rho).value == k + 1
            assert spwm(t, rho).value == deg * (k + 1)


def test_sputm_matches_async_aputm():
    # with lockstep-compatible components the sync step count equals the
    # asynchronous per-component time
    rng = random.Random(14)
    for _ in range(10):
        deg = rng.randint(1, 2)
        k = rng.randint(0, 2)
        progs = []
        for i in range(1, deg + 1):
            ops = ["add:%d:#%d:%d" % (i, rng.randint(0, 2), i)] * k
            progs.append("\n".join(ops + ["halt"]) + "\n")
        ts, ta = _sync(progs), _async(progs)
        assert sputm(ts, _rho_for(ts)).value == aputm(ta, _rho_for(ta)).value


def test_measure_class_checks():
    t_ramp = proc_of_bbram(parse_program("halt\n"))
    t_sync = _sync(["halt\n"])
    check_measure_class("sutm", t_ramp)
    check_measure_class("sputm", t_sync)
    with pytest.raises(ValueError, match="requires"):
        check_measure_class("sputm", t_ramp)
    with pytest.raises(ValueError, match="requires"):
        check_measure_class("aputm", t_sync)
    assert sorted(MEASURES) == ["aputm", "apwm", "sputm", "spwm", "sutm", "swm"]


def test_all_inputs():
    got = all_inputs(1, 1)
    assert got == (("",), ("0",), ("1",))
    assert len(all_inputs(2, 1)) == 9
    assert len(all_inputs(2, 2)) == 49
    assert all_inputs(0, 3) == ((),)


def test_input_valuation():
    rho = input_valuation(("11", ""), ["RM", "d"])
    assert rho.get("RM") == MemState({1: "11"})
    assert rho.get("d") == EMPTY_MEM


def _add_oracle(args):
    total = sum(num(w) for w in args)
    return ntob(total)


def test_check_computes_addition():
    t = proc_of_bbram(parse_program(sample_terms.ADDITION_PROGRAM))
    f = FunctionSpec(2, _add_oracle, all_inputs(2, 2))
    v = check_computes(t, f, parse_affine("1"))
    assert v.all_pass
    assert all(r.steps == 1 for r in v.rows)

    broken = proc_of_bbram(parse_program(sample_terms.BROKEN_ADDITION_PROGRAM))
    v = check_computes(broken, f, parse_affine("1"))
    assert len(v.failures) >= 1
    assert any(r.note == "wrong result" for r in v.failures)


def test_check_computes_bound_violation():
    t = proc_of_bbram(parse_program(sample_terms.ADDITION_PROGRAM))
    f = FunctionSpec(2, _add_oracle, (("1", "1"),))
    v = check_computes(t, f, parse_affine("0"))
    assert v.failures and v.failures[0].note == "over the step bound"


def test_check_computes_undefined_and_looping():
    loop = proc_of_bbram(parse_program("jmp:eq:#0:#0:1\nhalt\n"))
    nowhere = FunctionSpec(1, lambda args: None, all_inputs(1, 1))
    assert check_computes(loop, nowhere).all_pass
    # halting where F is undefined is a failure
    halt = proc_of_bbram(parse_program("halt\n"))
    v = check_computes(halt, nowhere)
    assert all(r.note == "halts where the function is undefined" for r in v.rows)
    # and a defined F is not computed by a looping program
    ident = FunctionSpec(1, lambda args: args[0], (("1",),))
    v = check_computes(loop, ident)
    assert v.failures and v.failures[0].note == "does not halt"


def test_check_computes_register0_convention():
    halt = proc_of_bbram(parse_program("halt\n"))
    ident1 = FunctionSpec(1, lambda args: args[0], all_inputs(1, 1))
    v = check_computes(halt, ident1)
    # register 0 never written: only the empty-output input can pass
    assert [r.status for r in v.rows] == ["pass", "fail", "fail"]


def test_check_computes_oracle_error():
    def bad(args):
        raise RuntimeError("boom")

    t = proc_of_bbram(parse_program("halt\n"))
    v = check_computes(t, FunctionSpec(1, bad, (("1",),)))
    assert v.failures and "oracle error" in v.failures[0].note


def test_is_of_complexity():
    t = proc_of_bbram(parse_program(sample_terms.ADDITION_PROGRAM))
    f = FunctionSpec(2, _add_oracle, all_inputs(2, 2))
    v = is_of_complexity(t, f, parse_affine("1"), "sutm")
    assert v.all_pass
    v = is_of_complexity(t, f, parse_affine("0"), "sutm")
    assert v.failures and v.failures[0].note == "measure over the bound"
    with pytest.raises(ValueError, match="requires"):
        is_of_complexity(_sync(["halt\n"]), f, parse_affine("1"), "sutm")
    with pytest.raises(ValueError):
        is_of_complexity(t, f, parse_affine("1"), "nope")


def test_parse_affine():
    assert parse_affine("3*n+2")(5) == 17
    assert parse_affine("n+7")(1) == 8
    assert parse_affine("12")(100) == 12
    assert parse_affine("3*n")(4) == 12
    assert parse_affine("n")(4) == 4
    for bad in ("", "3*", "n*n", "2n+1", "a*n+b"):
        with pytest.raises(ValueError):
            parse_affine(bad)


def test_format_check_table():
    t = proc_of_bbram(parse_program(sample_terms.ADDITION_PROGRAM))
    f = FunctionSpec(2, _add_oracle, (("", "1"), ("1", "1")))
    table = format_check_table(check_computes(t, f, parse_affine("n+1")))
    lines = table.splitlines()
    assert lines[0].split() == ["input", "expected", "got", "steps", "bound", "status"]
    assert "(e, 1)" in lines[1] and "pass" in lines[1]


def test_measure_report_json():
    t = _async(["halt\n", "halt\n"])
    r = aputm(t, _rho_for(t))
    j = r.to_json()
    assert j["measure"] == "aputm" and j["value"] == 1
    assert j["per_component"] == {"1": 1, "2": 1}


@pytest.mark.parametrize("measure, programs", [
    ("sutm", None), ("swm", None),
    ("aputm", ["add:1:1:1\nadd:1:1:1\nhalt\n", "add:2:2:2\nhalt\n"]),
    ("apwm", ["add:1:1:1\nadd:1:1:1\nhalt\n", "add:2:2:2\nhalt\n"]),
    ("sputm", ["add:1:1:1\nhalt\n", "add:2:2:2\nhalt\n"]),
    ("spwm", ["add:1:1:1\nhalt\n", "add:2:2:2\nhalt\n"]),
])
def test_is_of_complexity_explores_each_input_once(monkeypatch, measure, programs):
    if programs is None:
        t, f = proc_of_bbram(parse_program(sample_terms.ADDITION_PROGRAM)), _add_oracle
    else:
        compose = _async if MEASURES[measure] in (aputm, apwm) else _sync
        t, f = compose(programs), lambda args: ""
    inputs = all_inputs(2, 1)
    extra = sorted(T.flexvars_term(t))
    values = [MEASURES[measure](t, input_valuation(args, extra)).value for args in inputs]
    explored = []
    real_build_lts = complexity.build_lts
    monkeypatch.setattr(complexity, "build_lts",
                        lambda *a, **k: explored.append(a[1]) or real_build_lts(*a, **k))
    v = is_of_complexity(t, FunctionSpec(2, f, inputs), parse_affine("2"), measure)
    assert len(explored) == len(inputs)
    assert [r.steps for r in v.rows] == values
    assert [r.status for r in v.rows] == ["pass" if x <= 2 else "fail" for x in values]


@pytest.mark.parametrize("measure", ["aputm", "apwm", "sputm", "spwm"])
def test_wrong_machine_raises_one_message(measure):
    # the measure, its class check and the checker agree on each other model's machine
    machines = {
        "ramp": proc_of_bbram(parse_program(sample_terms.ADDITION_PROGRAM)),
        "apramp": _async(["halt\n", "halt\n"]),
        "spramp": _sync(["halt\n", "halt\n"]),
    }
    model = complexity.MEASURE_TABLE[measure].model
    machine = {"apramp": "an interleaved", "spramp": "a lockstep"}[model]
    want = "measure %s requires %s parallel machine term" % (measure, machine)
    f = FunctionSpec(2, _add_oracle, all_inputs(2, 1))
    for t in (t for other, t in machines.items() if other != model):
        for call in (lambda: MEASURES[measure](t, _rho_for(t)),
                     lambda: check_measure_class(measure, t),
                     lambda: is_of_complexity(t, f, parse_affine("n"), measure)):
            with pytest.raises(ValueError) as e:
                call()
            assert str(e.value) == want


def test_is_of_complexity_table_pinned():
    t = proc_of_bbram(parse_program(sample_terms.ADDITION_PROGRAM))
    answers = {("1", "1"): "10", ("", "1"): None}  # a wrong answer, an undefined input
    f = FunctionSpec(2, lambda args: answers.get(args, _add_oracle(args)),
                     (("0", "11"), ("", ""), ("1", "1"), ("", "1")))
    assert format_check_table(is_of_complexity(t, f, parse_affine("n"), "sutm")) == """\
input                    expected     got             steps    bound  status
(0, 11)                  11           11                  1        3  pass
(e, e)                   0            0                   1        0  fail (measure over the bound)
(1, 1)                   10           01                  1        2  fail (wrong result)
(e, 1)                   -            1                   1        1  fail (halts where the function is undefined)"""


def test_check_steps_are_sequential_time():
    # the step count of `check_computes` is sutm, and bounding sutm with
    # `is_of_complexity` gives the same rows up to an over-bound row's note
    rng = random.Random(27)
    inputs = all_inputs(2, 2)
    progs = [parse_program(sample_terms.ADDITION_PROGRAM)]
    progs += [_random_program(rng, rng.randint(1, 5)) for _ in range(12)]
    seen = set()
    for prog in progs:
        t = proc_of_bbram(prog)
        extra = sorted(T.flexvars_term(t))
        answers = {}
        for args in inputs:
            run = run_bbram(prog, input_valuation(args).get("RM"), 200)
            answers[args] = run.mem.get(0) if run.halted else None
            roll = rng.random()
            if roll < 0.15:
                answers[args] = None
            elif roll < 0.3:
                answers[args] = (answers[args] or "") + "1"
        f = FunctionSpec(2, answers.get, inputs)
        bound = parse_affine(rng.choice(["0", "1", "n", "2*n+1"]))
        checked = check_computes(t, f, bound, max_states=2000)
        measured = is_of_complexity(t, f, bound, "sutm", max_states=2000)
        for r, m in zip(checked.rows, measured.rows, strict=True):
            if r.status == "pass" and r.expected is not None:
                assert r.steps == sutm(t, input_valuation(r.args, extra)).value
            seen.add(r.note or r.status)
            if r.note == "over the step bound":
                assert m.note == "measure over the bound"
                r = CheckRow(r.args, r.expected, r.got, r.steps, r.bound, r.status, m.note)
            assert m == r
    assert seen >= {"pass", "over the step bound", "wrong result", "does not halt",
                    "halts where the function is undefined"}


def _halving_loop(rng, load):
    """A program that halves register 1 until it is zero, with up to two
    more operators a round; with load set it first loads register 1 from
    RM[1], a component's input.  Its steps grow with the input."""
    pad = [rng.choice(["add:2:#1:2", "not:3:3", "mov:2:3"]) for _ in range(rng.randint(0, 2))]
    head = ["mov:#1:0", "loa:@0:1"] if load else []
    h = len(head)
    ops = head + ["jmp:eq:1:#0:%d" % (h + 4 + len(pad)), "shr:1:1", *pad,
                  "jmp:eq:#0:#0:%d" % (h + 1), "halt"]
    return parse_program("\n".join(ops) + "\n", SMBRAM if load else BBRAM)


@pytest.mark.parametrize("model, measures", [
    ("ramp", ("sutm", "swm")), ("apramp", ("aputm", "apwm")), ("spramp", ("sputm", "spwm")),
])
def test_worst_by_length_is_the_worst_per_input_measure(model, measures):
    # every row that halts carries its value, whether it passes or not, so
    # each length's worst case is the largest value a per-input call gives
    from test_machines import _compile_machine

    rng = random.Random(33)
    f = FunctionSpec(1, lambda args: "1", all_inputs(1, 2))
    valued = 0
    for _ in range(4):
        n = 1 if model == "ramp" else rng.randint(1, 3)
        t = _compile_machine(model, [_halving_loop(rng, model != "ramp") for _ in range(n)])
        extra = sorted(T.flexvars_term(t))
        for name in (None, *measures):
            if name is None:
                verdict = check_computes(t, f, max_states=3000)
            else:
                verdict = is_of_complexity(t, f, None, name, max_states=3000)
            values = {args: _value_or_none(name, t, input_valuation(args, extra))
                      for args in f.inputs}
            worst = complexity.worst_by_length(verdict)
            assert list(worst) == [0, 1, 2]
            for length, row in worst.items():
                mine = [args for args in f.inputs if sum(map(len, args)) == length
                        and values[args] is not None]
                if not mine:
                    assert row is None
                    continue
                top = max(values[args] for args in mine)
                assert row.steps == top and row.args == next(
                    args for args in mine if values[args] == top)
                valued += 1
    assert valued >= 18


def _value_or_none(name, t, rho):
    """measure `name` of t under rho, or its step count when name is None;
    None where it is undefined or undecided."""
    try:
        if name is not None:
            return MEASURES[name](t, rho, 3000).value
        l = build_lts(t, rho, 3000)
        return depth(l) if eventually_halts(l) else None
    except SemanticsError:
        return None
