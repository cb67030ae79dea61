import random

import pytest

from ramproc import terms as T
from ramproc.machines import (
    BBRAM,
    HALT,
    SMBRAM,
    Halt,
    Jmp,
    Op,
    Program,
    compose_async,
    compose_sync,
    format_program,
    parse_instr,
    parse_program,
    proc_of_bbram,
    proc_of_smbram_async,
    proc_of_smbram_sync,
    program_of_apramp,
    program_of_ramp,
    program_of_spramp,
    run_bbram,
    validate_apramp,
    validate_ramp,
    validate_spramp,
)
from ramproc.memory import EMPTY_MEM, MemState
from ramproc.ramops import BinOp, CmpOp, Dir, Imm, Ind, Ini, Load, Store, UnOp
from ramproc.semantics import build_lts, depth, eventually_halts, terminal_valuations
from ramproc.syntax import format_term, parse_term

import sample_terms

IMS = MemState({0: "11", 1: "1101", 6: "011"})


def test_parse_program():
    p = parse_program("halt\n")
    assert p.instrs == (HALT,)
    p = parse_program("jmp:eq:0:#0:1\nhalt\n")
    assert p.instrs[0] == Jmp(CmpOp("eq", Dir(0), Imm(0)), 1)
    assert p.instrs[1] == HALT
    with pytest.raises(ValueError, match="target 9 > length 2"):
        parse_program("jmp:eq:0:#0:9\nhalt\n")
    with pytest.raises(ValueError):
        parse_program("")
    with pytest.raises(ValueError, match="line 1"):
        parse_program("frobnicate\n")


def test_program_kind_checks():
    with pytest.raises(ValueError):
        parse_program("loa:@1:0\nhalt\n")  # shared ops need the shared kind
    parse_program("loa:@1:0\nhalt\n", SMBRAM)
    with pytest.raises(ValueError):
        Op(CmpOp("eq", Dir(0), Dir(1)))
    with pytest.raises(ValueError):
        Jmp(CmpOp("eq", Dir(0), Dir(1)), 0)


def test_instr_roundtrip():
    for line in ("halt", "add:#1:@2:0", "jmp:gt:1:#0:1", "mov:1:2"):
        assert format_program(Program((parse_instr(line),) if line == "halt"
                                      else (parse_instr(line), HALT))).splitlines()[0] == line


def test_proc_of_bbram_shapes():
    t = proc_of_bbram(parse_program("halt\n"))
    assert format_term(t) == "rec X1 {X1 = True :-> eps}"
    t = proc_of_bbram(parse_program("add:#1:#1:0\nhalt\n"))
    assert validate_ramp(t)
    eqs = t.spec.equations
    assert [n for n, _ in eqs] == ["X1", "X2"]
    assert eqs[1][1] == T.Guard(T.TRUE, T.EPS)
    with pytest.raises(ValueError, match="last instruction must be halt"):
        proc_of_bbram(Program((Op(BinOp("add", Dir(0), Dir(0), Dir(0))),)))
    with pytest.raises(ValueError):
        proc_of_bbram(parse_program("loa:@0:1\nhalt\n", SMBRAM))


def test_jmp_equation_shape():
    t = proc_of_bbram(parse_program("jmp:eq:0:#0:1\nhalt\n"))
    rhs = t.spec.rhs("X1")
    assert isinstance(rhs, T.Alt)
    taken, fall = rhs.l, rhs.r
    assert taken.cond == T.PropAtom(CmpOp("eq", Dir(0), Imm(0)), T.FlexVar("RM"), 1)
    assert taken.body.l == T.Assign("RM", T.FlexVar("RM"))
    assert taken.body.r == T.Var("X1")
    assert fall.cond.expected == 0
    assert fall.body.r == T.Var("X2")


def test_proc_of_smbram_async_shapes():
    t = proc_of_smbram_async(1, parse_program("halt\n", SMBRAM))
    assert t.var == "X1"
    eqs = dict(t.spec.equations)
    ini = eqs["X1"]
    assert ini.body.l == T.Assign("RM_1", T.Apply1(Ini(1), T.FlexVar("RM_1")))
    assert ini.body.r == T.Var("Y1")
    assert eqs["Y1"] == T.Guard(T.TRUE, T.EPS)

    t = proc_of_smbram_async(2, parse_program("sto:#1:@0\nhalt\n", SMBRAM))
    eqs = dict(t.spec.equations)
    store = eqs["Y1"]
    assert store.body.l.var == "RM"  # store writes the shared memory
    assert store.body.l.e == T.Apply2(Store(Imm(1), Ind(0)), T.FlexVar("RM_2"), T.FlexVar("RM"))
    load_t = proc_of_smbram_async(1, parse_program("loa:@0:1\nhalt\n", SMBRAM))
    eqs = dict(load_t.spec.equations)
    assert eqs["Y1"].body.l.var == "RM_1"  # load writes the private memory


def test_proc_of_smbram_sync_shapes():
    t = proc_of_smbram_sync(1, parse_program("halt\n", SMBRAM))
    eqs = dict(t.spec.equations)
    assert set(eqs) == {"X1", "Y1", "Y2"}
    assert eqs["Y1"] == T.Guard(T.TRUE, T.Seq(T.Act("sync"), T.Var("Y2")))
    assert eqs["Y2"] == T.Guard(T.TRUE, T.EPS)
    # jump at instruction 2 targeting 1 goes back to the sync step Y1
    t = proc_of_smbram_sync(1, parse_program("add:0:0:0\njmp:eq:#0:#0:1\nhalt\n", SMBRAM))
    eqs = dict(t.spec.equations)
    assert eqs["Y4"].l.body.r == T.Var("Y1")
    assert eqs["Y4"].r.body.r == T.Var("Y5")


def test_compiled_components_validate():
    progs = [parse_program("add:1:1:1\nhalt\n", SMBRAM),
             parse_program("loa:@0:2\nsto:2:@1\nhalt\n", SMBRAM)]
    ta = compose_async([proc_of_smbram_async(i, p) for i, p in enumerate(progs, 1)])
    assert validate_apramp(ta) == 2
    ts = compose_sync([proc_of_smbram_sync(i, p) for i, p in enumerate(progs, 1)])
    assert validate_spramp(ts) == 2


def test_program_of_ramp():
    assert program_of_ramp(parse_term("rec X1 {X1 = True :-> eps}")).instrs == (HALT,)
    src = sample_terms.DIVISION_PROGRAM
    t = proc_of_bbram(parse_program(src))
    assert format_program(program_of_ramp(t)) == src
    with pytest.raises(ValueError, match="not a sequential-machine term"):
        program_of_ramp(T.EPS)
    with pytest.raises(ValueError):
        program_of_ramp(parse_term("rec X1 {X1 = True :-> a . X1}"))


def _random_program(rng, n_ops):
    instrs = []
    for i in range(n_ops):
        roll = rng.random()
        r = lambda: rng.choice([Dir(rng.randint(0, 3)), Imm(rng.randint(0, 3))])
        if roll < 0.6:
            name = rng.choice(["add", "sub", "and", "or"])
            instrs.append(Op(BinOp(name, r(), r(), Dir(rng.randint(0, 3)))))
        elif roll < 0.75:
            name = rng.choice(["not", "shl", "shr", "mov"])
            instrs.append(Op(UnOp(name, r(), Dir(rng.randint(0, 3)))))
        else:
            p = CmpOp(rng.choice(["eq", "gt", "beq"]), r(), r())
            instrs.append(Jmp(p, rng.randint(1, n_ops + 1)))
    instrs.append(HALT)
    return Program(tuple(instrs))


def _random_mem(rng):
    return MemState({i: rng.choice(["", "1", "01", "11", "101"])
                     for i in range(rng.randint(0, 3))})


def _random_shared_program(rng, n_ops):
    """A `_random_program` with about a third of its operators replaced by
    loads and stores."""
    instrs = []
    for ins in _random_program(rng, n_ops).instrs:
        if isinstance(ins, Op) and rng.random() < 0.35:
            a, b = Ind(rng.randint(0, 3)), Dir(rng.randint(0, 3))
            ins = Op(Load(a, b) if rng.random() < 0.5 else Store(b, a))
        instrs.append(ins)
    return Program(tuple(instrs), SMBRAM)


def _random_programs(rng, model):
    if model == "ramp":
        return (_random_program(rng, rng.randint(0, 6)),)
    return tuple(_random_shared_program(rng, rng.randint(0, 4)) for _ in range(rng.randint(1, 3)))


_INVERSES = {
    "ramp": lambda t: (program_of_ramp(t),),
    "apramp": program_of_apramp,
    "spramp": program_of_spramp,
}


def _compile_machine(model, progs):
    if model == "ramp":
        return proc_of_bbram(progs[0])
    if model == "apramp":
        return compose_async([proc_of_smbram_async(i, p) for i, p in enumerate(progs, 1)])
    return compose_sync([proc_of_smbram_sync(i, p) for i, p in enumerate(progs, 1)])


def _components(model, t):
    return list(T.flatten(t, T.SyncMerge if model == "spramp" else T.Par))


def test_bijection_random_smoke():
    rng = random.Random(42)
    for _ in range(150):
        prog = _random_program(rng, rng.randint(0, 6))
        t = proc_of_bbram(prog)
        assert validate_ramp(t)
        assert program_of_ramp(t) == prog
        # and the other direction, modulo canonical names
        assert T.canonical_rename(proc_of_bbram(program_of_ramp(t))) == T.canonical_rename(t)
    for model in ("apramp", "spramp"):
        for _ in range(60):
            progs = _random_programs(rng, model)
            t = _compile_machine(model, progs)
            assert _INVERSES[model](t) == progs
            # under fresh equation names, the inverse still reads the programs
            names = sorted({n for c in _components(model, t) for n in c.spec.vars()})
            fresh = ["Q%d" % k for k in range(len(names))]
            rng.shuffle(fresh)
            renamed = T.rename_rec_vars(t, dict(zip(names, fresh)))
            assert _INVERSES[model](renamed) == progs
            assert T.canonical_rename(_compile_machine(model, progs)) == T.canonical_rename(renamed)


def _edit(rng, t, pred, f):
    """t with one process-term node that satisfies pred, chosen at random,
    replaced by f(node); t itself when there is none."""
    spots = [0]

    def count(u):
        spots[0] += bool(pred(u))
        for c in T.children(u):
            count(c)

    count(t)
    if not spots[0]:
        return t
    left = [rng.randrange(spots[0])]

    def go(u):
        if pred(u):
            left[0] -= 1
            if left[0] == -1:
                return f(u)
        return T.with_children(u, [go(c) for c in T.children(u)])

    return go(t)


def _mutate_component(rng, c, kinds):
    """One seeded edit of a compiled component: swap, delete, insert or
    retarget equations, swap a jump's summands, flip a test bit, or change
    the ini step's number or memory."""
    eqs = list(c.spec.equations)
    names = [n for n, _ in eqs]
    k = rng.randrange(len(eqs))
    name, rhs = eqs[k]
    kind = rng.choice(kinds)
    if kind == "swap":
        j = rng.randrange(len(eqs))
        eqs[k], eqs[j] = eqs[j], eqs[k]
    elif kind == "delete" and name != c.var:
        del eqs[k]
    elif kind == "insert":
        eqs.insert(rng.randrange(len(eqs) + 1), ("Z", rng.choice(eqs)[1]))
    elif kind == "retarget":
        eqs[k] = (name, _edit(rng, rhs, lambda u: isinstance(u, T.Var),
                              lambda u: T.Var(rng.choice(names))))
    elif kind == "alt":
        eqs[k] = (name, _edit(rng, rhs, lambda u: isinstance(u, T.Alt),
                              lambda u: T.Alt(u.r, u.l)))
    elif kind == "bit":
        eqs[k] = (name, _edit(rng, rhs, lambda u: isinstance(u, T.Guard)
                              and isinstance(u.cond, T.PropAtom),
                              lambda u: T.Guard(T.PropAtom(u.cond.p, u.cond.e,
                                                           1 - u.cond.expected), u.body)))
    elif kind == "number":
        root, ini = eqs[0][1], eqs[0][1].body.l
        i = ini.e.op.i
        other = "RM_%d" % rng.choice([i - 1, i + 1])
        ini = rng.choice([T.Assign(ini.var, T.Apply1(Ini(i + 1), ini.e.e)),
                          T.Assign(other, ini.e),
                          T.Assign(ini.var, T.Apply1(ini.e.op, T.FlexVar(other)))])
        eqs[0] = (eqs[0][0], T.Guard(root.cond, T.Seq(ini, root.body.r)))
    return T.Rec(c.var, T.RecSpec(tuple(eqs)))


def _mutant(rng, model, progs):
    """A compiled machine term with one component edited once."""
    comps = _components(model, _compile_machine(model, progs))
    kinds = ("swap", "delete", "insert", "retarget", "alt", "bit")
    k = rng.randrange(len(comps))
    comps[k] = _mutate_component(rng, comps[k], kinds + (() if model == "ramp" else ("number",)))
    if model == "ramp":
        return comps[0]
    return (compose_async if model == "apramp" else compose_sync)(comps)


def _read_back(model, t):
    """The programs t reads as under canonical equation names (V1, V2, ...
    in declaration order), or None: operators from assignments, a jump's
    comparison and target from its summand tested against 1, halt from a
    bare success."""
    stride = 2 if model == "spramp" else 1
    skip = 0 if model == "ramp" else 1  # the ini equation
    progs = []
    for c in _components(model, t):
        if not isinstance(c, T.Rec):
            return None
        eqs = T.canonical_rename(c).spec.equations
        instrs = []
        for _, rhs in eqs[skip + stride - 1::stride]:
            taken = [s for s in T.flatten(rhs, T.Alt) if isinstance(s, T.Guard)
                     and isinstance(s.cond, T.PropAtom) and s.cond.expected == 1
                     and isinstance(s.body, T.Seq) and isinstance(s.body.r, T.Var)]
            try:
                if rhs == T.Guard(T.TRUE, T.EPS):
                    instrs.append(HALT)
                elif taken:
                    pos = int(taken[0].body.r.name[1:]) - 1 - skip
                    if pos % stride:
                        return None
                    instrs.append(Jmp(taken[0].cond.p, pos // stride + 1))
                else:
                    instrs.append(Op(rhs.body.l.e.op))
            except (AttributeError, ValueError):
                return None
        try:
            progs.append(Program(tuple(instrs), BBRAM if model == "ramp" else SMBRAM))
        except ValueError:
            return None
    return tuple(progs)


def _accepts(model, t):
    try:
        return bool(_INVERSES[model](t))
    except ValueError:
        return False


@pytest.mark.parametrize("model", ["ramp", "apramp", "spramp"])
def test_validators_accept_exactly_recompiling_terms(model):
    rng = random.Random(77)
    validate = {"ramp": validate_ramp, "apramp": validate_apramp, "spramp": validate_spramp}[model]
    accepted = 0
    for _ in range(300):
        try:
            t = _mutant(rng, model, _random_programs(rng, model))
        except ValueError as err:
            # deleting an equation that is jumped to leaves a free recursion
            # variable, which no spec accepts: a term refused at construction
            assert str(err).startswith("free recursion variable "), err
            continue
        try:
            verdict = bool(validate(t))
        except ValueError:
            verdict = False
        assert verdict == _accepts(model, t)
        if verdict:
            accepted += 1
            recompiled = _compile_machine(model, _INVERSES[model](t))
            assert T.canonical_rename(recompiled) == T.canonical_rename(t)
        # the converse, through a reader that knows no equation names
        progs = _read_back(model, t)
        try:
            recompiles = (progs is not None and T.canonical_rename(_compile_machine(model, progs))
                          == T.canonical_rename(t))
        except ValueError:
            recompiles = False
        assert recompiles == verdict, T.canonical_rename(t)
    assert 20 < accepted < 280


def _reparsed(t):
    """An equal copy of t read back from its text, which keeps nothing the
    compiler recorded."""
    return parse_term(format_term(t))


def _outcome(f, t):
    try:
        return f(t)
    except ValueError as e:
        return "ValueError: %s" % e


_READERS = {
    "ramp": (program_of_ramp, validate_ramp),
    "apramp": (program_of_apramp, validate_apramp),
    "spramp": (program_of_spramp, validate_spramp),
}
_ALL_READERS = [f for fs in _READERS.values() for f in fs]


@pytest.mark.parametrize("model", ["ramp", "apramp", "spramp"])
def test_kept_decode_matches_reading_the_text(model):
    # every reader answers a compiler output as it answers a parsed copy,
    # the other models' readers included
    rng = random.Random(2330)
    for _ in range(80):
        t = _compile_machine(model, _random_programs(rng, model))
        copy = _reparsed(t)
        assert copy == t
        for f in _ALL_READERS:
            assert _outcome(f, t) == _outcome(f, copy), f.__name__


@pytest.mark.parametrize("model", ["ramp", "apramp", "spramp"])
def test_kept_decode_mutant_sweep_matches_reading_the_text(model):
    # the seed and draws of `test_validators_accept_exactly_recompiling_terms`:
    # its mutants keep their unedited components' compiled specs
    rng = random.Random(77)
    for _ in range(300):
        try:
            t = _mutant(rng, model, _random_programs(rng, model))
        except ValueError:
            continue
        copy = _reparsed(t)
        for f in _READERS[model]:
            assert _outcome(f, t) == _outcome(f, copy), format_term(t)


def _nodes(t):
    """The process-term nodes of t in a fixed order, spec right-hand sides
    included."""
    found, todo = [], [t]
    while todo:
        u = todo.pop()
        found.append(u)
        todo += T.children(u)
    return found


@pytest.mark.parametrize("model", ["ramp", "apramp", "spramp"])
def test_kept_read_sets_match_walking_the_text(model):
    # the seed and draws of the mutant sweep: each compiled machine and its
    # mutant keep, on every assignment and spec the compiler built, what
    # `flexvars_term` walks from a parsed copy, and explore to the same
    # assignment labels, mentions (which aputm counts) included
    rng = random.Random(77)
    kept = 0
    for k in range(300):
        progs = _random_programs(rng, model)
        machines = [_compile_machine(model, progs)]
        try:
            machines.append(_mutant(rng, model, progs))
        except ValueError:
            pass
        for t in machines:
            copy = _reparsed(t)
            for u, v in zip(_nodes(t), _nodes(copy), strict=True):
                got = (u._flexvars if type(u) is T.Assign else
                       u.spec._flexvars if type(u) is T.Rec else None)
                if got is not None:
                    kept += 1
                    assert got == T.flexvars_term(v), format_term(t)
        if k < 40:
            t, copy = machines[0], _reparsed(machines[0])
            rho = T.Valuation.make({x: EMPTY_MEM for x in T.flexvars_term(copy)})
            assert [(lab, getattr(lab, "mentions", None))
                    for _, lab, _ in build_lts(t, rho, 60).transitions] == [
                (lab, getattr(lab, "mentions", None))
                for _, lab, _ in build_lts(copy, rho, 60).transitions]
    assert kept > 1500


@pytest.mark.parametrize("compile_one, compose, inverse", [
    (proc_of_smbram_async, compose_async, program_of_apramp),
    (proc_of_smbram_sync, compose_sync, program_of_spramp),
])
def test_kept_decode_rejects_misplaced_components(compile_one, compose, inverse):
    p = parse_program("add:1:1:1\njmp:eq:#0:#0:1\nhalt\n", SMBRAM)
    c1, c2 = compile_one(1, p), compile_one(2, p)
    assert inverse(compose([c1, c2])) == (p, p)
    for t in (c2, compose([c2, c1])):  # compiled as number 2, placed first
        with pytest.raises(ValueError, match="^equation X2 is not what its instruction"
                                             " compiles to$"):
            inverse(t)
    second = c2.spec.equations[1][0]
    with pytest.raises(ValueError, match="^the term starts at %s, not at its first "
                                         "equation$" % second):
        inverse(compose([c1, T.Rec(second, c2.spec)]))
    with pytest.raises(ValueError, match="^equation Y1 is not what its instruction compiles to$"):
        # compiled with the other model's handshakes
        (program_of_spramp if inverse is program_of_apramp else program_of_apramp)(c1)


def test_kept_decode_rejects_a_sequential_machine_entered_late():
    t = proc_of_bbram(parse_program("add:1:1:1\nhalt\n"))
    late = T.Rec("X2", t.spec)
    assert not validate_ramp(late)
    with pytest.raises(ValueError, match="^not a sequential-machine term: the term starts at X2,"
                                         " not at its first equation$"):
        program_of_ramp(late)
    with pytest.raises(ValueError, match="^not a sequential-machine term: equation X1 is not"):
        program_of_ramp(proc_of_smbram_async(1, parse_program("halt\n", SMBRAM)))


def test_run_bbram():
    res = run_bbram(parse_program("halt\n"), IMS, 10)
    assert res.halted and res.mem == IMS and res.op_steps == 0

    res = run_bbram(parse_program("add:#1:#1:0\nhalt\n"), EMPTY_MEM, 10)
    assert res.halted and res.mem == MemState({0: "01"})
    res = run_bbram(parse_program("add:#1:#1:0\nhalt\n"), IMS, 10)
    assert res.mem == MemState({0: "01", 1: "1101", 6: "011"})

    res = run_bbram(Program((Jmp(CmpOp("eq", Imm(0), Imm(0)), 1),)), IMS, 100)
    assert not res.halted and res.mem is None
    assert res.jmp_steps == 100


def test_oracle_equivalence_smoke():
    rng = random.Random(20260826)
    checked = 0
    for _ in range(120):
        prog = _random_program(rng, rng.randint(0, 5))
        sigma = _random_mem(rng)
        res = run_bbram(prog, sigma, 200)
        t = proc_of_bbram(prog)
        l = build_lts(t, T.Valuation.make({"RM": sigma}), max_states=3000)
        if l.exploded:
            assert not res.halted
            continue
        halts = eventually_halts(l)
        assert halts == res.halted
        if halts:
            vals = terminal_valuations(l)
            mems = {v.get("RM") for v in vals}
            assert mems == {res.mem}
            assert depth(l) == res.op_steps + res.jmp_steps
            checked += 1
    assert checked > 30
