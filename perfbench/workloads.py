"""Seeded workloads for the ramproc benchmark, and the referees that judge
their answers.

A workload turns (seed, pass number) into a list of queries.  A query is a
call the timed loop makes (a `ramproc.cli.main` argv, or one bisimilarity
check) plus a judge that scores the call's result against an answer that
does not come from the pipeline under test: the direct interpreter, a
closed form, Python integers, or a law known to hold or to fail.

Generators take the imported library as `lib` (a namespace of
`ramproc.*` modules, plus `axiom_defs` for `law_equiv`) so that set-up can
be repeated with a fresh import each time.  Judges work on plain data only.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

CAP = 3000  # state cap of the criterion-4 corpus and of the doubling loop
BIG_CAP = 100000  # the CLI default, for the division loops and compositions
MARGIN = 50  # short programs this close to CAP are skipped as ambiguous

BIN = ("add", "sub", "and", "or")
UN = ("not", "shl", "shr", "mov")
CMP = ("eq", "gt", "beq")

DIV_PROGRAM = "mov:1:3\njmp:gt:2:3:6\nsub:3:2:3\nadd:0:#1:0\njmp:eq:#0:#0:2\nhalt\n"
DOUBLING_PROGRAM = "add:1:#1:1\nadd:1:1:1\njmp:eq:#0:#0:2\nhalt\n"
ADD_PROGRAM = "add:1:2:0\nhalt\n"
BROKEN_ADD_PROGRAM = "add:1:1:0\nhalt\n"
ORACLE_SCRIPT = """import sys

words = sys.stdin.readline().split()
total = sum(int(w[::-1], 2) for w in words if w != "e")
print(bin(total)[2:][::-1])
"""


@dataclass
class Query:
    """One timed call and its referee.

    `judge(result)` returns (correct verdicts, decided verdicts) out of
    `verdicts`.  `known_defect` names the exception type of a recorded
    defect that this query is expected to trip today.  `interp`, when set,
    re-runs the direct interpreter on the same input and returns its step
    count; the traced run times it for the interpreter floor.
    """

    kind: str
    call: Callable[[], object]
    judge: Callable[[object], tuple]
    verdicts: int = 1
    known_defect: str = ""
    interp: Callable[[], int] | None = None


@dataclass
class RefereeClock:
    """Time spent on referee work, which set-up time must not include."""

    seconds: float = 0.0
    cache: dict = field(default_factory=dict)


def bits(n: int) -> str:
    """LSB-first binary, as registers hold numbers."""
    return bin(n)[2:][::-1]


def value(w: str) -> int:
    """Numeric value of a register as the oracle reads it ('' or 'e' is 0)."""
    return int(w[::-1], 2) if w and w != "e" else 0


def cli_call(lib, argv):
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc = lib.cli.main(argv)
        return rc, out.getvalue()

    return call


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _referee(clock, key, compute):
    """Run referee work once per input, outside the set-up clock."""
    if key not in clock.cache:
        t0 = time.perf_counter()
        clock.cache[key] = compute()
        clock.seconds += time.perf_counter() - t0
    return clock.cache[key]


# ---------------------------------------------------------------------------
# Judges (plain data in, (correct, decided) out)

def judge_lines(expect_rc, expect_lines):
    """A `run` answer: the exit code and every expected output line."""

    def judge(result):
        rc, out = result
        lines = set(out.splitlines())
        ok = rc == expect_rc and all(line in lines for line in expect_lines)
        return int(ok), int(rc != 3)

    return judge


def judge_export(expect_lines, lts_path, states):
    """A halting `run --lts`: the printed answer and the exported graph."""
    inner = judge_lines(0, expect_lines)

    def judge(result):
        ok, decided = inner(result)
        if ok:
            with open(lts_path) as fh:
                g = json.load(fh)
            ok = (not g["exploded"] and len(g["states"]) == states
                  and len(g["transitions"]) == states - 1)
        return int(ok), decided

    return judge


def measure_closed_form(model, measure, n, m):
    """Closed forms for n straight-line components of m instructions each."""
    if measure in ("aputm", "sputm"):
        val = m + 1
    else:
        val = n * (m + 1)
    states = (m + 2) ** n if model == "apramp" else (m + 1) * 2 ** n + 1
    return val, states


def judge_measure(model, measure, n, m):
    val, states = measure_closed_form(model, measure, n, m)

    def judge(result):
        rc, out = result
        if rc != 0:
            return 0, int(rc != 3)
        try:
            report = json.loads(out)
        except ValueError:
            return 0, 1
        ok = (report.get("measure") == measure and report.get("value") == val
              and report.get("states") == states)
        if measure == "aputm":
            ok = ok and report.get("per_component") == {str(i): m + 1 for i in range(1, n + 1)}
        return int(ok), 1

    return judge


def par_run_lines(model, n, m):
    """`run` on a composition: halts, closed-form steps, RM = {i -> i}."""
    steps = n * (m + 1) + (m + 1 if model == "spramp" else 0)
    _, states = measure_closed_form(model, "apwm" if model == "apramp" else "spwm", n, m)
    shared = ", ".join("%d:%s" % (i, bits(i)) for i in range(1, n + 1)) if m else ""
    return [
        "halts: yes",
        "states: %d  transitions: %d" % (states, _par_transitions(model, n, m)),
        "steps (non-silent, longest run): %d" % steps,
        "final memory: RM = [%s]" % shared,
    ]


def _par_transitions(model, n, m):
    if model == "apramp":
        # each state offers one move per component that has not halted
        return n * (m + 1) * (m + 2) ** (n - 1)
    return (m + 1) * (n * 2 ** (n - 1) + 1)


def all_pairs(max_len):
    pool = [""]
    for ln in range(1, max_len + 1):
        pool += [format(k, "0%db" % ln)[::-1] for k in range(2 ** ln)]
    return [(a, b) for a in pool for b in pool]


def judge_check(correct_program, max_len):
    """`check` rows: the correct program passes all; the broken one fails
    exactly where its two arguments differ as numbers."""
    want = {}
    for a, b in all_pairs(max_len):
        bad = not correct_program and value(a) != value(b)
        want[(a or "e", b or "e")] = "fail" if bad else "pass"
    expect_rc = 0 if correct_program else 1

    def judge(result):
        rc, out = result
        got = {}
        for line in out.splitlines():
            if line.startswith("("):
                close = line.index(")")
                args = tuple(line[1:close].split(", "))
                got[args] = line[close + 1:].split()[4]
        correct = sum(got.get(k) == v for k, v in want.items())
        if rc != expect_rc or len(got) != len(want):
            correct = 0
        decided = sum(s != "undecided" for s in got.values())
        return correct, decided

    return judge


def judge_bool(expected):
    def judge(result):
        return int(result is expected), 1

    return judge


# ---------------------------------------------------------------------------
# seq_run

def _operand(rng):
    return rng.choice(["%d" % rng.randint(0, 3), "#%d" % rng.randint(0, 3)])


def random_program(rng):
    """Criterion-4 shape: up to 7 random instructions, then halt."""
    n = rng.randint(0, 7)
    lines = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.6:
            lines.append("%s:%s:%s:%d" % (rng.choice(BIN), _operand(rng), _operand(rng),
                                          rng.randint(0, 3)))
        elif roll < 0.75:
            lines.append("%s:%s:%d" % (rng.choice(UN), _operand(rng), rng.randint(0, 3)))
        else:
            lines.append("jmp:%s:%s:%s:%d" % (rng.choice(CMP), _operand(rng), _operand(rng),
                                              rng.randint(1, n + 1)))
    lines.append("halt")
    return "\n".join(lines) + "\n"


def random_mem(rng):
    return "".join("%d=%s\n" % (i, rng.choice(["e", "1", "01", "11", "101"]))
                   for i in range(rng.randint(0, 3)))


def _classify(lib, prog_text, mem_text, cap):
    """Referee for one short program: its class and the expected output.

    'halt' and 'cycle' are settled within `cap` states, 'cap' is not.  Runs
    within MARGIN of the cap, and runs whose registers grow too wide for
    the interpreter itself, get no class: there is no independent answer
    to judge them by.
    """
    m = lib.machines
    prog = m.parse_program(prog_text)
    sigma = lib.memory.MemState({int(i): "" if w == "e" else w
                                 for i, w in (line.split("=") for line in mem_text.split())})
    seen = set()
    pc = 1
    state = sigma
    try:
        while len(seen) <= cap + MARGIN:
            ins = prog.instrs[pc - 1]
            if isinstance(ins, m.Halt):
                break
            if (pc, state) in seen:
                break
            seen.add((pc, state))
            if isinstance(ins, m.Jmp):
                pc = ins.target if lib.ramops.apply_prop(ins.p, state) == 1 else pc + 1
            else:
                state = lib.ramops.apply_op(ins.o, state)
                pc += 1
        res = m.run_bbram(prog, sigma, cap + MARGIN)
    except RecursionError:
        return None, None
    steps = len(seen)
    if abs(steps - cap) <= MARGIN:
        return None, None
    if res.halted:
        return "halt", _halting_lines(lib, res)
    if steps > cap:
        return "cap", None
    return "cycle", None


def _halting_lines(lib, res):
    s = res.op_steps + res.jmp_steps
    return [
        "halts: yes",
        "states: %d  transitions: %d" % (s + 1, s),
        "steps (non-silent, longest run): %d" % s,
        "final memory: RM = %s" % lib.memory.format_mem(res.mem),
    ]


def _interp(lib, prog_path, mem_path, fuel):
    def run():
        with open(prog_path) as fh:
            prog = lib.machines.parse_program(fh.read())
        res = lib.machines.run_bbram(prog, lib.memory.load_mem_file(mem_path), fuel)
        return res.op_steps + res.jmp_steps

    return run


# Per pass: the random corpus keeps the criterion-4 mix of halting,
# looping and capped programs (about 87 : 13 : 0.2) at fixed counts, so
# that pass time does not depend on how many ~1 s cap hits a seed draws.
SEQ_HALTING = 1140
SEQ_CYCLING = 171
SEQ_CAPPED = 3
SEQ_EXPORT_EVERY = 10  # a halting short program at every tenth index also exports its LTS
# (dividend, divisor, export): the ROADMAP baseline rows, then eight seeded
# dividends with quotient 300 and a seeded divisor, so that each pass does
# the same work.  Ranked by latency, the failing doubling loop, the two
# ROADMAP rows, the three capped programs and the exporting quotient-300
# row come first; the tail (ten samples beyond it) is then the median of
# the seven plain quotient-300 rows, not the noisy maximum of the ~1,300
# short queries.
SEQ_DIV_ROWS = ((1000, 1, True), (3000, 1, False))
SEQ_DIV_QUOTIENTS = ((300, True),) + ((300, False),) * 7


def seq_run(lib, workdir, rng, clock):
    queries = []
    classes = {"halt": SEQ_HALTING, "cycle": SEQ_CYCLING, "cap": SEQ_CAPPED}
    mems = {}  # one file per distinct memory: the draw repeats small memories often
    k = 0
    while any(classes.values()):
        prog_text, mem_text = random_program(rng), random_mem(rng)
        cls, lines = _referee(clock, ("seq", prog_text, mem_text),
                              lambda: _classify(lib, prog_text, mem_text, CAP))
        if not classes.get(cls):
            continue
        classes[cls] -= 1
        prog = _write(os.path.join(workdir, "p%d.rp" % k), prog_text)
        if mem_text not in mems:
            mems[mem_text] = _write(os.path.join(workdir, "m%d.mem" % len(mems)), mem_text)
        mem = mems[mem_text]
        argv = ["run", prog, "--mem", "RM=" + mem, "--max-states", str(CAP)]
        if cls == "halt":
            s = int(lines[2].rsplit(" ", 1)[1])
            if k % SEQ_EXPORT_EVERY == 0:
                lts = os.path.join(workdir, "p%d.json" % k)
                judge = judge_export(lines, lts, s + 1)
                argv += ["--lts", lts]
            else:
                judge = judge_lines(0, lines)
            q = Query("short-halting", cli_call(lib, argv), judge,
                      interp=_interp(lib, prog, mem, CAP))
        elif cls == "cycle":
            q = Query("short-looping", cli_call(lib, argv), judge_lines(2, ["halts: no"]))
        else:
            q = Query("short-capped", cli_call(lib, argv),
                      judge_lines(3, ["undecided: exploration stopped at %d states" % CAP]))
        queries.append(q)
        k += 1

    div = os.path.join(workdir, "div.rp")
    _write(div, DIV_PROGRAM)
    rows = list(SEQ_DIV_ROWS)
    for quotient, export in SEQ_DIV_QUOTIENTS:
        d = rng.randint(2, 9)
        rows.append((quotient * d + rng.randrange(d), d, export))
    for j, (a, b, export) in enumerate(rows):
        mem = _write(os.path.join(workdir, "div%d.mem" % j), "1=%s\n2=%s\n" % (bits(a), bits(b)))
        lines = _referee(clock, ("div", a, b), lambda: _division_lines(lib, div, mem, a, b))
        argv = ["run", div, "--mem", "RM=" + mem, "--max-states", str(BIG_CAP)]
        s = int(lines[2].rsplit(" ", 1)[1])
        if export:
            lts = os.path.join(workdir, "div%d.json" % j)
            argv += ["--lts", lts]
            judge = judge_export(lines, lts, s + 1)
        else:
            judge = judge_lines(0, lines)
        queries.append(Query("division-loop", cli_call(lib, argv), judge,
                             interp=_interp(lib, div, mem, BIG_CAP)))

    # Known by construction never to halt; today the CLI dies on its
    # widening registers with RecursionError from bits.ntob.
    dbl = _write(os.path.join(workdir, "double.rp"), DOUBLING_PROGRAM)
    dmem = _write(os.path.join(workdir, "double.mem"), random_mem(rng))
    queries.append(Query(
        "doubling-loop",
        cli_call(lib, ["run", dbl, "--mem", "RM=" + dmem, "--max-states", str(CAP)]),
        judge_lines(3, ["undecided: exploration stopped at %d states" % CAP]),
        known_defect="RecursionError",
    ))
    rng.shuffle(queries)
    return queries


def _division_lines(lib, prog_path, mem_path, a, b):
    with open(prog_path) as fh:
        prog = lib.machines.parse_program(fh.read())
    res = lib.machines.run_bbram(prog, lib.memory.load_mem_file(mem_path), BIG_CAP)
    regs = dict(res.mem.items()) if res.halted else {}
    if regs.get(0) != bits(a // b) or value(regs.get(3, "")) != a % b:
        raise RuntimeError("interpreter and integer division disagree on %d / %d" % (a, b))
    return _halting_lines(lib, res)


# ---------------------------------------------------------------------------
# par_measure

def component(rng, m):
    """m straight-line instructions that keep register 0 (the component
    number after ini) intact, so component i writes only shared address i."""
    ops = []
    for _ in range(m):
        roll = rng.random()
        if roll < 0.5:
            ops.append("%s:%s:%s:%d" % (rng.choice(BIN), _operand(rng), _operand(rng),
                                        rng.randint(1, 3)))
        elif roll < 0.7:
            ops.append("%s:%s:%d" % (rng.choice(UN), _operand(rng), rng.randint(1, 3)))
        elif roll < 0.85:
            ops.append("loa:@0:%d" % rng.randint(1, 3))
        else:
            ops.append("sto:0:@0")
    if m:
        ops[rng.randrange(m)] = "sto:0:@0"
    return "\n".join(ops + ["halt"]) + "\n"


# (model, components, instructions per component, subcommands), in cost
# tiers.  The ROADMAP cases come first.  Five seeded apramp 3x4
# compositions (216 states) are a block of fifteen equal-cost queries that
# holds the tail (ten samples beyond it); ten spramp 3x4 compositions (41
# states) are a block of thirty that holds the median.  Order statistics
# that fall inside a block of equal-cost queries do not jump between cells
# from seed to seed.  Small cells cover 2, 4 and 5 components and m = 0-4.
PAR_CELLS = (
    ("apramp", 4, 5, ("aputm",)),
    ("spramp", 6, 5, ("spwm",)),
) + (("apramp", 3, 4, ("aputm", "apwm", "run")),) * 5 + (
    ("spramp", 4, 2, ("sputm", "spwm")),
    ("spramp", 5, 1, ("sputm", "spwm")),
) + (("spramp", 3, 4, ("sputm", "spwm", "run")),) * 10 + tuple(
    ("apramp", 2, m, ("aputm", "apwm")) for m in (0, 2, 3, 4)
) + tuple(
    ("spramp", 2, m, ("sputm", "spwm")) for m in (0, 4)
)


def par_measure(lib, workdir, rng, clock):
    queries = []
    for c, (model, n, m, subs) in enumerate(PAR_CELLS):
        files = [_write(os.path.join(workdir, "c%d_%d.rp" % (c, i)), component(rng, m))
                 for i in range(1, n + 1)]
        for sub in subs:
            if sub == "run":
                argv = ["run", *files, "--model", model, "--max-states", str(BIG_CAP)]
                queries.append(Query("%s-run" % model, cli_call(lib, argv),
                                     judge_lines(0, par_run_lines(model, n, m))))
            else:
                argv = ["measure", *files, "--model", model, "--measure", sub,
                        "--max-states", str(BIG_CAP)]
                queries.append(Query("%s-%s" % (model, sub), cli_call(lib, argv),
                                     judge_measure(model, sub, n, m)))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# check_oracle

CHECK_QUERIES = 26  # half on the correct program, half on the broken one
CHECK_MAX_LEN = 1  # 9 input pairs, so 9 oracle spawns per query


def check_oracle(lib, workdir, rng, clock):
    oracle = _write(os.path.join(workdir, "oracle.py"), ORACLE_SCRIPT)
    progs = {True: _write(os.path.join(workdir, "add.rp"), ADD_PROGRAM),
             False: _write(os.path.join(workdir, "broken.rp"), BROKEN_ADD_PROGRAM)}
    command = "%s %s" % (sys.executable, oracle)
    queries = []
    for j in range(CHECK_QUERIES):
        good = j % 2 == 0
        bound = "%d*n+%d" % (rng.randint(1, 3), rng.randint(1, 4))
        argv = ["check", progs[good], "--oracle", command, "--arity", "2",
                "--max-len", str(CHECK_MAX_LEN), "--bound", bound]
        queries.append(Query("check-" + ("add" if good else "broken"), cli_call(lib, argv),
                             judge_check(good, CHECK_MAX_LEN),
                             verdicts=len(all_pairs(CHECK_MAX_LEN))))
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# law_equiv

# Small passes, so that a run makes dozens of them: the tail (ten samples
# beyond it per pass, about p99.3) is then estimated from hundreds of
# samples rather than from the few largest instances one seed happens to draw.
LAW_INSTANCES = 20  # per law per pass
CONTROL_INSTANCES = 10  # per negative-control shape per pass
FRESH = ("x", "y", "z", "p", "q", "k")  # not in the law tables' names or GAMMA


def negative_controls(T, names):
    """Fixed shapes over distinct fresh actions that are not rooted
    branching bisimilar."""
    a, b, c = (T.Act(x) for x in names)
    return (
        (T.Seq(a, T.Alt(b, c)), T.Alt(T.Seq(a, b), T.Seq(a, c))),
        (T.Seq(T.TAU, a), a),
        (T.Alt(a, T.Seq(T.TAU, b)), T.Alt(a, b)),
        (T.Seq(a, T.Alt(T.Seq(T.TAU, b), c)), T.Seq(a, T.Alt(b, c))),
        (T.Par(a, b), T.Seq(a, b)),
        (T.Seq(a, T.DELTA), a),
    )


def _bisim_call(lib, lhs, rhs, gamma):
    def call():
        sem = lib.semantics
        return lib.bisim.rb_bisim(sem.build_lts(lhs, None, 2000, gamma=gamma),
                                  sem.build_lts(rhs, None, 2000, gamma=gamma))

    return call


def law_equiv(lib, workdir, rng, clock):
    ax = lib.axiom_defs
    queries = []
    for name in sorted(ax.AXIOMS):
        g = ax.Gen(rng.getrandbits(64))
        build = ax.AXIOMS[name]
        for _ in range(LAW_INSTANCES):
            lhs, rhs = build(g)
            queries.append(Query("law-" + name, _bisim_call(lib, lhs, rhs, ax.GAMMA),
                                 judge_bool(True)))
    for _ in range(CONTROL_INSTANCES):
        for lhs, rhs in negative_controls(lib.terms, rng.sample(FRESH, 3)):
            queries.append(Query("control", _bisim_call(lib, lhs, rhs, ax.GAMMA),
                                 judge_bool(False)))
    rng.shuffle(queries)
    return queries


WORKLOADS = {
    "seq_run": seq_run,
    "par_measure": par_measure,
    "check_oracle": check_oracle,
    "law_equiv": law_equiv,
}
