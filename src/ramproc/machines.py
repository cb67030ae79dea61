"""Register-machine programs and their process-term translations.

A program is a nonempty instruction list: operator applications, conditional
jumps (1-based targets), and halt.  The basic kind runs over one memory; the
shared-memory kind adds load/store and runs any number of numbered copies
against a common memory.  Each compiler emits one recursion equation per
instruction (the synchronous one: a handshake equation plus a work equation),
so control positions and equations correspond one to one.  The machine terms
are exactly the compilers' outputs up to equation names: the inverse reads a
program from a term and accepts the term only if that program compiles back
to it.
"""

from __future__ import annotations

from functools import reduce
from itertools import zip_longest

from . import ramops
from . import terms as T
from .bits import parse_nat
from .memory import MemState
from .nodes import node
from .ramops import BinOp, CmpOp, Ini, Load, Store, UnOp, compile_op, compile_prop


@node
class Op:
    o: object

    def __post_init__(self):
        if isinstance(self.o, CmpOp):
            raise ValueError("comparison outside jmp")
        if isinstance(self.o, Ini):
            raise ValueError("ini is not a program instruction")
        if not isinstance(self.o, (BinOp, UnOp, Load, Store)):
            raise ValueError("not an instruction operator: %r" % (self.o,))


@node
class Jmp:
    p: CmpOp
    target: int

    def __post_init__(self):
        if not isinstance(self.p, CmpOp):
            raise ValueError("jmp takes a comparison")
        if self.target < 1:
            raise ValueError("jump targets are 1-based")


@node
class Halt:
    pass


HALT = Halt()

BBRAM = "bbram"
SMBRAM = "smbram"


@node
class Program:
    instrs: tuple
    kind: str = BBRAM

    def __post_init__(self):
        if self.kind not in (BBRAM, SMBRAM):
            raise ValueError("unknown machine kind %r" % (self.kind,))
        if not self.instrs:
            raise ValueError("empty program")
        for k, ins in enumerate(self.instrs, start=1):
            if isinstance(ins, Jmp):
                if ins.target > len(self.instrs):
                    raise ValueError(
                        "line %d: target %d > length %d" % (k, ins.target, len(self.instrs))
                    )
            elif isinstance(ins, Op):
                if self.kind == BBRAM and isinstance(ins.o, (Load, Store)):
                    raise ValueError("line %d: load/store needs the shared-memory kind" % (k,))
            elif not isinstance(ins, Halt):
                raise ValueError("line %d: not an instruction: %r" % (k, ins))

    def __len__(self):
        return len(self.instrs)


def format_instr(ins) -> str:
    if isinstance(ins, Halt):
        return "halt"
    if isinstance(ins, Jmp):
        return "jmp:%s:%d" % (ramops.format_op(ins.p), ins.target)
    return ramops.format_op(ins.o)


def parse_instr(line: str):
    line = line.strip()
    if line == "halt":
        return HALT
    if line.startswith("jmp:"):
        parts = line.split(":")
        if len(parts) != 5:
            raise ValueError("jmp takes a two-operand comparison and a target")
        p = ramops.parse_op(":".join(parts[1:4]))
        return Jmp(p, parse_nat(parts[4]))
    o = ramops.parse_op(line)
    if isinstance(o, CmpOp):
        raise ValueError("comparison outside jmp")
    return Op(o)


def parse_program(text: str, kind: str = BBRAM) -> Program:
    instrs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            instrs.append(parse_instr(line))
        except ValueError as e:
            raise ValueError("line %d: %s" % (lineno, e)) from None
    return Program(tuple(instrs), kind)


def format_program(prog: Program) -> str:
    return "\n".join(format_instr(i) for i in prog.instrs) + "\n"


# ---------------------------------------------------------------------------
# Compilers
#
# `_compile` is the one definition of the machine shapes.  The compilers call
# it with fixed equation names and the inverse with the names of the term it
# reads, so a machine term is exactly a compiler output up to equation names.

def memory_name(number=None) -> str:
    """RM, the memory of a sequential machine, or component number's RM_number."""
    return "RM" if number is None else "RM_%d" % number


def _op_equation(o, memvar: str, nxt: str):
    if isinstance(o, (Load, Store)):
        e = T.Apply2(o, T.FlexVar(memvar), T.FlexVar("RM"))
    else:
        e = T.Apply1(o, T.FlexVar(memvar))
    target = "RM" if isinstance(o, Store) else memvar
    return T.Guard(T.TRUE, T.Seq(T.Assign(target, e), T.Var(nxt)))


def _jmp_equation(p, memvar: str, taken: str, fallthrough: str):
    self_step = T.Assign(memvar, T.FlexVar(memvar))
    return T.Alt(
        T.Guard(T.PropAtom(p, T.FlexVar(memvar), 1), T.Seq(self_step, T.Var(taken))),
        T.Guard(T.PropAtom(p, T.FlexVar(memvar), 0), T.Seq(self_step, T.Var(fallthrough))),
    )


def _compile(prog: Program, name, number=None, handshakes: bool = False):
    """The recursion constant `prog` compiles to, equation k named name(k).

    Without a component number the machine runs over memory RM, and
    instruction j is equation j.  Component i runs over its private memory
    RM_i and starts at equation 0, the step RM_i := ini_i(RM_i).  With
    handshakes, instruction j is instead a sync equation 2j-1 followed by
    its work equation 2j, and control (fall-through and jumps alike) enters
    at the sync equation.
    """
    if not isinstance(prog.instrs[-1], Halt):
        raise ValueError("last instruction must be halt: control would run past the end")
    stride = 2 if handshakes else 1
    memvar = memory_name(number)

    def entry(j):
        return name(stride * (j - 1) + 1)

    eqs = []
    if number is not None:
        ini = T.Assign(memvar, T.Apply1(Ini(number), T.FlexVar(memvar)))
        eqs.append((name(0), T.Guard(T.TRUE, T.Seq(ini, T.Var(entry(1))))))
    for j, ins in enumerate(prog.instrs, start=1):
        work = name(stride * j)
        if handshakes:
            eqs.append((entry(j), T.Guard(T.TRUE, T.Seq(T.Act("sync"), T.Var(work)))))
        if isinstance(ins, Halt):
            eqs.append((work, T.Guard(T.TRUE, T.EPS)))
        elif isinstance(ins, Jmp):
            eqs.append((work, _jmp_equation(ins.p, memvar, entry(ins.target), entry(j + 1))))
        else:
            eqs.append((work, _op_equation(ins.o, memvar, entry(j + 1))))
    spec = T.RecSpec(tuple(eqs))
    object.__setattr__(spec, "_decoded", (number, handshakes, prog))
    return T.Rec(eqs[0][0], spec)


def proc_of_bbram(prog: Program):
    """One equation per instruction over memory RM, starting at the first."""
    if prog.kind != BBRAM:
        raise ValueError("expected a basic program")
    return _compile(prog, lambda k: "X%d" % k)


def _component(i: int, prog: Program, handshakes: bool):
    if prog.kind != SMBRAM:
        raise ValueError("expected a shared-memory program")
    if i < 1:
        raise ValueError("component numbers start at 1")
    root = "X%d" % i
    return _compile(prog, lambda k: "Y%d" % k if k else root, i, handshakes)


def proc_of_smbram_async(i: int, prog: Program):
    """Component i of an interleaved shared-memory machine: an ini step on
    the private memory RM_i, then one equation per instruction."""
    return _component(i, prog, handshakes=False)


def proc_of_smbram_sync(i: int, prog: Program):
    """Component i of a lockstep shared-memory machine: each instruction gets
    a handshake equation followed by its work equation; jumps land on the
    target's handshake."""
    return _component(i, prog, handshakes=True)


def _compose(node, components):
    components = tuple(components)
    if not components:
        raise ValueError("no components")
    return reduce(node, components)


def compose_async(components):
    """Left-nested interleaving of compiled components."""
    return _compose(T.Par, components)


def compose_sync(components):
    """Left-nested synchronizing merge of compiled components."""
    return _compose(T.SyncMerge, components)


# ---------------------------------------------------------------------------
# Inverse extraction and machine-shape validation

RAMP, APRAMP, SPRAMP = "ramp", "apramp", "spramp"  # the machine-term models


def _read_instr(rhs, entries, ops):
    """The instruction an equation reads as: its operator, or its comparison
    and the entry equation (in `entries`) its bit-1 summand jumps to; else halt."""
    match rhs:
        case T.Alt(T.Guard(T.PropAtom(p), T.Seq(_, T.Var(target)))) if target in entries:
            return Jmp(p, entries[target])
        case T.Guard(_, T.Seq(T.Assign(_, T.Apply1(o) | T.Apply2(o)))) if isinstance(o, ops):
            return Op(o)
    return HALT


def _decode(t, number=None, handshakes: bool = False) -> Program:
    """The program t is compiled from, as a sequential machine (number None)
    or as component `number` of a parallel one (see `_compile`).

    Each instruction is read from its equation alone; the program is then
    compiled again under t's own equation names.  Raises ValueError naming
    the first equation that is not what its instruction compiles to.  A spec
    `_compile` built, entered at its first equation and read with its number
    and handshakes, gives its kept program at once: nodes are immutable.
    """
    if not isinstance(t, T.Rec):
        raise ValueError("not a recursion constant")
    eqs = t.spec.equations
    kept = t.spec._decoded
    if kept is not None and kept[:2] == (number, handshakes) and t.var == eqs[0][0]:
        return kept[2]
    names = [n for n, _ in eqs]
    first = 1 if number is None else 0  # the number of the first equation
    stride = 2 if handshakes else 1
    n = (len(eqs) + first - 1) // stride
    if n == 0:
        raise ValueError("equation %s is not what its instruction compiles to" % names[-1])

    def name(k):
        return names[k - first]

    entries = {name(stride * (j - 1) + 1): j for j in range(1, n + 1)}
    ops = (BinOp, UnOp) if number is None else (BinOp, UnOp, Load, Store)
    instrs = [_read_instr(eqs[stride * j - first][1], entries, ops) for j in range(1, n)]
    # the last instruction can only be halt: any other falls through past the end
    prog = Program(tuple(instrs) + (HALT,), BBRAM if number is None else SMBRAM)
    compiled = _compile(prog, name, number, handshakes)
    for k, (got, want) in enumerate(zip_longest(eqs, compiled.spec.equations)):
        if got != want:
            raise ValueError("equation %s is not what its instruction compiles to"
                             % names[min(k, len(names) - 1)])
    if t.var != compiled.var:
        raise ValueError("the term starts at %s, not at its first equation" % t.var)
    return prog


def program_of_ramp(t) -> Program:
    """Recover the program a sequential-machine term was compiled from.

    Equation order gives instruction order, and compiling the result yields
    the input back up to consistent renaming of the equation variables.
    """
    try:
        return _decode(t)
    except ValueError as e:
        raise ValueError("not a sequential-machine term: %s" % e) from None


def program_of_apramp(t) -> tuple:
    """The component programs, in order, of an interleaving composition of
    components compiled by `proc_of_smbram_async` and numbered 1..n."""
    return tuple(_decode(c, i) for i, c in enumerate(T.flatten(t, T.Par), start=1))


def program_of_spramp(t) -> tuple:
    """The component programs, in order, of a synchronizing composition of
    components compiled by `proc_of_smbram_sync` and numbered 1..n."""
    return tuple(_decode(c, i, True) for i, c in enumerate(T.flatten(t, T.SyncMerge), start=1))


def validate_ramp(t) -> bool:
    """Whether t is a sequential-machine term: a `proc_of_bbram` output up
    to equation names."""
    try:
        _decode(t)
    except ValueError:
        return False
    return True


def validate_apramp(t) -> int:
    """The component count of a `program_of_apramp` term; else ValueError."""
    return len(program_of_apramp(t))


def validate_spramp(t) -> int:
    """The component count of a `program_of_spramp` term; else ValueError."""
    return len(program_of_spramp(t))


# ---------------------------------------------------------------------------
# Direct interpreter (independent of the process semantics)

@node
class RunResult:
    """Outcome of a direct run: final memory (None when the run did not
    halt), and how many operator and jump instructions were executed."""

    mem: object
    op_steps: int
    jmp_steps: int

    @property
    def halted(self) -> bool:
        return self.mem is not None


def run_bbram(prog: Program, sigma: MemState, fuel: int) -> RunResult:
    """Program-counter interpreter for basic programs.

    Running off the end of the sequence counts as not halting; `fuel` bounds
    the number of executed instructions.  Each instruction's kernel is
    resolved once, before the run.
    """
    if prog.kind != BBRAM:
        raise ValueError("expected a basic program")
    # per line: None for halt, (kernel, target) for a jump, (kernel, None) for an op
    code = [None if isinstance(ins, Halt)
            else (compile_prop(ins.p), ins.target) if isinstance(ins, Jmp)
            else (compile_op(ins.o), None)
            for ins in prog.instrs]
    pc = 1
    ops = jmps = 0
    for _ in range(fuel):
        if pc > len(code):
            return RunResult(None, ops, jmps)
        line = code[pc - 1]
        if line is None:
            return RunResult(sigma, ops, jmps)
        k, target = line
        if target is None:
            ops += 1
            sigma = k(sigma)
            pc += 1
        else:
            jmps += 1
            pc = target if k(sigma) == 1 else pc + 1
    return RunResult(None, ops, jmps)
