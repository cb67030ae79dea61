"""Register-machine programs and their process-term translations.

A program is a nonempty instruction list: operator applications, conditional
jumps (1-based targets), and halt.  The basic kind runs over one memory; the
shared-memory kind adds load/store and runs any number of numbered copies
against a common memory.  Each compiler emits one recursion equation per
instruction (the synchronous one: a handshake equation plus a work equation),
so control positions and equations correspond one to one.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import ramops
from . import terms as T
from .memory import MemState
from .ramops import BinOp, CmpOp, Ini, Load, Store, UnOp, apply_op, apply_prop


@dataclass(frozen=True, slots=True)
class Op:
    o: object

    def __post_init__(self):
        if isinstance(self.o, CmpOp):
            raise ValueError("comparison outside jmp")
        if isinstance(self.o, Ini):
            raise ValueError("ini is not a program instruction")
        if not isinstance(self.o, (BinOp, UnOp, Load, Store)):
            raise ValueError("not an instruction operator: %r" % (self.o,))


@dataclass(frozen=True, slots=True)
class Jmp:
    p: CmpOp
    target: int

    def __post_init__(self):
        if not isinstance(self.p, CmpOp):
            raise ValueError("jmp takes a comparison")
        if self.target < 1:
            raise ValueError("jump targets are 1-based")


@dataclass(frozen=True, slots=True)
class Halt:
    pass


HALT = Halt()

BBRAM = "bbram"
SMBRAM = "smbram"


@dataclass(frozen=True, slots=True)
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
        return Jmp(p, int(parts[4]))
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

def _op_expr(o, memvar: str):
    if isinstance(o, (Load, Store)):
        return T.Apply2(o, T.FlexVar(memvar), T.FlexVar("RM"))
    return T.Apply1(o, T.FlexVar(memvar))


def _op_equation(o, memvar: str, nxt: str):
    target = "RM" if isinstance(o, Store) else memvar
    return T.Guard(T.TRUE, T.Seq(T.Assign(target, _op_expr(o, memvar)), T.Var(nxt)))


def _jmp_equation(p, memvar: str, taken: str, fallthrough: str):
    self_step = T.Assign(memvar, T.FlexVar(memvar))
    return T.Alt(
        T.Guard(T.PropAtom(p, T.FlexVar(memvar), 1), T.Seq(self_step, T.Var(taken))),
        T.Guard(T.PropAtom(p, T.FlexVar(memvar), 0), T.Seq(self_step, T.Var(fallthrough))),
    )


_HALT_EQUATION = T.Guard(T.TRUE, T.EPS)


def _equations(prog: Program, memvar: str, prefix: str, handshakes: bool = False):
    """One equation per instruction over memory `memvar`, instruction j
    named prefix + j.  With handshakes, instruction j is instead a sync
    equation prefix + (2j-1) followed by its work equation prefix + 2j, and
    control (fall-through and jumps alike) enters at the sync equation."""
    if not isinstance(prog.instrs[-1], Halt):
        raise ValueError("last instruction must be halt: control would run past the end")
    stride = 2 if handshakes else 1

    def entry(j):
        return "%s%d" % (prefix, stride * (j - 1) + 1)

    eqs = []
    for j, ins in enumerate(prog.instrs, start=1):
        work = "%s%d" % (prefix, stride * j)
        if handshakes:
            eqs.append((entry(j), T.Guard(T.TRUE, T.Seq(T.Act("sync"), T.Var(work)))))
        if isinstance(ins, Halt):
            eqs.append((work, _HALT_EQUATION))
        elif isinstance(ins, Jmp):
            eqs.append((work, _jmp_equation(ins.p, memvar, entry(ins.target), entry(j + 1))))
        else:
            eqs.append((work, _op_equation(ins.o, memvar, entry(j + 1))))
    return tuple(eqs)


def proc_of_bbram(prog: Program):
    """One equation per instruction over memory RM, starting at the first."""
    if prog.kind != BBRAM:
        raise ValueError("expected a basic program")
    return T.Rec("X1", T.RecSpec(_equations(prog, "RM", "X")))


def _component(i: int, prog: Program, handshakes: bool):
    if prog.kind != SMBRAM:
        raise ValueError("expected a shared-memory program")
    if i < 1:
        raise ValueError("component numbers start at 1")
    memvar = "RM_%d" % i
    root = "X%d" % i
    ini_eq = T.Guard(
        T.TRUE, T.Seq(T.Assign(memvar, T.Apply1(Ini(i), T.FlexVar(memvar))), T.Var("Y1"))
    )
    return T.Rec(root, T.RecSpec(((root, ini_eq),) + _equations(prog, memvar, "Y", handshakes)))


def proc_of_smbram_async(i: int, prog: Program):
    """Component i of an interleaved shared-memory machine: an ini step on
    the private memory RM_i, then one equation per instruction."""
    return _component(i, prog, handshakes=False)


def proc_of_smbram_sync(i: int, prog: Program):
    """Component i of a lockstep shared-memory machine: each instruction gets
    a handshake equation followed by its work equation; jumps land on the
    target's handshake."""
    return _component(i, prog, handshakes=True)


def compose_async(components):
    """Left-nested interleaving of compiled components."""
    acc = None
    for c in components:
        acc = c if acc is None else T.Par(acc, c)
    if acc is None:
        raise ValueError("no components")
    return acc


def compose_sync(components):
    """Left-nested synchronizing merge of compiled components."""
    acc = None
    for c in components:
        acc = c if acc is None else T.SyncMerge(acc, c)
    if acc is None:
        raise ValueError("no components")
    return acc


# ---------------------------------------------------------------------------
# Inverse extraction

def program_of_ramp(t) -> Program:
    """Recover the program a sequential-machine term was compiled from.

    Equation order gives instruction order, so compiling the result yields
    the input back up to consistent renaming of the equation variables.
    """
    try:
        _, steps = T.decode_component(t, T.RAMP)
    except ValueError:
        raise ValueError("not a sequential-machine term") from None
    instrs = []
    for kind, desc, succs in steps:
        if kind == "op":
            instrs.append(Op(desc))
        elif kind == "test":
            instrs.append(Jmp(desc, succs[0] + 1))
        else:
            instrs.append(HALT)
    return Program(tuple(instrs), BBRAM)


# ---------------------------------------------------------------------------
# Direct interpreter (independent of the process semantics)

@dataclass(frozen=True, slots=True)
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
    the number of executed instructions.
    """
    if prog.kind != BBRAM:
        raise ValueError("expected a basic program")
    pc = 1
    ops = jmps = 0
    for _ in range(fuel):
        if pc < 1 or pc > len(prog):
            return RunResult(None, ops, jmps)
        ins = prog.instrs[pc - 1]
        if isinstance(ins, Halt):
            return RunResult(sigma, ops, jmps)
        if isinstance(ins, Jmp):
            jmps += 1
            pc = ins.target if apply_prop(ins.p, sigma) == 1 else pc + 1
        else:
            ops += 1
            sigma = apply_op(ins.o, sigma)
            pc += 1
    return RunResult(None, ops, jmps)
