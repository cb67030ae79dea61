"""Command line front end: compile programs to terms, run them, measure
step counts, and check function computation against an external oracle.

Exit codes: 0 success; 1 bad input or a failed check; 2 usage errors and
undefined results (a run or measure on a non-halting program); 3 exploration
stopped at the state cap before the question was settled.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys

from . import complexity, machines, semantics, syntax
from . import terms as T
from .memory import EMPTY_MEM, format_mem, load_mem_file


def _build_term(args):
    """Compile the positional program files per the chosen model; returns
    the term and the parsed programs."""
    kind = machines.BBRAM if args.model == "ramp" else machines.SMBRAM
    progs = []
    for path in args.programs:
        with open(path) as fh:
            text = fh.read()
        try:
            progs.append(machines.parse_program(text, kind))
        except ValueError as e:
            raise ValueError("%s: %s" % (path, e)) from None
    if args.model == "ramp":
        if len(progs) != 1:
            raise ValueError("the sequential model takes exactly one program")
        return machines.proc_of_bbram(progs[0]), progs
    if args.model == "apramp":
        return machines.compose_async(
            [machines.proc_of_smbram_async(i, p) for i, p in enumerate(progs, start=1)]
        ), progs
    return machines.compose_sync(
        [machines.proc_of_smbram_sync(i, p) for i, p in enumerate(progs, start=1)]
    ), progs


def _valuation(term, mem_args):
    env = {v: EMPTY_MEM for v in T.flexvars_term(term)}
    env.setdefault("RM", EMPTY_MEM)
    for spec in mem_args or ():
        name, eq, path = spec.partition("=")
        if not eq:
            raise ValueError("--mem takes NAME=FILE, got %r" % (spec,))
        env[name] = load_mem_file(path)
    return T.Valuation.make(env)


def _export_lts(l, path, fmt):
    if fmt == "dot":
        payload = semantics.lts_to_dot(l)
    else:
        payload = json.dumps(semantics.lts_to_json(l), indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(payload)


def cmd_compile(args) -> int:
    if args.inverse:
        if len(args.programs) != 1:
            raise ValueError("--inverse takes exactly one term file")
        with open(args.programs[0]) as fh:
            term = syntax.parse_term(fh.read())
        prog = machines.program_of_ramp(term)
        sys.stdout.write(machines.format_program(prog))
        return 0
    term, _ = _build_term(args)
    print(syntax.format_term(term))
    return 0


def _at_least(args, name, low):
    value = getattr(args, name)
    if value < low:
        raise ValueError("--%s must be at least %d, got %d" % (name.replace("_", "-"), low, value))


def cmd_run(args) -> int:
    _at_least(args, "max_states", 1)
    _at_least(args, "fuel", 0)
    term, progs = _build_term(args)
    rho = _valuation(term, args.mem)
    l = semantics.build_lts(term, rho, args.max_states)
    if args.lts:
        _export_lts(l, args.lts, args.format)
    if l.exploded:
        print("undecided: exploration stopped at %d states" % len(l.states))
        return 3
    halts = semantics.eventually_halts(l)
    print("halts: %s" % ("yes" if halts else "no"))
    print("states: %d  transitions: %d" % (len(l.states), len(l.transitions)))
    if not halts:
        return 2
    print("steps (non-silent, longest run): %d" % semantics.depth(l))
    finals = []
    for rho2 in semantics.terminal_valuations(l):
        if rho2 not in finals:
            finals.append(rho2)
    for k, rho2 in enumerate(finals, start=1):
        tag = "final memory" if len(finals) == 1 else "final memory (outcome %d)" % k
        for name in rho2.names():
            print("%s: %s = %s" % (tag, name, format_mem(rho2.get(name))))
    if args.model == "ramp" and args.fuel:
        res = machines.run_bbram(progs[0], rho.get("RM"), args.fuel)
        agrees = res.halted and res.mem == finals[0].get("RM")
        print(
            "interpreter: %s in %d steps (%s)"
            % (
                "halted" if res.halted else "did not halt",
                res.op_steps + res.jmp_steps,
                "agrees" if agrees else "DISAGREES",
            )
        )
    return 0


def cmd_measure(args) -> int:
    model = complexity.MEASURE_TABLE[args.measure].model
    if model != args.model:
        print("error: measure %s applies to the %s model" % (args.measure, model), file=sys.stderr)
        return 2
    _at_least(args, "max_states", 1)
    term, _ = _build_term(args)
    rho = _valuation(term, args.mem)
    try:
        report = complexity.MEASURES[args.measure](term, rho, args.max_states)
    except complexity.MeasureUndefinedError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 0


def _external_oracle(command):
    """The function an oracle command computes, one process per input, each
    given one line and then EOF.  The command is taken to be a function, so
    each distinct input is asked once and its answer reused.

    `oracle.prefetch(inputs)` is the hint that `check_computes` gives: the
    processes for the inputs not yet answered are started ahead of their
    turn, in order, at most os.cpu_count() alive at once, and each answered
    call starts the next.  A new hint replaces the old one; processes that
    have not had their line are killed.  Without a hint each call starts its
    own process."""
    argv = shlex.split(command)
    if not argv:
        raise ValueError("--oracle needs a command")
    limit = os.cpu_count() or 1
    answers = {}
    waiting = []  # hinted inputs without a process yet, in order
    started = {}  # input -> Popen awaiting its line, or the OSError starting it raised

    def oracle(ws):
        key = tuple(ws)
        if key in answers:
            return answers[key]
        if key not in started:
            if key in waiting:
                waiting.remove(key)
            if len(started) >= limit:  # asked out of hint order: make room
                waiting[:0] = started
                stop()
            start(key)
        try:
            answers[key] = ask(started.pop(key), key)
        finally:
            fill()
        return answers[key]

    def prefetch(inputs):
        stop()
        waiting[:] = [k for k in dict.fromkeys(map(tuple, inputs)) if k not in answers]
        fill()

    def fill():
        while waiting and len(started) < limit:
            start(waiting.pop(0))

    def start(key):
        try:
            started[key] = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                            stderr=subprocess.PIPE, text=True)
        except OSError as e:
            started[key] = e

    def stop():
        for proc in started.values():
            if not isinstance(proc, OSError):
                with proc:
                    proc.kill()
        started.clear()

    def ask(proc, ws):
        if isinstance(proc, OSError):
            raise proc
        line = " ".join(w if w else "e" for w in ws) + "\n"
        with proc:
            try:
                out, _ = proc.communicate(line)
            except BaseException:
                proc.kill()
                raise
        if proc.returncode != 0:
            raise RuntimeError("oracle exited with %d" % proc.returncode)
        out = out.strip()
        if out == "undef":
            return None
        if out == "e":
            return ""
        if not out or set(out) - {"0", "1"}:
            raise RuntimeError("oracle produced %r" % (out,))
        return out

    oracle.prefetch = prefetch
    return oracle


def cmd_check(args) -> int:
    _at_least(args, "max_states", 1)
    _at_least(args, "arity", 0)
    _at_least(args, "max_len", 0)
    oracle = _external_oracle(args.oracle)
    term, _ = _build_term(args)
    inputs = complexity.all_inputs(args.arity, args.max_len)
    if not inputs:
        print("warning: empty input enumeration; nothing to check")
        return 0
    bound = complexity.parse_affine(args.bound) if args.bound else None
    f = complexity.FunctionSpec(args.arity, oracle, inputs)
    verdict = complexity.check_computes(term, f, bound, max_states=args.max_states)
    print(complexity.format_check_table(verdict))
    n_fail = len(verdict.failures)
    n_und = len(verdict.undecided)
    print(
        "checked %d inputs: %d passed, %d failed, %d undecided"
        % (len(verdict.rows), len(verdict.rows) - n_fail - n_und, n_fail, n_und)
    )
    return 1 if n_fail else 0


def _parser():
    ap = argparse.ArgumentParser(
        prog="ramproc",
        description="Compile register-machine programs to process terms, run them, and measure step counts.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, mems=True):
        p.add_argument("programs", nargs="+", metavar="FILE",
                       help="program file(s); numbered 1..n in order for parallel models")
        p.add_argument("--model", choices=("ramp", "apramp", "spramp"), default="ramp")
        if mems:
            p.add_argument("--mem", action="append", metavar="NAME=FILE",
                           help="initial memory for a flexible variable (repeatable)")
            p.add_argument("--max-states", type=int, default=100000)

    p = sub.add_parser("compile", help="print the compiled process term")
    common(p, mems=False)
    p.add_argument("--inverse", action="store_true",
                   help="read a sequential-machine term and print its program")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="run via the operational semantics")
    common(p)
    p.add_argument("--fuel", type=int, default=0,
                   help="also run the direct interpreter this many steps (sequential model)")
    p.add_argument("--lts", metavar="PATH", help="export the explored transition system")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("measure", help="compute a step-count measure")
    common(p)
    p.add_argument("--measure", choices=sorted(complexity.MEASURES), required=True)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("check", help="check computation of a function against an oracle command")
    common(p)
    p.add_argument("--oracle", required=True, metavar="CMD",
                   help="command reading space-separated bit strings ('e' for empty) on stdin, "
                        "printing the result or 'undef'")
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--bound", metavar="A*n+B", help="affine step bound on total input length")
    p.set_defaults(func=cmd_check)

    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except semantics.UndecidedError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except (ValueError, OSError, LookupError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
