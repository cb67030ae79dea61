"""Step-count measures over evaluated terms, and checkers for "computes a
function within a step bound" at enumerable scale.

All measures are longest-path lengths of the evaluated transition system
with a label filter: sequential time counts every non-silent step, the
asynchronous-parallel time takes a per-component maximum over steps touching
that component's memory, and the synchronous-parallel pair splits steps into
handshakes and computational work.  A measure is defined only when the
evaluated term eventually halts.
"""

from __future__ import annotations

import itertools
import re

from . import terms as T
from .bits import parse_nat
from .machines import (APRAMP, RAMP, SPRAMP, memory_name, validate_apramp, validate_ramp,
                       validate_spramp)
from .memory import EMPTY_MEM
from .nodes import node
from .semantics import (
    Lts, SemanticsError, build_lts, depth, depths, eventually_halts, terminal_valuations,
)


class MeasureUndefinedError(SemanticsError):
    """The term does not eventually halt, so no step count exists."""


@node
class MeasureReport:
    measure: str
    value: int
    per_component: tuple = ()  # (component number, value) pairs, if any
    states: int = 0
    transitions: int = 0

    def to_json(self) -> dict:
        out = {
            "measure": self.measure,
            "value": self.value,
            "states": self.states,
            "transitions": self.transitions,
        }
        if self.per_component:
            out["per_component"] = {str(i): v for i, v in self.per_component}
        return out


@node
class Measure:
    """A step-count measure: the CLI model whose machines it is defined for,
    and which labels count as steps (None: every non-silent one).  A
    per-component measure counts, for each component i, the steps touching
    RM_i, and reports the slowest component.  A measure `same_as` another
    reports that one's value under its own name."""

    model: str
    counts: object
    doc: str
    per_component: bool = False
    same_as: str = ""


_SYNC = T.Plain("sync")

MEASURE_TABLE = {
    "sutm": Measure(RAMP, None, "Sequential time: every non-silent step counts."),
    "swm": Measure(RAMP, None, "Sequential work; a sequential machine does one unit per step.",
                   same_as="sutm"),
    "aputm": Measure(APRAMP, None,
                     "Asynchronous-parallel time: the slowest component's own steps.",
                     per_component=True),
    "apwm": Measure(APRAMP, None,
                    "Asynchronous-parallel work: all non-silent steps along a longest run."),
    "sputm": Measure(SPRAMP, lambda lab: lab == _SYNC,
                     "Synchronous-parallel time: handshake rounds only."),
    "spwm": Measure(SPRAMP, lambda lab: not isinstance(lab, T.Tau) and lab != _SYNC,
                    "Synchronous-parallel work: computational (non-handshake) steps."),
}

# model -> (the machine its terms are, the validator of that shape)
_MACHINES = {
    RAMP: ("a sequential machine", validate_ramp),
    APRAMP: ("an interleaved parallel machine", validate_apramp),
    SPRAMP: ("a lockstep parallel machine", validate_spramp),
}


def check_measure_class(measure: str, t):
    """Raise unless t has the machine shape the measure is defined for;
    return what the shape validator returns (a parallel machine's component
    count)."""
    machine, validator = _MACHINES[MEASURE_TABLE[measure].model]
    try:
        ok = validator(t)
    except ValueError:
        ok = False
    if not ok:
        raise ValueError("measure %s requires %s term" % (measure, machine))
    return ok


def _measure_value(m: Measure, l: Lts, n):
    """The measure on the halting LTS l of an n-component machine: its value
    and, for a per-component measure, the (component, value) pairs.  A
    measure `same_as` another repeats its row, so its own row gives the value."""
    if not m.per_component:
        return depth(l, count=m.counts), ()
    comps = range(1, n + 1)
    per = list(zip(comps, depths(
        l, [T.ActionSet.mentioning(memory_name(i)).contains_label for i in comps])))
    return max(v for _, v in per), per


def _measure_function(name, m: Measure):
    def measure(t, rho: T.Valuation, max_states: int = 100000) -> MeasureReport:
        if m.same_as:
            r = MEASURES[m.same_as](t, rho, max_states)
            return MeasureReport(name, r.value, (), r.states, r.transitions)
        # the sequential measures apply to any term; the parallel ones
        # need the machine shape, and aputm its component count
        n = check_measure_class(name, t) if m.model != RAMP else None
        l = build_lts(t, rho, max_states)
        if not eventually_halts(l):
            raise MeasureUndefinedError("measure undefined: the term does not eventually halt")
        value, per = _measure_value(m, l, n)
        return MeasureReport(name, value, tuple(per), len(l), l.transition_count())

    measure.__name__ = measure.__qualname__ = name
    measure.__doc__ = m.doc
    return measure


MEASURES = {name: _measure_function(name, m) for name, m in MEASURE_TABLE.items()}
sutm = MEASURES["sutm"]
swm = MEASURES["swm"]
aputm = MEASURES["aputm"]
apwm = MEASURES["apwm"]
sputm = MEASURES["sputm"]
spwm = MEASURES["spwm"]


# ---------------------------------------------------------------------------
# Computing functions on bit strings

@node
class FunctionSpec:
    """A partial function on bit-string tuples, and the inputs to check it on.

    oracle(args) returns the result string, or None where the function is
    undefined.  An oracle may also have a `prefetch(inputs)` attribute: the
    checkers call it with `inputs`, the inputs they are about to ask in
    order, before the first call, and with () when they are done or fail,
    so that it can prepare answers ahead of their turn and drop what was not
    asked.  oracle(args) is still called once per input, in order.
    """

    arity: int
    oracle: object
    inputs: tuple = ()


def all_inputs(arity: int, max_len: int):
    """Every tuple of bit strings (empty string included) up to max_len,
    shorter strings first and the last argument varying fastest."""
    pool = ["".join(w) for ln in range(max_len + 1) for w in itertools.product("01", repeat=ln)]
    return tuple(itertools.product(pool, repeat=arity))


def input_valuation(args, extra_vars=()) -> T.Valuation:
    """The starting environment: argument k in register k of RM, every other
    flexible variable empty."""
    mem = EMPTY_MEM
    for k, w in enumerate(args, start=1):
        mem = mem.set(k, w)
    env = {"RM": mem}
    for v in extra_vars:
        env.setdefault(v, EMPTY_MEM)
    return T.Valuation.make(env)


@node
class CheckRow:
    args: tuple
    expected: object  # str | None
    got: object  # str | None when a unique result exists
    steps: object  # int | None
    bound: object  # int | None
    status: str  # "pass" | "fail" | "undecided"
    note: str = ""


@node
class Verdict:
    rows: tuple

    @property
    def all_pass(self) -> bool:
        return all(r.status == "pass" for r in self.rows)

    @property
    def failures(self):
        return tuple(r for r in self.rows if r.status == "fail")

    @property
    def undecided(self):
        return tuple(r for r in self.rows if r.status == "undecided")


def check_computes(t, f: FunctionSpec, w_bound=None, max_states: int = 100000) -> Verdict:
    """Does t compute f within w_bound steps on f's inputs?

    Defined inputs must halt with register 0 of RM equal to the oracle's
    answer in every terminal state, within w_bound(total input length)
    non-silent steps along the longest run (`depth`).  Undefined inputs must
    not halt; when exploration can't settle that, the row is undecided
    rather than passed.  Every row carries its input's bound.
    """
    return _check_rows(t, f, w_bound, None, None, max_states)


def is_of_complexity(t, f: FunctionSpec, v_bound, measure: str,
                     max_states: int = 100000) -> Verdict:
    """`check_computes` with the named measure in place of the step count:
    t must be a machine of the measure's model, and on each row that
    computes f the measure stays within v_bound(total input length)."""
    if measure not in MEASURES:
        raise ValueError("unknown measure %r" % (measure,))
    n = check_measure_class(measure, t)
    return _check_rows(t, f, v_bound, MEASURE_TABLE[measure], n, max_states)


def _check_rows(t, f: FunctionSpec, bound_of, m, n, max_states) -> Verdict:
    """The row loop of both checkers: each input's row holds its steps, or
    the measure m of the n-component machine t if m is not None, to
    bound_of(total input length)."""
    prefetch = getattr(f.oracle, "prefetch", None)
    if prefetch is not None:
        prefetch(f.inputs)
    try:
        rows = []
        extra = sorted(T.flexvars_term(t))
        for args in f.inputs:
            bound = bound_of(sum(len(w) for w in args)) if bound_of is not None else None
            try:
                expected = f.oracle(args)
            except Exception as e:
                rows.append(CheckRow(args, None, None, None, bound, "fail",
                                     "oracle error: %s" % e))
                continue
            try:
                l = build_lts(t, input_valuation(args, extra), max_states)
            except SemanticsError as e:
                rows.append(CheckRow(args, expected, None, None, bound, "fail", str(e)))
                continue
            rows.append(_check_one(l, args, expected, bound, m, n))
        return Verdict(tuple(rows))
    finally:
        if prefetch is not None:
            prefetch(())


def _check_one(l: Lts, args, expected, bound, m, n) -> CheckRow:
    if l.exploded:
        return CheckRow(
            args, expected, None, None, bound, "undecided",
            "exploration stopped at %d states" % len(l),
        )
    if not eventually_halts(l):
        if expected is None:
            return CheckRow(args, None, None, None, bound, "pass")
        return CheckRow(args, expected, None, None, bound, "fail", "does not halt")
    results = {rho.get("RM").get(0) for rho in terminal_valuations(l)}
    got = "|".join(sorted(results))
    steps = depth(l) if m is None else _measure_value(m, l, n)[0]
    if expected is None:
        return CheckRow(args, None, got or None, steps, bound, "fail",
                        "halts where the function is undefined")
    if results != {expected}:
        return CheckRow(args, expected, got, steps, bound, "fail", "wrong result")
    if bound is not None and steps > bound:
        return CheckRow(args, expected, expected, steps, bound, "fail",
                        "over the step bound" if m is None else "measure over the bound")
    return CheckRow(args, expected, expected, steps, bound, "pass")


# ---------------------------------------------------------------------------
# Affine step bounds

_AFFINE = re.compile(r"^\s*(?:([0-9]+)\s*\*\s*)?(n)?\s*(?:\+?\s*([0-9]+))?\s*$")


def parse_affine(text: str):
    """Parse `a*n+b` (each piece optional, e.g. `3*n`, `n+7`, `12`)."""
    m = _AFFINE.match(text)
    if not m or not any(m.groups()):
        raise ValueError("expected an affine bound like 'a*n+b', got %r" % (text,))
    a_txt, n_txt, b_txt = m.groups()
    if a_txt is not None and n_txt is None:
        raise ValueError("coefficient without n in %r" % (text,))
    a = parse_nat(a_txt) if a_txt is not None else (1 if n_txt else 0)
    b = parse_nat(b_txt) if b_txt is not None else 0
    return lambda n: a * n + b


def format_check_table(verdict: Verdict) -> str:
    """Human-readable per-input table for the checkers."""
    lines = ["%-24s %-12s %-12s %8s %8s  %s" % ("input", "expected", "got", "steps", "bound", "status")]
    for r in verdict.rows:
        lines.append(
            "%-24s %-12s %-12s %8s %8s  %s%s"
            % (
                _input(r.args),
                _cell(r.expected), _cell(r.got), _cell(r.steps), _cell(r.bound),
                r.status, " (%s)" % r.note if r.note else "",
            )
        )
    return "\n".join(lines)


def worst_by_length(verdict: Verdict) -> dict:
    """Total input length -> the first row, in table order, whose steps are
    the largest among the rows of that length that carry steps (None when
    none does), by increasing length."""
    worst = {}
    for r in verdict.rows:
        n = sum(map(len, r.args))
        w = worst.setdefault(n, None)
        if r.steps is not None and (w is None or r.steps > w.steps):
            worst[n] = r
    return dict(sorted(worst.items()))


def format_by_length(verdict: Verdict) -> str:
    """One line per total input length: its worst case and the first input
    that attains it, or `-`."""
    return "\n".join("length %d: %s" % (n, "-" if r is None else
                                        "worst %d at %s" % (r.steps, _input(r.args)))
                     for n, r in worst_by_length(verdict).items())


def _input(args):
    return "(" + ", ".join(w or "e" for w in args) + ")"


def _cell(v):
    if v is None:
        return "-"
    if isinstance(v, str):
        return v if v else "e"
    return str(v)
