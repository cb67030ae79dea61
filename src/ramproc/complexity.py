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

import re
from dataclasses import dataclass

from . import terms as T
from .memory import EMPTY_MEM
from .semantics import (
    Lts, SemanticsError, build_lts, depth, eventually_halts, terminal_valuations,
)


class MeasureUndefinedError(SemanticsError):
    """The term does not eventually halt, so no step count exists."""


@dataclass(frozen=True, slots=True)
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


def _halting_lts(t, rho, max_states) -> Lts:
    l = build_lts(t, rho, max_states)
    if not eventually_halts(l):
        raise MeasureUndefinedError("measure undefined: the term does not eventually halt")
    return l


def _report(name, l: Lts, value, per_component=()) -> MeasureReport:
    return MeasureReport(name, value, tuple(per_component), len(l.states), len(l.transitions))


@dataclass(frozen=True, slots=True)
class Measure:
    """A step-count measure: the CLI model and machine shape it is defined
    for, and which labels count as steps (None: every non-silent one).  A
    per-component measure counts, for each component i, the steps touching
    RM_i, and reports the slowest component.  A measure `same_as` another
    reports that one's value under its own name."""

    model: str
    machine: str
    validator: object
    counts: object
    doc: str
    per_component: bool = False
    same_as: str = ""


_SYNC = T.Plain("sync")

MEASURE_TABLE = {
    "sutm": Measure(T.RAMP, "sequential machine", T.validate_ramp, None,
                    "Sequential time: every non-silent step counts."),
    "swm": Measure(T.RAMP, "sequential machine", T.validate_ramp, None,
                   "Sequential work; a sequential machine does one unit per step.",
                   same_as="sutm"),
    "aputm": Measure(T.APRAMP, "interleaved parallel machine", T.validate_apramp, None,
                     "Asynchronous-parallel time: the slowest component's own steps.",
                     per_component=True),
    "apwm": Measure(T.APRAMP, "interleaved parallel machine", T.validate_apramp, None,
                    "Asynchronous-parallel work: all non-silent steps along a longest run."),
    "sputm": Measure(T.SPRAMP, "lockstep parallel machine", T.validate_spramp,
                     lambda lab: lab == _SYNC,
                     "Synchronous-parallel time: handshake rounds only."),
    "spwm": Measure(T.SPRAMP, "lockstep parallel machine", T.validate_spramp,
                    lambda lab: not isinstance(lab, T.Tau) and lab != _SYNC,
                    "Synchronous-parallel work: computational (non-handshake) steps."),
}


def _measure_value(m: Measure, l: Lts, n):
    """The measure on the halting LTS l of an n-component machine: its value
    and, for a per-component measure, the (component, value) pairs."""
    if m.same_as:
        return _measure_value(MEASURE_TABLE[m.same_as], l, n)
    if not m.per_component:
        return depth(l, count=m.counts), ()
    per = [(i, depth(l, count=T.ActionSet.mentioning("RM_%d" % i).contains_label))
           for i in range(1, n + 1)]
    return max(v for _, v in per), per


def _measure_function(name, m: Measure):
    def measure(t, rho: T.Valuation, max_states: int = 100000) -> MeasureReport:
        if m.same_as:
            r = MEASURES[m.same_as](t, rho, max_states)
            return MeasureReport(name, r.value, (), r.states, r.transitions)
        # the sequential measures apply to any term; the parallel ones
        # need the machine shape, and aputm its component count
        n = m.validator(t) if m.model != T.RAMP else None
        l = _halting_lts(t, rho, max_states)
        return _report(name, l, *_measure_value(m, l, n))

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


def check_measure_class(measure: str, t):
    """Raise unless t has the machine shape the measure is defined for;
    return what the shape validator returns (a parallel machine's component
    count)."""
    m = MEASURE_TABLE[measure]
    try:
        ok = m.validator(t)
    except ValueError:
        ok = False
    if not ok:
        raise ValueError("measure %s requires a %s term" % (measure, m.machine))
    return ok


# ---------------------------------------------------------------------------
# Computing functions on bit strings

@dataclass(frozen=True, slots=True)
class FunctionSpec:
    """A partial function on bit-string tuples with an input enumeration.

    oracle(args) returns the result string, or None where the function is
    undefined.  An oracle may also have a `prefetch(inputs)` attribute: the
    checkers call it with the inputs they are about to ask, in order, before
    the first call, and with () when they are done or fail, so that it can
    prepare answers ahead of their turn and drop what was not asked.
    oracle(args) is still called once per input, in order.
    """

    arity: int
    oracle: object
    inputs: tuple = ()
    name: str = ""


def all_inputs(arity: int, max_len: int):
    """Every tuple of bit strings (empty string included) up to max_len."""
    pool = [""]
    for ln in range(1, max_len + 1):
        pool.extend(_strings_of(ln))
    out = [()]
    for _ in range(arity):
        out = [prev + (w,) for prev in out for w in pool]
    return tuple(out)


def _strings_of(ln):
    if ln == 0:
        return [""]
    return [w + b for w in _strings_of(ln - 1) for b in "01"]


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


@dataclass(frozen=True, slots=True)
class CheckRow:
    args: tuple
    expected: object  # str | None
    got: object  # str | None when a unique result exists
    steps: object  # int | None
    bound: object  # int | None
    status: str  # "pass" | "fail" | "undecided"
    note: str = ""


@dataclass(frozen=True, slots=True)
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


def check_computes(t, f: FunctionSpec, w_bound=None, inputs=None,
                   max_states: int = 100000) -> Verdict:
    """Does t compute f within w_bound steps on the given inputs?

    Defined inputs must halt with register 0 of RM equal to the oracle's
    answer in every terminal state, within w_bound(total input length) steps.
    Undefined inputs must not halt; when exploration can't settle that, the
    row is undecided rather than passed.
    """
    return _check_rows(t, f, w_bound, inputs, max_states, lambda row, l: row)


def _check_rows(t, f: FunctionSpec, w_bound, inputs, max_states, finish) -> Verdict:
    """The loop of `check_computes`; finish(row, lts) makes each input's
    final row from its checked row and the LTS it explored (None if none)."""
    if inputs is None:
        inputs = f.inputs
    prefetch = getattr(f.oracle, "prefetch", None)
    if prefetch is not None:
        prefetch(inputs)
    try:
        rows = []
        extra = sorted(T.flexvars_term(t))
        for args in inputs:
            size = sum(len(w) for w in args)
            bound = w_bound(size) if w_bound is not None else None
            try:
                expected = f.oracle(args)
            except Exception as e:
                rows.append(finish(CheckRow(args, None, None, None, bound, "fail",
                                            "oracle error: %s" % e), None))
                continue
            try:
                l = build_lts(t, input_valuation(args, extra), max_states)
            except SemanticsError as e:
                rows.append(finish(CheckRow(args, expected, None, None, bound, "fail", str(e)),
                                   None))
                continue
            rows.append(finish(_check_one(l, args, expected, bound), l))
        return Verdict(tuple(rows))
    finally:
        if prefetch is not None:
            prefetch(())


def _check_one(l: Lts, args, expected, bound) -> CheckRow:
    if l.exploded:
        return CheckRow(
            args, expected, None, None, bound, "undecided",
            "exploration stopped at %d states" % len(l.states),
        )
    halts = eventually_halts(l)
    if expected is None:
        if halts:
            return CheckRow(args, None, _unique_result(l), depth(l), bound, "fail",
                            "halts where the function is undefined")
        return CheckRow(args, None, None, None, bound, "pass")
    if not halts:
        return CheckRow(args, expected, None, None, bound, "fail", "does not halt")
    results = {rho2.get("RM").get(0) for rho2 in terminal_valuations(l)}
    steps = depth(l)
    if results != {expected}:
        return CheckRow(args, expected, "|".join(sorted(results)), steps, bound, "fail",
                        "wrong result")
    if bound is not None and steps > bound:
        return CheckRow(args, expected, expected, steps, bound, "fail", "over the step bound")
    return CheckRow(args, expected, expected, steps, bound, "pass")


def _unique_result(l):
    results = {rho.get("RM").get(0) for rho in terminal_valuations(l)}
    return "|".join(sorted(results)) if results else None


def is_of_complexity(t, f: FunctionSpec, v_bound, measure: str, inputs=None,
                     max_states: int = 100000) -> Verdict:
    """t computes f, and the named measure stays within v_bound per input."""
    if measure not in MEASURES:
        raise ValueError("unknown measure %r" % (measure,))
    n = check_measure_class(measure, t)

    def measured(row, l):
        if row.status != "pass" or row.expected is None:
            return row
        bound = v_bound(sum(len(w) for w in row.args))
        value, _ = _measure_value(MEASURE_TABLE[measure], l, n)
        if value <= bound:
            return CheckRow(row.args, row.expected, row.got, value, bound, "pass")
        return CheckRow(row.args, row.expected, row.got, value, bound, "fail",
                        "measure over the bound")

    return _check_rows(t, f, None, inputs, max_states, measured)


# ---------------------------------------------------------------------------
# Affine step bounds

_AFFINE = re.compile(r"^\s*(?:(\d+)\s*\*\s*)?(n)?\s*(?:\+?\s*(\d+))?\s*$")


def parse_affine(text: str):
    """Parse `a*n+b` (each piece optional, e.g. `3*n`, `n+7`, `12`)."""
    m = _AFFINE.match(text)
    if not m or not any(m.groups()):
        raise ValueError("expected an affine bound like 'a*n+b', got %r" % (text,))
    a_txt, n_txt, b_txt = m.groups()
    if a_txt is not None and n_txt is None:
        raise ValueError("coefficient without n in %r" % (text,))
    a = int(a_txt) if a_txt is not None else (1 if n_txt else 0)
    b = int(b_txt) if b_txt is not None else 0
    return lambda n: a * n + b


def format_check_table(verdict: Verdict) -> str:
    """Human-readable per-input table for the checkers."""
    lines = ["%-24s %-12s %-12s %8s %8s  %s" % ("input", "expected", "got", "steps", "bound", "status")]
    for r in verdict.rows:
        args = "(" + ", ".join(w or "e" for w in r.args) + ")"
        lines.append(
            "%-24s %-12s %-12s %8s %8s  %s%s"
            % (
                args,
                _cell(r.expected), _cell(r.got), _cell(r.steps), _cell(r.bound),
                r.status, " (%s)" % r.note if r.note else "",
            )
        )
    return "\n".join(lines)


def _cell(v):
    if v is None:
        return "-"
    if isinstance(v, str):
        return v if v else "e"
    return str(v)
