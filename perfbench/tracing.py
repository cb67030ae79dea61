"""Span tracing of ramproc's layers from outside the package.

`Tracer.install(lib)` replaces each traced public function with a wrapper
at every name it is reached through: the module attribute, the names other
ramproc modules imported it under (such as `complexity.build_lts`), the
values of module-level dicts (`complexity.MEASURES`), and the oracle
callable that `cli._external_oracle` returns.  `uninstall` puts the
originals back.  Nothing under `src/` is edited.

Each wrapper records a span [name, start, end, parent, query id, info].
Spans stay in memory until the run ends.  A function that is already
active (recursion, as in `format_term`) is called straight through, so
only its outermost call is a span.
"""

from __future__ import annotations

import functools
import time
from types import ModuleType

NAME, START, END, PARENT, QID, INFO = range(6)


def _lts_info(args, lts):
    return len(lts.states), len(lts.transitions), lts.exploded


def _bisim_info(args, verdict):
    return len(args[0].states) + len(args[1].states)


def _rows_info(args, verdict):
    return len(verdict.rows)


def _steps_info(args, res):
    return res.op_steps + res.jmp_steps


# module -> (function, info extractor or None)
TRACED = {
    "machines": (
        ("parse_program", None), ("proc_of_bbram", None), ("proc_of_smbram_async", None),
        ("proc_of_smbram_sync", None), ("compose_async", None), ("compose_sync", None),
        ("program_of_ramp", None), ("run_bbram", _steps_info),
    ),
    "semantics": (
        ("build_lts", _lts_info), ("eventually_halts", None), ("depth", None),
        ("terminal_valuations", None), ("lts_to_json", None),
    ),
    "syntax": (("format_term", None), ("parse_term", None)),
    "complexity": (
        ("sutm", None), ("swm", None), ("aputm", None), ("apwm", None), ("sputm", None),
        ("spwm", None), ("check_computes", _rows_info),
    ),
    "bisim": (("rb_bisim", _bisim_info),),
    "cli": (("main", None),),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.qid = -1
        self._stack = []
        self._active = set()
        self._undo = []

    def wrap(self, name, fn, info=None):
        spans, stack, active = self.spans, self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.qid, None]
            stack.append(len(spans))
            spans.append(rec)
            active.add(name)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                active.discard(name)
                stack.pop()
            if info is not None:
                rec[INFO] = info(args, out)
            return out

        return traced

    def root(self, name, fn):
        """Run fn() as a root span of the harness; return its result."""
        return self.wrap(name, fn)()

    def install(self, lib):
        modules = [m for m in vars(lib).values() if isinstance(m, ModuleType)]
        swap = {}
        for mod_name, funcs in TRACED.items():
            mod = getattr(lib, mod_name)
            for fname, info in funcs:
                orig = getattr(mod, fname)
                swap[id(orig)] = (orig, self.wrap("%s.%s" % (mod_name, fname), orig, info))
        make_oracle = lib.cli._external_oracle
        oracle_wrapper = functools.wraps(make_oracle)(
            lambda command: self.wrap("cli.oracle", make_oracle(command)))
        swap[id(make_oracle)] = (make_oracle, oracle_wrapper)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if self._replacement(swap, val):
                    setattr(mod, key, self._replacement(swap, val))
                    self._undo.append((setattr, mod, key, val))
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if self._replacement(swap, v):
                            val[k] = self._replacement(swap, v)
                            self._undo.append((dict.__setitem__, val, k, v))

    @staticmethod
    def _replacement(swap, val):
        hit = swap.get(id(val))
        return hit[1] if hit is not None and hit[0] is val else None

    def uninstall(self):
        for put, container, key, val in reversed(self._undo):
            put(container, key, val)
        self._undo.clear()


def self_times(spans):
    """Span duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def has_ancestor(spans, i, names):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False
