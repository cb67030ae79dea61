"""Benchmark for ramproc: end-to-end metrics of the entry points users call,
and per-layer metrics from a separate traced run.

    python3 perfbench/run.py --workload seq_run --seed 1 --seconds 15 --trace 0

Run it from the repository root (it builds nothing; `src/` is imported
directly).  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the line before it
describes the run (passes, tail percentile, sample counts, failures).
See perfbench/README.md for the workloads, the metrics and the referees.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import INFO, NAME, QID, START, END, Tracer, has_ancestor, self_times  # noqa: E402
from workloads import WORKLOADS, RefereeClock  # noqa: E402

SETUP_REPEATS = 5
# Machine speed on a shared VM drifts by 20-30% within seconds to minutes,
# for every process alike.  A fixed probe samples it every PROBE_EVERY_S,
# during queries too, and each time metric is scaled by PROBE_REF_S / (mean
# probe time around it): values read as they would on a machine where the
# probe takes PROBE_REF_S.  The constant only sets the scale; it is about
# the probe time on a 2-vCPU VM with Python 3.11.7.
PROBE_REF_S = 0.0005
PROBE_EVERY_S = 0.05
PROBE_WINDOW_S = 0.25  # probes this close to a query also count for it
TAIL_BEYOND = 10  # the tail is the highest percentile with this many samples beyond it
MODULES = ("bisim", "bits", "cli", "complexity", "machines", "memory", "ramops",
           "semantics", "syntax", "terms")
MEASURES = {"complexity.%s" % m for m in ("sutm", "swm", "aputm", "apwm", "sputm", "spwm")}

# span name -> per-layer self-time metric
LAYER = {
    "machines.parse_program": "machines.parse_s",
    "machines.proc_of_bbram": "machines.compile_s",
    "machines.proc_of_smbram_async": "machines.compile_s",
    "machines.proc_of_smbram_sync": "machines.compile_s",
    "machines.compose_async": "machines.compile_s",
    "machines.compose_sync": "machines.compile_s",
    "machines.program_of_ramp": "machines.inverse_s",
    "machines.run_bbram": "machines.interp_s",
    "semantics.build_lts": "semantics.explore_s",
    "semantics.eventually_halts": "semantics.analyse_s",
    "semantics.depth": "semantics.analyse_s",
    "semantics.terminal_valuations": "semantics.analyse_s",
    "semantics.lts_to_json": "semantics.export_s",
    "syntax.format_term": "syntax.format_s",
    "syntax.parse_term": "syntax.parse_s",
    "complexity.check_computes": "complexity.check_self_s",
    "bisim.rb_bisim": "bisim.rb_bisim_s",
    "cli.oracle": "cli.oracle_s",
    "cli.main": "cli.main_self_s",
    "query": "bench.self_s",
    **{m: "complexity.measure_self_s" for m in MEASURES},
}

UNITS = {
    "machines.interp_steps_per_s": "1/s", "semantics.states_per_s": "1/s",
    "semantics.explore_calls": "count", "semantics.states": "count",
    "semantics.transitions": "count", "semantics.cap_hits": "count",
    "complexity.rows": "count", "bisim.calls": "count", "bisim.states_compared": "count",
    "cli.oracle_calls": "count", "verdicts_attempted": "count",
    "cli.oracle_ms_per_call": "ms",
    "semantics.new_state_ratio": "ratio", "semantics.interp_slowdown": "ratio",
    "complexity.explores_per_query": "ratio", "cli.oracle_calls_per_row": "ratio",
    "trace_overhead_ratio": "ratio", "failed_ratio": "ratio",
}


def load_lib(with_laws):
    """Import ramproc afresh (and the law tables when asked)."""
    for name in list(sys.modules):
        if name == "ramproc" or name.startswith("ramproc.") or name == "axiom_defs":
            del sys.modules[name]
    lib = SimpleNamespace(**{m: importlib.import_module("ramproc." + m) for m in MODULES})
    if with_laws:
        lib.axiom_defs = importlib.import_module("axiom_defs")
    return lib


def make_pass(lib, workload, seed, k, d, clock):
    d.mkdir(parents=True)
    rng = random.Random("%s:%d:%d" % (workload, seed, k))
    return WORKLOADS[workload](lib, str(d), rng, clock)


def probe():
    """Fixed pure-Python work, timed to sample how fast the machine runs now.

    Returns (wall seconds, CPU seconds).  The speed sample is the CPU time:
    it still shows a slow core, but not the time the probe waits while an
    oracle child of the benchmark holds the CPU.
    """
    w, c = time.perf_counter(), time.thread_time()
    d = {}
    for k in range(4000):
        d[k & 63] = (k, k * k)
    return time.perf_counter() - w, time.thread_time() - c


def slowdown(n):
    """Mean CPU time of n probes relative to PROBE_REF_S."""
    return statistics.mean(probe()[1] for _ in range(n)) / PROBE_REF_S


class Sampler:
    """Runs the probe every PROBE_EVERY_S of wall time from a SIGALRM
    handler, so that the machine's speed is sampled while a long query runs,
    not only between queries.  Probe time is taken out of every interval."""

    def __init__(self):
        self.samples = []  # (start, wall, cpu); one append, so handlers may nest

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.samples.append((t, *probe()))

    def __enter__(self):
        self._tick(None, None)  # one sample on each side, so none is empty
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)
        self.samples.sort()
        self._starts = [t for t, _, _ in self.samples]

    def _between(self, s, e):
        return self.samples[bisect_left(self._starts, s):bisect_left(self._starts, e)]

    def busy(self, s, e):
        """Wall time the probes took inside [s, e]."""
        return sum(w for _, w, _ in self._between(s, e))

    def slowdown(self, s, e):
        near = self._between(s - PROBE_WINDOW_S, e + PROBE_WINDOW_S) or self.samples
        return statistics.mean(c for _, _, c in near) / PROBE_REF_S


@dataclass
class Pass:
    elapsed: float  # seconds, probe time included
    wall: float  # seconds, probe time excluded
    latencies: list  # seconds per query, probe time excluded
    results: list  # (result, exception) per query
    slowdowns: list  # per query: mean probe time around it / PROBE_REF_S

    @property
    def scaled_wall(self):
        return sum(t / f for t, f in zip(self.latencies, self.slowdowns))


def run_pass(queries, tracer=None):
    """The timed loop: one closed-loop client, one query at a time."""
    spans, results = [], []
    # The harness's own objects (queries, inputs, earlier results) stay out
    # of the collector's way, as they would in a fresh CLI process.
    gc.collect()
    gc.freeze()
    with Sampler() as sampler:
        t0 = time.perf_counter()
        for i, q in enumerate(queries):
            s = time.perf_counter()
            try:
                if tracer is None:
                    res = q.call()
                else:
                    tracer.qid = i
                    res = tracer.root("query", q.call)
                err = None
            except (Exception, SystemExit) as e:  # a crash is a counted failure, not an abort
                res, err = None, e
            spans.append((s, time.perf_counter()))
            results.append((res, err))
        t1 = time.perf_counter()
    return Pass(t1 - t0, t1 - t0 - sampler.busy(t0, t1),
                [e - s - sampler.busy(s, e) for s, e in spans], results,
                [sampler.slowdown(s, e) for s, e in spans])


@dataclass
class Tally:
    attempted: int = 0
    correct: int = 0
    decided: int = 0
    wrong: int = 0
    missing: int = 0
    latencies_ms: list = field(default_factory=list)
    known_defects: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    def add(self, queries, p):
        """Referee a pass (outside the timed loop); latencies are scaled."""
        for q, dt, f, (res, err) in zip(queries, p.latencies, p.slowdowns, p.results):
            dt /= f
            self.attempted += q.verdicts
            if err is not None:
                self.missing += q.verdicts
                self.latencies_ms.append(math.inf)  # ranks above every success
                note = "%s: %s" % (q.kind, type(err).__name__)
                if type(err).__name__ == q.known_defect:
                    self.known_defects.append(note)
                else:
                    self.problems.append("%s %s" % (note, str(err)[:200]))
                continue
            try:
                ok, decided = q.judge(res)
            except (OSError, ValueError, KeyError) as e:
                ok, decided = 0, 0
                self.problems.append("%s: unreadable answer (%s)" % (q.kind, e))
            self.correct += ok
            self.decided += decided
            if ok < q.verdicts:
                self.wrong += q.verdicts - ok
                self.problems.append("%s: %d wrong verdicts" % (q.kind, q.verdicts - ok))
            self.latencies_ms.append(dt * 1000.0)

    @property
    def failed(self):
        return self.wrong + self.missing

    @property
    def all_correct(self):
        return not self.problems


def metric(value, unit):
    return {"value": value, "unit": unit}


def untraced(lib, workload, seed, seconds, workdir, clock, queries, setup_s):
    tally = Tally()
    p = run_pass(queries)
    tally.add(queries, p)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    per_pass = len(queries)
    passes = max(1, round(seconds / p.wall))
    wall, scaled_wall, slowdowns = p.wall, p.scaled_wall, [statistics.mean(p.slowdowns)]
    for k in range(1, passes):
        queries = make_pass(lib, workload, seed, k, workdir / ("pass%d" % k), clock)
        p = run_pass(queries)
        tally.add(queries, p)
        wall += p.wall
        scaled_wall += p.scaled_wall
        slowdowns.append(statistics.mean(p.slowdowns))
    lat = sorted(tally.latencies_ms)
    beyond = TAIL_BEYOND * passes  # ten per pass keeps the percentile fixed per workload
    info = {
        "workload": workload, "seed": seed, "passes": passes, "queries_per_pass": per_pass,
        "samples": len(lat), "tail_percentile": round(100.0 * (1 - beyond / len(lat)), 3),
        "timed_s": wall, "slowdown": slowdowns, "unscaled_verdicts_per_s": tally.correct / wall,
        "known_defects": tally.known_defects[:20], "problems": tally.problems[:20],
    }
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "verdicts_per_s": metric(tally.correct / scaled_wall, "1/s"),
        "query_p50_ms": metric(statistics.median(lat), "ms"),
        "query_tail_ms": metric(lat[len(lat) - beyond - 1], "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
        "correct_ratio": metric(tally.correct / tally.attempted, "ratio"),
        "decided_ratio": metric(tally.decided / tally.attempted, "ratio"),
    }
    return tally, info, metrics


def traced(lib, workload, queries):
    # Untraced reference pass over the same inputs, for the overhead ratio.
    ref_pass = run_pass(queries)
    ref = Tally()
    ref.add(queries, ref_pass)

    tracer = Tracer()
    tracer.install(lib)
    try:
        p = run_pass(queries, tracer)
        n_query_spans = len(tracer.spans)
        # The interpreter floor: the referee's own run on each input it has.
        for i, q in enumerate(queries):
            if q.interp is not None:
                tracer.qid = i
                tracer.root("referee", q.interp)
    finally:
        tracer.uninstall()
    tally = Tally()
    tally.add(queries, p)
    tally.problems += ref.problems
    wall = p.elapsed  # spans include the probes that ran inside them

    spans = tracer.spans
    selfs = self_times(spans)
    q_spans, r_spans = spans[:n_query_spans], spans[n_query_spans:]
    sums = defaultdict(float)
    for s, t in zip(q_spans, selfs):
        sums[LAYER[s[NAME]]] += t
    roots = sum(s[END] - s[START] for s in q_spans if s[NAME] == "query")
    sums["bench.self_s"] += wall - roots  # loop overhead between queries
    accounted = sum(sums.values())
    if min(selfs, default=0.0) < -1e-6 or abs(accounted - wall) > 0.01 * wall:
        tally.problems.append("trace does not account for the traced wall time: "
                              "%.4f s of %.4f s" % (accounted, wall))

    def named(name, pool=q_spans):
        return [s for s in pool if s[NAME] == name]

    # a call that raised recorded no info; it counts as a call but adds no states
    explores = named("semantics.build_lts")
    finished = [s[INFO] for s in explores if s[INFO] is not None]
    states = sum(i[0] for i in finished)
    transitions = sum(i[1] for i in finished)
    measures = [i for i, s in enumerate(q_spans)
                if s[NAME] in MEASURES and not has_ancestor(q_spans, i, MEASURES)]
    measured_explores = sum(1 for i, s in enumerate(q_spans)
                            if s[NAME] == "semantics.build_lts"
                            and has_ancestor(q_spans, i, MEASURES))
    rows = sum(s[INFO] or 0 for s in named("complexity.check_computes"))
    oracle = named("cli.oracle")
    bisims = [s for s in named("bisim.rb_bisim") if s[INFO] is not None]
    interp = [s for s in named("machines.run_bbram", r_spans) if s[INFO] is not None]
    interp_s = sum(s[END] - s[START] for s in interp)
    interp_steps = sum(s[INFO] for s in interp)

    loops = {i for i, q in enumerate(queries) if q.kind == "division-loop"}
    loop_explore = [s for s in explores if s[QID] in loops and s[INFO] is not None]
    loop_interp = [s for s in interp if s[QID] in loops]
    interp_gap = 0.0
    if loop_explore and loop_interp:
        per_state = sum(s[END] - s[START] for s in loop_explore) / sum(s[INFO][0] for s in loop_explore)
        per_step = sum(s[END] - s[START] for s in loop_interp) / sum(s[INFO] for s in loop_interp)
        interp_gap = per_state / per_step

    values = {key: sums.get(key, 0.0) for key in sorted(set(LAYER.values()))}
    values.update({
        "machines.interp_s": interp_s,
        "machines.interp_steps_per_s": interp_steps / interp_s if interp_s else 0.0,
        "semantics.explore_calls": len(explores),
        "semantics.states": states,
        "semantics.transitions": transitions,
        "semantics.states_per_s": states / sums["semantics.explore_s"] if explores else 0.0,
        "semantics.new_state_ratio": (states - len(finished)) / transitions if transitions else 0.0,
        "semantics.cap_hits": sum(1 for i in finished if i[2]),
        "semantics.interp_slowdown": interp_gap,
        "complexity.explores_per_query": measured_explores / len(measures) if measures else 0.0,
        "complexity.rows": rows,
        "bisim.calls": len(bisims),
        "bisim.states_compared": sum(s[INFO] for s in bisims),
        "cli.oracle_calls": len(oracle),
        "cli.oracle_ms_per_call": 1000.0 * sums["cli.oracle_s"] / len(oracle) if oracle else 0.0,
        "cli.oracle_calls_per_row": len(oracle) / rows if rows else 0.0,
        "trace_overhead_ratio": p.scaled_wall / ref_pass.scaled_wall,
        "failed_ratio": tally.failed / tally.attempted,
        "verdicts_attempted": tally.attempted,
    })
    info = {"workload": workload, "queries": len(queries), "spans": len(spans),
            "traced_s": wall, "untraced_s": ref_pass.elapsed,
            "slowdown": [statistics.mean(ref_pass.slowdowns), statistics.mean(p.slowdowns)],
            "known_defects": tally.known_defects[:20], "problems": tally.problems[:20]}
    metrics = {k: metric(v, UNITS.get(k, "s")) for k, v in values.items()}
    return tally, info, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/ramproc/cli.py", "tests/axiom_defs.py") if not (ROOT / p).is_file()]
    if missing:
        print("error: not a ramproc checkout (missing %s)" % ", ".join(missing), file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

    workdir = ROOT / ".perfbench_work" / ("%s-%d-%d" % (args.workload, args.seed, time.time_ns()))
    clock = RefereeClock()
    try:
        setup_times = []
        for r in range(SETUP_REPEATS):
            # each repeat writes fresh files, as a first set-up would
            before = slowdown(5)
            t0, r0 = time.perf_counter(), clock.seconds
            lib = load_lib(args.workload == "law_equiv")
            queries = make_pass(lib, args.workload, args.seed, 0, workdir / ("setup%d" % r), clock)
            elapsed = time.perf_counter() - t0 - (clock.seconds - r0)
            setup_times.append(elapsed / ((before + slowdown(5)) / 2))
            if r:
                shutil.rmtree(workdir / ("setup%d" % (r - 1)))
        if args.trace:
            tally, info, metrics = traced(lib, args.workload, queries)
        else:
            tally, info, metrics = untraced(lib, args.workload, args.seed, args.seconds,
                                            workdir, clock, queries,
                                            statistics.median(setup_times))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(info))
    print(json.dumps({"correct": tally.all_correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
