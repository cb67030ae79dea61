"""Self-tests of the benchmark's referees and failure accounting.

    python3 perfbench/selftest.py

Each referee must reject a deliberately wrong answer, and an exception
raised inside a query must be counted rather than propagated.  Run from
the repository root; exits non-zero on failure.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[0:0] = [str(HERE), str(HERE.parent / "src"), str(HERE.parent / "tests")]

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import NAME, Tracer, self_times  # noqa: E402


def measure_output(measure, value, states, per_component=None):
    report = {"measure": measure, "value": value, "states": states, "transitions": 0}
    if per_component is not None:
        report["per_component"] = per_component
    return 0, json.dumps(report, indent=2, sort_keys=True) + "\n"


def check_output(statuses):
    lines = ["input expected got steps bound status"]
    for (a, b), status in statuses.items():
        lines.append("(%s, %s) 0 0 1 3  %s" % (a or "e", b or "e", status))
    return "\n".join(lines) + "\n"


class RefereeTests(unittest.TestCase):
    def test_measure_referee_rejects_off_by_one(self):
        n, m = 3, 4
        judge = W.judge_measure("apramp", "aputm", n, m)
        per = {str(i): m + 1 for i in range(1, n + 1)}
        self.assertEqual(judge(measure_output("aputm", m + 1, (m + 2) ** n, per)), (1, 1))
        self.assertEqual(judge(measure_output("aputm", m + 2, (m + 2) ** n, per))[0], 0)
        self.assertEqual(judge(measure_output("aputm", m + 1, (m + 2) ** n + 1, per))[0], 0)
        work = W.judge_measure("spramp", "spwm", n, m)
        self.assertEqual(work(measure_output("spwm", n * (m + 1), (m + 1) * 2 ** n + 1))[0], 1)
        self.assertEqual(work(measure_output("spwm", n * (m + 1) - 1, (m + 1) * 2 ** n + 1))[0], 0)

    def test_check_referee_rejects_broken_row_marked_pass(self):
        pairs = W.all_pairs(1)
        truth = {p: "fail" if W.value(p[0]) != W.value(p[1]) else "pass" for p in pairs}
        judge = W.judge_check(False, 1)
        self.assertEqual(judge((1, check_output(truth))), (len(pairs), len(pairs)))
        lied = dict(truth)
        lied[("1", "")] = "pass"
        self.assertEqual(judge((1, check_output(lied)))[0], len(pairs) - 1)
        all_pass = {p: "pass" for p in pairs}
        self.assertEqual(W.judge_check(True, 1)((0, check_output(all_pass)))[0], len(pairs))
        self.assertEqual(W.judge_check(True, 1)((1, check_output(all_pass)))[0], 0)

    def test_law_referee_rejects_known_false_pair(self):
        self.assertEqual(W.judge_bool(False)(True), (0, 1))
        self.assertEqual(W.judge_bool(True)(False), (0, 1))
        self.assertEqual(W.judge_bool(False)(False), (1, 1))

    def test_negative_controls_are_not_bisimilar(self):
        lib = run.load_lib(True)
        for lhs, rhs in W.negative_controls(lib.terms, ("x", "y", "z")):
            self.assertFalse(W._bisim_call(lib, lhs, rhs, lib.axiom_defs.GAMMA)())

    def test_run_referee_rejects_wrong_memory(self):
        lines = ["halts: yes", "final memory: RM = [0:1]"]
        judge = W.judge_lines(0, lines)
        self.assertEqual(judge((0, "halts: yes\nfinal memory: RM = [0:1]\n")), (1, 1))
        self.assertEqual(judge((0, "halts: yes\nfinal memory: RM = [0:01]\n"))[0], 0)
        self.assertEqual(judge((3, "undecided: exploration stopped at 3000 states\n")), (0, 0))


def _raise(exc):
    def call():
        raise exc

    return call


class AccountingTests(unittest.TestCase):
    def test_exception_in_query_is_counted_not_propagated(self):
        queries = [
            W.Query("ok", lambda: True, W.judge_bool(True)),
            W.Query("crash", _raise(RuntimeError("boom")), W.judge_bool(True), verdicts=3),
            W.Query("defect", _raise(RecursionError()), W.judge_bool(True),
                    known_defect="RecursionError"),
            W.Query("exit", _raise(SystemExit(2)), W.judge_bool(True)),
        ]
        tally = run.Tally()
        tally.add(queries, run.run_pass(queries))
        self.assertEqual((tally.attempted, tally.correct, tally.missing, tally.failed), (6, 1, 5, 5))
        self.assertEqual(tally.known_defects, ["defect: RecursionError"])
        self.assertEqual(len(tally.problems), 2)
        self.assertFalse(tally.all_correct)
        self.assertEqual(sorted(tally.latencies_ms)[1:], [float("inf")] * 3)

    def test_known_defect_alone_keeps_the_run_correct(self):
        queries = [W.Query("defect", _raise(RecursionError()), W.judge_bool(True),
                           known_defect="RecursionError")]
        tally = run.Tally()
        tally.add(queries, run.run_pass(queries))
        self.assertTrue(tally.all_correct)
        self.assertEqual(tally.failed, 1)


class TracerTests(unittest.TestCase):
    def test_wrappers_reach_imported_names_and_come_off(self):
        lib = run.load_lib(False)
        build = lib.semantics.build_lts
        tracer = Tracer()
        tracer.install(lib)
        try:
            self.assertIsNot(lib.complexity.build_lts, build)
            self.assertIs(lib.complexity.build_lts, lib.semantics.build_lts)
            self.assertIs(lib.complexity.MEASURES["sutm"], lib.complexity.sutm)
            prog = lib.machines.parse_program("add:#1:#1:0\nhalt\n")
            rho = lib.terms.Valuation.make({"RM": lib.memory.EMPTY_MEM})
            tracer.root("query", lambda: lib.complexity.MEASURES["swm"](
                lib.machines.proc_of_bbram(prog), rho))
        finally:
            tracer.uninstall()
        self.assertIs(lib.semantics.build_lts, build)
        self.assertIs(lib.complexity.build_lts, build)
        names = [s[NAME] for s in tracer.spans]
        self.assertIn("complexity.swm", names)
        self.assertIn("complexity.sutm", names)
        self.assertIn("semantics.build_lts", names)
        selfs = self_times(tracer.spans)
        r = names.index("query")  # parse_program ran before the root span
        root = tracer.spans[r]
        self.assertAlmostEqual(sum(selfs[r:]), root[2] - root[1], places=9)
        self.assertTrue(all(t >= 0 for t in selfs))


if __name__ == "__main__":
    unittest.main()
