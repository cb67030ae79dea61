import hashlib
import json
import os
import random
import signal
import subprocess
import sys

import pytest

from ramproc import cli, complexity, semantics
from ramproc import terms as T
from ramproc.cli import _external_oracle, main
from ramproc.complexity import (
    FunctionSpec, all_inputs, check_computes, format_check_table, parse_affine,
)
from ramproc.machines import format_program, parse_instr, parse_program, proc_of_bbram
from ramproc.memory import EMPTY_MEM
from ramproc.syntax import format_term, parse_term

import sample_terms
from test_machines import (
    _compile_machine, _components, _random_mem, _random_program, _random_programs,
)
from test_semantics import _fingerprint_corpus

ADD_ORACLE = r"""#!/usr/bin/env python3
import sys

words = sys.stdin.readline().split()
total = sum(int(w[::-1], 2) for w in words if w != "e")
print(bin(total)[2:][::-1])
"""


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_compile_halt(tmp_path, capsys):
    prog = _write(tmp_path, "p.rp", "halt\n")
    assert main(["compile", prog]) == 0
    assert capsys.readouterr().out == "rec X1 {X1 = True :-> eps}\n"


def test_compile_inverse_round_trip(tmp_path, capsys):
    prog = _write(tmp_path, "div.rp", sample_terms.DIVISION_PROGRAM)
    assert main(["compile", prog]) == 0
    term_file = _write(tmp_path, "div.term", capsys.readouterr().out)
    assert main(["compile", "--inverse", term_file]) == 0
    assert capsys.readouterr().out == sample_terms.DIVISION_PROGRAM


@pytest.mark.parametrize("model", ["apramp", "spramp"])
def test_compile_inverse_of_a_composition(tmp_path, capsys, model):
    """`compile --inverse --model M` prints each component's program, with a
    `---` line, which no instruction reads as, between two; compiled again,
    the parts give the term back up to equation names."""
    with pytest.raises(ValueError):
        parse_instr("---")
    rng = random.Random(model)
    for _ in range(40):
        t = _compile_machine(model, _random_programs(rng, model))
        names = sorted({n for c in _components(model, t) for n in c.spec.vars()})
        fresh = ["Q%d" % k for k in range(len(names))]
        rng.shuffle(fresh)
        renamed = T.rename_rec_vars(t, dict(zip(names, fresh)))
        term = _write(tmp_path, "t.term", format_term(renamed))
        assert main(["compile", "--inverse", "--model", model, term]) == 0
        parts = capsys.readouterr().out.split("---\n")
        assert len(parts) == len(_components(model, t))
        files = [_write(tmp_path, "c%d.rp" % i, part) for i, part in enumerate(parts)]
        assert main(["compile", "--model", model, *files]) == 0
        back = parse_term(capsys.readouterr().out)
        assert T.canonical_rename(back) == T.canonical_rename(renamed)
    other = "spramp" if model == "apramp" else "apramp"
    assert main(["compile", "--inverse", "--model", other, term]) == 1
    assert main(["compile", "--inverse", term]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_compile_inverse_too_deep_term(tmp_path, capsys):
    term_file = _write(tmp_path, "deep.term", "(" * 400 + "a" + ")" * 400)
    assert main(["compile", "--inverse", term_file]) == 1
    assert capsys.readouterr().err.startswith("error: input nests too deeply to parse")


def test_compile_parse_error_names_file(tmp_path, capsys):
    prog = _write(tmp_path, "bad.rp", "frob:1:2:3\nhalt\n")
    assert main(["compile", prog]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.rp" in err


def test_compile_parallel_models(tmp_path, capsys):
    a = _write(tmp_path, "a.rp", "halt\n")
    b = _write(tmp_path, "b.rp", "halt\n")
    assert main(["compile", a, b, "--model", "apramp"]) == 0
    out = capsys.readouterr().out
    assert "||" in out and "RM_1" in out and "RM_2" in out
    assert main(["compile", a, b, "--model", "spramp"]) == 0
    assert "||sync" in capsys.readouterr().out
    assert main(["compile", a, b]) == 1
    assert "exactly one program" in capsys.readouterr().err


def test_run_addition(tmp_path, capsys):
    prog = _write(tmp_path, "add.rp", sample_terms.ADDITION_PROGRAM)
    mem = _write(tmp_path, "rm.mem", "1 = 11\n2 = 1\n")
    assert main(["run", prog, "--mem", "RM=%s" % mem, "--fuel", "50"]) == 0
    out = capsys.readouterr().out
    assert "halts: yes" in out
    assert "states: 2  transitions: 1" in out
    assert "steps (non-silent, longest run): 1" in out
    assert "final memory: RM = [0:001, 1:11, 2:1]" in out
    assert "interpreter: halted in 1 steps (agrees)" in out


def test_run_doubling_loop_hits_state_cap(tmp_path, capsys):
    # the register doubles every round, so values reach thousands of bits
    dbl = _write(tmp_path, "dbl.rp", "add:1:#1:1\nadd:1:1:1\njmp:eq:#0:#0:2\nhalt\n")
    assert main(["run", dbl, "--max-states", "2000"]) == 3
    assert capsys.readouterr().out == "undecided: exploration stopped at 2000 states\n"


def test_run_division(tmp_path, capsys):
    prog = _write(tmp_path, "div.rp", sample_terms.DIVISION_PROGRAM)
    mem = _write(tmp_path, "rm.mem", "1 = 1101\n2 = 11\n")
    assert main(["run", prog, "--mem", "RM=%s" % mem, "--fuel", "100"]) == 0
    out = capsys.readouterr().out
    assert "halts: yes" in out
    assert "interpreter: halted in 14 steps (agrees)" in out
    line = [l for l in out.splitlines() if l.startswith("final memory")][0]
    assert "0:11" in line and "3:01" in line  # quotient 3, remainder 2


def test_run_nonhalting(tmp_path, capsys):
    prog = _write(tmp_path, "loop.rp", "jmp:eq:#0:#0:1\nhalt\n")
    assert main(["run", prog]) == 2
    out = capsys.readouterr().out
    assert "halts: no" in out
    assert "final memory" not in out


def test_run_undecided_cap(tmp_path, capsys):
    prog = _write(tmp_path, "count.rp", "add:0:#1:0\njmp:eq:#0:#0:1\nhalt\n")
    assert main(["run", prog, "--max-states", "10"]) == 3
    assert "undecided: exploration stopped at" in capsys.readouterr().out


def test_run_lts_export(tmp_path, capsys):
    prog = _write(tmp_path, "add.rp", sample_terms.ADDITION_PROGRAM)
    jpath = tmp_path / "out.json"
    dpath = tmp_path / "out.dot"
    assert main(["run", prog, "--lts", str(jpath)]) == 0
    assert main(["run", prog, "--lts", str(dpath), "--format", "dot"]) == 0
    capsys.readouterr()
    data = json.loads(jpath.read_text())
    assert data["initial"] == 0 and len(data["states"]) == 2
    assert dpath.read_text().startswith("digraph")


def _export_corpus():
    """(label, Lts) of the fingerprint corpus, then of seeded sequential
    machines and of apramp and spramp compositions of one to three
    components, each explored under a cap drawn from 3, 40 and 400, so that
    some explode."""
    yield from _fingerprint_corpus()
    rng = random.Random(3434)
    for k in range(300):
        prog = _random_program(rng, rng.randint(0, 8))
        rho = T.Valuation.make({"RM": _random_mem(rng)})
        yield "ramp-%d" % k, semantics.build_lts(proc_of_bbram(prog), rho,
                                                 rng.choice((3, 40, 400)))
    for model in ("apramp", "spramp"):
        for k in range(60):
            t = _compile_machine(model, _random_programs(rng, model))
            rho = T.Valuation.make({v: EMPTY_MEM for v in T.flexvars_term(t)})
            yield "%s-%d" % (model, k), semantics.build_lts(t, rho.set("RM", _random_mem(rng)),
                                                             rng.choice((3, 40, 400)))


# sha256 over each label and the `--format dot` file of its LTS in `_export_corpus`,
# pinned so that the dot files stay as they are
DOT_DIGEST = "78588afdbdaf1fc610247aa0efb69964716c17172e44b0039c4eec1d52995721"


def test_lts_export_is_json_dumps_byte_for_byte(tmp_path):
    """The `--lts` file is `json.dumps(lts_to_json(l), indent=2)` and a newline,
    byte for byte, and each state's text is `format_term` of its term, on
    vector, term-path and exploded LTSs alike; `--format dot` files are
    as they were."""
    path = tmp_path / "l.export"
    dot = hashlib.sha256()
    vectors = exploded = 0
    for label, l in _export_corpus():
        cli._export_lts(l, path, "json")
        d = semantics.lts_to_json(l)
        assert path.read_text() == json.dumps(d, indent=2) + "\n", label
        assert [s["term"] for s in d["states"]] == list(map(format_term, l.states)), label
        cli._export_lts(l, path, "dot")
        dot.update(label.encode())
        dot.update(path.read_bytes())
        vectors += type(l.states) is semantics._StateTerms
        exploded += l.exploded
    assert vectors == 540 and exploded > 100
    assert dot.hexdigest() == DOT_DIGEST


def test_lts_export_of_a_halt_program(tmp_path, capsys):
    """A program that halts at once exports an empty transition list."""
    prog = _write(tmp_path, "halt.rp", "halt\n")
    path = tmp_path / "halt.json"
    assert main(["run", prog, "--lts", str(path)]) == 0
    l = semantics.build_lts(proc_of_bbram(parse_program("halt\n")),
                            T.Valuation.make({"RM": EMPTY_MEM}))
    assert path.read_text() == json.dumps(semantics.lts_to_json(l), indent=2) + "\n" == """\
{
  "initial": 0,
  "exploded": false,
  "states": [
    {
      "id": 0,
      "term": "eval{RM = []}(rec X1 {X1 = True :-> eps})",
      "success": true
    }
  ],
  "transitions": []
}
"""


def test_measure_sutm(tmp_path, capsys):
    prog = _write(tmp_path, "div.rp", sample_terms.DIVISION_PROGRAM)
    mem = _write(tmp_path, "rm.mem", "1 = 1101\n2 = 11\n")
    assert main(["measure", prog, "--measure", "sutm", "--mem", "RM=%s" % mem]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["measure"] == "sutm" and data["value"] == 14


def test_measure_parallel(tmp_path, capsys):
    a = _write(tmp_path, "a.rp", "add:1:1:1\nadd:1:1:1\nadd:1:1:1\nhalt\n")
    b = _write(tmp_path, "b.rp", "add:2:2:2\nhalt\n")
    assert main(["measure", a, b, "--model", "apramp", "--measure", "aputm"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 4
    assert data["per_component"] == {"1": 4, "2": 2}


def test_measure_parallel_equal_store_labels(tmp_path, capsys):
    # equal store labels from two components still count for each: the
    # labels' mentions come from the exploration, not from the valuation
    a = _write(tmp_path, "a.rp", "sto:#1:@1\nhalt\n")
    b = _write(tmp_path, "b.rp", "sto:#1:@1\nhalt\n")
    assert main(["measure", a, b, "--model", "apramp", "--measure", "aputm"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] == 2 and data["per_component"] == {"1": 2, "2": 2}


@pytest.mark.parametrize("model, texts", [
    ("ramp", ["halt\n"]),
    ("ramp", [sample_terms.DIVISION_PROGRAM]),
    ("apramp", ["halt\n"]),
    ("apramp", ["add:1:1:1\nhalt\n", "loa:@0:2\nsto:2:@1\nhalt\n", "halt\n"]),
    ("spramp", ["add:1:1:1\njmp:eq:#0:#0:1\nhalt\n", "halt\n"]),
    ("spramp", ["sto:#1:@1\nhalt\n", "loa:@0:2\nhalt\n"]),
])
def test_valuation_binds_what_the_machine_reads(tmp_path, model, texts):
    files = [_write(tmp_path, "p%d.rp" % k, text) for k, text in enumerate(texts)]
    args = cli._parser().parse_args(["run", *files, "--model", model])
    term, _ = cli._build_term(args)
    rho = cli._valuation(args)
    assert set(rho.names()) == T.flexvars_term(term) | {"RM"}
    assert {m for _, m in rho.entries} == {EMPTY_MEM}


def test_measure_too_deep_composition(tmp_path, capsys):
    # 1,200 components nest deeper than the step rules' stack: measure reports
    # it as run does, with no traceback from checking the composition's shape
    prog = _write(tmp_path, "p.rp", "add:0:#1:1\nhalt\n")
    for argv in (["run"], ["measure", "--measure", "aputm"]):
        assert main(argv + ["--model", "apramp"] + [prog] * 1200) == 1
        assert capsys.readouterr().err.startswith(
            "error: term too deep to explore: it nests 1206 operators")


def test_measure_model_mismatch(tmp_path, capsys):
    prog = _write(tmp_path, "p.rp", "halt\n")
    assert main(["measure", prog, "--measure", "sputm"]) == 2
    assert "applies to the spramp model" in capsys.readouterr().err


def test_measure_undefined(tmp_path, capsys):
    prog = _write(tmp_path, "loop.rp", "jmp:eq:#0:#0:1\nhalt\n")
    assert main(["measure", prog, "--measure", "sutm"]) == 2
    assert "does not eventually halt" in capsys.readouterr().err


def test_check_addition_against_oracle(tmp_path, capsys):
    oracle = _write(tmp_path, "oracle.py", ADD_ORACLE)
    prog = _write(tmp_path, "add.rp", sample_terms.ADDITION_PROGRAM)
    rc = main(["check", prog, "--oracle", "python3 %s" % oracle,
               "--arity", "2", "--max-len", "1", "--bound", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "checked 9 inputs: 9 passed, 0 failed, 0 undecided" in out
    assert out.splitlines()[0].split()[0] == "input"


def test_check_broken_addition(tmp_path, capsys):
    oracle = _write(tmp_path, "oracle.py", ADD_ORACLE)
    prog = _write(tmp_path, "bad.rp", sample_terms.BROKEN_ADDITION_PROGRAM)
    rc = main(["check", prog, "--oracle", "python3 %s" % oracle,
               "--arity", "2", "--max-len", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "0 failed" not in out and "wrong result" in out


def test_check_undef_everywhere(tmp_path, capsys):
    oracle = _write(tmp_path, "undef.py", "print('undef')\n")
    prog = _write(tmp_path, "p.rp", "halt\n")
    rc = main(["check", prog, "--oracle", "python3 %s" % oracle,
               "--arity", "1", "--max-len", "1"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "halts where the function is undefined" in out


def test_check_oracle_crash(tmp_path, capsys):
    prog = _write(tmp_path, "p.rp", "halt\n")
    rc = main(["check", prog, "--oracle", "false", "--arity", "1", "--max-len", "0"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "oracle error" in out


def test_missing_file_reports_error(capsys):
    assert main(["compile", "/nonexistent/p.rp"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_oracle_asks_each_input_once(tmp_path):
    log = tmp_path / "calls.log"
    script = _write(tmp_path, "oracle.py",
                    "import sys\nopen(%r, 'a').write('x')\nprint(sys.stdin.readline().split()[0])\n"
                    % str(log))
    oracle = _external_oracle("%s %s" % (sys.executable, script))
    assert oracle(("1", "")) == "1"
    assert oracle(["1", ""]) == "1"
    assert log.read_text() == "x"


# Numbers in every input format are ASCII decimal digits; `int` alone would
# take a sign, `_` separators and the digits of other scripts.
@pytest.mark.parametrize("files, argv, message", [
    ({"p.rp": "add:#1_0:1:0\nhalt\n"}, ["compile", "p.rp"], "expected a decimal natural, got '1_0'"),
    ({"p.rp": "add:#+1:1:0\nhalt\n"}, ["compile", "p.rp"], "expected a decimal natural, got '+1'"),
    ({"p.rp": "jmp:eq:#0:#0:\u0661\nhalt\n"}, ["compile", "p.rp"], "got '\u0661'"),
    ({"t.term": "rec X1 {X1 = True :-> RM := add:#\u0661:1:0(RM) . X2, X2 = True :-> eps}"},
     ["compile", "--inverse", "t.term"], "unexpected character '\u0661' at offset 33"),
    ({"p.rp": "halt\n", "m": "\u0661=1\n"}, ["run", "p.rp", "--mem", "RM=m"], "m:1: expected a decimal natural"),
    ({"p.rp": "halt\n", "m": "-1=1\n"}, ["run", "p.rp", "--mem", "RM=m"], "m:1: expected a decimal natural"),
    ({"p.rp": "halt\n"}, ["check", "p.rp", "--oracle", "echo e", "--arity", "0", "--bound", "\u0661"],
     "expected an affine bound"),
], ids=["underscore", "sign", "jump-target", "term-lexer", "mem-file-digit", "mem-file-sign", "bound"])
def test_malformed_naturals_are_refused(tmp_path, capsys, monkeypatch, files, argv, message):
    for name, text in files.items():
        _write(tmp_path, name, text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def _over_the_limit():
    """A decimal natural one digit longer than `int` converts."""
    return "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("files", [
    {"p.rp": "add:#%s:1:0\nhalt\n"},
    {"p.rp": "jmp:eq:#0:#0:%s\nhalt\n"},
    {"p.rp": "halt\n", "m": "%s=1\n"},
], ids=["immediate", "jump-target", "mem-file-index"])
def test_naturals_over_the_conversion_limit_are_refused(tmp_path, capsys, monkeypatch, files):
    for name, text in files.items():
        _write(tmp_path, name, text.replace("%s", _over_the_limit()))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "p.rp", "--mem", "RM=m"] if "m" in files else ["run", "p.rp"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    limit = sys.get_int_max_str_digits()
    assert captured.err.startswith("error: ") and captured.err.endswith(
        "decimal natural of %d digits is over the limit of %d digits\n" % (limit + 1, limit))


@pytest.mark.parametrize("argv", [
    ["run", "--max-states", "1_0"],
    ["run", "--max-states", "+5"],
    ["run", "--fuel", "\u0661"],
    ["run", "--fuel", "-\u0661"],
    ["run", "--fuel", "- 1"],
    ["run", "--fuel", " 1"],
    ["measure", "--measure", "sutm", "--max-states", "1e3"],
    ["check", "--oracle", "false", "--arity", "0x1"],
    ["check", "--oracle", "false", "--max-len", ""],
    ["check", "--oracle", "false", "--max-states", None],
], ids=["underscore", "plus", "other-digit", "negative-other-digit", "space-after-minus",
        "space-before", "exponent",
        "hex", "empty", "over-the-limit"])
def test_numeric_options_are_ascii_decimals(tmp_path, capsys, argv):
    value = argv[-1] if argv[-1] is not None else _over_the_limit()
    prog = _write(tmp_path, "p.rp", "halt\n")
    with pytest.raises(SystemExit) as exit_:
        main(argv[:1] + [prog] + argv[1:-1] + [value])
    captured = capsys.readouterr()
    assert (exit_.value.code, captured.out) == (2, "")
    assert captured.err.endswith("error: argument %s: invalid int value: %r\n" % (argv[-2], value))


@pytest.mark.parametrize("argv, message", [
    (["check", "--oracle", "false", "--arity", "-1"], "--arity must be at least 0, got -1"),
    (["check", "--oracle", "false", "--max-len", "-2"], "--max-len must be at least 0, got -2"),
    (["check", "--oracle", "false", "--max-states", "0"], "--max-states must be at least 1, got 0"),
    (["run", "--max-states", "0"], "--max-states must be at least 1, got 0"),
    (["run", "--max-states", "-5"], "--max-states must be at least 1, got -5"),
    (["run", "--fuel", "-1"], "--fuel must be at least 0, got -1"),
    (["measure", "--measure", "sutm", "--max-states", "0"], "--max-states must be at least 1, got 0"),
    (["measure", "--measure", "sutm", "--max-states", "-5"], "--max-states must be at least 1, got -5"),
], ids=["check-arity", "check-max-len", "check-max-states", "run-max-states-0",
        "run-max-states-neg", "run-fuel", "measure-max-states-0", "measure-max-states-neg"])
def test_numeric_options_out_of_range(tmp_path, capsys, argv, message):
    prog = _write(tmp_path, "p.rp", "halt\n")
    assert main(argv[:1] + [prog] + argv[1:]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message


_CHECK_HEADER = "input                    expected     got             steps    bound  status\n"

_ADDER_TABLE = _CHECK_HEADER + """\
(e, e)                   0            0                   1        1  pass
(e, 0)                   0            0                   1        2  pass
(e, 1)                   1            1                   1        2  pass
(0, e)                   0            0                   1        2  pass
(0, 0)                   0            0                   1        3  pass
(0, 1)                   1            1                   1        3  pass
(1, e)                   1            1                   1        2  pass
(1, 0)                   1            1                   1        3  pass
(1, 1)                   01           01                  1        3  pass
checked 9 inputs: 9 passed, 0 failed, 0 undecided
"""

_UNDEF_TABLE = _CHECK_HEADER + """\
(e, e)                   -            0                   1        1  fail (halts where the function is undefined)
(e, 0)                   -            0                   1        2  fail (halts where the function is undefined)
(e, 1)                   -            1                   1        2  fail (halts where the function is undefined)
(0, e)                   -            0                   1        2  fail (halts where the function is undefined)
(0, 0)                   -            0                   1        3  fail (halts where the function is undefined)
(0, 1)                   -            1                   1        3  fail (halts where the function is undefined)
(1, e)                   -            1                   1        2  fail (halts where the function is undefined)
(1, 0)                   -            1                   1        3  fail (halts where the function is undefined)
(1, 1)                   -            01                  1        3  fail (halts where the function is undefined)
checked 9 inputs: 0 passed, 9 failed, 0 undecided
"""

_ERROR_TABLE = _CHECK_HEADER + """\
(e, e)                   -            -                   -        1  fail (oracle error: {note})
(e, 0)                   -            -                   -        2  fail (oracle error: {note})
(e, 1)                   -            -                   -        2  fail (oracle error: {note})
(0, e)                   -            -                   -        2  fail (oracle error: {note})
(0, 0)                   -            -                   -        3  fail (oracle error: {note})
(0, 1)                   -            -                   -        3  fail (oracle error: {note})
(1, e)                   -            -                   -        2  fail (oracle error: {note})
(1, 0)                   -            -                   -        3  fail (oracle error: {note})
(1, 1)                   -            -                   -        3  fail (oracle error: {note})
checked 9 inputs: 0 passed, 9 failed, 0 undecided
"""


@pytest.mark.parametrize("oracle, rc, table", [
    ("adder", 0, _ADDER_TABLE),
    ("false", 1, _ERROR_TABLE.format(note="oracle exited with 1")),
    ("/nonexistent/oracle", 1,
     _ERROR_TABLE.format(note="[Errno 2] No such file or directory: '/nonexistent/oracle'")),
    ("garbage", 1, _ERROR_TABLE.format(note="oracle produced '2'")),
    ("undef", 1, _UNDEF_TABLE),
], ids=["adder", "false", "missing", "garbage", "undef"])
def test_check_output_pinned(tmp_path, capsys, oracle, rc, table):
    commands = {
        "adder": "%s %s" % (sys.executable, _write(tmp_path, "oracle.py", ADD_ORACLE)),
        "garbage": "%s -c \"print('2')\"" % sys.executable,
        "undef": "%s %s" % (sys.executable, _write(tmp_path, "undef.py", "print('undef')\n")),
    }
    prog = _write(tmp_path, "add.rp", sample_terms.ADDITION_PROGRAM)
    assert main(["check", prog, "--oracle", commands.get(oracle, oracle),
                 "--arity", "2", "--max-len", "1", "--bound", "n+1"]) == rc
    captured = capsys.readouterr()
    assert captured.out == table
    assert captured.err == ""


# Two lockstep components that read no input, so sputm is one value S on
# every input.
_LOCKSTEP = ("add:1:#1:1\nnot:1:2\nhalt\n", "mov:#1:1\nsto:1:@1\nhalt\n")


def test_check_bounds_a_measure(tmp_path, capsys):
    files = [_write(tmp_path, "p%d.rp" % k, text) for k, text in enumerate(_LOCKSTEP, start=1)]
    assert main(["measure", *files, "--model", "spramp", "--measure", "sputm"]) == 0
    s = json.loads(capsys.readouterr().out)["value"]
    argv = ["check", *files, "--model", "spramp", "--oracle", "echo e", "--arity", "1",
            "--max-len", "1", "--measure", "sputm", "--bound"]
    for bound, rc, status in ((s, 0, "pass"), (s - 1, 1, "fail (measure over the bound)")):
        assert main(argv + [str(bound)]) == rc
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5 and lines[-1].startswith("checked 3 inputs")
        for row in lines[1:-1]:
            assert row.split()[3:5] == [str(s), str(bound)] and row.endswith("  " + status)
    # without the flag the bound counts every non-silent step, handshakes and all
    assert main(argv[:-3] + ["--bound", str(s)]) == 1
    assert "over the step bound" in capsys.readouterr().out


def test_check_measure_model_mismatch(tmp_path, capsys):
    prog = _write(tmp_path, "p.rp", "halt\n")
    assert main(["check", prog, "--oracle", "false", "--measure", "sputm", "--bound", "1"]) == 2
    assert capsys.readouterr() == ("", "error: measure sputm applies to the spramp model\n")


def test_check_computes_repeated_input_pinned(tmp_path):
    log = tmp_path / "starts.log"
    script = _write(tmp_path, "oracle.py",
                    "open(%r, 'a').write('x')\n" % str(log) + ADD_ORACLE)
    f = FunctionSpec(2, _external_oracle("%s %s" % (sys.executable, script)),
                     (("1", "1"), ("", "1"), ("1", "1"), ("0", ""), ("", "1")))
    t = proc_of_bbram(parse_program(sample_terms.ADDITION_PROGRAM))
    assert format_check_table(check_computes(t, f, parse_affine("n"))) == """\
input                    expected     got             steps    bound  status
(1, 1)                   01           01                  1        2  pass
(e, 1)                   1            1                   1        1  pass
(1, 1)                   01           01                  1        2  pass
(0, e)                   0            0                   1        1  pass
(e, 1)                   1            1                   1        1  pass"""
    assert log.read_text() == "xxx"


@pytest.mark.parametrize("command", ["", "   "])
def test_check_empty_oracle_command(tmp_path, capsys, monkeypatch, command):
    explored = []
    monkeypatch.setattr(complexity, "build_lts", lambda *a, **k: explored.append(a))
    prog = _write(tmp_path, "p.rp", "halt\n")
    assert main(["check", prog, "--oracle", command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --oracle needs a command\n"
    assert explored == []


class _Popens(list):
    peak = 0  # the most processes not yet reaped at one time


@pytest.fixture
def popens(monkeypatch):
    """Every process the oracle starts."""
    made = _Popens()

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)
            made.peak = max(made.peak, sum(p.returncode is None for p in made))

    monkeypatch.setattr(cli.subprocess, "Popen", Recording)
    return made


LOGGING_ORACLE = r"""import sys
open(sys.argv[1], "a").write("s")
line = sys.stdin.readline()
open(sys.argv[2], "a").write(line)
total = sum(int(w[::-1], 2) for w in line.split() if w != "e")
print(bin(total)[2:][::-1])
"""


def _logging_oracle(tmp_path):
    """An adder command that logs 's' when it starts and its input line
    once read, and the two logs."""
    starts, reads = tmp_path / "starts.log", tmp_path / "reads.log"
    script = _write(tmp_path, "oracle.py", LOGGING_ORACLE)
    return "%s %s %s %s" % (sys.executable, script, starts, reads), starts, reads


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_check_oracle_processes_bounded_and_reaped(tmp_path, capsys, monkeypatch, popens, cpus):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    command, starts, reads = _logging_oracle(tmp_path)
    prog = _write(tmp_path, "add.rp", sample_terms.ADDITION_PROGRAM)
    assert main(["check", prog, "--oracle", command, "--arity", "2", "--max-len", "1",
                 "--bound", "n+1"]) == 0
    assert capsys.readouterr().out == _ADDER_TABLE
    assert len(popens) == 9 and popens.peak == cpus
    assert all(p.returncode == 0 and p.stdout.closed for p in popens)
    assert starts.read_text() == "s" * 9
    assert reads.read_text().splitlines() == [
        "e e", "e 0", "e 1", "0 e", "0 0", "0 1", "1 e", "1 0", "1 1"]


@pytest.mark.parametrize("error, rc", [(semantics.UndecidedError, 1), (RecursionError, None)])
def test_check_failing_midway_reaps_oracle_processes(tmp_path, capsys, monkeypatch, popens,
                                                     error, rc):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    real_build_lts = complexity.build_lts
    explored = []

    def build_lts(*args, **kwargs):
        explored.append(args)
        if len(explored) == 3:
            raise error("row 3")
        return real_build_lts(*args, **kwargs)

    monkeypatch.setattr(complexity, "build_lts", build_lts)
    command, starts, reads = _logging_oracle(tmp_path)
    prog = _write(tmp_path, "add.rp", sample_terms.ADDITION_PROGRAM)
    argv = ["check", prog, "--oracle", command, "--arity", "2", "--max-len", "1"]
    if rc is None:
        with pytest.raises(error):
            main(argv)
        # rows 1-3 asked; the next three had started and are killed unread
        assert len(popens) == 6 and popens.peak == 3
        assert [p.returncode for p in popens] == [0] * 3 + [-signal.SIGKILL] * 3
        assert reads.read_text().splitlines() == ["e e", "e 0", "e 1"]
    else:
        assert main(argv) == rc
        assert "(row 3)" in capsys.readouterr().out
        assert len(popens) == 9 and popens.peak == 3
        assert all(p.returncode == 0 for p in popens)
    assert all(p.stdin.closed and p.stdout.closed for p in popens)


def test_prefetched_oracle_starts_once_per_input(tmp_path):
    command, starts, _ = _logging_oracle(tmp_path)
    f = FunctionSpec(2, _external_oracle(command), all_inputs(2, 1))
    t = proc_of_bbram(parse_program(sample_terms.ADDITION_PROGRAM))
    assert check_computes(t, f).all_pass
    assert starts.read_text() == "s" * 9
    assert check_computes(t, f).all_pass
    assert starts.read_text() == "s" * 9


def test_oracle_asked_out_of_hint_order(tmp_path, monkeypatch, popens):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    command, _, reads = _logging_oracle(tmp_path)
    oracle = _external_oracle(command)
    oracle.prefetch([("1", "1"), ("1", ""), ("", "")])
    assert oracle(("", "")) == "0"
    assert oracle(("1", "1")) == "01"
    assert oracle(("1", "")) == "1"
    oracle.prefetch(())
    assert popens.peak == 2
    assert all(p.returncode is not None for p in popens)
    assert reads.read_text().splitlines() == ["e e", "1 1", "1 e"]


@pytest.mark.parametrize("name", ["", " RM", "1x", "RM-1"])
def test_mem_name_must_be_an_identifier(tmp_path, capsys, name):
    prog = _write(tmp_path, "halt.rp", "halt\n")
    mem = _write(tmp_path, "m.mem", "1=1\n")
    assert main(["run", prog, "--mem", "%s=%s" % (name, mem)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --mem NAME must be an identifier, got %r\n" % (name,)


def test_mem_does_not_leak_between_calls(tmp_path, capsys):
    prog = _write(tmp_path, "halt.rp", "halt\n")
    mem = _write(tmp_path, "rm.mem", "1=1\n")
    assert main(["run", prog, "--mem", "RM=%s" % mem]) == 0
    assert "final memory: RM = [1:1]\n" in capsys.readouterr().out
    assert main(["run", prog]) == 0
    assert "final memory: RM = []\n" in capsys.readouterr().out


# argparse's text at 80 columns; every usage error exits 2
_USAGE = "usage: ramproc [-h] {compile,run,measure,check} ...\n"
_RUN_USAGE = """\
usage: ramproc run [-h] [--model {ramp,apramp,spramp}] [--mem NAME=FILE]
                   [--max-states MAX_STATES] [--fuel FUEL] [--lts PATH]
                   [--format {json,dot}]
                   FILE [FILE ...]
"""
_MEASURE_USAGE = """\
usage: ramproc measure [-h] [--model {ramp,apramp,spramp}] [--mem NAME=FILE]
                       [--max-states MAX_STATES] --measure
                       {aputm,apwm,sputm,spwm,sutm,swm}
                       FILE [FILE ...]
"""
_FILES_HELP = """
positional arguments:
  FILE                  program file(s); numbered 1..n in order for parallel
                        models

options:
  -h, --help            show this help message and exit
  --model {ramp,apramp,spramp}
"""
_MEMS_HELP = """\
  --mem NAME=FILE       initial memory for a flexible variable (repeatable)
  --max-states MAX_STATES
"""
_HELP = {
    "ramproc": _USAGE + """
Compile register-machine programs to process terms, run them, and measure step
counts.

positional arguments:
  {compile,run,measure,check}
    compile             print the compiled process term
    run                 run via the operational semantics
    measure             compute a step-count measure
    check               check computation of a function against an oracle
                        command

options:
  -h, --help            show this help message and exit
""",
    "compile": """\
usage: ramproc compile [-h] [--model {ramp,apramp,spramp}] [--inverse]
                       FILE [FILE ...]
""" + _FILES_HELP + """\
  --inverse             read a machine term of --model and print its programs,
                        separated by --- lines
""",
    "run": _RUN_USAGE + _FILES_HELP + _MEMS_HELP + """\
  --fuel FUEL           also run the direct interpreter this many steps
                        (sequential model)
  --lts PATH            export the explored transition system
  --format {json,dot}
""",
    "measure": _MEASURE_USAGE + _FILES_HELP + _MEMS_HELP + """\
  --measure {aputm,apwm,sputm,spwm,sutm,swm}
""",
    "check": """\
usage: ramproc check [-h] [--model {ramp,apramp,spramp}] [--mem NAME=FILE]
                     [--max-states MAX_STATES] --oracle CMD [--arity ARITY]
                     [--max-len MAX_LEN] [--bound A*n+B]
                     [--measure {aputm,apwm,sputm,spwm,sutm,swm}]
                     [--by-length]
                     FILE [FILE ...]
""" + _FILES_HELP + _MEMS_HELP + """\
  --oracle CMD          command reading space-separated bit strings ('e' for
                        empty) on stdin, printing the result or 'undef'
  --arity ARITY
  --max-len MAX_LEN
  --bound A*n+B         affine step bound on total input length
  --measure {aputm,apwm,sputm,spwm,sutm,swm}
                        bound this measure instead of the non-silent steps
  --by-length           after the table, print the worst case at each total
                        input length
""",
}


@pytest.mark.parametrize("argv, code, out, err", [
    (["-h"], 0, _HELP["ramproc"], ""),
    (["compile", "-h"], 0, _HELP["compile"], ""),
    (["run", "-h"], 0, _HELP["run"], ""),
    (["measure", "-h"], 0, _HELP["measure"], ""),
    (["check", "-h"], 0, _HELP["check"], ""),
    ([], 2, "", _USAGE + "ramproc: error: the following arguments are required: command\n"),
    (["frob"], 2, "", _USAGE + "ramproc: error: argument command: invalid choice: 'frob' "
                               "(choose from 'compile', 'run', 'measure', 'check')\n"),
    (["run", "p.rp", "--model", "bogus"], 2, "",
     _RUN_USAGE + "ramproc run: error: argument --model: invalid choice: 'bogus' "
                  "(choose from 'ramp', 'apramp', 'spramp')\n"),
    (["run", "p.rp", "--max-states", "x"], 2, "",
     _RUN_USAGE + "ramproc run: error: argument --max-states: invalid int value: 'x'\n"),
    (["measure", "p.rp"], 2, "",
     _MEASURE_USAGE + "ramproc measure: error: the following arguments are required: --measure\n"),
], ids=["help", "compile-help", "run-help", "measure-help", "check-help", "no-subcommand",
        "unknown-subcommand", "bad-model", "bad-max-states", "measure-without-measure"])
def test_argparse_output_pinned(tmp_path, capsys, monkeypatch, argv, code, out, err):
    # the same text every time in one process, with a successful run between
    monkeypatch.setenv("COLUMNS", "80")
    prog = _write(tmp_path, "halt.rp", "halt\n")
    for _ in range(2):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert (exit_.value.code, *capsys.readouterr()) == (code, out, err)
        assert main(["run", prog]) == 0
        capsys.readouterr()


_COUNT_PARSERS = """\
import argparse, contextlib, io, sys
built = 0
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
import ramproc.cli
counts = [built]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        assert ramproc.cli.main(["run", sys.argv[1]]) == 0
    counts.append(built)
print(counts)
"""


def test_parser_built_once_and_not_at_import(tmp_path):
    # the root parser and its four subparsers, on the first call only
    prog = _write(tmp_path, "halt.rp", "halt\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", _COUNT_PARSERS, prog],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[0, 5, 5]\n"


@pytest.mark.parametrize("files, argv", [
    ({"t": "x := upd(RM, %s, 1)\n"}, ["compile", "--inverse", "t"]),
    ({"t": "x := [%s: 1]\n"}, ["compile", "--inverse", "t"]),
    ({"t": "proj[%s](a)\n"}, ["compile", "--inverse", "t"]),
    ({"p.rp": "halt\n"}, ["check", "p.rp", "--oracle", "echo e", "--arity", "0", "--bound", "%s"]),
    ({"p.rp": "halt\n"}, ["check", "p.rp", "--oracle", "echo e", "--arity", "0",
                          "--bound", "%s*n"]),
], ids=["upd-index", "cell-index", "projection", "bound-constant", "bound-coefficient"])
def test_term_and_bound_naturals_over_the_conversion_limit_are_refused(
        tmp_path, capsys, monkeypatch, popens, files, argv):
    big = _over_the_limit()
    for name, text in files.items():
        _write(tmp_path, name, text.replace("%s", big))
    monkeypatch.chdir(tmp_path)
    assert main([a.replace("%s", big) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and popens == []
    limit = sys.get_int_max_str_digits()
    assert captured.err == "error: decimal natural of %d digits is over the limit of %d digits\n" % (
        limit + 1, limit)


# Two interleaved components of three steps each, halting included, that
# leave RM's register 0 empty: aputm 3, apwm 6.
_TWO_STEP_PAIR = ("add:1:#1:1\nnot:1:2\nhalt\n", "add:1:#1:1\nnot:1:2\nhalt\n")


@pytest.mark.parametrize("measure", ["aputm", "apwm", None])
def test_check_measure_on_a_wrong_result_row(tmp_path, capsys, measure):
    files = [_write(tmp_path, "p%d.rp" % k, text) for k, text in enumerate(_TWO_STEP_PAIR, 1)]
    flag = ["--measure", measure] if measure else []
    assert main(["measure", *files, "--model", "apramp", "--measure", measure or "apwm"]) == 0
    value = json.loads(capsys.readouterr().out)["value"]
    assert value == {"aputm": 3}.get(measure, 6)
    assert main(["check", *files, "--model", "apramp", "--oracle", "echo 1", "--arity", "0",
                 *flag, "--bound", "9"]) == 1
    row = capsys.readouterr().out.splitlines()[1]
    assert row.split()[1:] == ["1", "e", str(value), "9", "fail", "(wrong", "result)"]


# Division by an empty or zero divisor never halts, so those rows carry no
# steps; length 3's worst case is first met at (11, 1).
_DIVISION_BY_LENGTH = """\
length 0: -
length 1: worst 2 at (e, 1)
length 2: worst 6 at (1, 1)
length 3: worst 14 at (11, 1)
length 4: worst 14 at (11, 10)
"""


def test_check_by_length_pinned(tmp_path, capsys):
    prog = _write(tmp_path, "div.rp", sample_terms.DIVISION_PROGRAM)
    argv = ["check", prog, "--oracle", "echo 1", "--arity", "2", "--max-len", "2",
            "--max-states", "200"]
    assert main(argv) == 1
    table = capsys.readouterr().out.splitlines(keepends=True)
    assert main(argv + ["--by-length"]) == 1
    assert capsys.readouterr().out == "".join(table[:-1]) + _DIVISION_BY_LENGTH + table[-1]
    loop = _write(tmp_path, "loop.rp", "jmp:eq:#0:#0:1\nhalt\n")
    assert main(["check", loop, "--oracle", "echo 1", "--arity", "1", "--max-len", "1",
                 "--by-length"]) == 1
    assert capsys.readouterr().out.splitlines()[-3:-1] == ["length 0: -", "length 1: -"]
