import json
import sys

import pytest

from ramproc.cli import _external_oracle, main
from ramproc.machines import format_program, parse_program

import sample_terms

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
