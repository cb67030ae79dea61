import json
import signal
import subprocess
import sys

import pytest

from ramproc import cli, complexity, semantics
from ramproc.cli import _external_oracle, main
from ramproc.complexity import (
    FunctionSpec, all_inputs, check_computes, format_check_table, parse_affine,
)
from ramproc.machines import format_program, parse_program, proc_of_bbram

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
