"""The value classes outside `terms`: operator descriptors, programs, and
the records the measures and checkers report.  Error messages embed them
with `%r`, so their reprs are pinned here, and every one of them is built
by `nodes.node`."""

import importlib
import os
import pkgutil
import subprocess
import sys
from dataclasses import FrozenInstanceError

import pytest

import ramproc
from ramproc.complexity import CheckRow, MeasureReport, Verdict
from ramproc.machines import HALT, Jmp, Op, Program, RunResult
from ramproc.memory import MemState
from ramproc.ramops import BinOp, CmpOp, Dir, Imm, Ind, RegionInfo, Store, compile_op, compile_prop
from ramproc.semantics import CommFunction

ADD = BinOp("add", Dir(1), Imm(2), Ind(3))
ADD_REPR = "BinOp(name='add', s1=Dir(i=1), s2=Imm(n=2), d=Ind(i=3))"
JMP = Jmp(CmpOp("eq", Dir(1), Imm(0)), 3)
JMP_REPR = "Jmp(p=CmpOp(name='eq', s1=Dir(i=1), s2=Imm(n=0)), target=3)"


@pytest.mark.parametrize("value, text", [
    (ADD, ADD_REPR),
    (JMP, JMP_REPR),
    (Program((Op(ADD), JMP, HALT)),
     "Program(instrs=(Op(o=%s), %s, Halt()), kind='bbram')" % (ADD_REPR, JMP_REPR)),
    (Program((Op(Store(Imm(1), Ind(2))),), "smbram"),
     "Program(instrs=(Op(o=Store(s=Imm(n=1), addr=Ind(i=2))),), kind='smbram')"),
    (RunResult(MemState({1: "10"}), 2, 1),
     "RunResult(mem=MemState({1: '10'}), op_steps=2, jmp_steps=1)"),
    (RunResult(None, 0, 0), "RunResult(mem=None, op_steps=0, jmp_steps=0)"),
    (MeasureReport("aputm", 4, ((1, 4), (2, 3)), 10, 12),
     "MeasureReport(measure='aputm', value=4, per_component=((1, 4), (2, 3)), "
     "states=10, transitions=12)"),
    (CheckRow(("1", "0"), "1", "1", 3, None, "pass"),
     "CheckRow(args=('1', '0'), expected='1', got='1', steps=3, bound=None, "
     "status='pass', note='')"),
    (Verdict((CheckRow((), None, None, None, None, "undecided", "cap"),)),
     "Verdict(rows=(CheckRow(args=(), expected=None, got=None, steps=None, bound=None, "
     "status='undecided', note='cap'),))"),
    (CommFunction.make({("b", "a"): "c", ("d", "d"): "e"}),
     "CommFunction(pairs=((('a', 'b'), 'c'), (('d', 'd'), 'e')))"),
    (RegionInfo.finite([2, 1]), "RegionInfo(registers=frozenset({1, 2}))"),
    (RegionInfo(None), "RegionInfo(registers=None)"),
])
def test_reprs_pinned(value, text):
    assert repr(value) == text


def test_error_messages_embed_reprs():
    with pytest.raises(ValueError) as e:
        compile_op(CmpOp("gt", Imm(1), Ind(2)))
    assert str(e.value) == (
        "apply_op takes a binary or unary operator, got "
        "CmpOp(name='gt', s1=Imm(n=1), s2=Ind(i=2))")
    with pytest.raises(ValueError) as e:
        compile_prop(ADD)
    assert str(e.value) == "apply_prop takes a comparison, got " + ADD_REPR
    with pytest.raises(ValueError) as e:
        Op(RegionInfo.finite([1]))
    assert str(e.value) == "not an instruction operator: RegionInfo(registers=frozenset({1}))"


def test_one_value_class_builder():
    """Every value class is built by `nodes.node`; none by `dataclass()`."""
    modules = [importlib.import_module("ramproc." + m.name)
               for m in pkgutil.iter_modules(ramproc.__path__)]
    built = [(mod.__name__, name) for mod in modules
             for name, cls in vars(mod).items()
             if isinstance(cls, type) and hasattr(cls, "__dataclass_fields__")]
    assert built == []


@pytest.mark.parametrize("make, match_args", [
    (lambda: BinOp("add", Dir(1), Imm(2), Ind(3)), ("name", "s1", "s2", "d")),
    (lambda: Program((Op(ADD), JMP, HALT)), ("instrs", "kind")),
    (lambda: CheckRow(("1",), "1", "1", 3, None, "pass"),
     ("args", "expected", "got", "steps", "bound", "status", "note")),
    (lambda: CommFunction.make({("b", "a"): "c"}), ("pairs",)),
], ids=["ramops", "machines", "complexity", "semantics"])
def test_value_classes_are_frozen_slotted_nodes(make, match_args):
    x, y = make(), make()
    assert x is not y and x == y and hash(x) == hash(y)
    assert type(x).__match_args__ == match_args
    assert not hasattr(x, "__dict__")
    with pytest.raises(FrozenInstanceError):
        setattr(x, match_args[0], None)
    with pytest.raises(FrozenInstanceError):
        delattr(x, match_args[0])
    assert x == y


def test_cli_import_leaves_dataclasses_unloaded():
    # `FrozenInstanceError` is imported when a node is changed, so start-up
    # does not load `dataclasses` (nor `inspect` with it)
    src = os.path.dirname(os.path.dirname(os.path.abspath(ramproc.__file__)))
    code = ("import sys; before = 'dataclasses' in sys.modules; import ramproc.cli; "
            "print(before, 'dataclasses' in sys.modules, 'inspect' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out == "False False False\n"
