"""Every public function and class of the package has a caller in the
package or the benchmark harness, apart from a kept set that states why."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Names only tests call, each kept for the reason given.
KEPT = {
    "step": "the one-step semantics, which the referee explorer and the laws run on",
    "regions": "the paper's input/output regions of an operator (criterion 6)",
    "merged_shared_op": "load/store as single-memory operations on merged memories (criterion 6)",
    "count_maximal_paths": "the number of interleavings of parallel runs (criterion 8)",
    "normalize_basic": "the basic forms of the paper's worked examples (criteria 1 and 2)",
    "parse_cond": "reads a condition on its own, the inverse of format_cond",
    "eval_data": "the denotation of a data expression, which the law instances lower through",
    "eval_cond": "the truth of a condition, which the law instances lower through",
    "rename_rec_vars": "renames recursion variables, for the compiler's renaming checks",
    "canonical_rename": "terms equal up to renaming compare equal, for the program-term bijection",
    "validate_guarded": "the guardedness condition of a linear specification",
}


def test_public_names_have_callers_outside_tests():
    files = sorted((ROOT / "src" / "ramproc").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {f: ast.parse(f.read_text(encoding="utf-8")) for f in files}
    uses = {}  # name -> ids of the nodes that reference it
    for tree in trees.values():
        for n in ast.walk(tree):
            name = n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else None
            if name is not None:
                uses.setdefault(name, set()).add(id(n))
    public = [d for f in files if f.parent.name == "ramproc" for d in trees[f].body
              if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")]
    unused = sorted(d.name for d in public
                    if not uses.get(d.name, set()) - {id(n) for n in ast.walk(d)})
    assert unused == sorted(KEPT)
