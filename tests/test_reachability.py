"""Every top-level function and every method of a top-level class in
src/koszulator is reached from a command.

The walk is static and goes by name.  It starts at cli.py, at the
module-level statements of every module (they run on import) and at the
allow-listed names, and follows every `Attribute` to each function, method
or class of that name, and every bare `Name` to each function or class of
that name but no method, since a method is called only through an
attribute; it goes on until nothing new is found.  A class counts its
bases, decorators, class-level statements and dunder methods as used; any
other method is reached only through an attribute of its name.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "koszulator"

# checkers that `verify-all` does not run yet
ALLOWED = {
    "kernel_preimage",
    "verify_associativity",
    "verify_graded_commutativity",
    "spread_zeta",
    "level_rank_prediction",
}

# methods that only the tests call: none, as such conveniences live in
# tests/oracles.py
TEST_ONLY_METHODS = set()


def _used_parts(node):
    """The parts of a definition that run once its name is used."""
    if not isinstance(node, ast.ClassDef):
        return [node]
    return [*node.bases, *node.keywords, *node.decorator_list,
            *(s for s in node.body if not isinstance(s, ast.FunctionDef)
              or _is_dunder(s.name))]


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def unreached(src: Path = SRC, allowed=frozenset()):
    """Module-qualified names (module.function, module.Class.method) of the
    top-level functions and non-dunder methods of top-level classes that
    the walk from cli.py, plus the `allowed` names (function or
    Class.method) as roots, does not reach."""
    definitions = {}  # name -> every def or class of that name
    methods = set()
    top = {}
    roots = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem == "cli":
            roots.append(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                top[node] = f"{path.stem}.{node.name}"
            elif isinstance(node, ast.ClassDef):
                top.update((s, f"{path.stem}.{node.name}.{s.name}") for s in node.body
                           if isinstance(s, ast.FunctionDef) and not _is_dunder(s.name))
            else:
                roots.append(node)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append(node)
            if isinstance(node, ast.ClassDef):
                methods.update(s for s in node.body
                               if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef)))
    todo = roots + [node for node, name in top.items() if name.partition(".")[2] in allowed]
    seen = set()
    while todo:
        node = todo.pop()
        if node in seen:
            continue
        seen.add(node)
        for part in _used_parts(node):
            for sub in ast.walk(part):
                if isinstance(sub, ast.Name):
                    todo.extend(d for d in definitions.get(sub.id, ()) if d not in methods)
                elif isinstance(sub, ast.Attribute):
                    todo.extend(definitions.get(sub.attr, ()))
    return sorted(name for node, name in top.items() if node not in seen)


def test_every_function_is_reached_from_a_command():
    assert unreached(allowed=ALLOWED | TEST_ONLY_METHODS) == []


def test_every_allowed_name_is_an_unreached_function():
    """The allow-lists hold no name that a command already reaches, and
    none that is gone.  The other names listed are reached only from the
    allow-listed ones: `_spread` from `spread_zeta`.  Each lies in the
    module of the construction it checks."""
    assert sorted(name.partition(".")[2] for name in unreached()) == sorted(
        ALLOWED | TEST_ONLY_METHODS | {"_spread"})
    assert unreached() == [
        "conetower.level_rank_prediction", "dividedpowers.verify_associativity",
        "dividedpowers.verify_graded_commutativity",
        "zetamaps._spread", "zetamaps.kernel_preimage", "zetamaps.spread_zeta"]


def test_an_unreached_function_is_reported(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "linalg.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef orphan(rows):\n    return rank(rows, None)\n")
    # a method whose name nothing uses, beside one that a command calls
    koszul = tmp_path / "koszul.py"
    text = koszul.read_text(encoding="utf-8")
    anchor = "    def element(self, j: int) -> dict:\n"
    assert anchor in text
    koszul.write_text(text.replace(
        anchor, "    def lonely(self):\n        return self.element(0)\n\n" + anchor),
        encoding="utf-8")
    # a bare name, as a local variable or an imported function may share a
    # method's name, reaches no method
    with open(tmp_path / "cli.py", "a", encoding="utf-8") as fh:
        fh.write("\n\nlonely = None\n")
    assert unreached(tmp_path, ALLOWED | TEST_ONLY_METHODS) == [
        "koszul.CycleBasis.lonely", "linalg.orphan"]
