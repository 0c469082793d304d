"""Every public function, method and class of the package is used outside tests,
and every name a package module imports is used in that module.

A name that only tests reach is surface the package carries for no caller.  The
guard parses ``src/``, ``scripts/`` and ``perfbench/`` and collects every name
they use: ``Name`` ids, ``Attribute`` attrs, imported names, and string
constants that are identifiers (perfbench patches functions by name).  Each
public ``def`` or ``class`` in ``src/oed_dopt`` must be among them.  An import
the module never reads is dead weight unless its line says ``# noqa: F401``
(a name kept for others to patch or import).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The solve tally as a context manager: the tests' view of ``solve_counter``, kept
#: for the per-phase run records that are to build on it.
ALLOWED = {"count_solves"}


def _trees(*dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def used_names() -> set:
    names = set()
    for _, tree in _trees("src", "scripts", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names


def public_definitions() -> dict:
    """{name: "file:line"} of every def and class in the package whose name has no leading underscore."""
    found = {}
    for path, tree in _trees("src/oed_dopt"):
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                found.setdefault(node.name, f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def test_every_public_definition_is_used_outside_tests():
    defined, used = public_definitions(), used_names()
    assert ALLOWED <= set(defined)
    unused = {name: where for name, where in defined.items() if name not in used | ALLOWED}
    assert not unused, f"public names that only tests reach: {unused}"


def test_every_import_is_used_in_its_module():
    unused = []
    for path, tree in _trees("src/oed_dopt"):
        lines = path.read_text().splitlines()
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.relative_to(ROOT)}:{alias.lineno} {bound}")
    assert not unused, f"imported names the module never reads: {unused}"
