"""Every function and class in the package has a caller in the package itself.

Code whose only caller is its own test is deleted.  A definition counts as
called when its name appears in src/ceqaoa as a Name, an Attribute or an
import alias, outside its own body.  __init__.py imports nothing from the
package, so no re-export counts as a caller.
"""

import ast
from pathlib import Path

import ceqaoa

# name -> why it stays without a caller in the package
ALLOWED = {
    "phqc.required_shots": "ROADMAP items 1 and 2 call it (shots_for_0.99, the angle landscape)",
}


def uncalled_definitions() -> list[str]:
    trees = {p.stem: ast.parse(p.read_text()) for p in Path(ceqaoa.__file__).parent.glob("*.py")}
    uses: dict[str, list[tuple[str, ast.AST]]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((module, node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node))
            elif isinstance(node, ast.alias):
                uses.setdefault(node.name, []).append((module, node))
    uncalled = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if all(m == module and id(use) in own for m, use in uses.get(node.name, [])):
                uncalled.append(f"{module}.{node.name}")
    return sorted(uncalled)


def test_every_definition_has_a_caller_in_the_package():
    assert uncalled_definitions() == sorted(ALLOWED)


def test_package_init_imports_nothing_from_the_package():
    imported = []
    for node in ast.walk(ast.parse(Path(ceqaoa.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert [name for name in imported if name.startswith((".", "ceqaoa"))] == []
