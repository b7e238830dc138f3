"""Every function and method in ``src/percolab`` has a caller outside the tests.

A method counts as called when some module of ``src/percolab`` or
``perfbench/`` names it as an attribute (``obj.name``) or a string
(``perfbench/spans.py`` names its timed targets as strings).  Any other
function also counts when a bare name loads it, so a local variable or
parameter that shares a method's name does not hide the method.  Names the
package's ``__init__`` exports are public API, and dunder methods are called
by the language.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "percolab"


def _trees(*dirs: Path) -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text()) for d in dirs for p in sorted(d.glob("*.py"))}


def _definitions(tree: ast.Module, module: str) -> list[tuple[str, str, bool]]:
    """(bare name, qualified name, is a method) of every function and method,
    nested ones included."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                method = isinstance(node, ast.ClassDef)
                found.append((child.name, f"{prefix}.{child.name}", method))
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def _mentions(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(attributes and strings, bare names loaded) that the module mentions."""
    attrs, names = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
    return attrs, names


def _exports(tree: ast.Module) -> set[str]:
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def uncalled(package: Path = PACKAGE, callers: Path = ROOT / "perfbench") -> list[str]:
    """Qualified names of the functions and methods of ``package`` that nothing calls."""
    trees = _trees(package, callers)
    attrs, names = set(), set()
    for tree in trees.values():
        tree_attrs, tree_names = _mentions(tree)
        attrs |= tree_attrs
        names |= tree_names
    names |= attrs | _exports(trees[package / "__init__.py"])
    out = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for name, qualified, method in _definitions(tree, path.stem):
            dunder = name.startswith("__") and name.endswith("__")
            if not dunder and name not in (attrs if method else names):
                out.append(qualified)
    return sorted(out)


def test_every_function_has_a_caller():
    assert uncalled() == []


def test_an_uncalled_function_is_found(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import exported\n")
    (package / "mod.py").write_text(
        "def exported():\n    return helper() + count(())\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def orphan():\n    return 2\n\n\n"
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def unused(self):\n        return self.named()\n\n"
        "    def named(self):\n        return 3\n\n\n"
        "class Region:\n    @property\n    def sites(self):\n        return 4\n\n\n"
        "def count(sites):\n    return len(sites)\n"
    )
    callers = tmp_path / "bench"
    callers.mkdir()
    (callers / "run.py").write_text('TARGETS = [("mod", "named")]\n')
    # Region.sites: a parameter of the same name must not count as its caller
    assert uncalled(package, callers) == ["mod.Box.unused", "mod.Region.sites", "mod.orphan"]
