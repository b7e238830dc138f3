"""Every function and method in ``src/percolab`` has a caller outside the tests.

A method counts as called when some module of ``src/percolab`` or
``perfbench/`` names it as an attribute (``obj.name``) or a string
(``perfbench/spans.py`` names its timed targets as strings).  Any other
function also counts when a bare name loads it, so a local variable or
parameter that shares a method's name does not hide the method.  Dunder
methods are called by the language.  A name that the package's ``__init__``
exports is not called by the export: only the names in ``EXEMPT`` may lack a
caller, each with its reason.

A method named like an attribute of a builtin type (``add``, ``count``,
``shape``, ...) would count as called wherever that builtin attribute is
used, so each one is listed in ``BUILTIN_NAMED`` with the module that calls
it, and that module must mention the name.  Any other such method fails.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "percolab"

EXEMPT = {
    "estimators.read_config": "the one way to run the kernel's readers on a hand-built "
    "configuration: tests substitute their own configurations through it",
}

BUILTIN_TYPES = (list, dict, set, frozenset, str, tuple, int, float, bytes, np.ndarray)
BUILTIN_ATTRS = frozenset(name for t in BUILTIN_TYPES for name in dir(t))

# builtin-named method -> the module (of the package or the callers) that calls it
BUILTIN_NAMED = {
    "estimators.PiTable.add": "estimators",
    "lattice.Region.shape": "grid",
}


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


def uncalled(
    package: Path = PACKAGE,
    callers: Path = ROOT / "perfbench",
    exempt=EXEMPT,
    builtin_named=BUILTIN_NAMED,
) -> list[str]:
    """Qualified names of the functions and methods of ``package`` that nothing calls,
    and of the builtin-named methods that are unlisted or that their listed caller does not name."""
    trees = _trees(package, callers)
    mentions = {path.stem: _mentions(tree) for path, tree in trees.items()}
    attrs = set().union(*(a for a, _ in mentions.values()))
    names = attrs.union(*(n for _, n in mentions.values()))
    out = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for name, qualified, method in _definitions(tree, path.stem):
            if name.startswith("__") and name.endswith("__") or qualified in exempt:
                continue
            if method and name in BUILTIN_ATTRS:
                caller = builtin_named.get(qualified)
                called = caller in mentions and name in mentions[caller][0]
            else:
                called = name in (attrs if method else names)
            if not called:
                out.append(qualified)
    return sorted(out)


def test_every_function_has_a_caller():
    assert uncalled() == []
    # every listed name still exists, so no stale entry lingers
    defined = {q for path, tree in _trees(PACKAGE).items() for _, q, _ in _definitions(tree, path.stem)}
    assert set(EXEMPT) | set(BUILTIN_NAMED) <= defined


def test_an_uncalled_function_is_found(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import exported, exported_orphan\n")
    (package / "mod.py").write_text(
        "def exported():\n    return helper() + count(()) + Bag().add(1) + 'abc'.count('a')\n\n\n"
        "def exported_orphan():\n    return 0\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def orphan():\n    return 2\n\n\n"
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def unused(self):\n        return self.named()\n\n"
        "    def named(self):\n        return 3\n\n"
        "    def count(self):\n        return 5\n\n\n"
        "class Bag:\n    def add(self, x):\n        return x\n\n\n"
        "class Region:\n    @property\n    def sites(self):\n        return 4\n\n\n"
        "def count(sites):\n    return len(sites)\n"
    )
    callers = tmp_path / "bench"
    callers.mkdir()
    (callers / "run.py").write_text('import mod\n\nmod.exported()\nTARGETS = [("mod", "named")]\n')
    # Region.sites: a parameter of the same name must not count as its caller;
    # exported_orphan: an export is no call; Box.count: str.count calls hide it,
    # so an unlisted builtin-named method is reported; Bag.add is listed with mod
    listed = {"mod.Bag.add": "mod"}
    assert uncalled(package, callers, {}, listed) == [
        "mod.Box.count", "mod.Box.unused", "mod.Region.sites", "mod.exported_orphan", "mod.orphan",
    ]
    # a listed caller that does not name the method does not call it
    assert "mod.Bag.add" in uncalled(package, callers, {}, {"mod.Bag.add": "run"})
    assert "mod.orphan" not in uncalled(package, callers, {"mod.orphan": "kept"}, listed)
