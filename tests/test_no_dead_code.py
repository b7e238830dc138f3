"""Every function, method and dataclass field in ``src/percolab`` has a reader outside the tests.

A method counts as called when some module of ``src/percolab`` or
``perfbench/`` names it as an attribute (``obj.name``) or a string
(``perfbench/spans.py`` names its timed targets as strings).  Any other
function also counts when a bare name loads it, so a local variable or
parameter that shares a method's name does not hide the method.  Dunder
methods are called by the language.  A name that the package's ``__init__``
exports is not called by the export: only the names in ``EXEMPT`` may lack a
caller, each with its reason.

A method is *ambiguous* when its name is also an attribute of a builtin type
(``add``, ``count``, ``shape``, ...), a method of another package class, a
package function or a package module: every use of the other would count as
its call.  Each ambiguous method is listed in ``AMBIGUOUS`` with the module
that calls it, and that module must mention the name.  Any other ambiguous
method fails.

A dataclass field counts as read when some module loads it as an attribute or
names it as a string.  A class read whole through ``asdict`` is listed in
``READ_WHOLE`` with the module that calls ``asdict`` on it.

The check goes by name, so a field read only under a name that other values
share still passes it: ``ClusterLabels.lattice`` hid behind every
``config.lattice``, and ``VnLowerReport.n`` behind every ``.n``.  So does a
method or field whose only reader is itself unread.  Those were found by
reading their callers.
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

# ambiguous method -> the module (of the package or the callers) that calls it
AMBIGUOUS = {
    "estimators.PiTable.add": "estimators",
    "lattice.Region.shape": "grid",
    "verify.VerifyContext.vn_sample": "verify",
}

# dataclass read whole through asdict -> the module that reads it
READ_WHOLE = {
    "cli.ExperimentSpec": "cli",
    "verify.CriterionResult": "verify",
}


def _trees(*dirs: Path) -> dict[Path, ast.Module]:
    return {p: ast.parse(p.read_text()) for d in dirs for p in sorted(d.glob("*.py"))}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _definitions(tree: ast.Module, module: str) -> tuple[list[tuple[str, str, str | None]], dict]:
    """(bare name, qualified name, owning class or None) of every function and
    method, nested ones included, and each dataclass's qualified name -> its fields."""
    found, dataclasses = [], {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = prefix if isinstance(node, ast.ClassDef) else None
                found.append((child.name, f"{prefix}.{child.name}", owner))
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    dataclasses[f"{prefix}.{child.name}"] = [
                        f.target.id
                        for f in child.body
                        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                        and "ClassVar" not in ast.unparse(f.annotation)
                    ]
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(tree, module)
    return found, dataclasses


def _mentions(tree: ast.Module) -> tuple[set[str], set[str], set[str]]:
    """(attributes and strings, attributes loaded and strings, bare names loaded) of a module."""
    attrs, loads, names = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            if isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            attrs.add(node.value)
            loads.add(node.value)
    return attrs, loads, names


def findings(
    package: Path = PACKAGE,
    callers: Path = ROOT / "perfbench",
    exempt=EXEMPT,
    ambiguous=AMBIGUOUS,
    read_whole=READ_WHOLE,
) -> dict[str, list[str]]:
    """Each rule that fires -> the qualified names of ``package`` it reports.

    "uncalled": functions and methods that nothing calls, and listed ambiguous
    methods that their listed module does not name; "ambiguous and unlisted";
    "unread field": dataclass fields that nothing loads.
    """
    trees = _trees(package, callers)
    mentions = {path.stem: _mentions(tree) for path, tree in trees.items()}
    attrs = set().union(*(a for a, _, _ in mentions.values()))
    loads = set().union(*(r for _, r, _ in mentions.values()))
    names = attrs.union(*(n for _, _, n in mentions.values()))
    defs, dataclasses = [], {}
    for path, tree in trees.items():
        if path.parent == package:
            found, classes = _definitions(tree, path.stem)
            defs += found
            dataclasses |= classes
    functions = {name for name, _, owner in defs if owner is None}
    modules = {path.stem for path in trees if path.parent == package}
    owners = {}
    for name, _, owner in defs:
        if owner is not None:
            owners.setdefault(name, set()).add(owner)
    out = {"uncalled": [], "ambiguous and unlisted": [], "unread field": []}
    for name, qualified, owner in defs:
        if name.startswith("__") and name.endswith("__") or qualified in exempt:
            continue
        if owner is not None and (
            name in BUILTIN_ATTRS or name in functions or name in modules or len(owners[name]) > 1
        ):
            if qualified not in ambiguous:
                out["ambiguous and unlisted"].append(qualified)
                continue
            caller = ambiguous[qualified]
            called = caller in mentions and name in mentions[caller][0]
        else:
            called = name in (attrs if owner is not None else names)
        if not called:
            out["uncalled"].append(qualified)
    for cls, fields in dataclasses.items():
        reader = read_whole.get(cls)
        if reader in mentions and "asdict" in mentions[reader][2]:
            continue
        out["unread field"] += [f"{cls}.{f}" for f in fields if f not in loads]
    return {rule: sorted(found) for rule, found in out.items() if found}


def test_every_function_has_a_caller():
    assert findings() == {}
    # every listed name still exists, so no stale entry lingers
    defined, dataclasses = set(), set()
    for path, tree in _trees(PACKAGE).items():
        found, classes = _definitions(tree, path.stem)
        defined |= {q for _, q, _ in found}
        dataclasses |= set(classes)
    assert set(EXEMPT) | set(AMBIGUOUS) <= defined
    assert set(READ_WHOLE) <= dataclasses


def test_an_uncalled_function_is_found(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .mod import exported, exported_orphan\n")
    (package / "mod.py").write_text(
        "from dataclasses import asdict, dataclass\n\n\n"
        "def exported():\n    return helper() + count(()) + Bag().add(1) + 'abc'.count('a') + Bag().take()\n\n\n"
        "def exported_orphan():\n    return 0\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def orphan():\n    return 2\n\n\n"
        "class Box:\n    def __len__(self):\n        return 0\n\n"
        "    def unused(self):\n        return self.named()\n\n"
        "    def named(self):\n        return 3\n\n"
        "    def count(self):\n        return 5\n\n"
        "    def take(self):\n        return 6\n\n\n"
        "class Bag:\n    def add(self, x):\n        return x\n\n"
        "    def take(self):\n        return 7\n\n\n"
        "class Region:\n    @property\n    def sites(self):\n        return 4\n\n\n"
        "@dataclass\nclass Report:\n    ok: bool\n    note: str\n\n\n"
        "@dataclass(frozen=True)\nclass Row:\n    note: str\n\n\n"
        "def count(sites):\n    return len(sites) + Report(True, '').ok + len(asdict(Row('')))\n"
    )
    callers = tmp_path / "bench"
    callers.mkdir()
    (callers / "run.py").write_text('import mod\n\nmod.exported()\nTARGETS = [("mod", "named")]\n')
    # Region.sites: a parameter of the same name must not count as its caller;
    # exported_orphan: an export is no call; str.count calls would hide Box.count
    # and Bag.take calls Box.take, so all three ambiguous methods are reported
    # unlisted; Report.note and Row.note are read nowhere; Bag.add is listed with mod
    listed = {"mod.Bag.add": "mod"}
    assert findings(package, callers, {}, listed, {}) == {
        "uncalled": ["mod.Box.unused", "mod.Region.sites", "mod.exported_orphan", "mod.orphan"],
        "ambiguous and unlisted": ["mod.Bag.take", "mod.Box.count", "mod.Box.take"],
        "unread field": ["mod.Report.note", "mod.Row.note"],
    }
    # a listed caller that does not name the method does not call it
    listed = {"mod.Bag.add": "run", "mod.Bag.take": "mod", "mod.Box.take": "mod", "mod.Box.count": "mod"}
    assert findings(package, callers, {}, listed, {})["uncalled"] == [
        "mod.Bag.add", "mod.Box.unused", "mod.Region.sites", "mod.exported_orphan", "mod.orphan",
    ]
    # Row is read whole by the asdict call of mod, Report by no asdict of run
    whole = {"mod.Row": "mod", "mod.Report": "run"}
    assert findings(package, callers, {}, listed, whole)["unread field"] == ["mod.Report.note"]
    assert "mod.orphan" not in findings(package, callers, {"mod.orphan": "kept"}, listed, {})["uncalled"]
