"""Every function, method and dataclass field in ``src/percolab`` has a reader outside the tests.

A method counts as called when some module of ``src/percolab`` or
``perfbench/`` names it as an attribute (``obj.name``) or a string
(``perfbench/spans.py`` names its timed targets as strings).  Any other
function also counts when a bare name loads it, so a local variable or
parameter that shares a method's name does not hide the method.  Dunder
methods are called by the language, so each one other than ``__init__`` and
``__post_init__`` is listed in ``DUNDERS`` with what calls it, and an
unlisted one fails.  A name that the package's ``__init__`` exports is not
called by the export: only the names in ``EXEMPT`` may lack a caller, each
with its reason.

A method is *ambiguous* when its name is also an attribute of a builtin type
(``add``, ``count``, ``shape``, ...), a method of another package class, a
package function or a package module: every use of the other would count as
its call.  Each ambiguous method is listed in ``AMBIGUOUS`` with the module
that calls it, and that module must mention the name.  Any other ambiguous
method fails.

A dataclass field counts as read when some module loads it as an attribute or
names it as a string.  A load on a receiver named ``args`` (an argparse
namespace) counts for nothing, and a ``self.<name>`` load counts only inside
the field's own class, so perfbench's ``args.seed`` and a workload's
``self.box`` read no package field.  Loads inside its own class's dunder
methods count only when ``DUNDERS`` names the dunder's caller, so a field
that only ``__post_init__`` or a test-only ``__eq__`` reads is unread.  A
field whose name is also a field of another package dataclass is *shared*:
it counts as read only when ``AMBIGUOUS_FIELDS`` lists it with a module that
loads it, since every load of the other would count as its read.  A class
read whole through ``asdict`` is listed in ``READ_WHOLE`` with the module
that calls ``asdict`` on it.

The check goes by name, so a field read only under a name that other values
share still passes it: any string counts, so perfbench's record key
``"seed"`` would read an unshared field ``seed``.  So does a method or field
whose only reader is itself unread.  Those were found by reading their
callers.
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

# dunder method other than __init__ and __post_init__ -> what calls it
DUNDERS = {
    "cli.Number.__call__": "cli: SPEC's rules are called on each spec value",
    "cli.OneOf.__call__": "cli: SPEC's rules are called on each spec value",
    "cli.ListOf.__call__": "cli: SPEC's rules are called on each spec value",
    "cli.Mapping.__call__": "cli: SPEC's rules are called on each spec value",
    "lattice.Region.__eq__": "estimators._reader's cache key, and region comparisons",
    "lattice.Region.__hash__": "estimators._reader's cache key",
    "lattice.Region.__len__": "the set API of README § Regions (handbuilt, test_golden)",
    "lattice.Region.__contains__": "the set API of README § Regions (handbuilt)",
    "lattice.Region.__iter__": "the set API of README § Regions (test_clusters, test_lattice)",
    "lattice.Region.__le__": "the set API of README § Regions; __contains__ (handbuilt)",
}

# field shared with another package dataclass -> the module that loads it
AMBIGUOUS_FIELDS = {
    "estimators.Estimate.samples": "cli",
    "estimators.Estimate.stderr": "cli",
    "estimators.Estimate.successes": "cli",
    "estimators.PiRow.estimate": "reports",
    "estimators.PiRow.m": "reports",
    "estimators.PiRow.n": "reports",
    "estimators.PiRow.samples": "reports",
    "estimators.PiRow.stderr": "reports",
    "estimators.PiRow.successes": "reports",
    "estimators.PiTable.lattice": "reports",
    "estimators.PiTable.p": "reports",
    "estimators.VnSample.lattice": "lowerbound",
    "estimators.VnSample.n": "lowerbound",
    "growth.MergeEdge.u": "growth",
    "lattice.LatticeSpec.d": "grid",
    "lattice.LatticeSpec.kind": "estimators",
    "lowerbound.EventSpec.kind": "lowerbound",
    "lowerbound.EventSpec.m": "lowerbound",
    "lowerbound.EventSpec.n": "lowerbound",
    "lowerbound.EventSpec.threshold": "lowerbound",
    "lowerbound.GluingCampaignReport.n": "lowerbound",
    "lowerbound.GluingCampaignReport.u": "lowerbound",
    "lowerbound.LowerConstruction.tail": "cli",
    "lowerbound.LowerTailResult.threshold": "cli",
    "lowerbound.RswFit.estimate": "cli",
    "sampler.Config.lattice": "estimators",
    "verify.VerifyContext.master_seed": "verify",
    "verify.VerifyContext.workers": "verify",
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


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module, module: str) -> tuple[list[tuple[str, str, str | None]], dict]:
    """(bare name, qualified name, owning class or None) of every function and
    method, nested ones included, and each dataclass's qualified name -> (its
    fields, its class node)."""
    found, dataclasses = [], {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = prefix if isinstance(node, ast.ClassDef) else None
                found.append((child.name, f"{prefix}.{child.name}", owner))
                visit(child, f"{prefix}.{child.name}")
            elif isinstance(child, ast.ClassDef):
                if _is_dataclass(child):
                    dataclasses[f"{prefix}.{child.name}"] = (
                        [
                            f.target.id
                            for f in child.body
                            if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                            and "ClassVar" not in ast.unparse(f.annotation)
                        ],
                        child,
                    )
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(tree, module)
    return found, dataclasses


def _mentions(tree: ast.Module, skip=frozenset(), own=None) -> tuple[set[str], set[str], set[str]]:
    """(attributes and strings, attributes loaded and strings, bare names loaded) of a module,
    outside the subtrees of ``skip``.

    The loads leave out those on ``args`` and the ``self.<name>`` loads outside
    the class node ``own``.
    """
    attrs, loads, names = set(), set(), set()
    stack = [(tree, None)]  # (node, innermost class around it)
    while stack:
        node, cls = stack.pop()
        if node in skip:
            continue
        inner = node if isinstance(node, ast.ClassDef) else cls
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
            receiver = getattr(node.value, "id", None)
            foreign = receiver == "args" or (receiver == "self" and (own is None or cls is not own))
            if isinstance(node.ctx, ast.Load) and not foreign:
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
    dunders=DUNDERS,
    ambiguous_fields=AMBIGUOUS_FIELDS,
) -> dict[str, list[str]]:
    """Each rule that fires -> the qualified names of ``package`` it reports.

    "uncalled": functions and methods that nothing calls, and listed ambiguous
    methods that their listed module does not name; "ambiguous and unlisted";
    "dunder unlisted"; "unread field": dataclass fields that nothing loads, and
    shared fields that no listed module loads.
    """
    trees = _trees(package, callers)
    mentions = {path.stem: _mentions(tree) for path, tree in trees.items()}
    attrs = set().union(*(a for a, _, _ in mentions.values()))
    names = attrs.union(*(n for _, _, n in mentions.values()))
    loads = {stem: r for stem, (_, r, _) in mentions.items()}
    defs, dataclasses, home = [], {}, {}
    for path, tree in trees.items():
        if path.parent == package:
            found, classes = _definitions(tree, path.stem)
            defs += found
            dataclasses |= classes
            home |= dict.fromkeys(classes, path)
    functions = {name for name, _, owner in defs if owner is None}
    modules = {path.stem for path in trees if path.parent == package}
    owners = {}
    for name, _, owner in defs:
        if owner is not None:
            owners.setdefault(name, set()).add(owner)
    out = {"uncalled": [], "ambiguous and unlisted": [], "dunder unlisted": [], "unread field": []}
    for name, qualified, owner in defs:
        if _is_dunder(name):
            if name not in ("__init__", "__post_init__") and qualified not in dunders:
                out["dunder unlisted"].append(qualified)
            continue
        if qualified in exempt:
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
    field_owners = {}
    for cls, (fields, _) in dataclasses.items():
        for f in fields:
            field_owners.setdefault(f, set()).add(cls)
    for cls, (fields, node) in dataclasses.items():
        reader = read_whole.get(cls)
        if reader in mentions and "asdict" in mentions[reader][2]:
            continue
        # the class's own module with its self loads, outside its dunders that have no named caller
        unlisted = {
            f for f in node.body
            if isinstance(f, ast.FunctionDef) and _is_dunder(f.name) and f"{cls}.{f.name}" not in dunders
        }
        read_in = loads | {home[cls].stem: _mentions(trees[home[cls]], unlisted, node)[1]}
        for f in fields:
            if len(field_owners[f]) > 1:
                read = f in read_in.get(ambiguous_fields.get(f"{cls}.{f}"), ())
            else:
                read = any(f in r for r in read_in.values())
            if not read:
                out["unread field"].append(f"{cls}.{f}")
    return {rule: sorted(found) for rule, found in out.items() if found}


def test_every_function_has_a_caller():
    assert findings() == {}
    # every listed name still exists, so no stale entry lingers
    defined, dataclasses = set(), {}
    for path, tree in _trees(PACKAGE).items():
        found, classes = _definitions(tree, path.stem)
        defined |= {q for _, q, _ in found}
        dataclasses |= classes
    assert set(EXEMPT) | set(AMBIGUOUS) | set(DUNDERS) <= defined
    assert set(READ_WHOLE) <= set(dataclasses)
    fields = {f"{cls}.{f}" for cls, (names, _) in dataclasses.items() for f in names}
    assert set(AMBIGUOUS_FIELDS) <= fields


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
        "@dataclass(frozen=True, eq=False)\nclass Gate:\n    ok: bool\n    level: int\n\n"
        "    def __eq__(self, other):\n        return self.level == other.level\n\n\n"
        "@dataclass\nclass Knob:\n    depth: int\n    width: int\n\n"
        "    def span(self):\n        return self.width\n\n\n"
        "class Dial:\n    def turn(self):\n        return self.depth\n\n\n"
        "def count(sites):\n    return len(sites) + Report(True, '').ok + len(asdict(Row('')))\n"
    )
    callers = tmp_path / "bench"
    callers.mkdir()
    (callers / "run.py").write_text(
        'import mod\n\nmod.exported()\nTARGETS = [("mod", "named")]\n\n\n'
        "def main(args):\n    return args.depth + mod.Knob(1, 2).span() + mod.Dial().turn()\n\n\n"
        "class Workload:\n    def setup(self):\n        return self.depth\n"
    )

    def check(exempt=None, listed=None, whole=None, dunders=None, shared=None):
        return findings(package, callers, exempt or {}, listed or {}, whole or {}, dunders or {}, shared or {})

    # Region.sites: a parameter of the same name must not count as its caller;
    # exported_orphan: an export is no call; str.count calls would hide Box.count
    # and Bag.take calls Box.take, so all three ambiguous methods are reported
    # unlisted; Bag.add is listed with mod; no dunder but __init__ and
    # __post_init__ goes unlisted; Report.note and Row.note are read nowhere,
    # Report.ok and Gate.ok share a name, so the .ok load reads neither, and
    # Gate.level is loaded only by Gate's own unlisted __eq__; Knob.depth is
    # loaded only on args and on the self of Dial and Workload, while Knob.width
    # is read by Knob's own span
    listed = {"mod.Bag.add": "mod"}
    assert check(listed=listed) == {
        "uncalled": ["mod.Box.unused", "mod.Region.sites", "mod.exported_orphan", "mod.orphan"],
        "ambiguous and unlisted": ["mod.Bag.take", "mod.Box.count", "mod.Box.take"],
        "dunder unlisted": ["mod.Box.__len__", "mod.Gate.__eq__"],
        "unread field": [
            "mod.Gate.level", "mod.Gate.ok", "mod.Knob.depth", "mod.Report.note", "mod.Report.ok",
            "mod.Row.note",
        ],
    }
    # a listed caller that does not name the method does not call it
    listed = {"mod.Bag.add": "run", "mod.Bag.take": "mod", "mod.Box.take": "mod", "mod.Box.count": "mod"}
    assert check(listed=listed)["uncalled"] == [
        "mod.Bag.add", "mod.Box.unused", "mod.Region.sites", "mod.exported_orphan", "mod.orphan",
    ]
    # Row is read whole by the asdict call of mod, Report by no asdict of run
    whole = {"mod.Row": "mod", "mod.Report": "run"}
    assert check(listed=listed, whole=whole)["unread field"] == [
        "mod.Gate.level", "mod.Gate.ok", "mod.Knob.depth", "mod.Report.note", "mod.Report.ok",
    ]
    assert "mod.orphan" not in check({"mod.orphan": "kept"}, listed)["uncalled"]
    # a shared field is read where its listed module loads it, and a listed
    # dunder's loads count: Gate.ok alone stays unread
    dunders = {"mod.Box.__len__": "len()", "mod.Gate.__eq__": "=="}
    found = check(listed=listed, whole=whole, dunders=dunders, shared={"mod.Report.ok": "mod"})
    assert "dunder unlisted" not in found
    assert found["unread field"] == ["mod.Gate.ok", "mod.Knob.depth", "mod.Report.note"]
    found = check(listed=listed, whole=whole, dunders=dunders, shared={"mod.Report.ok": "run"})
    assert found["unread field"] == ["mod.Gate.ok", "mod.Knob.depth", "mod.Report.note", "mod.Report.ok"]
