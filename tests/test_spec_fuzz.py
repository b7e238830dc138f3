"""Spec fuzzer: every drawn spec ends in results or in the JSON error, never a traceback.

Specs are drawn from ``cli.SPEC`` itself.  Each leaf rule splits a fixed pool
of candidates (the integers -1 to a cap, NaN, +-inf, small reals, its own
choices and values of the wrong type) into what it accepts and what it
rejects.  A spec is valid, or has one key outside its domain (a rejected
value, a list of a bad length, a section that is no mapping) or one misspelt
key.  A valid spec still reaches impossible geometry: scales with m > n,
lower.u > lower.n, negative widths, ragged or repeated points, d = 3 on the
triangular lattice, alpha >= d.  Each spec holds the section of its
subcommand, with every key drawn as a value or null, and a subset of the
top-level keys.

Every magnitude stays tiny: at most two workers (each one a forked process),
sizes, n and coordinates at most 8, 20 samples, 200 gluing attempts and a
sweep to k = 64.  ``verify`` runs only at the quick profile and only the
deterministic growth and sweep criteria.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from percolab.cli import SPEC, ListOf, Mapping, Number, OneOf, main

COMMANDS = ("pi", "crossing", "tail", "blob", "bounds", "lower", "verify")
JUNK = ["x", True, False, None, [], {}]
REALS = [math.nan, math.inf, -math.inf, -2.0, -1, 0, 0.0, 0.1, 0.5, 1, 1.0, 1.5, 2.5]
# the largest integer drawn per key; coordinates, widths and scales stop at 8
CAPS = {
    "workers": 2, "samples": 20, "d": 3, "lower.max_attempts": 200, "bounds.sweep_kmax": 64,
}
# keys drawn in every spec, never null: their defaults are costly, and blob
# without points never grows a tree.  A section is drawn for its subcommand.
ALWAYS = {
    "workers", "samples", "sizes", "lower.n", "lower.max_attempts", "bounds.sweep_kmax",
    "verify.profile", "verify.criteria", "blob.points",
}
# verify runs only at the quick profile, on the deterministic growth oracle,
# radius bound, shell and sweep criteria
VERIFY = {
    "verify.profile": (st.just("quick"), st.sampled_from(["fast", 1])),
    "verify.criteria": (
        st.lists(st.sampled_from((5, 6, 7, 14)), min_size=1, max_size=2, unique=True),
        st.sampled_from([[], [0], [99], [True], 5]),
    ),
}


def split(rule, candidates):
    """(accepted, rejected) strategies over ``candidates``, as ``rule`` judges them."""
    ok, bad = [], []
    for v in candidates:
        try:
            rule("key", v)
            ok.append(v)
        except ValueError:
            bad.append(v)
    return st.sampled_from(ok), st.sampled_from(bad)


def paths(rule, name: str = ""):
    """Every key and list item the schema names, as ``lower.n`` or ``u_grid[]``."""
    if name:
        yield name
    if isinstance(rule, Mapping):
        for key, sub in rule.rules.items():
            yield from paths(sub, f"{name}.{key}" if name else key)
    elif isinstance(rule, ListOf):
        yield from paths(rule.item, f"{name}[]")


def within(bad: str | None, path: str) -> bool:
    """Whether the path ``bad`` is ``path`` or lies inside it."""
    return bad is not None and (bad == path or bad.startswith((f"{path}.", f"{path}[")))


def values(rule, name: str, bad: str | None, command: str):
    """Values the schema accepts at ``name``, or rejects when ``name`` is ``bad``."""
    wrong = name == bad
    if name in VERIFY:
        return VERIFY[name][wrong]
    if isinstance(rule, Number):
        return split(rule, list(range(-1, CAPS.get(name, 8) + 1)) + REALS + JUNK)[wrong]
    if isinstance(rule, OneOf):
        return split(rule, list(rule.choices) + JUNK)[wrong]
    if isinstance(rule, ListOf):
        n = rule.length
        if wrong:
            return st.sampled_from([[], "x", 3] + ([[0] * (n - 1), [0] * (n + 1)] if n else []))
        item = values(rule.item, f"{name}[]", bad, command)
        return st.lists(item, min_size=n or 1, max_size=n or 3)
    assert isinstance(rule, Mapping), name
    if wrong:
        return st.sampled_from(["x", True, 3, []])
    required, optional = {}, {}
    for key, sub in rule.rules.items():
        path = f"{name}.{key}" if name else key
        section = not name and isinstance(sub, Mapping)
        if section and key != command and not within(bad, path):
            continue  # only its own subcommand reads a section
        strategy = values(sub, path, bad, command)
        if rule.nulls and path not in ALWAYS:
            strategy = st.one_of(strategy, strategy, st.none())
        if name or path in ALWAYS or section or within(bad, path):
            required[key] = strategy
        else:
            optional[key] = strategy
    if bad == f"{name}.typo_key":
        required["typo_key"] = st.just(1)
    return st.fixed_dictionaries(required, optional=optional)


@st.composite
def commands_and_specs(draw):
    """A subcommand and a spec with at most one key outside its domain (or misspelt)."""
    command = draw(st.sampled_from(COMMANDS))
    sections = [k for k, r in SPEC.rules.items() if isinstance(r, Mapping)]
    targets = list(paths(SPEC)) + [f"{s}.typo_key" for s in sections]
    bad = draw(st.one_of(st.none(), st.sampled_from(targets)))
    return command, draw(values(SPEC, "", bad, command))


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(commands_and_specs())
def test_any_spec_gives_results_or_one_json_error(command_and_spec):
    command, spec = command_and_spec
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "spec.yaml", Path(tmp) / "out"
        path.write_text(yaml.safe_dump(spec))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([command, "--spec", str(path), "--out", str(out)])
        if code == 2:
            (line,) = stderr.getvalue().splitlines()
            assert strict_json(line)["error"]
            assert not out.exists()
        else:
            assert code == 0, (code, stderr.getvalue())
            written = list(out.glob("*.json"))
            assert written
            for f in written:
                strict_json(f.read_text())
