from __future__ import annotations

import hashlib
import itertools
import json
import math

import pytest
import yaml

from percolab.cli import SPEC, ExperimentSpec, Mapping, main
from percolab.estimators import histogram, vn_sample
from percolab.lattice import TRIANGULAR
from percolab.reports import spec_hash, write_json
from percolab.verify import QUICK, VerifyContext, run_criterion


def write_spec(tmp_path, **overrides):
    doc = {
        "master_seed": 17,
        "lattice": "triangular_site",
        "samples": 200,
        "workers": 1,
        "sizes": [3, 4],
    }
    doc.update(overrides)
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def test_spec_round_trip(tmp_path):
    spec = ExperimentSpec(master_seed=5, samples=100, sizes=[2, 3], pi={"scales": [[1, 2]]})
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(spec.to_dict()))
    again = ExperimentSpec.from_file(path)
    assert again == spec
    assert spec_hash(again.to_dict()) == spec_hash(spec.to_dict())


def test_spec_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentSpec(p=1.5)
    with pytest.raises(ValueError):
        ExperimentSpec(samples=0)
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump({"nonsense_key": 1}))
    with pytest.raises(ValueError):
        ExperimentSpec.from_file(path)


def test_pi_subcommand_deterministic(tmp_path, capsys):
    spec = write_spec(tmp_path, pi={"scales": [[1, 2], [1, 3]]})
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    assert main(["pi", "--spec", str(spec), "--out", str(out1)]) == 0
    assert main(["pi", "--spec", str(spec), "--out", str(out2), "--workers", "2"]) == 0
    files1 = sorted(out1.iterdir())
    files2 = sorted(out2.iterdir())
    assert [f.name for f in files1] == [f.name for f in files2]
    for a, b in zip(files1, files2):
        assert a.read_bytes() == b.read_bytes()
    csv, twin = (next(f for f in files1 if f.suffix == ext) for ext in (".csv", ".json"))
    doc = json.loads(twin.read_text())
    assert {(r["m"], r["n"]) for r in doc["pi_table"]} == {(1, 2), (1, 3)}
    assert {r["lattice"] for r in doc["pi_table"]} == {TRIANGULAR.kind.value}
    first = csv.read_text().splitlines()[0]
    assert "spec_hash=" in first and "version=" in first


def test_seed_override_changes_hash(tmp_path):
    spec = write_spec(tmp_path, pi={"scales": [[1, 2]]})
    out = tmp_path / "o"
    assert main(["pi", "--spec", str(spec), "--out", str(out), "--seed", "999"]) == 0
    assert main(["pi", "--spec", str(spec), "--out", str(out)]) == 0
    names = {f.name for f in out.iterdir()}
    assert len(names) == 4  # two spec hashes, csv + json each


def test_invalid_p_exits_nonzero(tmp_path, capsys):
    spec = write_spec(tmp_path, p=1.5)
    code = main(["pi", "--spec", str(spec), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]


@pytest.mark.parametrize(
    "override",
    [
        {"samples": 1.5},
        {"samples": True},
        {"workers": 2.0},
        {"master_seed": 4.5},
        {"d": False},
        {"sizes": [3, 4.0]},
        {"sizes": 4},
        {"u_grid": [1.5, True]},
        {"u_grid": ["2"]},
        {"p": "0.5"},
        {"tail": {"sizes": 5}},
        {"tail": {"sizes": [4, 5.5]}},
        {"tail": {"distribution": "yes"}},
        {"tail": {"statistic": "mean"}},
        {"bounds": {"sweep_kmax": 64.9}},
        {"bounds": {"C2": True}},
        {"lower": {"n": 8.0}},
        {"lower": {"c12_grid": 0.2}},
        {"pi": {"scales": [[1, 4, 8]]}},
        {"blob": {"points": [[0, 0.5]]}},
        {"verify": {"criteria": 3}},
        {"verify": {"profile": "fast"}},
        {"crossing": {"rects": [{"widths": [4, 3.5]}]}},
    ],
)
def test_spec_type_errors_exit_2(tmp_path, capsys, override):
    spec = write_spec(tmp_path, **override)
    code = main(["pi", "--spec", str(spec), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "must be" in json.loads(err.strip())["error"]


@pytest.mark.parametrize(
    "command, override",
    [
        ("lower", {"lower": {"u": 0}}),
        ("lower", {"lower": {"u": 1}}),
        ("lower", {"lower": {"n": 8, "u": 9}}),
        ("lower", {"lower": {"n": 1}}),
        ("bounds", {"bounds": {"sweep_kmax": 1}}),
        ("bounds", {"bounds": {"sweep_kmax": -5}}),
        ("verify", {"verify": {"profile": "quick", "criteria": []}}),
        ("verify", {"verify": {"profile": "quick", "criteria": [14, 99]}}),
        ("verify", {"verify": {"profile": "quick", "criteria": [0]}}),
        # an empty list would write empty result files, or fail later on max()
        ("bounds", {"sizes": []}),
        ("tail", {"u_grid": []}),
        ("pi", {"pi": {"scales": []}}),
        ("tail", {"tail": {"sizes": []}}),
        ("crossing", {"crossing": {"rects": []}}),
        # generating_fn_bound checks alpha < d at its first u, before the sweeps
        ("bounds", {"lattice": "z_bond", "d": 3, "bounds": {"alpha": 3.5}}),
    ],
)
def test_spec_range_errors_exit_2_before_any_work(tmp_path, capsys, command, override):
    spec = write_spec(tmp_path, **override)
    out = tmp_path / "x"
    assert main([command, "--spec", str(spec), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "must" in json.loads(captured.err.strip())["error"]
    assert captured.out == ""  # no criterion ran, no file was written
    assert not out.exists()


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize(
    "command, override, key",
    [
        ("tail", {"u_grid": [INF]}, "u_grid[0]"),
        ("tail", {"u_grid": [1.0, NAN]}, "u_grid[1]"),
        ("tail", {"u_grid": [0.5]}, "u_grid[0]"),
        ("lower", {"lower": {"n": 4, "c12_grid": [INF]}}, "lower.c12_grid[0]"),
        ("lower", {"lower": {"n": 4, "c12_grid": [0.1, NAN]}}, "lower.c12_grid[1]"),
        ("blob", {"blob": {"points": [[0, 0], [4, 0]], "C3": NAN, "alpha": 1.0}}, "blob.C3"),
        ("blob", {"blob": {"points": [[0, 0], [4, 0]], "C3": 1.0, "alpha": -2}}, "blob.alpha"),
        ("blob", {"blob": {"points": [[0, 0], [4, 0]], "C3": 1.0, "alpha": 0}}, "blob.alpha"),
        ("blob", {"blob": {"points": [[0, 0], [4, 0]], "C3": 1.0, "alpha": INF}}, "blob.alpha"),
        ("blob", {"blob": {"points": [[0, 0], [4, 0]], "C4": -1}}, "blob.C4"),
        ("bounds", {"bounds": {"C2": 0}}, "bounds.C2"),
        ("bounds", {"bounds": {"C2": NAN}}, "bounds.C2"),
        ("bounds", {"bounds": {"C2": INF}}, "bounds.C2"),
        ("bounds", {"bounds": {"alpha": -INF}}, "bounds.alpha"),
        ("pi", {"p": NAN}, "p"),
        # schema-valid specs that the library used to reject without naming a key
        ("bounds", {"lattice": "z_bond", "d": 3}, "bounds.alpha"),
        ("pi", {"pi": {"scales": [[8, 1]]}}, "pi.scales[0]"),
        ("pi", {"pi": {"scales": [[1, 4], [2, 4], [1, 4]]}}, "pi.scales[2]"),
        ("pi", {"sizes": [7, 8, 7]}, "sizes[2]"),
        ("pi", {"lattice": "triangular_site", "d": 3}, "d"),
        ("tail", {"lattice": "triangular_site", "d": 3}, "d"),
        # a repeated size or u would sample its rows twice and write them twice
        ("tail", {"u_grid": [1.0, 2.0, 1]}, "u_grid[2]"),
        ("tail", {"sizes": [4, 4], "tail": {"distribution": True}}, "sizes[1]"),
        ("tail", {"sizes": [4], "tail": {"sizes": [4, 6, 4]}}, "tail.sizes[2]"),
        # a repeated rectangle (axis 0 by default) or criterion would run twice
        ("crossing", {"crossing": {"rects": [{"widths": [4, 4]}, {"widths": [4, 4], "axis": 0}]}},
         "crossing.rects[1]"),
        ("crossing", {"sizes": [6, 6]}, "sizes[1]"),
        ("verify", {"verify": {"profile": "quick", "criteria": [14, 14]}}, "verify.criteria"),
    ],
)
def test_spec_domain_errors_name_the_key(tmp_path, capsys, command, override, key):
    # each number is finite and in its range; these specs used to run, or end
    # in a traceback
    spec = write_spec(tmp_path, **override)
    out = tmp_path / "x"
    assert main([command, "--spec", str(spec), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert json.loads(line)["error"].startswith(f"{key} must be ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "text, error",
    [
        ("5\n", "spec must be a mapping, got 5"),
        ("[]\n", "spec must be a mapping, got []"),
        ("false\n", "spec must be a mapping, got False"),
        ("a: [1,\n", "expected the node content"),
    ],
)
def test_spec_file_that_is_no_mapping_exits_2(tmp_path, capsys, text, error):
    spec = tmp_path / "spec.yaml"
    spec.write_text(text)
    assert main(["pi", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert error in json.loads(line)["error"]


def test_removed_k_grid_is_an_unknown_key(tmp_path, capsys):
    spec = write_spec(tmp_path, k_grid=[1, 2, 3])
    assert main(["pi", "--spec", str(spec), "--out", str(tmp_path / "x")]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "unknown spec keys: ['k_grid']"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_workers_flag_below_one_exits_2(tmp_path, capsys, workers):
    # the flag is checked like the spec value, not replaced by one worker
    spec = write_spec(tmp_path)
    out = tmp_path / "x"
    assert main(["pi", "--spec", str(spec), "--out", str(out), "--workers", workers]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err.strip())["error"] == "workers must be >= 1"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "lower",
    [
        {"c12_grid": []},
        {"c12_grid": [-1.0, 0.0]},
        {"c12_grid": [0.2, 0.0]},
        {"conditioned": 0},
        {"max_attempts": -3},
        {"max_attempts": 0},
        {"stop_after_violations": 0},
    ],
)
def test_lower_construction_errors_exit_2(tmp_path, capsys, lower):
    spec = write_spec(tmp_path, samples=50, lower={"n": 4, "u": 2, **lower})
    out = tmp_path / "x"
    assert main(["lower", "--spec", str(spec), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "must" in json.loads(captured.err.strip())["error"]
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "section, value",
    [
        ("pi", {"scale": [[1, 4]]}),
        ("lower", {"nn": 3}),
        ("tail", {"statistics": "long_arm"}),
        ("blob", {"c3": 1.0}),
        ("bounds", {"kmax": 64}),
        ("bounds", {"c1": 1.0}),
        ("crossing", {"rect": []}),
        ("verify", {"criterion": [1]}),
        ("pi", [[1, 4]]),
        ("lower", None),
    ],
)
def test_spec_section_keys_exit_2(tmp_path, capsys, section, value):
    spec = write_spec(tmp_path, **{section: value})
    out = tmp_path / "x"
    assert main(["pi", "--spec", str(spec), "--out", str(out)]) == 2
    assert section in json.loads(capsys.readouterr().err.strip())["error"]
    assert not out.exists()


def test_spec_section_keys_accepted():
    sections = {
        name: dict.fromkeys(rule.rules)
        for name, rule in SPEC.rules.items()
        if isinstance(rule, Mapping)
    }
    assert ExperimentSpec(**sections).to_dict()["lower"] == sections["lower"]


def test_crossing_subcommand(tmp_path):
    spec = write_spec(tmp_path, sizes=[4])
    out = tmp_path / "cross"
    assert main(["crossing", "--spec", str(spec), "--out", str(out)]) == 0
    csv = [f for f in out.iterdir() if f.suffix == ".csv"][0]
    assert "estimate" in csv.read_text().splitlines()[1]


@pytest.mark.parametrize(
    "lattice, index, successes", [("z_bond", 1, 736), ("triangular_site", 2, 729)]
)
def test_crossing_default_rectangle_is_the_self_dual_criterion(tmp_path, lattice, index, successes):
    # the default rectangle at n is the one criteria 1 and 2 cross at crossing_n
    spec = write_spec(
        tmp_path, master_seed=7, lattice=lattice, sizes=[QUICK.crossing_n],
        samples=QUICK.crossing_samples,
    )
    out = tmp_path / "cross"
    assert main(["crossing", "--spec", str(spec), "--out", str(out), "--format", "json"]) == 0
    (row,) = json.loads(next(out.glob("*.json")).read_text())["crossings"]
    data = run_criterion(index, VerifyContext(7, 1, QUICK)).data
    assert row["successes"] == data["successes"] == successes


@pytest.mark.parametrize(
    "rect",
    [
        {"width": [4, 3]},
        {"widths": [4, 3], "axes": 0},
        {"widths": [4]},
        {"widths": [4, 3], "axis": 2},
        {"widths": [4, 3], "axis": True},
        [4, 3],
    ],
)
def test_crossing_rect_entries_exit_2(tmp_path, capsys, rect):
    spec = write_spec(tmp_path, crossing={"rects": [rect]})
    out = tmp_path / "cross"
    assert main(["crossing", "--spec", str(spec), "--out", str(out)]) == 2
    assert "crossing.rects[0]" in json.loads(capsys.readouterr().err.strip())["error"]
    assert not out.exists()


def test_crossing_negative_extent_exits_2(tmp_path, capsys):
    spec = write_spec(tmp_path, crossing={"rects": [{"widths": [-2, 3]}]})
    out = tmp_path / "cross"
    assert main(["crossing", "--spec", str(spec), "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert error == "rectangle extents must be >= 0, got (-2, 3)"
    assert not out.exists()


def test_blob_subcommand_points_flag(tmp_path):
    out = tmp_path / "blob"
    code = main(
        ["blob", "--points", "[[0,0],[4,0],[4,3]]", "--out", str(out), "--format", "json"]
    )
    assert code == 0
    doc = json.loads(next(out.glob("*.json")).read_text())
    assert doc["merge_radii_doubled"] == [3, 4]
    assert doc["ordering_count"] == 2
    assert len(doc["blobs"]) == 5


def test_blob_points_name_their_results(tmp_path):
    # two point sets in one directory write two file sets, and points from
    # the flag or from a spec file name the same experiment
    out = tmp_path / "blob"
    for pts in ("[[0,0],[4,0]]", "[[0,0],[9,3],[2,2]]"):
        assert main(["blob", "--points", pts, "--out", str(out)]) == 0
    assert len({f.stem for f in out.iterdir()}) == 2
    spec = tmp_path / "spec.yaml"
    spec.write_text("blob: {points: [[0, 0], [4, 0]]}\n")
    from_spec = tmp_path / "from_spec"
    assert main(["blob", "--spec", str(spec), "--out", str(from_spec)]) == 0
    for f in from_spec.iterdir():
        assert f.read_bytes() == (out / f.name).read_bytes()


def test_blob_at_the_origin_reads_pi_0_as_one(tmp_path):
    # n defaults to 0 here, where s ** -alpha has no value; it used to divide by zero
    spec = write_spec(tmp_path, blob={"points": [[0, 0]], "C3": 0.5, "alpha": 1.0})
    out = tmp_path / "blob"
    assert main(["blob", "--spec", str(spec), "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(next(out.glob("*.json")).read_text())
    assert (doc["n"], doc["bounds"]["prob_upper_bound"]) == (0, 0.5)


def test_blob_requires_points(tmp_path):
    assert main(["blob", "--out", str(tmp_path / "b")]) == 2


@pytest.mark.parametrize(
    ("given", "error"),
    [
        ({"C3": 0.5}, "blob.alpha must be given with blob.C3"),
        ({"alpha": 1.0}, "blob.C3 must be given with blob.alpha"),
    ],
)
def test_blob_c3_and_alpha_come_together(tmp_path, capsys, given, error):
    # prob_upper_bound reads both; one alone used to drop it and exit 0
    spec = write_spec(tmp_path, blob={"points": [[0, 0], [4, 0]], **given})
    out = tmp_path / "blob"
    assert main(["blob", "--spec", str(spec), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err.strip()) == {"error": error}
    assert captured.out == "" and not out.exists()


def test_tail_subcommand(tmp_path):
    spec = write_spec(
        tmp_path, sizes=[3], u_grid=[1.0, 2.0], samples=150, tail={"statistic": "long_arm"}
    )
    out = tmp_path / "tail"
    assert main(["tail", "--spec", str(spec), "--out", str(out)]) == 0
    doc = json.loads(next(out.glob("*.json")).read_text())
    assert len(doc["tail"]) == 2


def test_tail_distribution_export(tmp_path):
    spec = write_spec(
        tmp_path, sizes=[2], u_grid=[1.0], samples=120, tail={"distribution": True}
    )
    out = tmp_path / "dist"
    assert main(["tail", "--spec", str(spec), "--out", str(out)]) == 0
    dist_csv = next(out.glob("dist_n2_*.csv"))
    lines = dist_csv.read_text().splitlines()
    assert lines[1] == "value,count"
    total = sum(int(ln.split(",")[1]) for ln in lines[2:])
    assert total == 120


def test_tail_distribution_follows_the_format(tmp_path):
    spec = write_spec(
        tmp_path, sizes=[4, 6], samples=200, tail={"statistic": "long_arm", "distribution": True}
    )
    out = tmp_path / "dist"
    assert main(["tail", "--spec", str(spec), "--out", str(out), "--format", "json"]) == 0
    assert not list(out.glob("*.csv"))
    (tail,) = out.glob("tail_*.json")
    digest = tail.stem.removeprefix("tail_")
    assert sorted(f.name for f in out.iterdir()) == sorted(
        [tail.name, f"dist_n4_{digest}.json", f"dist_n6_{digest}.json"]
    )
    summary = json.loads(tail.read_text())["distributions"]
    for n in (4, 6):
        doc = json.loads((out / f"dist_n{n}_{digest}.json").read_text())
        c1 = vn_sample(TRIANGULAR, 0.5, n, 200, 17, reads=("c1",)).c1
        assert {r["value"]: r["count"] for r in doc["distribution"]} == histogram(c1)
        assert [r["value"] for r in doc["distribution"]] == sorted(histogram(c1))
        assert summary[str(n)]["mean"] == c1.mean()


def test_bounds_subcommand(tmp_path):
    spec = write_spec(tmp_path, bounds={"sweep_kmax": 64, "C2": 1.0, "alpha": 0.104})
    out = tmp_path / "bounds"
    assert main(["bounds", "--spec", str(spec), "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(next(out.glob("*.json")).read_text())
    assert doc["sweeps"]["kmax"] == 64
    assert doc["sweeps"]["multinomial_sup"] > 0


def test_bounds_out_of_float_range_exits_2(tmp_path, capsys):
    # exp(u^d / C2) at u = 3.5, d = 3, C2 = 0.05 is past the float range: it used
    # to end in an OverflowError traceback
    spec = write_spec(tmp_path, d=3, sizes=[5], bounds={"alpha": 0.1, "C2": 0.05})
    out = tmp_path / "x"
    assert main(["bounds", "--spec", str(spec), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    error = json.loads(line)["error"]
    assert "leaves the float range" in error and "d = 3" in error and "C2 = 0.05" in error
    assert "at u = 3.5 " in error
    assert not out.exists()


def test_bounds_writes_every_u_it_can_evaluate(tmp_path, capsys):
    # the series stays in the float range up to u = 4 at d = 3, C2 = 0.1 (u^d / C2 = 640);
    # this spec used to exit 2 on a u past 4 that only a fitted comparator read
    spec = write_spec(tmp_path, d=3, sizes=[5], bounds={"alpha": 0.1, "C2": 0.1})
    out = tmp_path / "x"
    assert main(["bounds", "--spec", str(spec), "--out", str(out), "--format", "json"]) == 0
    assert capsys.readouterr().err == ""
    series = json.loads(next(out.glob("*.json")).read_text())["generating_fn_series"]
    assert [float(u) for u in series] == [1.0 + 0.25 * k for k in range(13)]
    assert all(math.isfinite(v) and v >= 1.0 for v in series.values())


def test_bounds_grid_ends_in_a_file_or_one_error_line(tmp_path, capsys):
    # no traceback anywhere on a grid over d, alpha, C2 and sizes; the u grid
    # stops at n = max(sizes), so sizes below 4 run
    grid = list(itertools.product((2, 3, 4), (0.1, 1.0, 1.9), (0.05, 0.1, 1.0, 10.0), (1, 2, 5, 8)))
    overflowed = 0
    for i, (d, alpha, c2, n) in enumerate(grid):
        spec = write_spec(tmp_path, d=d, sizes=[n], bounds={"alpha": alpha, "C2": c2, "sweep_kmax": 8})
        out = tmp_path / f"out{i}"
        code = main(["bounds", "--spec", str(spec), "--out", str(out), "--format", "json"])
        err = capsys.readouterr().err
        if code == 0:
            doc = json.loads(next(out.glob("*.json")).read_text())
            assert [float(u) for u in doc["generating_fn_series"]] == [
                1.0 + 0.25 * k for k in range(13) if 1.0 + 0.25 * k <= n
            ]
        else:
            assert code == 2 and not out.exists(), (d, alpha, c2, n)
            (line,) = err.splitlines()
            assert "leaves the float range" in json.loads(line)["error"], (d, alpha, c2, n)
            overflowed += 1
    assert 0 < overflowed < len(grid)


def test_lower_subcommand(tmp_path):
    spec = write_spec(
        tmp_path,
        samples=150,
        lower={"n": 8, "u": 2, "conditioned": 3, "max_attempts": 6000, "stop_after_violations": 3},
    )
    out = tmp_path / "low"
    assert main(["lower", "--spec", str(spec), "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(next(out.glob("*.json")).read_text())
    assert "campaign" in doc and "rsw" in doc


def strict_json(text: str):
    def reject(constant):
        raise ValueError(f"not JSON: {constant}")

    return json.loads(text, parse_constant=reject)


def test_lower_writes_non_finite_results_as_null(tmp_path):
    # at p = 0.1 no 2:1 rectangle is crossed, so C11 = -log 0 and every C13
    # fit is infinite; the CSV keeps repr's inf
    spec = write_spec(
        tmp_path, master_seed=42, p=0.1, samples=20, lower={"n": 8, "u": 2, "max_attempts": 200}
    )
    out = tmp_path / "low"
    assert main(["lower", "--spec", str(spec), "--out", str(out)]) == 0
    doc = strict_json(next(out.glob("*.json")).read_text())
    assert doc["rsw"] == {"estimate": 0.0, "C11": None}
    assert doc["c13_fits"] == [None, None, None]
    assert "C11,inf" in next(out.glob("*.csv")).read_text().splitlines()


def test_write_json_nulls_every_non_finite_float(tmp_path):
    payload = {"a": [1.0, float("nan"), (float("inf"), 2)], "b": {"c": -float("inf"), "d": "nan"}}
    path = write_json(tmp_path / "x.json", payload, {"spec_hash": "0"})
    assert strict_json(path.read_text()) == {
        "meta": {"spec_hash": "0"}, "a": [1.0, None, [None, 2]], "b": {"c": None, "d": "nan"},
    }


def test_verify_subcommand_quick_subset(tmp_path):
    spec = write_spec(tmp_path, verify={"profile": "quick", "criteria": [1, 5, 14]})
    out = tmp_path / "ver"
    code = main(["verify", "--spec", str(spec), "--out", str(out)])
    assert code == 0
    assert any(f.name.startswith("verify_") for f in out.iterdir())


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_verify_writes_only_the_format_asked(tmp_path, capsys, fmt):
    spec = write_spec(tmp_path, verify={"profile": "quick", "criteria": [5]})
    both, one = tmp_path / "both", tmp_path / fmt
    assert main(["verify", "--spec", str(spec), "--out", str(both)]) == 0
    stdout = capsys.readouterr().out
    assert main(["verify", "--spec", str(spec), "--out", str(one), "--format", fmt]) == 0
    assert capsys.readouterr().out == stdout
    (path,) = one.iterdir()
    assert path.suffix == f".{fmt}"
    assert path.read_bytes() == (both / path.name).read_bytes()


# sha256 and size of the blob command's output files for one point set; the
# points are part of the spec digest that names the files
BLOB_POINTS = "[[0,0],[4,0],[4,3],[-5,2],[1,-6],[-2,-2]]"
BLOB_FILES = {
    "blob_37fc035c4464.csv": ("5e2ce06e938c6edc15169d7c86c9cebecbd12a7f4aadf99eb2ca400f189e42d9", 186),
    "blob_37fc035c4464.json": ("e88878e2d61c3eae7628ebbdaa0e03646b78728b01a413f7071a38290260d9f0", 3543),
}


def test_blob_output_bytes_pinned(tmp_path):
    out = tmp_path / "blob"
    assert main(["blob", "--points", BLOB_POINTS, "--out", str(out)]) == 0
    got = {
        f.name: (hashlib.sha256(f.read_bytes()).hexdigest(), f.stat().st_size)
        for f in out.iterdir()
    }
    assert got == BLOB_FILES
