from __future__ import annotations

import ast
import inspect
import json
from dataclasses import asdict

import numpy as np
import pytest
from scipy import ndimage

from handbuilt import confined_labels
from percolab import verify
from percolab.estimators import default_p
from percolab.lattice import TRIANGULAR, Z2_BOND, Region, rect_region
from percolab.sampler import sample_config
from percolab.verify import _CRITERIA, QUICK, VerifyContext, run_criterion

SEED = 7
ORDER = (8, 10, 12)


@pytest.fixture(scope="module")
def table():
    return VerifyContext(SEED, 1, QUICK).pi_table(TRIANGULAR, 0.5)


def _data(indices, table, workers=1):
    ctx = VerifyContext(SEED, workers, QUICK, _pi={(TRIANGULAR, 0.5): table})
    return {i: run_criterion(i, ctx).data for i in indices}, ctx


def test_family_cache_is_order_free(table):
    # criteria 8, 10 and 12 share V_n families: forward, each (n, observable)
    # is first labelled at its largest size and read as a prefix; reversed, it
    # is extended.  Criterion 8 reads C_1 alone, 10 and 12 read V_n alone.
    forward, ctx = _data(ORDER, table)
    backward, _ = _data(ORDER[::-1], table, workers=2)
    alone = {i: _data((i,), table)[0][i] for i in ORDER}
    assert forward == backward == alone
    assert {key: len(a) for key, a in ctx._vn.items()} == {
        (TRIANGULAR, 0.5, 4, "vn"): QUICK.constant_samples,
        (TRIANGULAR, 0.5, 8, "vn"): QUICK.constant_samples,
        (TRIANGULAR, 0.5, 12, "vn"): QUICK.moment_samples,
        (TRIANGULAR, 0.5, 12, "c1"): QUICK.tail_samples,
    }


def test_family_cache_fills_each_observable_on_demand():
    # V_n is labelled over [0, 50) and then only over [50, 80); C_1 fills on
    # its own over [0, 80); shorter requests read prefixes and label nothing
    ctx = VerifyContext(SEED, 1, QUICK)
    calls = []
    sample = verify.estimators.vn_sample

    def spy(*args):
        calls.append((args[3], args[6], tuple(args[7])))
        return sample(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify.estimators, "vn_sample", spy)
        ctx.vn_sample(TRIANGULAR, 0.5, 3, 50, "vn")
        vn = ctx.vn_sample(TRIANGULAR, 0.5, 3, 80, "vn")
        c1 = ctx.vn_sample(TRIANGULAR, 0.5, 3, 80, "c1")
        short = ctx.vn_sample(TRIANGULAR, 0.5, 3, 60, "c1")
        ctx.vn_sample(TRIANGULAR, 0.5, 3, 60, "vn")
    assert calls == [(50, 0, ("vn",)), (30, 50, ("vn",)), (80, 0, ("c1",))]
    want = sample(TRIANGULAR, 0.5, 3, 80, SEED)
    assert vn.vn.tolist() == want.vn.tolist() and c1.c1.tolist() == want.c1.tolist()
    assert short.c1.tolist() == want.c1[:60].tolist()
    assert vn.c1 is None and c1.vn is None and short.vn is None


@pytest.mark.parametrize(
    "index, want",
    [(8, {("c1", QUICK.tail_n)}), (10, {("vn", n) for n in QUICK.vn_check_ns})],
)
def test_criteria_label_only_the_observable_they_read(index, want, table, monkeypatch):
    asked = []
    kernel = verify.estimators._observe

    def spy(task, start, stop):
        asked.extend(obs for obs in task[3] if obs[0] in ("vn", "c1"))
        return kernel(task, start, stop)

    monkeypatch.setattr(verify.estimators, "_observe", spy)
    run_criterion(index, VerifyContext(SEED, 1, QUICK, _pi={(TRIANGULAR, 0.5): table}))
    assert set(asked) == want and len(asked) == len(want)


def test_bfs_oracle_is_independent():
    # criterion 13 checks the labeling kernel against this graph oracle
    source = inspect.getsource(verify._labels_match_graph)
    assert "ndimage" not in source and "grid." not in source


def test_criteria_take_their_lattice_and_p_from_the_table():
    # only criterion 13, which alternates both lattices, names one; the others
    # sample at the (lattice, p) that run_criterion passes them
    lattices = {"TRIANGULAR", "Z2_BOND"}
    points = {default_p(lattice) for lattice in (TRIANGULAR, Z2_BOND)}
    for index, (_, fn, _) in _CRITERIA.items():
        if index == 13:
            continue
        nodes = list(ast.walk(ast.parse(inspect.getsource(fn))))
        assert not lattices & {node.id for node in nodes if isinstance(node, ast.Name)}, index
        constants = {node.value for node in nodes if isinstance(node, ast.Constant)}
        assert not points & {v for v in constants if type(v) is float}, index


def test_one_criterion_runs_at_a_shifted_p():
    # c3 and c10 at p = 0.55 get their own pi table and V_n families, and
    # leave every criterion at the table's point as a fresh context runs it
    ctx = VerifyContext(SEED, 1, QUICK)
    shifted = _CRITERIA[3][1](ctx, TRIANGULAR, 0.55)[2]
    _CRITERIA[10][1](ctx, TRIANGULAR, 0.55)
    assert shifted != run_criterion(3, ctx).data
    assert set(ctx._pi) == {(TRIANGULAR, 0.5), (TRIANGULAR, 0.55)}
    fresh = VerifyContext(SEED, 1, QUICK)
    for i in (3, 8, 10, 12):
        mine, theirs = run_criterion(i, ctx), run_criterion(i, fresh)
        assert json.dumps(asdict(mine)) == json.dumps(asdict(theirs)), i


# a 20 x 20 box without its middle 4 x 4 block
HOLE = Region((0, 0), np.pad(np.zeros((4, 4), dtype=bool), 8, constant_values=True))


@pytest.mark.parametrize("lattice", [TRIANGULAR, Z2_BOND])
def test_labels_match_graph_accepts_clusters_and_rejects_plants(lattice):
    # the criterion-13 oracle accepts the kernel's labels on rectangles and on
    # a carrier with a hole; on the triangular lattice it rejects the labels of
    # the square adjacency (ndimage's default structure)
    p = default_p(lattice)
    for seed, widths in enumerate([(7, 7), (23, 40), (41, 9)]):
        region = rect_region((0, 0), widths)
        config = sample_config(lattice, region, p, seed)
        assert verify._labels_match_graph(config, confined_labels(config, region))
        if lattice.site_mode:
            square = ndimage.label(config.site_open)[0]
            assert not verify._labels_match_graph(config, square)
    config = sample_config(lattice, HOLE, p, 3)
    labels = confined_labels(config, HOLE)
    assert verify._labels_match_graph(config, labels)
    # a merged pair; one site of the largest cluster split off or moved to
    # another cluster; a label on the first unlabelled site (a closed one on
    # the triangular lattice) or on the hole's middle
    ids, sizes = np.unique(labels[labels > 0], return_counts=True)
    big = ids[sizes.argmax()]
    other, new, one = ids[ids != big][0], labels.max() + 1, tuple(np.argwhere(labels == big)[0])
    plants = [np.where(labels == other, big, labels)]
    for site, value in ((one, new), (one, other), (tuple(np.argwhere(labels == 0)[0]), new), ((10, 10), new)):
        plant = labels.copy()
        plant[site] = value
        plants.append(plant)
    for plant in plants:
        assert not verify._labels_match_graph(config, plant)
