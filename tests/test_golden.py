"""Golden pins: exact sampled states, regions, raw kernel counters, sweeps and reports.

A refactor of the sampler, the labeling kernel, a reduction or the bound
sweeps must leave every value here unchanged.  The pins were recorded from the implementation
and are compared exactly: a change to the random stream, the element order,
the replica sharing or any counter shows up as a mismatch.  Regenerate them
only for a declared change of the stream or of the replica sharing.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
import yaml

from handbuilt import config_json, element_states
from percolab import bounds as B
from percolab import estimators as E
from percolab import growth as G
from percolab import lowerbound as L
from percolab.cli import main
from percolab.lattice import (
    TRIANGULAR,
    Z2_BOND,
    LatticeKind,
    LatticeSpec,
    Region,
    box_with_boundary,
    rect_region,
)
from percolab.estimators import read_config
from percolab.sampler import sample_config

Z3_BOND = LatticeSpec(LatticeKind.Z_BOND, 3)
LATTICES = {"TRIANGULAR": TRIANGULAR, "Z2_BOND": Z2_BOND, "Z3_BOND": Z3_BOND}
CARRIER_RADIUS = {"TRIANGULAR": 4, "Z2_BOND": 4, "Z3_BOND": 2}

# sha256 of the packed element states on box_with_boundary(lattice, radius)
STATE_SHA256 = {
    ("TRIANGULAR", 0.37, 11): "85522f0cd590345da1220a5299b0e347132a12addaa29a7dccff00be3086587d",
    ("TRIANGULAR", 0.37, 12345): "30f03f91ceb737702c68220ff2dc06392c2b3fd59822eafc4973d32028f36540",
    ("TRIANGULAR", 0.5, 11): "4efaf580476b96e4fbf2851dc6275f2ee8b00e125a6009d3f6619c54950647a2",
    ("TRIANGULAR", 0.5, 12345): "1c4a404f4f3e01ea8376739bbd8d6e2efd52832ac860988905bf7bedb7ea54af",
    ("Z2_BOND", 0.37, 11): "c7ed21313adcbcc41defeb0f6b2e7f66122cb7c0bbb23ca7e27179b029565257",
    ("Z2_BOND", 0.37, 12345): "eb2846fb268ef388b1ac5814329bae721b873297d5474fa315ca7962b4ee8568",
    ("Z2_BOND", 0.5, 11): "be6fae5ac3ece42da466d62912980d0cddcc8dc7dca89d3a701701f7ac486905",
    ("Z2_BOND", 0.5, 12345): "5fb4461fa180d3374a03a14041bb8810343ac50e4028ce9ed44d8e3932ae2f70",
    ("Z3_BOND", 0.37, 11): "7e235e4c2a3fb9db9621e4c70a489eff88fcdabb4da94993b7dc4b500a94a326",
    ("Z3_BOND", 0.37, 12345): "b18211b70eeb636c9e9f4782a359b1a77782c66cd29a6bc1ec70b1a161e5fd23",
    ("Z3_BOND", 0.5, 11): "7229015a947f732204b009d2768fce17e366759e561044819fb14e062884e752",
    ("Z3_BOND", 0.5, 12345): "d31f2a63d0e63510cddbe4bac35f178045ca7c88469c24c3d2a9d4266284526c",
}


@pytest.mark.parametrize("key", sorted(STATE_SHA256))
def test_packed_states_pinned(key):
    name, p, seed = key
    lattice = LATTICES[name]
    cfg = sample_config(lattice, box_with_boundary(lattice, CARRIER_RADIUS[name]), p, seed)
    assert hashlib.sha256(np.packbits(element_states(cfg)).tobytes()).hexdigest() == STATE_SHA256[key]


def _json_sha256(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# sha256 of handbuilt.config_json (region size and raster corners, p, seed, packed states)
CONFIG_JSON_SHA256 = {
    "TRIANGULAR": "e7a92113ec9f2064d2e555289c9c5cbe0b0dce999529df0da585331e4fdcb929",
    "Z2_BOND": "fb146735db9e20acb305326691aa8088b401dc5a8171b700d33db9186b9a68e4",
    "Z3_BOND": "19ed1d6fd300fdafe0684160b3c8a8f4818d373e7a0746841b6762a1c42ed73e",
}
RECT_CONFIG_JSON_SHA256 = {
    "TRIANGULAR": "ab5af047776f70245f5640466b5a8be3c3e6cd20f83f64487955228cf7f08fa9",
    "Z2_BOND": "ea209739f36b1a543c4561dfb01547901c86ae1ff00eea43e66a791768711cf8",
}


@pytest.mark.parametrize("name", sorted(CONFIG_JSON_SHA256))
def test_config_json_pinned(name):
    lattice = LATTICES[name]
    cfg = sample_config(lattice, box_with_boundary(lattice, CARRIER_RADIUS[name]), 0.5, 11)
    assert _json_sha256(config_json(cfg, 0.5, 11)) == CONFIG_JSON_SHA256[name]


@pytest.mark.parametrize("name", sorted(RECT_CONFIG_JSON_SHA256))
def test_rect_config_json_pinned(name):
    cfg = sample_config(LATTICES[name], rect_region((-3, 2), (9, 5)), 0.45, 21)
    assert _json_sha256(config_json(cfg, 0.45, 21)) == RECT_CONFIG_JSON_SHA256[name]


# V_n of one configuration on box_with_boundary(2n): the size of its long-arm set
LONG_ARM_SET = {
    ("TRIANGULAR", 4): 36,
    ("TRIANGULAR", 8): 126,
    ("Z2_BOND", 4): 75,
    ("Z2_BOND", 8): 271,
}


@pytest.mark.parametrize("key", sorted(LONG_ARM_SET))
def test_long_arm_set_pinned(key):
    name, n = key
    lattice = LATTICES[name]
    p = 0.5 if name == "TRIANGULAR" else 0.55
    cfg = sample_config(lattice, box_with_boundary(lattice, 2 * n), p, 31 + n)
    assert read_config(cfg, ("vn", n)) == LONG_ARM_SET[key]


# sha256 of the to_json() lists of every blob's shell
BLOB_POINTS = [(0, 0), (4, 0), (4, 3), (-5, 2), (1, -6), (-2, -2)]
BLOB_REGION_SHA256 = "34a9fe3028638f221efa0549144bea5ab17d9b3ae91aae193fa3d2094a9bbeb5"


def test_blob_regions_pinned():
    masks = [G.blob_region_mask(b, 6) for b in G.blobs(G.grow_tree(BLOB_POINTS), 6)]
    shells = [Region(origin, mask).to_json() for mask, origin in masks]
    assert _json_sha256(shells) == BLOB_REGION_SHA256


# (sha256, size) of every file `tail` writes with `distribution: true`
TAIL_FILES = {
    "triangular_site": {
        "dist_n3_54bb6c2f8527.csv": ("9bce9aed1b20b6fb955c0bfe3ae50f7c1fad102a2966ee50b405289b5b36cad5", 228),
        "dist_n3_54bb6c2f8527.json": ("64a4b3bec562b43f8c22bb7c7944e9dea49cc89be0a561be51d139be8c44d0fb", 1421),
        "dist_n4_54bb6c2f8527.csv": ("d73e447b288395c712e20943b84a75ec22fe3b327b0448e1ca29bfc792bf0444", 281),
        "dist_n4_54bb6c2f8527.json": ("164001d12e7d8df4654171e836677d434f31fc03ab9f92967ae3a12c17b4b9f1", 1914),
        "tail_54bb6c2f8527.csv": ("85d95aa54c3b60daff574cac5b7044028956034e239351341f5ed6bc5c937527", 457),
        "tail_54bb6c2f8527.json": ("511fcdcb06d91d8bb94c2fc2e7578c1510cb3621d5083ce71dadae57660a8887", 1321),
    },
    "z_bond": {
        "dist_n3_77b11891a263.csv": ("6646f252c0a72e6caea275d9c670c65fbdd6b10fc6d3f81b29a8649e2d7ff28b", 269),
        "dist_n3_77b11891a263.json": ("aaf1c09d7aea5e8c0c34aea87d6a9cca18885b85c37cc34ca97b0d304299ede7", 1770),
        "dist_n4_77b11891a263.csv": ("d200a9d08368d5603ec08e352b1867da03bf790a7eb4e3c22812e7c49299ba2c", 343),
        "dist_n4_77b11891a263.json": ("3620eb8b18456d328d27c193b524f04baa3b1c7c5b6f277accc277bc98874de0", 2504),
        "tail_77b11891a263.csv": ("d3ca2c0da10cb5faeca45a118037ffc1aa330990a9e620c57da3ec894c9d6132", 387),
        "tail_77b11891a263.json": ("1e15e04096a78ddae4f32f7c883649ce7643163c53fc6fa7e1062fd7b0eae2f6", 1250),
    },
}


def tail_distribution_run(tmp_path, lattice: str, sizes=(3, 4)) -> dict:
    """Run `tail` with `distribution: true`; {file name: (sha256, size)}."""
    tmp_path.mkdir(exist_ok=True)
    spec = tmp_path / "spec.yaml"
    doc = {
        "master_seed": 17,
        "lattice": lattice,
        "samples": 120,
        "workers": 1,
        "sizes": list(sizes),
        "u_grid": [1.0, 2.0],
        "tail": {"distribution": True},
    }
    spec.write_text(yaml.safe_dump(doc))
    out = tmp_path / "tail"
    assert main(["tail", "--spec", str(spec), "--out", str(out)]) == 0
    return {
        f.name: (hashlib.sha256(f.read_bytes()).hexdigest(), f.stat().st_size)
        for f in out.iterdir()
    }


@pytest.mark.parametrize("lattice", sorted(TAIL_FILES))
def test_tail_distribution_bytes_pinned(tmp_path, lattice):
    assert tail_distribution_run(tmp_path, lattice) == TAIL_FILES[lattice]


def test_tail_distribution_samples_each_family_once(tmp_path, monkeypatch):
    # one worker: each V_n run_counters call runs the kernel once; the largest-
    # cluster tail and its distribution read C_1 alone, so V_n is never labelled
    scales = []
    kernel = E._observe

    def spy(task, start, stop):
        scales.extend(obs for obs in task[3] if obs[0] in ("vn", "c1"))
        return kernel(task, start, stop)

    monkeypatch.setattr(E, "_observe", spy)
    tail_distribution_run(tmp_path / "a", "triangular_site", sizes=(6,))
    assert scales == [("c1", 6)]
    scales.clear()
    assert tail_distribution_run(tmp_path / "b", "triangular_site") == TAIL_FILES["triangular_site"]
    assert scales == [("c1", 3), ("c1", 4)]


# (sha256, size) of every file `lower` writes at p = 0.6, n = 8, u = 2, on 150
# samples, keyed by max_attempts: at 6000 the gluing campaign covers the FKG
# chain's attempts [0, 150), at 100 it stops short of them
LOWER_FILES = {
    6000: {
        "lower_a269cf358864.csv": ("b930694080654d3afa4fed2eec42732837e2e048b187536fd7c05d3f52f885dc", 248),
        "lower_a269cf358864.json": ("ac8b476e612d86397a4b9986192648d805c4524032d8bfb1e212f243ed6aee87", 891),
    },
    100: {
        "lower_1cd77c35754a.csv": ("206e09164421434a7e5d99681b0ad019f6bb96e99636b74b5a46cf5aa2ef7bb7", 231),
        "lower_1cd77c35754a.json": ("5c427ce2ec8f9101ee113d9e09fc19d1741683bb69fe97cff3867b6df02a4629", 871),
    },
}


def lower_run(tmp_path, max_attempts: int) -> dict:
    """Run `lower` on a small construction; {file name: (sha256, size)}."""
    spec = tmp_path / "spec.yaml"
    doc = {
        "master_seed": 17,
        "lattice": "triangular_site",
        "p": 0.6,
        "samples": 150,
        "workers": 1,
        "lower": {"n": 8, "u": 2, "conditioned": 3, "max_attempts": max_attempts},
    }
    spec.write_text(yaml.safe_dump(doc))
    out = tmp_path / "lower"
    assert main(["lower", "--spec", str(spec), "--out", str(out)]) == 0
    return {
        f.name: (hashlib.sha256(f.read_bytes()).hexdigest(), f.stat().st_size)
        for f in out.iterdir()
    }


@pytest.mark.parametrize("max_attempts", sorted(LOWER_FILES))
def test_lower_bytes_pinned(tmp_path, max_attempts):
    assert lower_run(tmp_path, max_attempts) == LOWER_FILES[max_attempts]


@pytest.mark.parametrize("max_attempts", sorted(LOWER_FILES))
def test_lower_labels_each_dn_attempt_once(tmp_path, monkeypatch, max_attempts):
    # one worker: each D(n, u) run_counters call runs the kernel once, on the
    # attempt range it is given; the FKG chain reads P(D) off the campaign
    ranges = []
    kernel = L._observe

    def spy(task, start, stop):
        if any(obs[0] == "dn" for obs in task[3]):
            ranges.append((start, stop))
        return kernel(task, start, stop)

    monkeypatch.setattr(L, "_observe", spy)
    assert lower_run(tmp_path, max_attempts) == LOWER_FILES[max_attempts]
    labelled = [i for start, stop in ranges for i in range(start, stop)]
    assert len(labelled) == len(set(labelled))
    assert sorted(labelled) == list(range(max(max_attempts, 150)))


EVENTS = (
    L.EventSpec("h_crossing", corner=(-3, -2), widths=(5, 4)),
    L.EventSpec("v_crossing", corner=(-1, -3), widths=(3, 5)),
    L.EventSpec("arm", m=1, n=4),
    L.EventSpec("vn_ge", n=2, threshold=6.0),
    L.EventSpec("c1_ge", n=3, threshold=12.0),
)
FKG_PAIRS = ((0, 1), (2, 3), (4, 0), (1, 2))

# per lattice: p, c1 thresholds, vn thresholds, (p, n, attempts) of the D(n, 2) counts
SETUP = {
    "TRIANGULAR": {"p": 0.5, "c1": (10.0, 20.0), "vn": (15.0, 25.0), "dn": (0.6, 6, 400)},
    "Z2_BOND": {"p": 0.42, "c1": (12.0, 20.0), "vn": (8.0, 20.0), "dn": (0.5, 6, 3000)},
}

COUNTERS = {
    "TRIANGULAR": {
        "arm": {"arm:1,8": 38, "arm:2,8": 40, "arm:4,8": 40},
        "vn": {
            "samples": 40,
            "vsum": 902,
            "vsq": 21964,
            "c1sum": 730,
            "c1sq": 15650,
            "c1ge:0": 33,
            "c1ge:1": 22,
            "vnge:0": 34,
            "vnge:1": 21,
            "msum:1": 902,
            "msq:1": 21964,
            "msum:2": 10531,
            "msq:2": 3397207,
            "msum:3": 82598,
            "msq:3": 237877294,
            "hist": {
                5: 1, 6: 2, 7: 1, 8: 2, 9: 1, 10: 2, 11: 2, 12: 1, 13: 1, 14: 1, 15: 1, 17: 2,
                18: 1, 20: 4, 21: 3, 22: 3, 24: 3, 25: 2, 26: 1, 27: 2, 29: 1, 30: 2, 33: 1,
            },
        },
        "crossing": [{"hits": 21}, {"hits": 35}],
        "dn": {"attempts": 400, "d": 24, "viol_i": 0, "viol_ii": 0, "viol": 0, "holds": 24},
        "fkg": [
            {"a": 26, "b": 18, "ab": 14},
            {"a": 49, "b": 44, "ab": 44},
            {"a": 40, "b": 26, "ab": 26},
            {"a": 14, "b": 49, "ab": 14},
        ],
    },
    "Z2_BOND": {
        "arm": {"arm:1,8": 30, "arm:2,8": 38, "arm:4,8": 40},
        "vn": {
            "samples": 40,
            "vsum": 797,
            "vsq": 20329,
            "c1sum": 584,
            "c1sq": 10804,
            "c1ge:0": 24,
            "c1ge:1": 8,
            "vnge:0": 33,
            "vnge:1": 23,
            "msum:1": 797,
            "msq:1": 20329,
            "msum:2": 9766,
            "msq:2": 4468978,
            "msum:3": 88791,
            "msq:3": 590461323,
            "hist": {
                5: 1, 7: 3, 8: 5, 9: 3, 10: 2, 11: 2, 12: 5, 13: 1, 14: 5, 15: 1, 16: 2, 18: 1,
                19: 1, 21: 1, 24: 1, 25: 1, 27: 2, 28: 1, 34: 1, 36: 1,
            },
        },
        "crossing": [{"hits": 16}, {"hits": 23}],
        "dn": {"attempts": 3000, "d": 3, "viol_i": 1, "viol_ii": 1, "viol": 1, "holds": 2},
        "fkg": [
            {"a": 12, "b": 10, "ab": 4},
            {"a": 50, "b": 45, "ab": 45},
            {"a": 44, "b": 12, "ab": 12},
            {"a": 11, "b": 50, "ab": 11},
        ],
    },
}


def _dn_dict(d, vi, vii) -> dict:
    viol = int((vi | vii).sum())
    return {
        "attempts": len(d),
        "d": int(d.sum()),
        "viol_i": int(vi.sum()),
        "viol_ii": int(vii.sum()),
        "viol": viol,
        "holds": int(d.sum()) - viol,
    }


def _fkg_dict(ia, ib) -> dict:
    return {"a": int(ia.sum()), "b": int(ib.sum()), "ab": int((ia & ib).sum())}


def _fkg(lattice, p, a: L.EventSpec, b: L.EventSpec, fam: int, samples: int) -> dict:
    """The kernel's two event indicators on the carrier ``fkg_check`` samples."""
    carrier = box_with_boundary(lattice, max(a.required_radius(), b.required_radius()))
    va, vb = E._observe((lattice, p, carrier, (a.observable(), b.observable()), fam), 0, samples)
    return _fkg_dict(a.holds(va), b.holds(vb))


def _counters(name: str) -> dict:
    """The per-replica kernel arrays, reduced to the counter dicts they replaced."""
    lattice, s = LATTICES[name], SETUP[name]
    p = s["p"]
    dn_p, dn_n, attempts = s["dn"]
    dn_task = (lattice, dn_p, box_with_boundary(lattice, 2 * dn_n), (("dn", dn_n, 2),), 104)
    (dn,) = E._observe(dn_task, 0, attempts)
    pairs = ((1, 8), (2, 8), (4, 8))

    def kernel(carrier, observables, fam, samples):
        return E._observe((lattice, p, carrier, observables, fam), 0, samples)

    (arm,) = kernel(box_with_boundary(lattice, 8), (("arm", pairs),), 101, 40)
    vn_c1 = kernel(box_with_boundary(lattice, 6), (("vn", 3), ("c1", 3)), 102, 40)
    vn = E.VnSample(lattice, 3, *vn_c1)
    rect, corner = rect_region((0, 0), (5, 4)), (0, 0)
    return {
        "arm": {f"arm:{m},{n}": hits for (m, n), hits in zip(pairs, arm.sum(axis=0).tolist())},
        "vn": vn.statistics(s["c1"], s["vn"], (1, 2, 3), True),
        "crossing": [
            {"hits": int(kernel(rect, (("crossing", corner, (5, 4), axis),), 103, 60)[0].sum())}
            for axis in (0, 1)
        ],
        "dn": _dn_dict(*dn.T),
        "fkg": [_fkg(lattice, p, EVENTS[a], EVENTS[b], 105, 50) for a, b in FKG_PAIRS],
    }


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_kernel_counters_pinned(name):
    assert _counters(name) == COUNTERS[name]


# events on a carrier larger than their own box: the crossing's radius-7 box
# carries arm(1, 6), and c1_ge(n=6) carries vn_ge(n=2), whose box is radius 4
WIDE_CARRIER_PAIRS = (
    (L.EventSpec("arm", m=1, n=6), L.EventSpec("h_crossing", corner=(-7, -7), widths=(14, 14))),
    (L.EventSpec("vn_ge", n=2, threshold=10.0), L.EventSpec("c1_ge", n=6, threshold=40.0)),
)
# per lattice: p, then (joint, marginal a, marginal b) successes of each pair
WIDE_CARRIER_FKG = {
    "TRIANGULAR": (0.45, [(46, 184, 48), (62, 122, 73)]),
    "Z2_BOND": (0.42, [(18, 168, 18), (97, 155, 106)]),
}


@pytest.mark.parametrize("name", sorted(WIDE_CARRIER_FKG))
def test_fkg_counts_on_wide_carriers_pinned(name):
    p, want = WIDE_CARRIER_FKG[name]
    got = []
    for a, b in WIDE_CARRIER_PAIRS:
        (res,) = L.fkg_check(LATTICES[name], p, [(a, b)], 200, 29)
        got.append((res.joint.successes, res.marginal_a.successes, res.marginal_b.successes))
    assert got == want


# (sup, argmax) of the constant sweeps, compared with ==: the same integers
# and the same float expressions must give the same bits
SWEEP_KMAX = (2, 3, 4, 5, 16, 17, 64, 65, 400, 10000)
SWEEPS = {
    "multinomial_sweep": {
        2: ((1.0, 2), (1.0, 2), (1.0, 2), (1.414213562373095, 5), (1.661809162655884, 8),
            (1.7433444809670096, 17), (2.32891097897108, 27), (2.32891097897108, 27),
            (2.9873098932374718, 384), (3.102114518222758, 6044)),
        3: ((1.0, 2), (1.0, 2), (1.0, 2), (1.0, 2), (1.7943337946408902, 16),
            (1.7943337946408902, 16), (1.7943337946408902, 16), (1.7943337946408902, 16),
            (2.3214706069743367, 111), (2.5296786672084512, 6773)),
        4: ((1.0, 2), (1.0, 2), (1.0, 2), (1.0, 2), (1.0, 2), (1.189207115002721, 17),
            (1.8772359524855575, 33), (1.8772359524855575, 33), (2.1886982438937728, 400),
            (2.2770090310944058, 7302)),
    },
    "power_product_sweep": {
        2: ((4.0, 2), (7.55952629936924, 3), (7.55952629936924, 3), (7.55952629936924, 3),
            (15.0, 15), (15.0, 15), (17.199134363794418, 63), (17.199134363794418, 63),
            (17.768083613315188, 255), (17.947411800019367, 4095)),
        3: ((5.656854249492379, 2), (12.0, 3), (19.027313840043536, 4), (26.39015821545787, 5),
            (41.60784009583456, 7), (41.60784009583456, 7), (62.99999999999999, 63),
            (62.99999999999999, 63), (62.99999999999999, 63), (66.36703832432565, 4095)),
        4: ((7.999999999999998, 2), (19.048812623618392, 3), (31.999999999999986, 4),
            (45.94793419988138, 5), (199.497095074269, 15), (199.497095074269, 15),
            (199.497095074269, 15), (199.497095074269, 15), (254.99999999999991, 255),
            (258.7251609222799, 4095)),
    },
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
@pytest.mark.parametrize("d", (2, 3, 4))
def test_sweeps_pinned(name, d):
    sweep = getattr(B, name)
    assert tuple(sweep(kmax, d) for kmax in SWEEP_KMAX) == SWEEPS[name][d]


# (sha256, size) of every file `bounds` writes, keyed by the spec: the default
# (d = 2, the one-arm alpha) and d = 3 with alpha 0.5; the JSON holds params,
# sweeps and the generating-function series
BOUNDS_FILES = {
    "default": {
        "bounds_18f6c7fc0f1d.csv": ("ad25601d7a22b7a58f7f96c952782a4a29553a8aa7753012f8590fb933fcc042", 227),
        "bounds_18f6c7fc0f1d.json": ("023b8c37627871d4c406ad5b14381710511cbf9b710ab3804ed5879909a79cf3", 830),
    },
    "d3": {
        "bounds_06b9ae3161f9.csv": ("c77544d99b255b33e15bec45076948f01783111f8bb3506868759e91f2e8d1af", 227),
        "bounds_06b9ae3161f9.json": ("ce21b8a12139ade0a0343eac1ce6a9733345abf977ac50faba9202be536f5682", 815),
    },
}
BOUNDS_SPECS = {"default": {}, "d3": {"d": 3, "bounds": {"alpha": 0.5}}}


@pytest.mark.parametrize("name", sorted(BOUNDS_FILES))
def test_bounds_bytes_pinned(tmp_path, name):
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump(BOUNDS_SPECS[name]))
    out = tmp_path / "bounds"
    assert main(["bounds", "--spec", str(spec), "--out", str(out)]) == 0
    written = {f.name: (hashlib.sha256(f.read_bytes()).hexdigest(), f.stat().st_size) for f in out.iterdir()}
    assert written == BOUNDS_FILES[name]


# sha256 of the verify JSON for `verify --quick --seed 7` on criteria 5, 6, 7
# and 14: growth oracle, radius bound, shell disjointness and the sweeps
VERIFY_QUICK_SHA256 = "c5564818aae4c8aa22695028ca6e88904fe1e2903284ed6f1b00b72f5f0c9dcc"


def test_verify_quick_growth_criteria_pinned(tmp_path, capsys):
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump({"verify": {"criteria": [5, 6, 7, 14]}}))
    out = tmp_path / "out"
    args = ["verify", "--quick", "--seed", "7", "--spec", str(spec), "--out", str(out)]
    assert main(args) == 0
    (path,) = out.glob("verify_*.json")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_QUICK_SHA256


# sha256 of the verify JSON for `verify --quick --seed 7` on the Monte Carlo
# criteria 1, 3, 4, 8, 9, 10, 11 and 12: the arm table, the V_n/C_1 kernel,
# crossing, D(n, u) and FKG.  Several of them read the same V_n families:
# c12's n = 8 and n = 12 runs are prefixes of c10's and c8's, and c10's n = 4
# run is the glue-constant run of c9.  Criteria 3 and 9 fail at quick sizes.
VERIFY_QUICK_MC_SHA256 = "979654de13d7e611b4fa16b7d184c80422c326c3b5e84970688d7714a19913e2"


def test_verify_quick_monte_carlo_criteria_pinned(tmp_path, capsys):
    spec = tmp_path / "spec.yaml"
    spec.write_text(yaml.safe_dump({"verify": {"criteria": [1, 3, 4, 8, 9, 10, 11, 12]}}))
    out = tmp_path / "out"
    args = ["verify", "--quick", "--seed", "7", "--spec", str(spec), "--out", str(out)]
    assert main(args) == 1
    (path,) = out.glob("verify_*.json")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == VERIFY_QUICK_MC_SHA256
