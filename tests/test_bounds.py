from __future__ import annotations

import math
import re
import tracemalloc

import oracles
import pytest

from percolab import bounds
from percolab.bounds import (
    BoundParams,
    generating_fn_bound,
    int_root_ceil,
    multinomial_constant,
    multinomial_sweep,
    power_product_sweep,
)


def params(**kw):
    defaults = dict(d=2, alpha=0.5, C2=1.0)
    defaults.update(kw)
    return BoundParams(**defaults)


def test_params_validation():
    with pytest.raises(ValueError):
        BoundParams(d=1)
    with pytest.raises(ValueError):
        BoundParams(d=2, alpha=2.5)
    with pytest.raises(ValueError):
        BoundParams(d=2, C11=-1.0)
    with pytest.raises(ValueError):
        BoundParams(d=2).require("C2")


@pytest.mark.parametrize("c2", [0, 0.0, -1.0])
def test_params_reject_c2_at_most_zero(c2):
    # C2 divides in the generating-function series and the C9 fit
    with pytest.raises(ValueError, match="C2"):
        BoundParams(d=2, alpha=0.5, C2=c2)


def test_int_root_ceil():
    assert int_root_ceil(1, 2) == 1
    assert int_root_ceil(2, 2) == 2
    assert int_root_ceil(4, 2) == 2
    assert int_root_ceil(5, 2) == 3
    assert int_root_ceil(8, 3) == 2
    assert int_root_ceil(9, 3) == 3


def test_generating_fn_exponential_identity():
    # first piece, up to the substitution bound: sum u^(dk) / (C2^k k!) = exp(u^d/C2)
    for u, c2v in ((1.0, 1.0), (1.5, 2.0)):
        total, term, k = 0.0, 1.0, 0
        while term > 1e-19:
            total += term
            k += 1
            term = term * (u**2 / c2v) / k
        assert total == pytest.approx(math.exp(u**2 / c2v), rel=1e-9)


def test_generating_fn_second_piece():
    # u = 1, C2 = 1, alpha/d = 1/2: second piece is sum over k >= 2 of k^(-k/2)
    p = BoundParams(d=2, alpha=1.0, C2=1.0)
    series = generating_fn_bound(1.0, 8, p)
    piece1 = 1.0 + 1.0  # k = 0 and k = 1 terms with u^d/(C2 k) = 1
    independent = sum(k ** (-k / 2) for k in range(2, 300))
    assert series - piece1 == pytest.approx(independent, rel=1e-12)


def test_generating_fn_increasing():
    p = params()
    last = 0.0
    for u in (1.0, 1.5, 2.0, 2.5, 3.0):
        val = generating_fn_bound(u, 8, p)
        assert math.isfinite(val) and val > last
        last = val
    with pytest.raises(ValueError):
        generating_fn_bound(9.0, 8, p)


@pytest.mark.parametrize(
    ("params_", "u", "n", "what"),
    [
        (BoundParams(d=3, alpha=0.1, C2=0.1), 4.5, 5, "exp(u^d / C2)"),  # u^d / C2 = 911
        (BoundParams(d=50, alpha=0.1, C2=1.0), 1.5, 2, "exp(u^d / C2)"),  # u^d itself overflows
        (BoundParams(d=6, alpha=0.5, C2=1000.0), 6.0, 6, "the generating-function series"),
    ],
)
def test_generating_fn_out_of_float_range_names_c2_and_d(params_, u, n, what):
    # each used to raise OverflowError; u^d / C2 past log(float max), or a series
    # term past the float range, is a ValueError naming d and C2
    pattern = rf"^{re.escape(what)} leaves the float range at u = .* \(d = {params_.d}, C2 = "
    with pytest.raises(ValueError, match=pattern):
        generating_fn_bound(u, n, params_)


def test_multinomial_constant():
    value, fit = multinomial_constant(2, 2)
    assert value == 1 and fit == 1.0
    value17, fit17 = multinomial_constant(17, 2)
    # 16! / (3! 12! 1!) computed exactly
    assert value17 == math.factorial(16) // (math.factorial(3) * math.factorial(12))
    assert fit17 == pytest.approx(value17 ** (1 / 16), rel=1e-12)
    with pytest.raises(ValueError):
        multinomial_constant(1, 2)
    # the product of binomials is the factorial form's integer
    for d in (2, 3, 4):
        for k in range(2, 300):
            parts, m, _ = bounds._partition(k, d)
            want = math.factorial(k - 1) // math.prod(map(math.factorial, (*parts, m)))
            assert multinomial_constant(k, d)[0] == want


def test_multinomial_sweep_matches_pointwise():
    sup, argmax = multinomial_sweep(600, 2)
    assert math.isfinite(sup)
    assert sup >= multinomial_constant(17, 2)[1] - 1e-12
    # incremental sweep agrees with direct evaluation at its argmax
    assert sup == pytest.approx(multinomial_constant(argmax, 2)[1], rel=1e-12)


@pytest.mark.parametrize("name", ("multinomial_sweep", "power_product_sweep"))
@pytest.mark.parametrize("d", (2, 3, 4))
def test_sweeps_equal_incremental_loops(name, d):
    sweep, loop = getattr(bounds, name), getattr(oracles, name)
    for kmax in range(2, 701):
        assert sweep(kmax, d) == loop(kmax, d), kmax


@pytest.mark.parametrize("name", ("multinomial_sweep", "power_product_sweep"))
@pytest.mark.parametrize("kmax", (4095, 4096, 4097, 6044, 10000, 30000))
def test_sweeps_equal_incremental_loops_large(name, kmax):
    assert getattr(bounds, name)(kmax, 2) == getattr(oracles, name)(kmax, 2)


@pytest.mark.parametrize("name", ("multinomial_sweep", "power_product_sweep"))
@pytest.mark.parametrize("chunk", (1, 2, 7, 64))
def test_chunked_screen_equals_incremental_loops(name, chunk, monkeypatch):
    # every kmax from 2 to 300 on small chunks: kmax at, just past and far past
    # each chunk boundary, and maxima kept from earlier chunks or dropped later
    monkeypatch.setattr(bounds, "SCREEN_CHUNK", chunk)
    sweep, loop = getattr(bounds, name), getattr(oracles, name)
    for d in (2, 3):
        for kmax in range(2, 301):
            assert sweep(kmax, d) == loop(kmax, d), (d, kmax)


@pytest.mark.parametrize("kmax", (65535, 65536, 65537, 65538, 2 * 65536 + 1, 2 * 65536 + 2))
def test_power_product_sweep_across_the_real_chunk(kmax):
    # the d = 2 argmax of [2, 2^17] is 65535, one k below the first chunk boundary
    assert bounds.SCREEN_CHUNK == 65536
    assert power_product_sweep(kmax, 2) == oracles.power_product_sweep(kmax, 2)


def test_sweep_screen_memory_is_flat_in_kmax():
    # one pass over all 2 * 10^6 k held about 76 MB; a chunk is 0.5 MB per array
    tracemalloc.start()
    try:
        assert power_product_sweep(2_000_000, 2) == (17.95934596602017, 1048575)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * bounds.SCREEN_CHUNK


@pytest.mark.parametrize(
    "fn, k, d",
    [
        (multinomial_constant, 5, 0),
        (multinomial_constant, 5, 1),
        (multinomial_sweep, 64, 1),
        (power_product_sweep, 64, 0),
        (multinomial_sweep, 1, 2),
        (power_product_sweep, 1, 2),
        (multinomial_sweep, -5, 2),
        (power_product_sweep, 0, 3),
    ],
)
def test_constants_and_sweeps_reject_bad_k_or_d(fn, k, d):
    with pytest.raises(ValueError, match="must be >= 2"):
        fn(k, d)
