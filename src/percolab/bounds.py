"""The generating-function bound and the constant-existence sweeps.

The paper's closed forms are evaluated only where the lab reads them: CLI
``bounds`` and criterion 14 evaluate the generating-function series and both
sweeps.  Combinatorial quantities (dyadic multinomials and the exponents of
dyadic power products) are computed exactly with big integers; floating
point enters through exp/log of those exact values.  "Existence of a
constant" claims are turned into fitted suprema over finite sweeps, reported
rather than asserted against invented targets.

A sweep over 2 <= k <= kmax first screens every k with approximate log-fits
(lgamma sums for the multinomial, the exact integer exponent for the power
product), whose error stays below 1e-11 for k < 2^53.  It screens numpy
chunks of ``SCREEN_CHUNK`` k with a running maximum, so its memory does not
grow with kmax.  Only the k within ``SCREEN_RTOL`` = 1e-9 of the screened
maximum are evaluated exactly, in ascending order.  That margin always keeps the k
that evaluating every k exactly would pick, so the sweep returns the same
(sup, argmax) bits.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.special import gammaln

ONE_ARM_EXPONENT = Fraction(5, 48)


def int_root_ceil(k: int, d: int) -> int:
    """Smallest integer s with s**d >= k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    s = max(1, int(round(k ** (1.0 / d))))
    while s**d >= k:
        s -= 1
    while s**d < k:
        s += 1
    return s


def scale_floor(n: int, u: float) -> int:
    """Discretized scale n/u: floor, clamped to >= 1."""
    return max(1, int(n / u))


# ---------------------------------------------------------------------------
# Generating-function step


# exp(x) is a float for x up to this, about 709.78
_EXP_MAX = math.log(sys.float_info.max)


def _out_of_range(what: str, u: float, d: int, c2: float) -> ValueError:
    return ValueError(f"{what} leaves the float range at u = {u} (d = {d}, C2 = {c2})")


def _ud_over_c2(u: float, d: int, c2: float) -> float:
    """u^d / C2, checked so that exp of it is a float."""
    try:
        x = u**d / c2
    except OverflowError:
        x = math.inf
    if x > _EXP_MAX:
        raise _out_of_range("exp(u^d / C2)", u, d, c2)
    return x


def generating_fn_bound(u: float, n: int, *, d: int, alpha: float, c2: float) -> float:
    """The series bound on E t^{|V_n|} at ``u`` in [1, n]; it is pi-free after the substitution.

    The series has two pieces, split at k = u^d / C2.  It checks d >= 2,
    0 < alpha < d and C2 > 0 first.  Where exp(u^d / C2) or the series leaves
    the float range, a ValueError names C2 and d.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    if not 0 < alpha < d:
        raise ValueError("alpha must satisfy 0 < alpha < d")
    if c2 <= 0:  # C2 divides in the series
        raise ValueError("constant C2 must be positive")
    if not 1 <= u <= n:
        raise ValueError("u must lie in [1, n]")
    a_over_d = alpha / d
    cut = int(_ud_over_c2(u, d, c2))
    ud = u**d
    total = 1.0  # k = 0 term
    try:
        for k in range(1, cut + 1):
            total += (ud / (c2 * k)) ** k
        k = cut + 1
        while True:
            term = (ud / k) ** ((1 - a_over_d) * k)
            total += term
            # terms may grow until k ~ u^d; only trust the cutoff past that point
            if k > ud and term < 1e-16 * total:
                break
            if term == 0.0:
                break
            k += 1
            if k > 10_000_000:
                raise RuntimeError("series truncation failed to converge")
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise _out_of_range("the generating-function series", u, d, c2)
    return total


# ---------------------------------------------------------------------------
# Exact combinatorial constants

# Relative width of the sweep screen: a k survives when its screened fit lies
# within a factor exp(-SCREEN_RTOL) of the screened maximum (see ``_screened_max``).
SCREEN_RTOL = 1e-9
# k screened per numpy pass; a sweep with kmax up to this is one pass.
SCREEN_CHUNK = 1 << 16


def _check_kd(k: int, d: int, name: str = "k") -> None:
    if d < 2:
        raise ValueError("d must be >= 2")
    if k < 2:
        raise ValueError(f"{name} must be >= 2")


def _dyadic_level(k: int, d: int) -> int:
    """Largest j with 2^(d j) <= k."""
    j = 0
    while 2 ** (d * (j + 1)) <= k:
        j += 1
    return j


def _partition(k: int, d: int) -> tuple[list[int], int, int]:
    """Multinomial parts: (2^d - 1) 2^(d i) for i < j, plus remainder m.

    The remainder is m = k - 2^(d j), which makes the parts sum to k - 1.
    """
    j = _dyadic_level(k, d)
    parts = [(2**d - 1) * 2 ** (d * i) for i in range(j)]
    m = k - 2 ** (d * j)
    if m < 0 or sum(parts) + m != k - 1:
        raise AssertionError("invalid partition")
    return parts, m, j


def _dyadic_levels(kmax: int, d: int) -> np.ndarray:
    """The level boundaries 2^(d j) <= kmax, built as Python ints so no power overflows int64."""
    levels = [1]
    while levels[-1] << d <= kmax:
        levels.append(levels[-1] << d)
    return np.array(levels, dtype=np.int64)


def _screened_max(
    kmax: int,
    levels: np.ndarray,
    screen: Callable[[np.ndarray, np.ndarray], np.ndarray],
    fit: Callable[[int], float],
) -> tuple[float, int]:
    """First strict maximum of ``fit`` over the k in [2, kmax] that the screen keeps.

    ``screen(k, j)`` approximates log fit(k) for k of level j.  It runs on
    chunks of ``SCREEN_CHUNK`` k with a running maximum, so memory stays flat
    in kmax: a k kept from an earlier chunk is dropped once the maximum rises
    past it, which leaves exactly the k within SCREEN_RTOL of the final one.
    If both the screen and the exact log-fit are within eps_screen and eps_fit
    of the true log-fit, the first k* maximising fit over every k has screen
    >= max(screen) - 2 (eps_screen + eps_fit), so it is kept while SCREEN_RTOL
    exceeds that: for k < 2^53 both eps are below 1e-11 (see the sweep
    docstrings).  Every kept k < k* has a smaller fit, so ascending k with a
    strict ``>`` returns k* and fit(k*).
    """
    top = -math.inf
    kept_k, kept_s = np.zeros(0, dtype=np.int64), np.zeros(0)
    for lo in range(2, kmax + 1, SCREEN_CHUNK):
        k = np.arange(lo, min(lo + SCREEN_CHUNK, kmax + 1), dtype=np.int64)
        s = screen(k, np.searchsorted(levels, k, side="right") - 1)
        top = max(top, float(s.max()))
        kept_k, kept_s = np.concatenate((kept_k, k)), np.concatenate((kept_s, s))
        keep = kept_s >= top - SCREEN_RTOL
        kept_k, kept_s = kept_k[keep], kept_s[keep]
    best, best_k = 0.0, 2
    for k in kept_k.tolist():
        value = fit(k)
        if value > best:
            best, best_k = value, k
    return best, best_k


def multinomial_constant(k: int, d: int) -> tuple[int, float]:
    """Exact dyadic-block multinomial and the implied per-merge constant.

    Returns (value, value^(1/(k-1))): value = (k-1)! / (prod parts! * m!),
    built exactly as a product of binomials.
    """
    _check_kd(k, d)
    parts, m, _ = _partition(k, d)
    value, n = 1, 0
    for p in (*parts, m):
        n += p
        value *= math.comb(n, p)
    fit = math.exp(math.log(value) / (k - 1)) if value > 1 else 1.0
    return value, fit


def multinomial_sweep(kmax: int, d: int) -> tuple[float, int]:
    """Sup of the fitted constant over 2 <= k <= kmax, and its first argmax.

    A numpy screen evaluates every log-fit as (lgamma(k) - sum lgamma(part + 1)
    - lgamma(m + 1)) / (k - 1); its error is a few ulp of log k per term, at
    most (j + 2) terms, so under 1e-11 for k < 2^53.  ``multinomial_constant``
    then evaluates the kept k exactly, as ``_screened_max`` describes.
    """
    _check_kd(kmax, d, "kmax")
    levels = _dyadic_levels(kmax, d)
    closed = np.concatenate(([0.0], np.cumsum(gammaln(np.diff(levels) + 1.0))))

    def screen(k, j):
        return (gammaln(k) - closed[j] - gammaln(k - levels[j] + 1.0)) / (k - 1)

    return _screened_max(kmax, levels, screen, lambda k: multinomial_constant(k, d)[1])


def _power_product_fit(k: int, d: int) -> float:
    """(value * k^k)^(1/k) as exp(log k - e log 2 / k), from the exact exponent e of
    value = 2^(-m (j-1) d) * prod_{i<j} 2^(-d i (2^d - 1) 2^(i d))."""
    _, m, j = _partition(k, d)
    e = m * (j - 1) * d
    for i in range(1, j):
        e += d * i * (2**d - 1) * 2 ** (i * d)
    return math.exp(math.log(k) - e * math.log(2) / k)


def power_product_sweep(kmax: int, d: int) -> tuple[float, int]:
    """Sup of (value * k^k)^(1/k) over 2 <= k <= kmax, and its first argmax.

    The exponent e_k = (k - 2^(d j))(j - 1) d + sum_{i<j} d i (2^d - 1) 2^(d i)
    is exact in int64; the screen log k - e_k log 2 / k is off by a few ulp of
    log k + d, far under 1e-11.  The kept k are confirmed with
    exp(log k - e log 2 / k) on the exact exponent, as ``_screened_max`` describes.
    """
    _check_kd(kmax, d, "kmax")
    levels = _dyadic_levels(kmax, d)
    blocks = np.diff(levels)  # block i holds (2^d - 1) 2^(d i) points
    closed = np.concatenate(([0], np.cumsum(d * np.arange(len(blocks)) * blocks)))

    def screen(k, j):
        e = (k - levels[j]) * (j - 1) * d + closed[j]
        return np.log(k) - e * math.log(2) / k

    return _screened_max(kmax, levels, screen, lambda k: _power_product_fit(k, d))
