"""Exact B-spline coefficients of products of two splines.

Each product coefficient b_i is an average over blossom-style terms: for
every way of splitting the window t_{i+1} .. t_{i+p} of the product knot
vector into p1 knots for f and p2 knots for g, multiply the two local de
Boor kernels and divide the sum by C(p, p1).  The naive path enumerates
all C(p, p1) index subsets; the improved path enumerates only distinct
knot-value profiles and weights each one by how many subsets produce it,
which is what makes repeated knots cheap.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import find_span0_many, kernel_many
from .core import (
    BreakpointRun,
    KnotVector,
    Spline,
    _window_slices,
    make_open,
    product_knot_vector,
)

__all__ = [
    "CombinationSet",
    "ProductResult",
    "NaiveInfeasibleError",
    "binomial",
    "knot_combinations",
    "morken_product",
    "improved_morken_product",
]

# refuse unforced naive runs beyond this many terms per coefficient
NAIVE_TERM_GUARD = 10**8

# cap on exact numerator growth before switching binomial() to log-Gamma
_UINT128_MAX = (1 << 128) - 1

# naive-path batching: kernel rows per chunk, and the largest subset count
# that is materialized once instead of re-enumerated per coefficient
_CHUNK = 1 << 16
_PRECOMPUTE_LIMIT = 1 << 22


class NaiveInfeasibleError(RuntimeError):
    """Unforced naive expansion would exceed the term guard."""


def binomial(n: int, k: int) -> int | float:
    """C(n, k), exact while intermediates fit in 128 bits.

    The running numerator and denominator are exact integers; once the
    numerator accumulator outgrows 128 bits the result is computed as
    exp(lgamma(n+1) - lgamma(k+1) - lgamma(n-k+1)) instead.  Returns an
    int on the exact path and a float on the log-Gamma path; raises
    ValueError when C(n, k) exceeds the double range.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
        raise ValueError("binomial arguments must be integers")
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise ValueError("binomial arguments must be integers")
    n = int(n)
    k = int(k)
    if n < 0 or k < 0 or k > n:
        raise ValueError("binomial requires 0 <= k <= n")
    k = min(k, n - k)
    num = 1
    den = 1
    for j in range(1, k + 1):
        num *= n - k + j
        den *= j
        if num > _UINT128_MAX:
            try:
                return math.exp(
                    math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                )
            except OverflowError:
                raise ValueError(
                    f"binomial C({n}, {k}) exceeds the double range"
                ) from None
    return num // den


@dataclass(frozen=True)
class CombinationSet:
    """Distinct knot splittings of one product-knot window.

    combinations holds the distinct multiplicity profiles (mu_1..mu_s),
    one entry per window breakpoint, each 0 <= mu_j <= m_j with sum p1;
    repetition_factors holds the exact subset count prod C(m_j, mu_j) of
    every profile.  The factors sum to C(p, p1).
    """

    window_breakpoints: tuple[BreakpointRun, ...]
    combinations: tuple[tuple[int, ...], ...]
    repetition_factors: tuple[int, ...]

    def knot_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-profile knot rows for f (sum mu_j wide) and g (the rest)."""
        values = np.array([r.value for r in self.window_breakpoints])
        counts = np.array(
            [r.multiplicity for r in self.window_breakpoints], dtype=np.int64
        )
        profs = np.array(self.combinations, dtype=np.int64).reshape(
            len(self.combinations), len(self.window_breakpoints)
        )
        T = profs.shape[0]
        tiled = np.tile(values, T)
        rows_f = np.repeat(tiled, profs.ravel()).reshape(T, -1)
        rows_g = np.repeat(tiled, (counts[None, :] - profs).ravel()).reshape(T, -1)
        return rows_f, rows_g

    @property
    def weights(self) -> np.ndarray:
        return np.array(self.repetition_factors, dtype=float)


@dataclass(frozen=True)
class ProductResult:
    """Product spline plus the term-count bookkeeping of its computation."""

    product: Spline
    naive_term_count: int | float
    distinct_term_counts: np.ndarray
    mean_distinct: float

    def __post_init__(self):
        counts = np.asarray(self.distinct_term_counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "distinct_term_counts", counts)

    def to_dict(self) -> dict:
        """Spline document plus a stats object with the term counts."""
        doc = self.product.to_dict()
        doc["stats"] = {
            "naive_terms": self.naive_term_count,
            "nu_bar": self.mean_distinct,
            "distinct_counts": [int(c) for c in self.distinct_term_counts],
        }
        return doc


@lru_cache(maxsize=None)
def _profiles(mults: tuple[int, ...], p1: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Distinct (profile, subset count) pairs for run multiplicities.

    Profiles come out in descending lexicographic order (mu_1 descending,
    then recursively).  The s <= 2 base case enumerates mu_1 directly,
    with m_2 = 0 standing in for a single-run window.
    """
    s = len(mults)
    if s == 0:
        return (((), 1),) if p1 == 0 else ()
    m1 = mults[0]
    rest = sum(mults[1:])
    hi = min(p1, m1)
    lo = p1 - min(p1, rest)
    out: list[tuple[tuple[int, ...], int]] = []
    if s <= 2:
        m2 = mults[1] if s == 2 else 0
        for mu1 in range(hi, lo - 1, -1):
            mu2 = p1 - mu1
            w = math.comb(m1, mu1) * math.comb(m2, mu2)
            out.append(((mu1, mu2)[:s], w))
    else:
        for mu1 in range(hi, lo - 1, -1):
            w1 = math.comb(m1, mu1)
            for prof, w in _profiles(mults[1:], p1 - mu1):
                out.append(((mu1,) + prof, w1 * w))
    return tuple(out)


def knot_combinations(window, p1: int) -> CombinationSet:
    """All distinct splittings of a knot window into p1 + (p - p1) knots.

    The window must be nondecreasing; p1 may run from 0 to the window
    length.  Repeated window knots are what make the distinct profile
    count smaller than C(p, p1).
    """
    window = np.asarray(window, dtype=float)
    if window.ndim != 1:
        raise ValueError("window must be a one-dimensional array of knots")
    if np.any(np.diff(window) < 0):
        raise ValueError("window knots must be nondecreasing")
    if not isinstance(p1, (int, np.integer)) or isinstance(p1, bool):
        raise ValueError("p1 must be an integer")
    p1 = int(p1)
    if not 0 <= p1 <= window.size:
        raise ValueError("p1 must satisfy 0 <= p1 <= window length")
    values, counts = np.unique(window, return_counts=True)
    profs = _profiles(tuple(int(c) for c in counts), p1)
    return CombinationSet(
        window_breakpoints=tuple(
            BreakpointRun(float(v), int(c)) for v, c in zip(values, counts)
        ),
        combinations=tuple(prof for prof, _ in profs),
        repetition_factors=tuple(w for _, w in profs),
    )


def _prepared_factors(
    f: Spline, g: Spline, target_knots: KnotVector | None
) -> tuple[Spline, Spline, KnotVector]:
    """Normalize factors to open vectors and fix the product knot vector."""
    if f.degree < 1 or g.degree < 1:
        raise ValueError("degree must be at least 1 for spline products")
    f = make_open(f)
    g = make_open(g)
    if f.knots.span != g.knots.span:
        raise ValueError(
            "factors must share the same knot span "
            f"(got {f.knots.span} and {g.knots.span})"
        )
    t = product_knot_vector(f.knots, g.knots)
    if target_knots is not None and target_knots != t:
        raise ValueError(
            "target_knots must equal the product knot vector of the factors; "
            "coarser or otherwise different targets are not supported"
        )
    return f, g, t


def _row_geometry(f: Spline, g: Spline, t: KnotVector):
    """Anchor spans in both factors and the knot window of every row."""
    p = t.degree
    m = t.dimension
    anchors = t.knots[:m]
    k1 = find_span0_many(f.knots.knots, f.degree, f.knots.dimension, anchors)
    k2 = find_span0_many(g.knots.knots, g.degree, g.knots.dimension, anchors)
    windows = np.lib.stride_tricks.sliding_window_view(t.knots[1 : m + p], p)
    return m, k1, k2, windows


def _distinct_counts(windows: np.ndarray, p1: int) -> np.ndarray:
    return np.array(
        [len(knot_combinations(w, p1).combinations) for w in windows],
        dtype=np.int64,
    )


def _subset_chunks(p: int, p1: int):
    """Index subsets of size p1 and their complements, in chunks.

    Enumeration order is itertools' lexicographic order, fixed so the
    summation order (and hence the result bits) is reproducible.
    """
    it = itertools.combinations(range(p), p1)
    while True:
        block = tuple(itertools.islice(it, _CHUNK))
        if not block:
            return
        idx_f = np.array(block, dtype=np.intp).reshape(len(block), p1)
        mask = np.ones((idx_f.shape[0], p), dtype=bool)
        mask[np.arange(idx_f.shape[0])[:, None], idx_f] = False
        idx_g = np.nonzero(mask)[1].reshape(idx_f.shape[0], p - p1)
        yield idx_f, idx_g


def morken_product(
    f: Spline,
    g: Spline,
    force: bool = False,
    target_knots: KnotVector | None = None,
) -> ProductResult:
    """Product spline via the full C(p, p1)-term expansion.

    Every coefficient sums one kernel product per index subset and then
    divides by C(p, p1).  Runs with more than NAIVE_TERM_GUARD terms per
    coefficient raise NaiveInfeasibleError unless force is set (forced
    oversize runs may take very long).
    """
    f, g, t = _prepared_factors(f, g, target_knots)
    p1 = f.degree
    p = t.degree
    count = binomial(p, p1)
    if count > NAIVE_TERM_GUARD and not force:
        raise NaiveInfeasibleError(
            f"naive expansion needs {count} kernel terms per coefficient; "
            "pass force=True (or --force) to run it anyway"
        )
    m, k1, k2, windows = _row_geometry(f, g, t)
    divisor = float(count)
    cached = None
    if count <= _PRECOMPUTE_LIMIT:
        cached = list(_subset_chunks(p, p1))
    b = np.empty(m)
    for i in range(m):
        kw1, cw1 = _window_slices(p1, int(k1[i]))
        kw2, cw2 = _window_slices(g.degree, int(k2[i]))
        tau1, c1 = f.knots.knots[kw1], f.coefficients[cw1]
        tau2, c2 = g.knots.knots[kw2], g.coefficients[cw2]
        win = windows[i]
        acc = 0.0
        for idx_f, idx_g in cached if cached is not None else _subset_chunks(p, p1):
            bf = kernel_many(tau1, c1, win[idx_f])
            bg = kernel_many(tau2, c2, win[idx_g])
            acc += float(np.dot(bf, bg))
        b[i] = acc / divisor
    counts = _distinct_counts(windows, p1)
    return ProductResult(
        product=Spline(t, b),
        naive_term_count=count,
        distinct_term_counts=counts,
        mean_distinct=float(counts.mean()),
    )


def improved_morken_product(
    f: Spline,
    g: Spline,
    target_knots: KnotVector | None = None,
) -> ProductResult:
    """Product spline via distinct knot profiles with exact repetition counts.

    Produces bit-for-bit the same grouping of kernel terms for every
    coefficient as summing the distinct profiles in their deterministic
    order; agrees with morken_product to floating-point roundoff.
    """
    f, g, t = _prepared_factors(f, g, target_knots)
    p1 = f.degree
    p = t.degree
    count = binomial(p, p1)
    divisor = float(count)
    m, k1, k2, windows = _row_geometry(f, g, t)
    b = np.empty(m)
    counts = np.empty(m, dtype=np.int64)
    for i in range(m):
        kw1, cw1 = _window_slices(p1, int(k1[i]))
        kw2, cw2 = _window_slices(g.degree, int(k2[i]))
        combo = knot_combinations(windows[i], p1)
        rows_f, rows_g = combo.knot_rows()
        bf = kernel_many(f.knots.knots[kw1], f.coefficients[cw1], rows_f)
        bg = kernel_many(g.knots.knots[kw2], g.coefficients[cw2], rows_g)
        b[i] = float(np.dot(combo.weights * bf, bg)) / divisor
        counts[i] = len(combo.combinations)
    return ProductResult(
        product=Spline(t, b),
        naive_term_count=count,
        distinct_term_counts=counts,
        mean_distinct=float(counts.mean()),
    )

