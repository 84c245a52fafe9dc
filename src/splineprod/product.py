"""Exact B-spline coefficients of products of two splines.

Each product coefficient b_i is an average over blossom-style terms: for
every way of splitting the window t_{i+1} .. t_{i+p} of the product knot
vector into p1 knots for f and p2 knots for g, multiply the two local de
Boor kernels and divide the sum by C(p, p1), the exact integer rounded
once to a double (binomial()'s log-Gamma branch, taken from C(50, 25)
on, is off by 5.4e-14 at C(100, 50)).  The naive path enumerates all
C(p, p1) index subsets; the improved path enumerates only distinct
knot-value profiles and weights each one by how many subsets produce it,
which is what makes repeated knots cheap.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ._kernels import _BLOCK, _stage_factors, find_span0_many, kernel_many
from .core import (
    BreakpointRun,
    KnotVector,
    Spline,
    _check_integer,
    _check_target,
    _prepared_factors,
    _window_indices,
    make_open,
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

# naive-path batching: kernel rows per chunk of index subsets
_CHUNK = 1 << 16


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
    n = _check_integer(n, "binomial arguments must be integers")
    k = _check_integer(k, "binomial arguments must be integers")
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
        runs = self.window_breakpoints
        values = np.array([r.value for r in runs])
        mults = np.array([r.multiplicity for r in runs], dtype=np.intp)
        T = len(self.combinations)
        mu = np.array(self.combinations, dtype=np.intp).reshape(T, values.size)
        # every profile's run values, each repeated by its count on a side
        tiled = np.tile(values, T)
        rows_f = np.repeat(tiled, mu.ravel()).reshape(T, -1)
        rows_g = np.repeat(tiled, (mults - mu).ravel()).reshape(T, -1)
        return rows_f, rows_g

    @property
    def weights(self) -> np.ndarray:
        return np.array(self.repetition_factors, dtype=float)


@dataclass(frozen=True, eq=False)
class ProductResult:
    """Product spline plus the term-count bookkeeping of its computation.

    Equal fields compare equal, the counts by value; the type is
    unhashable.
    """

    product: Spline
    naive_term_count: int | float
    distinct_term_counts: np.ndarray
    mean_distinct: float

    def __post_init__(self):
        counts = np.asarray(self.distinct_term_counts, dtype=np.int64)
        counts.setflags(write=False)
        object.__setattr__(self, "distinct_term_counts", counts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductResult):
            return NotImplemented
        return bool(
            self.product == other.product
            and self.naive_term_count == other.naive_term_count
            and np.array_equal(self.distinct_term_counts, other.distinct_term_counts)
            and self.mean_distinct == other.mean_distinct
        )

    def to_dict(self) -> dict:
        """Spline document plus a stats object with the term counts."""
        doc = self.product.to_dict()
        doc["stats"] = {
            "naive_terms": self.naive_term_count,
            "nu_bar": self.mean_distinct,
            "distinct_counts": [int(c) for c in self.distinct_term_counts],
        }
        return doc


# plans are keyed on knot multiplicities, not values, so products on
# shifted or rescaled knots reuse them (spline_spline at degree 50 needs
# 148); the bound caps what a process keeps
@lru_cache(maxsize=1024)
def _profiles(mults: tuple[int, ...], p1: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct profiles and their subset counts for run multiplicities.

    Returns (profiles, weights), both read-only: profiles is a (T, s)
    array of the T distinct profiles (mu_1..mu_s), 0 <= mu_j <= m_j with
    sum p1, in descending lexicographic order, and weights[k] is the
    double nearest profile k's exact subset count prod C(m_j, mu_j).
    The profiles are built run by run, each prefix's children taking
    mu_j from high to low: after run j every prefix whose remaining knots
    still fit in the later runs is kept, so each run keeps at most T
    prefixes, and each prefix points to its parent.  The profiles are
    read back along the parents once at the end, for O(T s) work, with
    no recursion and nothing kept but the returned arrays.
    """
    s = len(mults)
    total = sum(mults)
    # knots left by every prefix, and in the runs after the current one
    after = total
    left = np.array([p1] if 0 <= p1 <= total else [], dtype=np.intp)
    parents, mus = [], []
    for m in mults[:-1]:
        after -= m
        hi = np.minimum(left, m)
        n = hi - np.maximum(left - after, 0) + 1
        parent = np.repeat(np.arange(n.size), n)
        mu = np.repeat(hi, n) - _ranges(n)
        left = left[parent] - mu
        parents.append(parent)
        mus.append(mu)
    # the last run takes every knot left, one child per prefix
    mus.append(left)
    T = left.size
    profiles = np.empty((T, s), dtype=np.min_scalar_type(max(mults, default=0)))
    # exact Python integers, rounded once to doubles
    counts = np.ones(T, dtype=object)
    row = np.arange(T)
    for j in range(s - 1, -1, -1):
        mu = mus[j][row]
        profiles[:, j] = mu
        # mu_j takes every value from low to its largest
        m = mults[j]
        low = max(p1 - total + m, 0)
        binomials = [math.comb(m, k) for k in range(low, min(m, p1) + 1)]
        counts *= np.array(binomials, dtype=object)[mu - low]
        if j < s - 1:
            row = parents[j][row]
    weights = counts.astype(float)
    profiles.setflags(write=False)
    weights.setflags(write=False)
    return profiles, weights


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
    p1 = _check_integer(p1, "p1 must be an integer")
    if not 0 <= p1 <= window.size:
        raise ValueError("p1 must satisfy 0 <= p1 <= window length")
    values, counts = np.unique(window, return_counts=True)
    mults = tuple(int(c) for c in counts)
    combinations = tuple(map(tuple, _profiles(mults, p1)[0].tolist()))
    return CombinationSet(
        window_breakpoints=tuple(
            BreakpointRun(float(v), m) for v, m in zip(values, mults)
        ),
        combinations=combinations,
        repetition_factors=tuple(
            math.prod(map(math.comb, mults, prof)) for prof in combinations
        ),
    )


def _result(
    t: KnotVector,
    b: np.ndarray,
    naive_terms: int | float,
    counts: np.ndarray,
    mean_distinct: float,
) -> ProductResult:
    """ProductResult of the product Spline(t, b) with its term counts and
    their mean.  b is not finite only when stage values, which grow like
    the inverse length of a very short knot interval, overflowed, and
    then ValueError is raised."""
    if not np.isfinite(b).all():
        raise ValueError(
            "the product's stage values overflowed the double range "
            "on a very short knot interval"
        )
    return ProductResult(
        product=Spline(t, b),
        naive_term_count=naive_terms,
        distinct_term_counts=counts,
        mean_distinct=mean_distinct,
    )


def _row_geometry(f: Spline, g: Spline, t: KnotVector):
    """Anchor spans in both factors and the knot window of every row."""
    p = t.degree
    m = t.dimension
    anchors = t.knots[:m]
    k1 = find_span0_many(f.knots.knots, f.degree, anchors)
    k2 = find_span0_many(g.knots.knots, g.degree, anchors)
    windows = np.lib.stride_tricks.sliding_window_view(t.knots[1 : m + p], p)
    return m, k1, k2, windows


def _window_groups(t: KnotVector, p1: int):
    """Product rows grouped by the run multiplicities of their knot windows.

    Returns (weights, group): row i's window t_{i+1} .. t_{i+p} is in
    group[i], and weights[k] is the weights array of the _profiles entry
    of group k's multiplicities and p1, its profiles' subset counts.  All
    groups' multiplicities are read from one boolean array with a row per
    group, so only the cache lookup runs once per group.
    """
    p = t.degree
    m = t.dimension
    knots = t.knots
    # breaks[i, j]: knot j + 1 of window i starts a new run
    breaks = np.lib.stride_tricks.sliding_window_view(
        knots[2 : m + p] != knots[1 : m + p - 1], p - 1
    )
    # big-endian packed bits sort in the order of the boolean rows
    packed = np.packbits(breaks, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    # bounds[k] marks the run starts of group k's windows and their end p
    bounds = np.ones((first.size, p + 1), dtype=bool)
    bounds[:, 1:p] = breaks[first]
    # the marks, flat, step by group 0's multiplicities, then once from its
    # end to the start of group 1, then by group 1's, and so on
    gaps = np.diff(np.flatnonzero(bounds)).tolist()
    stops = np.cumsum(bounds.sum(axis=1)) - 1
    weights = []
    start = 0
    for stop in stops.tolist():
        weights.append(_profiles(tuple(gaps[start:stop]), p1)[1])
        start = stop + 1
    return weights, group


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
    kw1, cw1 = _window_indices(p1, k1)
    kw2, cw2 = _window_indices(g.degree, k2)
    tau1, c1 = f.knots.knots[kw1], f.coefficients[cw1]
    tau2, c2 = g.knots.knots[kw2], g.coefficients[cw2]
    # each chunk is enumerated once; every row still adds its chunks'
    # dots in chunk order, starting from 0.0
    acc = np.zeros(m)
    for idx_f, idx_g in _subset_chunks(p, p1):
        for i in range(m):
            win = windows[i]
            bf = kernel_many(tau1[i], c1[i], win[idx_f])
            bg = kernel_many(tau2[i], c2[i], win[idx_g])
            acc[i] += float(np.dot(bf, bg))
    b = acc / float(math.comb(p, p1))
    weights, group = _window_groups(t, p1)
    counts = np.array([w.size for w in weights], dtype=np.int64)[group]
    return _result(t, b, count, counts, float(counts.mean()))


def _row_blocks(weights: list[np.ndarray], group: np.ndarray, a: int, b: int):
    """Rows a .. b - 1 of a product packed into evaluation blocks.

    weights and group are the product's window groups (_window_groups).
    Yields one list of (weights, rows) pieces per block.  A piece is a
    run of ascending rows of one window group; each row costs two doubles
    per profile, its leaf values on the f and g sides, and a block takes
    pieces greedily, splitting a group where the block fills, until its
    rows cost _BLOCK doubles.  A row wider than _BLOCK gets a block of
    its own.
    """
    ids = group[a:b]
    order = np.argsort(ids, kind="stable") + a
    sizes = np.bincount(ids, minlength=len(weights))
    present = np.flatnonzero(sizes)
    block: list = []
    used = 0
    for k, rows in zip(present, np.split(order, np.cumsum(sizes[present])[:-1])):
        plan = weights[k]
        width = 2 * plan.size
        lo = 0
        while lo < rows.size:
            room = (_BLOCK - used) // width
            if room < 1 and block:
                yield block
                block, used = [], 0
                continue
            take = min(rows.size - lo, max(room, 1))
            block.append((plan, rows[lo : lo + take]))
            used += take * width
            lo += take
    if block:
        yield block


def _ranges(lengths: np.ndarray) -> np.ndarray:
    """Offset of every element within its range, for ranges laid end to end."""
    offsets = np.arange(lengths.sum())
    offsets -= np.repeat(np.cumsum(lengths) - lengths, lengths)
    return offsets


@dataclass(frozen=True)
class _Side:
    """Knot-only stage loop of one factor over the rows of a row range.

    cols[r] indexes root r's coefficient window in the factor's
    coefficients.  stages gives (parent, at, diag, sup) for stage d = q,
    .., 1: the stage's nodes, each with its parent entry in the stage
    before (a root before the first stage) and its knot pair at, and the
    stage's diagonal and superdiagonal factors per knot pair, shape
    (pairs, d).  There is one root per anchor span and one node per
    (span, sorted top knot values) of the range's rows (_merged).
    leaves holds one array per block of the range, which lists every
    row's profiles, row by row in the order of the block's groups
    (_by_count), as positions in the last stage.  The f and g sides of
    a square product hold the same cols and stages and differ in their
    leaves.
    """

    cols: np.ndarray
    stages: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    leaves: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class _Layout:
    """Knot-only half of an improved product, for any coefficients.

    counts holds every row's distinct profile count, read-only, and
    mean_distinct their mean.  ranges holds (pieces, f side, g side) per
    row range (_fit), in row order: pieces lists the range's blocks, each
    as its (weights, rows) groups, one per profile count T present in the
    block (_by_count), and each side has one leaf array per block, which
    lists the block's rows group by group.  A group's weights are the
    (T,) plan of its one window group, or an (N, T) matrix with the plan
    of each of its N rows when it merges several.  ranges is a
    tuple when the product is one range, and then the layout is kept;
    otherwise it is a generator that builds one range at a time.  When
    the product is square, f and g on one knot vector and degree, both
    sides of a range read the same cols and stage arrays, so the layout
    holds its stages and stage factors once.  Over the experiment rows
    (row seed 12345), every product is one range but those of
    mesh_refine_highdeg from level 6, whose stages would pass _BLOCK
    doubles.
    """

    t: KnotVector
    naive_terms: int | float
    divisor: float
    counts: np.ndarray
    mean_distinct: float
    ranges: Iterable[tuple[list, _Side, _Side]]


def _factors(s: Spline, pair_spans, pair_values):
    """(diag, sup) of every knot pair in factor s, stage by stage.

    Stage d = q, .., 1 reads the knots tau_{k+1-d} .. tau_k and tau_{k+1}
    .. tau_{k+d} around span k.  All stages come from one _stage_factors
    call on those columns laid side by side, which runs the same
    elementwise arithmetic on the same doubles as one call per stage, and
    each stage is yielded as a C-contiguous (pairs, d) copy: strided
    views of the one result slow every later pass over the stages.
    """
    q = s.degree
    widths = np.arange(q, 0, -1)
    offsets = _ranges(widths)
    # knot offsets from the span: every stage's lo columns, then its hi
    cols = np.concatenate((offsets - np.repeat(widths, widths) + 1, offsets + 1))
    size = offsets.size
    diag, sup = _stage_factors(
        s.knots.knots[pair_spans[:, None] + cols], size, size, pair_values[:, None]
    )
    a = 0
    for d in range(q, 0, -1):
        stage = slice(a, a + d)
        yield np.ascontiguousarray(diag[:, stage]), np.ascontiguousarray(sup[:, stage])
        a += d


def _runs(knots: np.ndarray):
    """Runs of equal values in nondecreasing knots or spans.

    Returns (first, stop, run): run k starts at first[k] and ends before
    stop[k], and run[i] is the run that holds knot i.  first and stop end
    in one more entry, knots.size, so a run index one past the last reads
    an empty run beyond the knots.
    """
    opens = np.ones(knots.size, dtype=bool)
    opens[1:] = knots[1:] != knots[:-1]
    first = np.append(np.flatnonzero(opens), knots.size)
    stop = np.append(first[1:], knots.size)
    return first, stop, np.cumsum(opens) - 1


class _Pairs(NamedTuple):
    """Roots of a factor's rows and the knot pairs they read, numbered.

    Rows with one anchor span form one root: root r holds rows lo[r] ..
    hi[r].  A stage factor depends on a node only through the row's
    span, which fixes the factor's knot window, and the fine knot value
    it reads (the discrete B-splines of the Oslo algorithm), so the
    stage factors go per distinct (span, value) pair.  Windows slide, so
    root r's rows read the runs of the product knots from the one
    holding t[lo[r] + 1] to the one holding t[hi[r] + p], one pair each,
    and the pair of root r and run k is number base[r] + k: root by
    root, then run by run, which is ascending (span, value) order.
    pair_spans and pair_values hold every pair's span and knot value.
    """

    lo: np.ndarray
    hi: np.ndarray
    base: np.ndarray
    pair_spans: np.ndarray
    pair_values: np.ndarray


def _pairs(spans, knots, runs) -> _Pairs:
    """_Pairs of a factor's rows, with anchor spans spans in the factor,
    on product knots knots whose runs are runs (_runs)."""
    first, _, run = runs
    p = knots.size - spans.size - 1
    # spans rise with the rows, so each root's rows are one run of them
    starts, stops, _ = _runs(spans)
    lo, hi = starts[:-1], stops[:-1] - 1
    low, top = run[lo + 1], run[hi + p]
    widths = top - low + 1
    return _Pairs(
        lo=lo,
        hi=hi,
        base=np.cumsum(widths) - widths - low,
        pair_spans=np.repeat(spans[lo], widths),
        pair_values=knots[first[np.repeat(low, widths) + _ranges(widths)]],
    )


def _merged(q: int, runs, pairs: _Pairs, end: int):
    """Stage nodes of a factor side of degree q, with one node per vector.

    A node's vector after a stage depends only on the row's anchor span
    and the knots read so far, the sorted top values Y of the profile's
    knot row; so stage j = 0, .., q - 1, which applies d = q - j, holds
    one node per feasible (span, Y) with j + 1 values.  Windows slide,
    so the rows where (span, Y) is feasible form one interval [lo, hi],
    and the stages are built from runs, the runs of the product knots t
    (_runs): run k, of value u_k, is t[S_k] .. t[E_k - 1], with S_k =
    first[k] and E_k = stop[k].  No row-node is listed.
    A child of (span, Y) adds a value u_k <= min Y, after which Y holds c
    copies of u_k; a row keeps it when its window holds c copies of u_k
    and, besides Y, q - j - 1 knots <= u_k, which leaves the rows
    max(lo, S_k + c - p - 1) .. min(hi, E_k - 1 - (q - j - 1 + c)), and
    needs c <= E_k - S_k.  Every u_k < min Y from the value at
    t[lo + q - j] up keeps a row (c = 1), so only u_k = min Y is checked.
    A root, one per anchor span, takes the span's rows and a min Y one
    run past the last value its rows read; node (root r, Y) reads the
    knot pair that pairs (_Pairs) numbers for r and the run of min Y.
    Each stage lists its nodes in rank order, the order of the sorted
    knot rows compared from their lowest value: stage by stage the
    children are stably sorted by the value they add.

    Only the nodes of rows 0 .. end - 1 are built, and a node is one of
    those rows exactly when its lo is below end.  A stage whose nodes
    would pass _BLOCK doubles, d + 1 per node at stage d, lowers end to
    the rows whose nodes of that stage fit, one row at least, so a
    one-row range merges without the bound.  Returns (end, (stages, lo,
    hi)): stages holds (parent, at, lo) per stage, each node's parent in
    the stage before (a root before the first), its knot pair and its
    first row, and lo and hi the rows of every last-stage node.  The
    stages before a cut still hold nodes of the rows past it (_prune).
    """
    first, stop, run = runs
    lo, hi = pairs.lo, pairs.hi
    # run holds one entry per product knot, m + p + 1 of them
    m = hi[-1] + 1
    p = run.size - m - 1
    # each root's rows read runs up to top, each one knot pair
    top = run[hi + p]
    # a node's rows hold c copies of its run k's value and, at stage j,
    # q - j - 1 more knots at most as large from rows lo_run[k] + c to
    # hi_run[k] + j - c
    lo_run, hi_run, length = first - p - 1, stop - q, stop - first
    k, c, base = top + 1, np.zeros_like(top), pairs.base
    # children sort on their runs, at most one past the last, in the
    # narrowest unsigned type: a stable argsort of keys of 16 bits or
    # less is a radix sort
    key = np.min_scalar_type(first.size - 1)
    stages = []
    for j in range(q):
        lowest = run[lo + q - j]
        # the children of a parent add runs lowest .. k - 1, and k again
        # when its rows hold one more copy
        c += 1
        again = np.maximum(lo, lo_run[k] + c) <= np.minimum(hi, hi_run[k] + j - c)
        counts = k - lowest + (again & (c <= length[k]))
        parent = np.arange(counts.size).repeat(counts)
        child = (lowest - counts.cumsum() + counts).repeat(counts)
        child += np.arange(child.size)
        order = child.astype(key).argsort(kind="stable")
        parent, child = parent[order], child[order]
        c = np.where(child == k[parent], c[parent], 1)
        lo = np.maximum(lo[parent], lo_run[child] + c)
        k = child
        room = _BLOCK // (q - j + 1)
        if lo.size > room:
            end = min(end, max(int(np.partition(lo, room)[room]), 1))
        if end < m:
            live = lo < end
            parent, k, c, lo = parent[live], k[live], c[live], lo[live]
        base = base[parent]
        hi = np.minimum(hi[parent], hi_run[k] + j - c)
        stages.append((parent, base + k, lo))
    return end, (stages, lo, np.minimum(hi, end - 1))


def _prune(nodes, end: int):
    """_merged's nodes cut to those of rows 0 .. end - 1.  A kept node's
    parent is kept, and the kept roots are the first ones."""
    stages, lo, hi = nodes
    cut = []
    index = None
    for parent, at, low in stages:
        if index is not None:
            parent = index[parent]
        keep = low < end
        if keep.all():
            index = None
        else:
            index = np.cumsum(keep) - 1
            parent, at, low = parent[keep], at[keep], low[keep]
        cut.append((parent, at, low))
    keep = lo < end
    return cut, lo[keep], np.minimum(hi[keep], end - 1)


def _range_sides(s: Spline, spans, pairs: _Pairs, nodes, blocks, orders):
    """Sides of factor s over one row range, from its stage nodes.

    spans holds the range's anchor spans in s, nodes is the (stages, lo,
    hi) of _merged, or of _prune for a cut range, and blocks holds every
    block's rows, counted from the range's first.  A row's profiles, in
    the descending lexicographic order of _profiles, have ascending f
    rows in rank order and descending g rows, so every row's leaves are
    its last-stage nodes in ascending rank for f, descending for g.  A
    merged node runs the same elementwise arithmetic on the same doubles
    as every row-node it replaces, and so gives the same bits.  The stage
    factors and the rows' leaves in rank order are built once, and one
    _Side is returned per entry of orders, with the leaves descending
    where the entry is set and ascending elsewhere; all of them hold the
    same cols and stage arrays, so the f and g sides of a square product
    share them.
    """
    stages, lo, hi = nodes
    # every row's leaves in rank order: its last-stage nodes, row by row
    lengths = hi - lo + 1
    rows = np.repeat(lo, lengths) + _ranges(lengths)
    # narrow keys, as in _merged
    key = np.min_scalar_type(spans.size - 1)
    ranked = np.repeat(np.arange(lengths.size), lengths)[
        np.argsort(rows.astype(key), kind="stable")
    ]
    per_row = np.bincount(rows, minlength=spans.size)
    first_leaf = np.cumsum(per_row) - per_row
    # each order reads its leaves from ranked, or from ranked reversed,
    # where every row's leaves start at its entry of the second array
    reads = [
        (ranked[::-1], ranked.size - first_leaf - per_row)
        if descending
        else (ranked, first_leaf)
        for descending in orders
    ]
    _, cols = _window_indices(s.degree, spans[pairs.lo])
    factors = _factors(s, pairs.pair_spans, pairs.pair_values)
    stages = tuple(
        (parent, at, diag, sup)
        for (parent, at, _), (diag, sup) in zip(stages, factors)
    )
    leaves = [[] for _ in orders]
    for block_rows in blocks:
        n = per_row[block_rows]
        offsets = _ranges(n)
        for out, (nodes, start) in zip(leaves, reads):
            out.append(nodes[np.repeat(start[block_rows], n) + offsets])
    return [_Side(cols, stages, tuple(out)) for out in leaves]


def _fit(t: KnotVector, sides, a: int):
    """The longest row range from row a whose sides' stages stay within
    _BLOCK doubles, with their stage nodes.

    sides holds (factor, its spans of every product row, leaf orders)
    per side.  A range of rows a .. b - 1 is a product of its own on
    the knot slice t[a : b + p + 1]: a row's window reads only knots
    inside it, so every node and knot pair keeps its bits.  Each side
    is merged over the rows left from a, and cuts them where a stage
    would pass the bound (_merged); the sides are then pruned to the
    shortest cut, and their knot pairs numbered on its slice, which
    keeps the numbers their nodes read.  Returns (b, [(pairs, nodes)]
    per side).
    """
    p = t.degree
    rest = t.dimension - a
    knots = t.knots[a:]
    runs = _runs(knots)
    end = rest
    pairs, built = [None] * len(sides), [None] * len(sides)
    # the side of higher degree first: its stages hold more nodes, so it
    # cuts the rows first, and the other side is built on them alone
    for i in sorted(range(len(sides)), key=lambda i: -sides[i][0].degree):
        s, spans, _ = sides[i]
        pairs[i] = _pairs(spans[a:], knots, runs)
        end, built[i] = _merged(s.degree, runs, pairs[i], end)
    if end < rest:
        built = [_prune(nodes, end) for nodes in built]
        knots = t.knots[a : a + end + p + 1]
        runs = _runs(knots)
        pairs = [_pairs(spans[a : a + end], knots, runs) for _, spans, _ in sides]
    return a + end, list(zip(pairs, built))


def _by_count(block: list) -> list:
    """One block's (weights, rows) pieces merged by profile count T.

    Pieces of one T, in block order, become one group whose weights are
    an (N, T) matrix, the plan of each of its N rows; a piece whose T no
    other piece of the block shares keeps its (T,) plan.  A group is
    reduced with one stacked matmul, whose 1 x T by T x 1 products each
    take one BLAS dot of T contiguous values, as a piece's do: rows are
    not padded to a common T, which would change the dot's summation
    order and so the bits.
    """
    by_count: dict[int, list] = {}
    for piece in block:
        by_count.setdefault(piece[0].size, []).append(piece)
    groups = []
    for same in by_count.values():
        if len(same) == 1:
            groups.append(same[0])
            continue
        plans, rows = zip(*same)
        weights = np.stack(plans).repeat([r.size for r in rows], axis=0)
        weights.setflags(write=False)
        groups.append((weights, np.concatenate(rows)))
    return groups


def _row_ranges(t: KnotVector, sides, groups, fitted):
    """(pieces, f side, g side) of every row range in turn, each built as
    it is read.  groups holds the product's window groups (_window_groups)
    and fitted _fit's result for the first range.  pieces lists the
    range's blocks (_row_blocks), each as its (weights, rows) groups, one
    per profile count T (_by_count), and a block's leaves list its rows
    group by group."""
    a = 0
    while a < t.dimension:
        b, built = fitted or _fit(t, sides, a)
        fitted = None
        pieces = [_by_count(block) for block in _row_blocks(*groups, a, b)]
        blocks = [np.concatenate([rows for _, rows in block]) - a for block in pieces]
        parts = []
        for (s, spans, orders), (pairs, nodes) in zip(sides, built):
            parts += _range_sides(s, spans[a:b], pairs, nodes, blocks, orders)
        yield pieces, *parts
        a = b


def _layout(f: Spline, g: Spline, t: KnotVector) -> tuple[_Layout, bool]:
    """Knot-only half of the product of open f and g, and whether to keep it.

    The rows are cut into row ranges (_fit), each packed into blocks
    (_row_blocks) and merged on its own.  When f and g have the same
    knot bytes and degree (a square product: spline_spline and Galerkin
    rows), both sides have the same spans, pairs, stages and factors and
    differ only in the order of their leaves, so one side is built for
    both.  Bytes are compared, not values, since -0.0 and +0.0 knots
    give stage factors of other bits.  A layout is kept exactly when the
    product is one range: it is then built whole, and the first call
    pays nothing to keep it.  A product of more ranges streams them one
    at a time and is not kept, since holding all its ranges would take
    the memory the bound saves.
    """
    p1 = f.degree
    p = t.degree
    # raises ValueError when C(p, p1) exceeds the double range
    naive_terms = binomial(p, p1)
    m, k1, k2, _ = _row_geometry(f, g, t)
    weights, group = _window_groups(t, p1)
    counts = np.array([w.size for w in weights], dtype=np.int64)[group]
    counts.setflags(write=False)
    if f.degree == g.degree and f.knots.knots.tobytes() == g.knots.knots.tobytes():
        sides = ((f, k1, (False, True)),)
    else:
        sides = ((f, k1, (False,)), (g, k2, (True,)))
    fitted = _fit(t, sides, 0)
    keep = fitted[0] == m
    ranges = _row_ranges(t, sides, (weights, group), fitted)
    layout = _Layout(
        t=t,
        naive_terms=naive_terms,
        divisor=float(math.comb(p, p1)),
        counts=counts,
        mean_distinct=float(counts.mean()),
        ranges=tuple(ranges) if keep else ranges,
    )
    return layout, keep


def _side_values(coeffs: np.ndarray, side: _Side) -> np.ndarray:
    """Kernel value of every node of a side's last stage.

    Each stage refines the parent vectors of its nodes, d + 1 -> d
    entries, with the same arithmetic as kernel_many, so every value is
    bit-identical to a kernel_many call on the knot row of each profile
    that reads it.
    """
    v = coeffs[side.cols]
    # ndarray methods, not the np.take wrapper: its dispatch costs about
    # 2 us a call, three calls a stage
    for parent, at, diag, sup in side.stages:
        vp = v.take(parent, axis=0)
        # the factors stay per knot pair and are gathered here: multiplying
        # in place into the fresh gathered arrays streams a stage about 20%
        # faster than multiplying factors gathered ahead
        v = diag.take(at, axis=0)
        v *= vp[:, :-1]
        right = sup.take(at, axis=0)
        right *= vp[:, 1:]
        v += right
    return v[:, 0]


def _weighted(values: np.ndarray, pieces: list, leaves):
    """f's weighted kernel values of a range, one tuple per block with an
    (N, T) array per group: the group's weights times its rows' leaf
    values.  values holds the kernel value of every node of f's last
    stage (_side_values) and leaves f's leaf array per block."""
    for block, leaf in zip(pieces, leaves):
        bf = values[leaf]
        out = []
        lo = 0
        for weights, rows in block:
            hi = lo + rows.size * weights.shape[-1]
            out.append(weights * bf[lo:hi].reshape(rows.size, -1))
            lo = hi
        yield tuple(out)


class _Slot(NamedTuple):
    """What the last call keeps for its key, (f knots, f degree, g knots,
    g degree) as passed in: the kept layout, and the coefficient bytes
    of the last call's open f with its weighted kernel values, one tuple
    per block with one array per group (_weighted).
    """

    key: tuple
    layout: _Layout
    f_bytes: bytes
    f_values: tuple[np.ndarray, ...]


# the last call's _Slot, or None; replaced whole, so a reader sees a key
# with its own layout and f values
_kept: _Slot | None = None


def improved_morken_product(
    f: Spline,
    g: Spline,
    target_knots: KnotVector | None = None,
) -> ProductResult:
    """Product spline via distinct knot profiles with exact repetition counts.

    Rows whose knot windows share their run multiplicities share one
    knot-only plan, the weights of their distinct profiles.  Blocks of
    at most _BLOCK doubles pack rows of many such groups, and a block's
    rows of one profile count T are reduced together (_by_count): one
    weighted multiply, one stacked matmul and one scatter per (block,
    T), however many plans share the T.  Every coefficient sums the same
    kernel products in the same order as one kernel_many call per row
    and factor over its distinct profiles; agrees with morken_product
    to floating-point roundoff.

    Everything but the coefficient pass depends on the knots alone: a
    refined coefficient is a knot-only linear map applied to the
    coefficient window (the discrete B-splines of the Oslo algorithm).
    A stage factor depends only on the factor's knot window, which the
    row's span fixes, and on one fine knot value, so each factor's side
    computes its factors once per distinct (span, knot value) pair.
    Each side builds its stage nodes once across all blocks, one node
    per (anchor span, sorted top knot values), straight from the runs of
    the product knots: the rows where a node is feasible form one
    interval, which each child narrows (_merged).  When a stage would
    pass _BLOCK doubles, the rows are cut into consecutive row ranges,
    each merged on its own knot slice and streamed one at a time (_fit);
    over the experiment rows (row seed 12345) only mesh_refine_highdeg
    from level 6 is cut.  When f and g have the same knot bytes and
    degree, as in the spline_spline and Galerkin rows, both sides read
    one merged side, built once, each with its own leaf order.
    The layout (product knot vector, blocks, stage nodes and stage
    factors) is kept, keyed on both factors' knots and degrees as
    passed in, exactly when the product is one range; a later call on
    the same key runs only the coefficient pass on it, after make_open
    and the target_knots check.  f's weighted kernel values, each
    group's weights times its kernel values, are kept beside the layout
    and reused while f's coefficient bytes (-0.0 is not 0.0) stay the
    same, so Galerkin assembly, one f times many g, refines only g and
    skips the weighting too.
    Over every experiment row (row seed 12345) the largest kept layout
    takes 3.7 MiB, plus 0.1 MiB of f values (mesh_refine_highdeg 5);
    galerkin_k 50 and spline_spline 50 take 2.5 MiB, plus 0.5 MiB of f
    values.  A call on another key frees the slot first.
    There is no entry point taking many second factors at once:
    consecutive calls on one knot pair already share the layout, and
    each product is still its own call.
    """
    global _kept
    key = (f.knots.knots.tobytes(), f.degree, g.knots.knots.tobytes(), g.degree)
    kept = _kept
    if kept is not None and kept.key == key:
        layout = kept.layout
        f, g = make_open(f), make_open(g)
        _check_target(target_knots, layout.t)
        keep = True
    else:
        # free the kept layout before the new one is built
        _kept = kept = None
        f, g, t = _prepared_factors(f, g, target_knots)
        layout, keep = _layout(f, g, t)
    f_bytes = f.coefficients.tobytes()
    reuse = kept is not None and kept.f_bytes == f_bytes
    b = np.empty(layout.counts.size)
    for pieces, side_f, side_g in layout.ranges:
        if reuse:
            f_values = kept.f_values
        else:
            # one tuple per block, computed as the blocks are read unless kept
            last_f = _side_values(f.coefficients, side_f)
            f_values = _weighted(last_f, pieces, side_f.leaves)
            if keep:
                f_values = tuple(f_values)
        last_g = _side_values(g.coefficients, side_g)
        for block, weighted, leaf in zip(pieces, f_values, side_g.leaves):
            bg = last_g[leaf]
            lo = 0
            for (_, rows), wbf in zip(block, weighted):
                hi = lo + wbf.size
                cols = bg[lo:hi].reshape(wbf.shape)
                if cols.shape[1] == 1:
                    # np.dot of one-element rows is their product, zero sign too
                    dots = wbf[:, 0] * cols[:, 0]
                else:
                    # matmul reduces each 1 x 1 product with one BLAS dot over
                    # the row's contiguous values: the summation order, and so
                    # the bits, of one np.dot per row
                    dots = (wbf[:, None, :] @ cols[:, :, None]).ravel()
                b[rows] = dots
                lo = hi
    b /= layout.divisor
    result = _result(
        layout.t, b, layout.naive_terms, layout.counts, layout.mean_distinct
    )
    _kept = _Slot(key, layout, f_bytes, f_values) if keep else None
    return result
