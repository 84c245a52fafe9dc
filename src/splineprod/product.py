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
        values = np.array([r.value for r in self.window_breakpoints])
        rows_f, rows_g = _profile_runs(
            tuple(r.multiplicity for r in self.window_breakpoints), self.combinations
        )
        return values[rows_f], values[rows_g]

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
    p1 = _check_integer(p1, "p1 must be an integer")
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


def _profile_runs(
    mults: tuple[int, ...], profiles
) -> tuple[np.ndarray, np.ndarray]:
    """Run indices of every profile's f knots (T, p1) and g knots (T, p - p1)."""
    T = len(profiles)
    mu = np.array(profiles, dtype=np.intp).reshape(T, len(mults))
    runs = np.tile(np.arange(len(mults)), T)
    rows_f = np.repeat(runs, mu.ravel()).reshape(T, -1)
    rows_g = np.repeat(runs, (np.asarray(mults) - mu).ravel()).reshape(T, -1)
    return rows_f, rows_g


@dataclass(frozen=True)
class _SuffixTree:
    """Kernel stages of one factor side, shared across profile suffixes.

    Stage d (d = q, .., 1) reads fine knot d of a sorted profile row, so
    profiles whose knots d .. q agree share the vector after stage d; each
    such suffix is one node.  Stage d's nodes are offsets[q-d] ..
    offsets[q-d+1] of the flat arrays; node n refines node parent[n] of
    the stage before (node 0, the coefficient window, before stage q) at
    the window knot whose offset is knot[n], the first of its run.  leaf[k] is profile k's node after stage 1; parent
    and leaf count nodes from the first of their stage.  widest is the
    most doubles one row's nodes take into any stage, which is what a row
    costs an evaluation block (_row_blocks); _stage_tables lays the trees
    of a block's rows out side by side, stage by stage.
    """

    offsets: np.ndarray
    parent: np.ndarray
    knot: np.ndarray
    leaf: np.ndarray
    widest: int


def _suffix_tree(rows: np.ndarray) -> _SuffixTree:
    """Stage tables for profile rows of window offsets, shape (T, q)."""
    T, q = rows.shape
    # sorted by the last column first, every suffix is a contiguous block
    order = np.lexsort(rows.T)
    # knots[j, i]: the offset sorted profile i reads at stage d = q - j
    knots = rows[order].T[::-1]
    # a profile opens a node at a stage when its knots from that stage
    # up differ from the previous sorted profile's
    opens = np.ones((q, T), dtype=bool)
    opens[:, 1:] = np.logical_or.accumulate(knots[:, 1:] != knots[:, :-1], axis=0)
    node = np.cumsum(opens, axis=1) - 1
    parent = np.zeros_like(node)
    parent[1:] = node[:-1]
    stage, first = np.nonzero(opens)
    sizes = opens.sum(axis=1)
    leaf = np.empty(T, dtype=np.intp)
    leaf[order] = node[-1]
    return _SuffixTree(
        offsets=np.concatenate(([0], np.cumsum(sizes))),
        parent=_compact(parent[stage, first]),
        knot=_compact(knots[stage, first]),
        leaf=_compact(leaf),
        widest=int(np.max(sizes * np.arange(q + 1, 1, -1))),
    )


def _compact(index: np.ndarray) -> np.ndarray:
    """Nonnegative indices in the narrowest unsigned type that holds them.

    Plans stay cached for the life of the process, so their size is
    memory that every later product keeps; a product's knot pair
    numbers (_pairs) are read into a block's row-nodes, whose tables
    are the largest arrays while a layout is built.
    """
    return index.astype(np.min_scalar_type(int(index.max())))


@dataclass(frozen=True)
class _ProductPlan:
    """Knot-only work of every row with one window pattern and p1."""

    weights: np.ndarray
    f: _SuffixTree
    g: _SuffixTree


# plans are keyed on knot multiplicities, not values, so products on
# shifted or rescaled knots reuse them (spline_spline at degree 50 needs
# 148); the bound caps what a process keeps
@lru_cache(maxsize=1024)
def _product_plan(mults: tuple[int, ...], p1: int) -> _ProductPlan:
    """Plan for windows with run multiplicities mults, split p1 + rest."""
    profiles = _profiles(mults, p1)
    rows_f, rows_g = _profile_runs(mults, [prof for prof, _ in profiles])
    # the window offset where each run starts: offsets and runs are one
    # to one, so the trees are those of the run indices
    starts = np.cumsum((0,) + mults[:-1])
    return _ProductPlan(
        weights=np.array([w for _, w in profiles], dtype=float),
        f=_suffix_tree(starts[rows_f]),
        g=_suffix_tree(starts[rows_g]),
    )


def _product_spline(t: KnotVector, b: np.ndarray) -> Spline:
    """Spline(t, b), where b is not finite only when stage values, which grow
    like the inverse length of a very short knot interval, overflowed."""
    if not np.isfinite(b).all():
        raise ValueError(
            "the product's stage values overflowed the double range "
            "on a very short knot interval"
        )
    return Spline(t, b)


def _row_geometry(f: Spline, g: Spline, t: KnotVector):
    """Anchor spans in both factors and the knot window of every row."""
    p = t.degree
    m = t.dimension
    anchors = t.knots[:m]
    k1 = find_span0_many(f.knots.knots, f.degree, anchors)
    k2 = find_span0_many(g.knots.knots, g.degree, anchors)
    windows = np.lib.stride_tricks.sliding_window_view(t.knots[1 : m + p], p)
    return m, k1, k2, windows


def _window_groups(t: KnotVector):
    """Product rows grouped by the run multiplicities of their knot windows.

    Yields (mults, rows): the multiplicity tuple and the rows whose
    window t_{i+1} .. t_{i+p} has it, in ascending order.
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
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    sizes = np.bincount(inverse, minlength=first.size)
    for pattern, rows in zip(breaks[first], np.split(order, np.cumsum(sizes)[:-1])):
        starts = np.concatenate(([0], np.flatnonzero(pattern) + 1))
        yield tuple(int(c) for c in np.diff(starts, append=p)), rows


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
    counts = np.empty(m, dtype=np.int64)
    for mults, rows in _window_groups(t):
        counts[rows] = len(_profiles(mults, p1))
    return ProductResult(
        product=_product_spline(t, b),
        naive_term_count=count,
        distinct_term_counts=counts,
        mean_distinct=float(counts.mean()),
    )


def _row_blocks(t: KnotVector, p1: int):
    """Window groups cut into pieces and packed into evaluation blocks.

    Yields one list of (plan, rows) pieces per block.  A piece is
    a run of consecutive rows of one window group; each row costs its
    plan's widest stage, and a block takes pieces greedily, splitting a
    group where the block fills, until its rows cost _BLOCK doubles.  A
    row wider than _BLOCK gets a block of its own.
    """
    block: list = []
    used = 0
    for mults, rows in _window_groups(t):
        plan = _product_plan(mults, p1)
        width = max(plan.f.widest, plan.g.widest)
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


def _stage_tables(trees: list[_SuffixTree], sizes: np.ndarray, pairs: np.ndarray):
    """Flat stage tables of one factor side over the pieces of a block.

    trees[k] is piece k's suffix tree and sizes[k] its row count;
    pairs[o, r] numbers the knot pair that block row r reads at window
    offset o (_side).  The block's row-nodes are listed stage by stage;
    within a stage, piece by piece; within a piece, node by node, each
    node once per row.  Returns (bounds, parent, at, leaf): stage j's
    row-nodes are bounds[j] .. bounds[j + 1]; row-node e refines entry
    parent[e] of the stage before (a block row, its coefficient window,
    before the first stage) with the factors of knot pair at[e]; leaf
    lists every row's profiles, row by row, as positions in the last
    stage.
    """
    q = len(trees[0].offsets) - 1
    offsets = np.array([tree.offsets for tree in trees])
    widths = np.diff(offsets, axis=1)
    counts = sizes[:, None] * widths
    # where each piece starts in each stage's list, and in the list that
    # stage reads (the block rows, before the first stage)
    base = np.cumsum(counts, axis=0) - counts
    first = np.cumsum(sizes) - sizes
    above = np.column_stack((first, base[:, :-1]))
    bounds = np.concatenate(([0], np.cumsum(counts.sum(axis=0))))
    # the pieces' nodes stage by stage, then piece by piece; every index
    # array here is intp, so the narrow tree tables widen, never wrap
    lens = widths.T.ravel()
    nodes = offsets[:, -1]
    source = (offsets[:, :-1] + (np.cumsum(nodes) - nodes)[:, None]).T.ravel()
    order = np.repeat(source, lens) + _ranges(lens)
    n = np.repeat(np.tile(sizes, q), lens)
    up = np.repeat(above.T.ravel(), lens)
    up += np.concatenate([tree.parent for tree in trees])[order] * n
    # where each node's first row reads its knot in the flat pairs
    start = np.concatenate([tree.knot for tree in trees])[order].astype(np.intp)
    start *= pairs.shape[1]
    start += np.repeat(np.tile(first, q), lens)
    # node i of a piece with n rows holds its rows r = 0 .. n - 1 at i * n + r
    # in place, so that few arrays of the block's row-nodes live at once
    r = _ranges(n)
    parent = np.repeat(up, n)
    parent += r
    at = np.repeat(start, n)
    at += r
    del r
    at = np.take(pairs, at)
    # profile i of block row first[k] + r sits at base[k, -1] + leaf_i * n + r
    profiles = np.array([tree.leaf.size for tree in trees])
    per_row = np.repeat(profiles, sizes)
    row = np.repeat(np.arange(per_row.size), per_row)
    piece = np.repeat(np.arange(len(trees)), sizes)[row]
    pick = (np.cumsum(profiles) - profiles)[piece] + _ranges(per_row)
    leaf = np.concatenate([tree.leaf for tree in trees])[pick] * sizes[piece]
    leaf += (base[:, -1] - first)[piece] + row
    return bounds, parent, at, leaf


@dataclass(frozen=True)
class _Side:
    """Knot-only stage loop of one factor over the rows of some blocks.

    cols[r] indexes root r's coefficient window in the factor's
    coefficients.  stages gives (parent, at, diag, sup) for stage d = q,
    .., 1: the stage's nodes, each with its parent entry in the stage
    before (a root before the first stage) and its knot pair at, and the
    stage's diagonal and superdiagonal factors per knot pair, shape
    (pairs, d).  leaves holds one array per block it covers, which lists
    every row's profiles, row by row, as positions in the last stage.
    A merged side (_merged) covers every block of a product, with one
    root per anchor span and one node per vector; an unmerged side
    (_side) covers one block, with the block rows as roots and its
    row-nodes as nodes, and its stages are a generator that computes
    one stage at a time.
    """

    cols: np.ndarray
    stages: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]
    leaves: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class _Layout:
    """Knot-only half of an improved product, for any coefficients.

    counts holds every row's distinct profile count, read-only, and
    pieces every block's (plan weights, rows) pieces.  sides holds the
    f and g sides, each as the _Side parts whose leaves list the blocks
    in order: a tuple of one merged side, or a generator that builds one
    unmerged side per block, one block at a time.  A layout is kept
    exactly when both its sides merged, since only then are both tuples.
    """

    t: KnotVector
    naive_terms: int | float
    divisor: float
    counts: np.ndarray
    pieces: tuple[list[tuple[np.ndarray, np.ndarray]], ...]
    sides: tuple[Iterable[_Side], Iterable[_Side]]


def _pairs(spans, rank, knots):
    """Distinct knot pairs that a factor's rows read, numbered.

    Row r has anchor span spans[r] in the factor, and reads at window
    offset o the knot value whose first index in knots is rank[o, r].  A
    stage factor depends on a row-node only through the row's span,
    which fixes the factor's knot window, and the fine knot value it
    reads (the discrete B-splines of the Oslo algorithm), so the stage
    factors go per distinct (span, value) pair.  Returns every pair's
    span and knot value, in ascending order, and the number of the pair
    every (o, r) reads, shaped as rank, in the narrowest type that holds
    it.
    """
    keys, ids = np.unique(spans * knots.size + rank, return_inverse=True)
    pair_spans, pair_knots = np.divmod(keys, knots.size)
    return pair_spans, knots[pair_knots], _compact(ids.reshape(rank.shape))


def _factors(s: Spline, pair_spans, pair_values):
    """(diag, sup) of every knot pair in factor s, stage by stage."""
    q = s.degree
    kw, _ = _window_indices(q, pair_spans)
    tau, values = s.knots.knots[kw], pair_values[:, None]
    for d in range(q, 0, -1):
        yield _stage_factors(tau, d, q, values)


def _side(s: Spline, spans, trees, sizes, numbered, tables) -> _Side:
    """One factor's unmerged side of a block whose rows have anchors spans in s.

    numbered is _pairs of the product's rows, read at the block's rows;
    the block computes the factors of the pairs it reads, renumbered in
    the same order.  tables are the block's _stage_tables on numbered's
    pairs, when _merged built them before it stopped, or None.  The
    stages are a generator that computes one at a time.
    """
    pair_spans, pair_values, pairs = numbered
    used = np.zeros(pair_spans.size, dtype=bool)
    used[pairs] = True
    local = np.cumsum(used) - 1
    if tables is None:
        bounds, parent, at, leaf = _stage_tables(trees, sizes, local[pairs])
    else:
        bounds, parent, at, leaf = tables
        at = local[at]
    _, cols = _window_indices(s.degree, spans)
    factors = _factors(s, pair_spans[used], pair_values[used])
    stages = (
        (parent[lo:hi], at[lo:hi], diag, sup)
        for lo, hi, (diag, sup) in zip(bounds[:-1], bounds[1:], factors)
    )
    return _Side(cols, stages, (leaf,))


def _merged(s: Spline, spans, blocks, numbered):
    """One factor's side over every block, with one node per vector.

    A node's vector after a stage depends only on its parent's vector
    and the knot pair it reads, and before the first stage only on the
    row's span.  So rows with one anchor span share a root, and each
    stage numbers its nodes by (parent node, pair), in order of first
    appearance, across the blocks: block by block, _stage_tables lists
    the unmerged row-nodes and a dense table of parents x pairs maps
    them to node ids, then the block's tables are dropped.  A merged
    node runs the same elementwise arithmetic on the same doubles as
    every row-node it replaces, and so gives the same bits.  blocks
    holds (trees, sizes, rows) per block and numbered is _pairs of all
    rows.  As soon as a stage's table would pass _BLOCK entries, which
    happens on a side that reads many pairs, few of them more than once,
    it stops and returns the index of the block it was numbering and
    that block's tables.
    """
    pair_spans, pair_values, pairs = numbered
    q = s.degree
    n = pair_spans.size
    roots, ids_of_rows = np.unique(spans, return_inverse=True)
    # nodes[j] counts the nodes that stage j reads: the roots, then the
    # nodes of the stage before; lookup[j] maps parent * n + pair to the
    # id of stage j's node, or -1, and keys[j] lists the parent * n +
    # pair of stage j's nodes in id order
    nodes = [roots.size] + [0] * q
    lookup = [np.empty(0, dtype=np.int32)] * q
    keys: list[list[np.ndarray]] = [[] for _ in range(q)]
    leaves = []
    for k, (trees, sizes, rows) in enumerate(blocks):
        tables = _stage_tables(trees, sizes, pairs[:, rows])
        bounds, parent, at, leaf = tables
        bounds = bounds.tolist()
        ids = ids_of_rows[rows]
        for j in range(q):
            size = nodes[j] * n
            if size > _BLOCK:
                return k, tables
            if lookup[j].size < size:
                grown = np.full(size, -1, dtype=np.int32)
                grown[: lookup[j].size] = lookup[j]
                lookup[j] = grown
            table = lookup[j]
            lo, hi = bounds[j], bounds[j + 1]
            # below size <= _BLOCK, so the int32 ids and keys never wrap
            row_keys = at[lo:hi] + ids[parent[lo:hi]] * n
            ids = table[row_keys]
            # every row-node is new while the stage has no nodes
            new = ids < 0 if nodes[j + 1] else slice(None)
            fresh = row_keys[new]
            if fresh.size:
                # each key's first row-node writes last, so it wins; any
                # winner would number the same nodes
                pos = np.arange(fresh.size, dtype=np.int32)
                table[fresh[::-1]] = pos[::-1]
                first = fresh[table[fresh] == pos]
                table[first] = np.arange(nodes[j + 1], nodes[j + 1] + first.size)
                nodes[j + 1] += first.size
                keys[j].append(first)
                ids[new] = table[fresh]
        leaves.append(ids[leaf].astype(np.intp))
        # free this block's tables before the next block's are built
        del tables, parent, at, leaf
    del lookup
    _, cols = _window_indices(q, roots)
    # intp, which np.take reads without a conversion
    stages = tuple(
        (*np.divmod(np.concatenate(keys[j]).astype(np.intp), n), diag, sup)
        for j, (diag, sup) in enumerate(_factors(s, pair_spans, pair_values))
    )
    return _Side(cols, stages, tuple(leaves))


def _parts(s: Spline, spans, blocks, rank, knots) -> Iterable[_Side]:
    """One factor's side of a product, as the _Side parts of a _Layout.

    The side's knot pairs are numbered once for all its rows, and the
    side is merged when every stage's table stays within _BLOCK entries
    (_merged).  A side that does not merge streams: a generator that
    builds each block's side as it is read.
    """
    numbered = _pairs(spans, rank, knots)
    merged = _merged(s, spans, blocks, numbered)
    if isinstance(merged, _Side):
        return (merged,)
    stop, tables = merged
    pair_spans, pair_values, pairs = numbered
    return (
        _side(
            s, spans[rows], trees, sizes, (pair_spans, pair_values, pairs[:, rows]),
            tables if k == stop else None,
        )
        for k, (trees, sizes, rows) in enumerate(blocks)
    )


def _layout(f: Spline, g: Spline, t: KnotVector) -> tuple[_Layout, bool]:
    """Knot-only half of the product of open f and g, and whether to keep it.

    Rows pack into blocks (_row_blocks), and each factor's side is
    merged across all blocks when its tables stay within _BLOCK
    entries (_parts).  A layout is kept exactly when both its sides
    merged: it is then built whole, and the first call pays nothing to
    keep it.  A layout with an unmerged side streams that side one block
    at a time and is not kept, even when it packs into one block, since
    a kept unmerged side would rerun its row-nodes on every call.
    """
    p1 = f.degree
    p = t.degree
    # raises ValueError when C(p, p1) exceeds the double range
    naive_terms = binomial(p, p1)
    m, k1, k2, _ = _row_geometry(f, g, t)
    counts = np.empty(m, dtype=np.int64)
    pieces = []
    blocks_f, blocks_g = [], []
    for block in _row_blocks(t, p1):
        sizes = np.array([piece.size for _, piece in block])
        rows = np.concatenate([piece for _, piece in block])
        for plan, piece in block:
            counts[piece] = plan.weights.size
        pieces.append([(plan.weights, piece) for plan, piece in block])
        blocks_f.append(([plan.f for plan, _ in block], sizes, rows))
        blocks_g.append(([plan.g for plan, _ in block], sizes, rows))
    counts.setflags(write=False)
    # window knot t_{i+1+o} of every row i at offset o, as the first index
    # of its value; offset by offset, so a node's rows read a contiguous run
    knots = t.knots
    rank = np.searchsorted(knots, knots[np.arange(1, p + 1)[:, None] + np.arange(m)])
    sides = (
        _parts(f, k1, blocks_f, rank, knots),
        _parts(g, k2, blocks_g, rank, knots),
    )
    layout = _Layout(
        t=t,
        naive_terms=naive_terms,
        divisor=float(math.comb(p, p1)),
        counts=counts,
        pieces=tuple(pieces),
        sides=sides,
    )
    return layout, all(isinstance(parts, tuple) for parts in sides)


def _side_values(coeffs: np.ndarray, side: _Side) -> np.ndarray:
    """Kernel value of every node of a side's last stage.

    Each stage refines the parent vectors of its nodes, d + 1 -> d
    entries, with the same arithmetic as kernel_many, so every value is
    bit-identical to a kernel_many call on the knot row of each profile
    that reads it.
    """
    v = coeffs[side.cols]
    for parent, at, diag, sup in side.stages:
        vp = np.take(v, parent, axis=0)
        # the factors stay per knot pair and are gathered here: multiplying
        # in place into the fresh gathered arrays streams a stage about 20%
        # faster than multiplying factors gathered ahead
        v = np.take(diag, at, axis=0)
        v *= vp[:, :-1]
        right = np.take(sup, at, axis=0)
        right *= vp[:, 1:]
        v += right
    return v[:, 0]


def _block_values(coeffs: np.ndarray, parts: Iterable[_Side]):
    """Kernel value of every (row, profile) of each block in turn, flat and
    row-major."""
    for side in parts:
        last = _side_values(coeffs, side)
        for leaf in side.leaves:
            yield last[leaf]


class _Slot(NamedTuple):
    """What the last call keeps for its key, (f knots, f degree, g knots,
    g degree) as passed in: the kept layout, and the coefficient bytes
    of the last call's open f with its kernel values, one array per block.
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
    knot-only plan (profiles, weights, suffix-shared kernel stages).
    Blocks of at most _BLOCK doubles pack rows of many such groups, and
    every group piece is reduced on its own.  Every coefficient sums the
    same kernel products in the same order as one kernel_many call per
    row and factor over its distinct profiles; agrees with
    morken_product to floating-point roundoff.

    Everything but the coefficient pass depends on the knots alone: a
    refined coefficient is a knot-only linear map applied to the
    coefficient window (the discrete B-splines of the Oslo algorithm).
    A stage factor depends only on the factor's knot window, which the
    row's span fixes, and on one fine knot value, so each factor's side
    computes its factors once per distinct (span, knot value) pair of
    the product.  Each side numbers its stage nodes once across all
    blocks, one node per (parent node, knot pair), and runs one stage
    loop over them (_merged), unless a stage's dense numbering table
    would pass _BLOCK entries; such a side streams its blocks one at a
    time, with the unmerged row-nodes of each.  The layout (product
    knot vector, blocks, stage tables and stage factors) is kept, keyed
    on both factors' knots and degrees as passed in, exactly when both
    sides merged; a later call on the same key runs only the coefficient
    pass on it, after make_open and the target_knots check; a layout
    with a side that streams is never kept.  f's kernel values are kept
    beside the layout and reused while f's coefficient bytes (-0.0 is not
    0.0) stay the same, so Galerkin assembly, one f times many g, refines
    only g.
    Over every experiment row (row seed 12345) the largest kept layout
    takes 3.6 MiB, plus 0.5 MiB of f values (galerkin_k 50 and
    spline_spline 50).  A call on another key frees the slot first.
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
    parts_f, parts_g = layout.sides
    if kept is not None and kept.f_bytes == f_bytes:
        f_values = kept.f_values
    else:
        f_values = _block_values(f.coefficients, parts_f)
        if keep:
            f_values = tuple(f_values)
    b = np.empty(layout.counts.size)
    for pieces, bf, bg in zip(
        layout.pieces, f_values, _block_values(g.coefficients, parts_g)
    ):
        lo = 0
        for weights, piece in pieces:
            hi = lo + piece.size * weights.size
            wbf = weights * bf[lo:hi].reshape(piece.size, -1)
            cols = bg[lo:hi].reshape(piece.size, -1)
            if cols.shape[1] == 1:
                # np.dot of one-element rows is their product, zero sign too
                dots = wbf[:, 0] * cols[:, 0]
            else:
                # matmul reduces each 1 x 1 product with one BLAS dot over
                # the row's contiguous values: the summation order, and so
                # the bits, of one np.dot per row
                dots = (wbf[:, None, :] @ cols[:, :, None]).ravel()
            b[piece] = dots / layout.divisor
            lo = hi
    product = _product_spline(layout.t, b)
    _kept = _Slot(key, layout, f_bytes, f_values) if keep else None
    return ProductResult(
        product=product,
        naive_term_count=layout.naive_terms,
        distinct_term_counts=layout.counts,
        mean_distinct=float(layout.counts.mean()),
    )
