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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import _BLOCK, _stage_factors, find_span0_many, kernel_many
from .core import (
    BreakpointRun,
    KnotVector,
    Spline,
    _gathered_windows,
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
        rows_f, rows_g = _profile_runs(
            tuple(r.multiplicity for r in self.window_breakpoints), self.combinations
        )
        return values[rows_f], values[rows_g]

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
    window run knot[n].  leaf[k] is profile k's node after stage 1; parent
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
    """Stage tables for profile rows of run indices, shape (T, q)."""
    T, q = rows.shape
    # sorted by the last column first, every suffix is a contiguous block
    order = np.lexsort(rows.T)
    # knots[j, i]: the run sorted profile i reads at stage d = q - j
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
    memory that every later product keeps.
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
    return _ProductPlan(
        weights=np.array([w for _, w in profiles], dtype=float),
        f=_suffix_tree(rows_f),
        g=_suffix_tree(rows_g),
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


def _window_groups(t: KnotVector):
    """Product rows grouped by the run multiplicities of their knot windows.

    Yields (mults, rows, starts): the multiplicity tuple, the rows whose
    window t_{i+1} .. t_{i+p} has it, and the window offset where each
    run starts.  Rows come in ascending order within a group.
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
        mults = tuple(int(c) for c in np.diff(starts, append=p))
        yield mults, rows, starts


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
    divisor = float(math.comb(p, p1))
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
    counts = np.empty(m, dtype=np.int64)
    for mults, rows, _ in _window_groups(t):
        counts[rows] = len(_profiles(mults, p1))
    return ProductResult(
        product=Spline(t, b),
        naive_term_count=count,
        distinct_term_counts=counts,
        mean_distinct=float(counts.mean()),
    )


def _row_blocks(t: KnotVector, p1: int):
    """Window groups cut into pieces and packed into evaluation blocks.

    Yields one list of (plan, rows, starts) pieces per block.  A piece is
    a run of consecutive rows of one window group; each row costs its
    plan's widest stage, and a block takes pieces greedily, splitting a
    group where the block fills, until its rows cost _BLOCK doubles.  A
    row wider than _BLOCK gets a block of its own.
    """
    block: list = []
    used = 0
    for mults, rows, starts in _window_groups(t):
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
            block.append((plan, rows[lo : lo + take], starts))
            used += take * width
            lo += take
    if block:
        yield block


def _ranges(lengths: np.ndarray) -> np.ndarray:
    """Offset of every element within its range, for ranges laid end to end."""
    return np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _stage_tables(trees: list[_SuffixTree], sizes: np.ndarray, runs: int):
    """Flat stage tables of one factor side over the pieces of a block.

    trees[k] is piece k's suffix tree and sizes[k] its row count; runs is
    the block's longest window run list.  The block's row-nodes are
    listed stage by stage; within a stage, piece by piece; within a
    piece, node by node, each node once per row.  Returns (bounds,
    parent, rowrun, leaf): stage j's row-nodes are bounds[j] ..
    bounds[j + 1]; row-node e refines entry parent[e] of the stage
    before (a block row, its coefficient window, before the first stage)
    at flat (row, window run) index rowrun[e]; leaf lists every row's
    profiles, row by row, as positions in the last stage.
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
    run = np.repeat(np.tile(first, q), lens) * runs
    run += np.concatenate([tree.knot for tree in trees])[order]
    # node i of a piece with n rows holds its rows r = 0 .. n - 1 at i * n + r
    r = _ranges(n)
    parent = np.repeat(up, n) + r
    rowrun = np.repeat(run, n) + r * runs
    # profile i of block row first[k] + r sits at base[k, -1] + leaf_i * n + r
    profiles = np.array([tree.leaf.size for tree in trees])
    per_row = np.repeat(profiles, sizes)
    row = np.repeat(np.arange(per_row.size), per_row)
    piece = np.repeat(np.arange(len(trees)), sizes)[row]
    pick = (np.cumsum(profiles) - profiles)[piece] + _ranges(per_row)
    leaf = np.concatenate([tree.leaf for tree in trees])[pick] * sizes[piece]
    leaf += (base[:, -1] - first)[piece] + row
    return bounds, parent, rowrun, leaf


def _block_values(tables, tau: np.ndarray, coeffs: np.ndarray, values: np.ndarray):
    """Kernel value of every (row, profile) of a block, flat and row-major.

    tau and coeffs hold one factor window per block row, values the
    window run values of the row (padded to the block's longest run
    list).  Each stage refines the parent vectors of its row-nodes, d + 1
    -> d entries, with the same arithmetic as kernel_many, so every value
    is bit-identical to a kernel_many call on the profile's knot row.
    """
    bounds, parent, rowrun, leaf = tables
    q = coeffs.shape[1] - 1
    tau = tau[:, None, :]
    t = values[:, :, None]
    v = coeffs
    for j, d in enumerate(range(q, 0, -1)):
        nodes = slice(bounds[j], bounds[j + 1])
        # a stage's factors depend on a row-node only through its row and
        # window run; padded runs are computed and never read
        diag, sup = _stage_factors(tau, d, q, t)
        at = rowrun[nodes]
        vp = np.take(v, parent[nodes], axis=0)
        v = np.take(diag.reshape(-1, d), at, axis=0)
        v *= vp[:, :d]
        right = np.take(sup.reshape(-1, d), at, axis=0)
        right *= vp[:, 1:]
        v += right
    return v[leaf, 0]


def improved_morken_product(
    f: Spline,
    g: Spline,
    target_knots: KnotVector | None = None,
) -> ProductResult:
    """Product spline via distinct knot profiles with exact repetition counts.

    Rows whose knot windows share their run multiplicities share one
    knot-only plan (profiles, weights, suffix-shared kernel stages).
    Blocks of at most _BLOCK doubles pack rows of many such groups and
    run one stage loop per factor over all of them, with one reduction
    per group piece.  Every coefficient sums the same
    kernel products in the same order as one kernel_many call per row and
    factor over its distinct profiles; agrees with morken_product to
    floating-point roundoff.
    """
    f, g, t = _prepared_factors(f, g, target_knots)
    p1 = f.degree
    p = t.degree
    count = binomial(p, p1)
    divisor = float(math.comb(p, p1))
    m, k1, k2, _ = _row_geometry(f, g, t)
    b = np.empty(m)
    counts = np.empty(m, dtype=np.int64)
    for pieces in _row_blocks(t, p1):
        plans = [plan for plan, _, _ in pieces]
        sizes = np.array([piece.size for _, piece, _ in pieces])
        rows = np.concatenate([piece for _, piece, _ in pieces])
        # run starts padded to the block's longest list with offset p - 1,
        # the window's last knot
        runs = max(starts.size for _, _, starts in pieces)
        starts = np.full((len(pieces), runs), p - 1)
        for k, (_, _, piece_starts) in enumerate(pieces):
            starts[k, : piece_starts.size] = piece_starts
        values = t.knots[rows[:, None] + 1 + np.repeat(starts, sizes, axis=0)]
        tau1, c1 = _gathered_windows(f.knots.knots, f.coefficients, p1, k1[rows])
        tau2, c2 = _gathered_windows(g.knots.knots, g.coefficients, g.degree, k2[rows])
        bf = _block_values(
            _stage_tables([plan.f for plan in plans], sizes, runs), tau1, c1, values
        )
        bg = _block_values(
            _stage_tables([plan.g for plan in plans], sizes, runs), tau2, c2, values
        )
        lo = 0
        for plan, piece, _ in pieces:
            hi = lo + piece.size * plan.weights.size
            wbf = plan.weights * bf[lo:hi].reshape(piece.size, -1)
            cols = bg[lo:hi].reshape(piece.size, -1)
            if cols.shape[1] == 1:
                # np.dot of one-element rows is their product, zero sign too
                dots = wbf[:, 0] * cols[:, 0]
            else:
                # matmul reduces each 1 x 1 product with one BLAS dot over
                # the row's contiguous values: the summation order, and so
                # the bits, of one np.dot per row
                dots = (wbf[:, None, :] @ cols[:, :, None]).ravel()
            b[piece] = dots / divisor
            counts[piece] = plan.weights.size
            lo = hi
    return ProductResult(
        product=Spline(t, b),
        naive_term_count=count,
        distinct_term_counts=counts,
        mean_distinct=float(counts.mean()),
    )
