"""Batched refine, basis and knot steps against their loop forms, byte for byte.

`evaluate` and `core._evaluate_many` run the stage arithmetic over a
kept knot-only layout of their points, `oslo_coefficients` one stage
pass per block of rows with one window per column, `collocation_matrix`
computes the Cox-de Boor triangle one whole row at a time, and
`product_knot_vector` merges the factors' breakpoint runs as arrays.
Each must give the bits, zero signs included, of the per-anchor,
scalar-column and per-breakpoint loops in `tests/helpers.py`.
`find_span0_many` places every point with one clip, which must give the
spans and the ValueError messages of the clamped scan there.
"""

import numpy as np
import pytest

import splineprod.collocation as collocation_module
import splineprod.core as core
import splineprod.oslo as oslo_module
import splineprod.product as product_module
from splineprod import (
    KnotVector,
    Spline,
    collocation_matrix,
    evaluate,
    greville_abscissae,
    improved_morken_product,
    make_open,
    make_spline,
    oslo_coefficients,
    product_knot_vector,
    uniform_open_knots,
)
from splineprod._kernels import (
    _stage_factors,
    find_span0_many,
    kernel_many,
    nonzero_basis_rows,
)
from splineprod.bench import FAMILY_PARAMETERS, SplitMix64, build_family_case
from helpers import (
    basis_triangle_rows,
    improved_product_rows,
    kernel_rows_reference,
    merged_product_knots,
    piece_reduction,
    random_spline_on,
    refine_rows_by_anchor,
    span0_clamped_scan,
    stage_node_counts,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

# spans with a -0.0 end and spans whose equal knots average off their value
SPANS = ((0.0, 1.0), (-0.7, -0.0), (-3.0, -1.7), (-1.0, 1.0))
# _BLOCK values that give one-row ranges, ranges of a few rows, ranges
# of more rows, and one range
BLOCKS = (1, 64, 128, 1 << 16)
# spans with a zero at an end or (at eighth 4) inside
ZERO_SPANS = ((-1.0, 1.0), (-0.7, 0.0), (0.0, 0.7), (0.0, 1.0))


@st.composite
def open_splines(draw, min_degree=0, max_degree=12, full_multiplicity=True):
    """Spline on an open knot vector with repeated interior knots.

    Interior knots sit on sixteenths of the span and repeat up to degree
    + 1 times, or up to degree times without full_multiplicity.
    Coefficients include zeros of both signs.
    """
    p = draw(st.integers(min_degree, max_degree))
    a, b = draw(st.sampled_from(SPANS))
    cap = p + 1 if full_multiplicity else max(p, 1)
    steps = draw(st.lists(st.integers(1, 15), max_size=6, unique=True).map(sorted))
    knots = [a] * (p + 1)
    for k in steps:
        knots += [a + (b - a) * k / 16] * draw(st.integers(1, cap))
    knots += [b] * (p + 1)
    n = len(knots) - p - 1
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return make_spline(p, knots, coeffs)


def _points(s, fractions):
    """Every knot, both ends and points at the given fractions of the span."""
    a, b = s.knots.span
    inner = np.clip(a + (b - a) * np.array(fractions, dtype=float), a, b)
    return np.concatenate((s.knots.knots, [a, b], inner))


def _same_bytes(actual, expected):
    """Equal values and equal zero signs."""
    return actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


@st.composite
def degree_and_knots(draw):
    """A degree and nondecreasing knots on eighths, each run 1..p + 1 long.

    Ends below full multiplicity next to long runs leave empty intervals
    at both clamp bounds, p and n - 1; short vectors have no interval
    with full basis support.
    """
    p = draw(st.integers(0, 6))
    steps = draw(st.lists(st.integers(0, 8), min_size=1, max_size=7, unique=True))
    knots = []
    for k in sorted(steps):
        knots += [k / 8] * draw(st.integers(1, p + 1))
    return p, np.array(knots)


def _spans_or_message(spans):
    """The spans of a call, or the message of the ValueError it raised."""
    try:
        return spans()
    except ValueError as err:
        return str(err)


@settings(max_examples=600, deadline=None)
@given(degree_and_knots(), st.lists(st.floats(-0.125, 1.125), max_size=8))
# an empty interval at the lower clamp bound, at the upper one, and at
# both, where no interval with full basis support is nonempty
@example((2, np.array([0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0])), [])
@example((2, np.array([0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0])), [])
@example((2, np.array([0.0, 0.5, 0.5, 0.5, 1.0, 1.0])), [])
def test_find_span0_many_equals_clamped_scan(case, extra):
    """Spans and ValueError messages of the clip equal the scan's, point
    by point and for all points at once."""
    p, knots = case
    mids = (knots[:-1] + knots[1:]) / 2
    outside = [knots[0] - 0.0625, knots[-1] + 0.0625, np.nan]
    xs = np.concatenate((knots, mids, outside, extra))
    expected = [_spans_or_message(lambda: span0_clamped_scan(knots, p, x)) for x in xs]
    for x, want in zip(xs, expected):
        got = _spans_or_message(lambda: int(find_span0_many(knots, p, np.array([x]))[0]))
        assert got == want
    within = (xs >= knots[0]) & (xs <= knots[-1])
    inside = [want for want, w in zip(expected, within) if w]
    if not all(isinstance(want, int) for want in inside):
        # the errors past the range check do not depend on the point
        (inside,) = set(inside)
    outside_message = "evaluation point lies outside the knot span"
    for points, want in ((xs[within], inside), (xs, outside_message)):
        assert _spans_or_message(lambda: find_span0_many(knots, p, points).tolist()) == want


@settings(max_examples=300, deadline=None)
@given(
    open_splines(),
    st.lists(st.floats(0.0, 1.0), max_size=20),
    st.sampled_from(BLOCKS),
)
def test_evaluate_bytes_equal_per_anchor_loop(s, fractions, block):
    kv = s.knots
    p = kv.degree
    xs = _points(s, fractions)
    spans = find_span0_many(kv.knots, p, xs)
    fine = np.broadcast_to(xs[:, None], (xs.size, p))
    expected = refine_rows_by_anchor(kv.knots, s.coefficients, p, spans, fine)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK", block)
        values = evaluate(s, xs)
    assert _same_bytes(values, expected)


@settings(max_examples=300, deadline=None)
@given(
    open_splines(),
    st.lists(st.integers(0, 15), max_size=8, unique=True),
    st.sampled_from(BLOCKS),
)
def test_oslo_bytes_equal_per_anchor_loop(s, odd, block):
    kv = s.knots
    p = kv.degree
    a, b = kv.span
    # new knots on odd thirty-seconds, so none meets a coarse knot
    extra = [a + (b - a) * (2 * k + 1) / 32 for k in odd]
    fine = KnotVector(np.sort(np.concatenate((kv.knots, extra))), p)
    n = fine.dimension
    spans = find_span0_many(kv.knots, p, fine.knots[:n])
    windows = np.lib.stride_tricks.sliding_window_view(fine.knots[1 : n + p], p)
    expected = refine_rows_by_anchor(kv.knots, s.coefficients, p, spans, windows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK", block)
        refined = oslo_coefficients(p, kv, s.coefficients, fine)
    assert _same_bytes(refined, expected)


@settings(max_examples=300, deadline=None)
@given(
    open_splines(min_degree=1, full_multiplicity=False),
    st.lists(st.floats(0.0, 1.0), max_size=20),
)
# equal knots of -0.0 leave -0.0 entries unless the first entry of each
# triangle row is added to 0.0, as the scalar recursion does
@example(make_spline(5, [-0.7] * 6 + [-0.0] * 6, np.ones(6)), [])
def test_collocation_bands_bytes_equal_scalar_triangle(s, fractions):
    kv = s.knots
    p = kv.degree
    xs = _points(s, fractions)
    spans = find_span0_many(kv.knots, p, xs)
    rows = nonzero_basis_rows(kv.knots, p, spans, xs)
    assert _same_bytes(rows, basis_triangle_rows(kv.knots, p, spans, xs))
    greville = greville_abscissae(kv)
    matrix = collocation_matrix(kv, greville)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collocation_module, "nonzero_basis_rows", basis_triangle_rows)
        expected = collocation_matrix(kv, greville)
    assert _same_bytes(matrix.bands, expected.bands)


@settings(max_examples=300, deadline=None)
@given(
    open_splines(max_degree=8),
    st.lists(st.floats(0.0, 1.0), max_size=20),
    st.integers(0, 2**32 - 1),
)
def test_kernel_many_and_evaluate_bytes_equal_row_reference(s, fractions, seed):
    """kernel_many with one window per row and with one shared window, and
    evaluate, give the row-major reference's bits."""
    rng = np.random.default_rng(seed)
    kv = s.knots
    p = kv.degree
    coeffs = s.coefficients.copy()
    coeffs[rng.random(coeffs.size) < 0.3] = -0.0
    s = make_spline(p, kv.knots, coeffs)
    xs = _points(s, fractions)
    spans = find_span0_many(kv.knots, p, xs)[:, None]
    tau = kv.knots[spans + np.arange(1 - p, p + 1)]
    c = coeffs[spans + np.arange(-p, 1)]
    # fine knots drawn from each row's knot window and its point, so
    # many sit on the window ends
    candidates = np.concatenate((tau, xs[:, None]), axis=1)
    picks = rng.integers(0, 2 * p + 1, (xs.size, p))
    fine = np.sort(np.take_along_axis(candidates, picks, axis=1), axis=1)
    assert _same_bytes(kernel_many(tau, c, fine), kernel_rows_reference(tau, c, fine))
    r = int(rng.integers(xs.size))
    shared = np.sort(candidates[r][picks], axis=1)
    assert _same_bytes(
        kernel_many(tau[r], c[r], shared), kernel_rows_reference(tau[r], c[r], shared)
    )
    points = np.repeat(xs[:, None], p, axis=1)
    assert _same_bytes(evaluate(s, xs), kernel_rows_reference(tau, c, points))


@st.composite
def splines_on_shared_span(draw):
    """1-5 splines on 1-3 knot vectors of degree 0-8 that share one span
    holding a zero, in an interleaved order.

    Each end repeats 1..p + 1 times, so some vectors are not open, and
    interior knots on eighths repeat up to p + 1 times.  A zero end takes
    either sign; coefficients include zeros of both signs, and sparse
    vectors, as of the Galerkin factors, hold runs of 0.0 or -0.0 at
    both ends and inside.
    """
    a, b = draw(st.sampled_from(ZERO_SPANS))
    a, b = (draw(st.sampled_from((v, -v))) if v == 0 else v for v in (a, b))
    kvs = []
    for _ in range(draw(st.integers(1, 3))):
        p = draw(st.integers(0, 8))
        steps = draw(st.lists(st.integers(1, 7), max_size=5, unique=True).map(sorted))
        inner = []
        for k in steps:
            inner += [a + (b - a) * k / 8] * draw(st.integers(1, p + 1))
        left, right = (draw(st.integers(1, p + 1)) for _ in range(2))
        # at least p + 2 knots
        left = max(left, p + 2 - len(inner) - right)
        kvs.append(KnotVector([a] * left + inner + [b] * right, p))
    coefficient = st.one_of(st.floats(-1.0, 1.0), st.just(-0.0), st.just(0.0))
    splines = []
    for _ in range(draw(st.integers(1, 5))):
        kv = kvs[draw(st.integers(0, len(kvs) - 1))]
        n = kv.dimension
        coeffs = draw(st.lists(coefficient, min_size=n, max_size=n))
        if draw(st.booleans()):
            inside = draw(st.integers(0, n))
            runs = (
                (0, draw(st.integers(0, n))),
                (draw(st.integers(0, n)), n),
                (inside, draw(st.integers(inside, n))),
            )
            for lo, hi in runs:
                coeffs[lo:hi] = [draw(st.sampled_from((0.0, -0.0)))] * (hi - lo)
        splines.append(make_spline(kv.degree, kv.knots, coeffs))
    # every knot, both ends and zeros of both signs, or points between
    candidates = [x for kv in kvs for x in kv.knots] + [a, b, 0.0, -0.0]
    point = st.one_of(st.sampled_from(candidates), st.floats(a, b))
    return splines, np.array(draw(st.lists(point, max_size=30)), dtype=float)


@settings(max_examples=300, deadline=None)
@given(splines_on_shared_span(), st.sampled_from((1, 2, core._PASS)))
def test_evaluate_many_bytes_equal_evaluate_spline_by_spline(case, size):
    """One pass per knot vector gives every spline the bytes of its own
    evaluate call, whichever spline consumes the factors in place and
    however many splines share them (a _PASS of 1 takes one at a time),
    and evaluate those of the per-anchor loop."""
    splines, xs = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_PASS", size)
        values = core._evaluate_many(splines, xs)
    assert values.shape == (len(splines), xs.size)
    for s, row in zip(splines, values):
        expected = evaluate(s, xs)
        assert _same_bytes(row, expected)
        assert _same_bytes(expected, _by_anchor(s, xs))


def test_refine_rows_one_kernel_call_per_block(monkeypatch):
    """oslo_coefficients runs one stage pass per block of rows; evaluate
    keeps one layout per (knots, degree, points) in blocks of that size."""
    calls = []
    stage_pass = oslo_module.stage_pass

    def counted(tau, v, t):
        calls.append(v.shape[1])
        return stage_pass(tau, v, t)

    monkeypatch.setattr(oslo_module, "stage_pass", counted)
    rng = np.random.default_rng(3)
    s = random_spline_on(rng, uniform_open_knots(3, 1000))
    xs = np.linspace(0.0, 1.0, 4001)
    fine = uniform_open_knots(3, 1999)
    oslo_coefficients(3, s.knots, s.coefficients, fine)
    assert calls == [fine.dimension]
    # a degree-3 row or point gathers 3p + 1 = 10 doubles of windows
    monkeypatch.setattr(core, "_BLOCK", 1000)
    calls.clear()
    oslo_coefficients(3, s.knots, s.coefficients, fine)
    assert calls == [100] * (fine.dimension // 100) + [fine.dimension % 100]
    core._evaluation_layout.cache_clear()
    evaluate(s, xs)
    evaluate(random_spline_on(rng, s.knots), xs.copy())
    info = core._evaluation_layout.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    layout = core._evaluation_layout(s.knots.knots.tobytes(), 3, xs.tobytes())
    assert [cols.shape[1] for _, cols, _, _ in layout] == [100] * 40 + [1]
    assert all(tau.shape == (6, cols.shape[1]) for _, cols, tau, _ in layout)


def _by_anchor(s, x):
    """evaluate's value of s at x from the per-anchor refine loop."""
    s = make_open(s)
    kv = s.knots
    p = kv.degree
    flat = np.ravel(np.asarray(x, dtype=float))
    spans = find_span0_many(kv.knots, p, flat)
    fine = np.broadcast_to(flat[:, None], (flat.size, p))
    values = refine_rows_by_anchor(kv.knots, s.coefficients, p, spans, fine)
    return values.reshape(np.shape(x))


def test_evaluate_on_kept_layouts_bytes_equal_per_anchor_loop():
    """Calls that run only the stage passes give the loop's bytes."""
    rng = np.random.default_rng(17)
    core._evaluation_layout.cache_clear()
    # kept layout, new coefficients with zeros of both signs
    kv = KnotVector(np.array([-0.7] * 5 + [-0.35] * 2 + [-0.0] * 5), 4)
    xs = np.concatenate((kv.knots, np.linspace(-0.7, -0.0, 33)))
    for coeffs in (rng.uniform(-1, 1, 7), [-0.0, 0.0, -0.0, 1.0, -0.0, 0.0, -0.0],
                   [1.0, -0.0, 0.5, -0.0, -0.0, 2.0, -0.0]):
        s = make_spline(4, kv.knots, coeffs)
        assert _same_bytes(evaluate(s, xs), _by_anchor(s, xs))
    assert core._evaluation_layout.cache_info().misses == 1
    # points that differ only in the sign of zero: hi - x at the knot
    # -0.0 is +0.0 for x = -0.0 and -0.0 for x = +0.0
    s = make_spline(1, [-0.7, -0.7, -0.0, -0.0], [1.0, -0.0])
    for x in (np.array([0.0]), np.array([-0.0]), np.array([0.0])):
        assert _same_bytes(evaluate(s, x), _by_anchor(s, x))
    assert evaluate(s, np.array([0.0])).tobytes() != evaluate(s, np.array([-0.0])).tobytes()
    # non-open knots, a scalar point and 2-D points, each twice
    s = make_spline(3, [0.0, 0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0, 1.0], rng.uniform(-1, 1, 5))
    grid = np.linspace(0.1, 0.9, 12).reshape(3, 4)
    for _ in range(2):
        assert _same_bytes(evaluate(s, grid), _by_anchor(s, grid))
        value = evaluate(s, 0.3)
        assert isinstance(value, float)
        assert _same_bytes(np.array(value), _by_anchor(s, 0.3))


def test_evaluate_bytes_equal_per_anchor_loop_across_evictions():
    """Four keys interleaved evict kept layouts; every call stays exact."""
    rng = np.random.default_rng(23)
    core._evaluation_layout.cache_clear()
    knots = (uniform_open_knots(2, 6), uniform_open_knots(5, 4, 2, -1.0, 0.0))
    keys = [(kv, np.linspace(*kv.span, n)) for kv in knots for n in (40, 41)]
    for i in (0, 1, 2, 0, 3, 1, 0, 2, 3, 3, 1):
        kv, xs = keys[i]
        c = rng.uniform(-1, 1, kv.dimension)
        c[rng.random(kv.dimension) < 0.3] = -0.0
        s = make_spline(kv.degree, kv.knots, c)
        assert _same_bytes(evaluate(s, xs), _by_anchor(s, xs))
    info = core._evaluation_layout.cache_info()
    # least recently used first out of core._LAYOUTS = 3 entries
    assert (info.misses, info.hits, info.currsize) == (8, 3, 3)


@st.composite
def open_knot_pairs(draw):
    """Two open knot vectors on one span, each zero knot of either sign.

    Interior knots sit on eighths of the span, so the factors share some
    breakpoints and hold others alone; runs repeat up to degree + 1 times.
    """
    a, b = draw(st.sampled_from(ZERO_SPANS))
    pair = []
    for _ in range(2):
        p = draw(st.integers(1, 8))
        steps = draw(st.lists(st.integers(1, 7), max_size=5, unique=True).map(sorted))
        values = [a] * (p + 1)
        for k in steps:
            values += [a + (b - a) * k / 8] * draw(st.integers(1, p + 1))
        values += [b] * (p + 1)
        knots = [-0.0 if v == 0.0 and draw(st.booleans()) else v for v in values]
        pair.append(KnotVector(np.array(knots), p))
    return tuple(pair)


@settings(max_examples=500, deadline=None)
@given(open_knot_pairs())
@example((KnotVector(np.array([-0.7, -0.7, -0.0, -0.0]), 1),
          KnotVector(np.array([-0.7, -0.7, -0.7, 0.0, 0.0, 0.0]), 2)))
@example((KnotVector(np.array([-1.0, -1.0, -0.0, 1.0, 1.0]), 1),
          KnotVector(np.array([-1.0, -1.0, 0.0, 0.0, 1.0, 1.0]), 1)))
def test_product_knot_vector_bytes_equal_merge_loop(pair):
    for kv1, kv2 in (pair, pair[::-1]):
        t = product_knot_vector(kv1, kv2)
        expected = merged_product_knots(kv1, kv2)
        assert t.degree == expected.degree
        assert _same_bytes(t.knots, expected.knots)


@settings(max_examples=300, deadline=None)
@given(open_knot_pairs())
@example((KnotVector(np.array([0.0, 0.0, 0.5, 1.0, 1.0]), 1),
          KnotVector(np.array([0.0, 0.0, 0.25, 1.0, 1.0]), 1)))
@example((KnotVector(np.array([-1.0] * 4 + [0.0] * 4 + [1.0] * 4), 3),
          KnotVector(np.array([-1.0, -1.0, -0.0, -0.0, 0.5, 1.0, 1.0]), 1)))
def test_window_groups_equal_per_row_recount(pair):
    """_window_groups splits the product rows into the groups of a row by
    row recount, the run lengths of each row's window from np.unique, and
    each group's weights are the weights array of the _profiles entry of
    its run lengths, with either factor first.  The examples are p = 2
    (degrees 1 + 1) and a product of degrees 3 + 1 whose
    full-multiplicity interior knot holds whole windows in one run."""
    for kv1, kv2 in (pair, pair[::-1]):
        t = product_knot_vector(kv1, kv2)
        p, p1 = t.degree, kv1.degree
        weights, group = product_module._window_groups(t, p1)
        assert group.shape == (t.dimension,)
        rows_of = {}
        for i in range(t.dimension):
            _, counts = np.unique(t.knots[i + 1 : i + p + 1], return_counts=True)
            mults = tuple(int(c) for c in counts)
            rows_of.setdefault(mults, []).append(i)
            assert weights[group[i]] is product_module._profiles(mults, p1)[1]
        assert (p,) in rows_of
        groups = [np.flatnonzero(group == k).tolist() for k in range(len(weights))]
        assert sorted(groups) == sorted(rows_of.values())


def test_profile_cache_is_bounded_and_read_only():
    """The _profiles cache keeps at most 1024 entries after more distinct
    keys than that, and both arrays of an entry are read-only."""
    for n in range(1, 1101):
        product_module._profiles((n,), 1)
    assert product_module._profiles.cache_info().currsize <= 1024
    profiles, weights = product_module._profiles((2, 1, 3), 3)
    for array in (profiles, weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


@pytest.mark.parametrize(
    "family, param", [("spline_spline", 7), ("spline_poly", 50), ("mesh_refine", 10)]
)
def test_factors_of_all_stages_equal_one_call_per_stage(family, param):
    """_factors computes every stage's factors at once and yields stage d
    = q, .., 1 as C-contiguous (pairs, d) arrays, bytes equal to a
    _stage_factors call on that stage alone, on both sides of a square
    product (spline_spline 7), a non-square one (spline_poly 50) and
    one of thousands of knot pairs (mesh_refine 10), row seed 12345."""
    case = build_family_case(family, param, SplitMix64(12345))
    f, g, t = product_module._prepared_factors(case.f, case.gs[0], None)
    runs = product_module._runs(t.knots)
    for s in (f, g):
        q = s.degree
        spans = find_span0_many(s.knots.knots, q, t.knots[: t.dimension])
        pairs = product_module._pairs(spans, t.knots, runs)
        kw, _ = core._window_indices(q, pairs.pair_spans)
        tau, values = s.knots.knots[kw], pairs.pair_values[:, None]
        stages = list(product_module._factors(s, pairs.pair_spans, pairs.pair_values))
        assert len(stages) == q
        for d, factors in zip(range(q, 0, -1), stages):
            for got, expected in zip(factors, _stage_factors(tau, d, q, values)):
                assert got.shape == (pairs.pair_spans.size, d)
                assert got.flags.c_contiguous
                assert got.tobytes() == expected.tobytes()
    if family == "mesh_refine":
        assert pairs.pair_spans.size > 1000


def _row_ranges(layout):
    """Each row range of a layout as (a, b, pieces, sides): its rows a ..
    b - 1, its blocks' (weights, rows) pieces and its f and g sides.  The
    ranges cover the product's rows in order, and each side holds one
    leaf array per block."""
    out = []
    a = 0
    for pieces, *sides in layout.ranges:
        rows = np.sort(np.concatenate([rows for block in pieces for _, rows in block]))
        b = a + rows.size
        assert np.array_equal(rows, np.arange(a, b))
        assert all(len(side.leaves) == len(pieces) for side in sides)
        out.append((a, b, pieces, sides))
        a = b
    assert a == layout.counts.size
    return out


def _assert_product_equals_recounts(f, g, block):
    """Under _BLOCK = block, every row range of the product of f and g
    holds, side by side and stage by stage, the nodes of the plain-set
    recount over its rows, within _BLOCK doubles unless the range is one
    row, and a first call and a hit give the per-row loop's coefficient
    bytes and counts.  The layout is kept exactly when the product is
    one range.  Returns the ranges' first rows after the first."""
    b, counts = improved_product_rows(f, g)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(product_module, "_BLOCK", block)
        mp.setattr(product_module, "_kept", None)
        f2, g2, t = product_module._prepared_factors(f, g, None)
        layout, keep = product_module._layout(f2, g2, t)
        ranges = _row_ranges(layout)
        assert keep == (len(ranges) == 1)
        for lo, hi, _, sides in ranges:
            for side, nodes in zip(sides, stage_node_counts(f, g, range(lo, hi))):
                sizes = [stage[0].size for stage in side.stages]
                assert sizes == nodes
                q = len(sizes)
                if hi - lo > 1:
                    assert all(n * (q - j + 1) <= block for j, n in enumerate(sizes))
        for _ in range(2):
            result = improved_morken_product(f, g)
            assert _same_bytes(result.product.coefficients, b)
            assert np.array_equal(result.distinct_term_counts, counts)
            assert (product_module._kept is not None) == keep
    return [lo for lo, _, _, _ in ranges[1:]]


def _cuts_a_run(t, p, cuts):
    """Whether a range boundary cuts a run of equal product knots: the
    knot slice of the range from row a starts inside a run, or that of
    the range before it ends inside one."""
    knots = t.knots
    return any(knots[a - 1] == knots[a] or knots[a + p] == knots[a + p + 1] for a in cuts)


@settings(max_examples=200, deadline=None)
@given(
    open_knot_pairs(),
    st.integers(0, 2**32 - 1),
    st.sampled_from(BLOCKS),
    st.just(False),
)
@example(
    (KnotVector(np.array([0.0] * 9 + [0.5] * 3 + [1.0] * 9), 8),
     KnotVector(np.array([0.0] * 4 + [0.125] * 2 + [0.875] * 3 + [1.0] * 4), 3)),
    7,
    64,
    True,
)
def test_merged_sides_equal_node_recount_and_per_row_loop(pair, seed, block, cuts_run):
    """The stage nodes that _merged builds from the runs of the product
    knots are the distinct (anchor span, sorted top knot values) of the
    profiles of each row range's rows, and the product's bytes, zero
    signs included, are the per-row loop's however its rows are cut into
    ranges.  The explicit example (cuts_run) is cut into several ranges
    of more than one row, at a boundary inside a run of equal knots."""
    rng = np.random.default_rng(seed)
    factors = []
    for kv in pair:
        coeffs = rng.uniform(-1.0, 1.0, kv.dimension)
        coeffs[rng.random(kv.dimension) < 0.3] = -0.0
        factors.append(Spline(kv, coeffs))
    cuts = _assert_product_equals_recounts(*factors, block)
    if cuts_run:
        t = product_knot_vector(*pair)
        assert len(cuts) >= 2 and _cuts_a_run(t, t.degree, cuts)
        assert all(b - a > 1 for a, b in zip([0] + cuts, cuts + [t.dimension]))


def test_merged_sides_of_mesh_refine_highdeg_4_check_run_lengths():
    """mesh_refine_highdeg 4 (row seed 12345) has windows where one more
    copy of a value would be feasible by the row bounds alone but passes
    the length of the value's run in the product knots.  The product is
    one range, so such a node would show in the counts."""
    case = build_family_case("mesh_refine_highdeg", 4, SplitMix64(12345))
    assert _assert_product_equals_recounts(case.f, case.gs[0], 1 << 16) == []


@settings(max_examples=60, deadline=None)
@given(open_knot_pairs(), st.data())
def test_merged_rows_below_end_are_the_whole_merge_pruned(pair, data):
    """_merged over rows 0 .. end - 1 alone, of a product that the default
    _BLOCK does not cut, narrows each stage to the nodes that _prune keeps
    of the whole merge: every stage's (parent, at, lo) and the last lo and
    hi are equal, dtypes included."""
    t = product_knot_vector(*pair)
    m = t.dimension
    end = data.draw(st.integers(1, m - 1))
    runs = product_module._runs(t.knots)
    for kv in pair:
        spans = find_span0_many(kv.knots, kv.degree, t.knots[:m])
        pairs = product_module._pairs(spans, t.knots, runs)
        whole_end, whole = product_module._merged(kv.degree, runs, pairs, m)
        assume(whole_end == m)
        cut_end, (stages, lo, hi) = product_module._merged(kv.degree, runs, pairs, end)
        pruned, lo_pruned, hi_pruned = product_module._prune(whole, end)
        assert cut_end == end and len(stages) == len(pruned) == kv.degree
        actual = [a for stage in stages for a in stage] + [lo, hi]
        expected = [a for stage in pruned for a in stage] + [lo_pruned, hi_pruned]
        for a, b in zip(actual, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("level", [6, 10])
def test_every_range_of_mesh_refine_highdeg_stays_within_the_stage_bound(level):
    """mesh_refine_highdeg from level 6 (row seed 12345) would pass _BLOCK
    doubles in one stage if merged whole: its rows are cut into ranges,
    every range but a one-row one holds at most _BLOCK doubles per stage
    on each side, and the layout is not kept."""
    case = build_family_case("mesh_refine_highdeg", level, SplitMix64(12345))
    f, g, t = product_module._prepared_factors(case.f, case.gs[0], None)
    layout, keep = product_module._layout(f, g, t)
    assert not keep and not isinstance(layout.ranges, tuple)
    ranges = _row_ranges(layout)
    assert len(ranges) >= 2
    for a, b, _, sides in ranges:
        if b - a > 1:
            for side in sides:
                q = len(side.stages)
                doubles = [stage[0].size * (q - j + 1) for j, stage in enumerate(side.stages)]
                assert max(doubles) <= product_module._BLOCK


def _grouped_oracle(f, g):
    """The per-piece oracle (piece_reduction) of the product of open f and
    g, divided by C(p, p1), on a new layout's own kernel values.  Checks
    the layout's groups on the way: each block's groups have distinct
    profile counts T, every row is in one group, and each group's weight
    row of a row is the plan of its window group.  Returns the oracle's
    coefficients and whether some group merges several pieces."""
    f, g, t = product_module._prepared_factors(f, g, None)
    m = t.dimension
    plans, group = product_module._window_groups(t, f.degree)
    layout, _ = product_module._layout(f, g, t)
    values_f, values_g = [None] * m, [None] * m
    blocks, merges = [], False
    a = 0
    for pieces, side_f, side_g in layout.ranges:
        lasts = [
            product_module._side_values(s.coefficients, side)
            for s, side in ((f, side_f), (g, side_g))
        ]
        for k, block in enumerate(pieces):
            counts = [weights.shape[-1] for weights, _ in block]
            assert len(set(counts)) == len(counts)
            leaf_f, leaf_g = (last[side.leaves[k]] for last, side in zip(lasts, (side_f, side_g)))
            lo = 0
            for weights, rows in block:
                merges |= weights.ndim == 2
                assert weights.ndim == 1 or weights.shape[0] == rows.size
                for i, row in enumerate(rows):
                    plan = plans[group[row]]
                    assert _same_bytes(weights if weights.ndim == 1 else weights[i], plan)
                    assert values_f[row] is None
                    hi = lo + plan.size
                    values_f[row], values_g[row] = leaf_f[lo:hi], leaf_g[lo:hi]
                    lo = hi
            assert lo == leaf_f.size == leaf_g.size
        b = a + sum(rows.size for block in pieces for _, rows in block)
        blocks += product_module._row_blocks(plans, group, a, b)
        a = b
    assert a == m and all(v is not None for v in values_f)
    b = piece_reduction(blocks, values_f, values_g, m)
    return b / layout.divisor, merges


@settings(max_examples=120, deadline=None)
@given(
    open_knot_pairs(),
    st.integers(0, 2**32 - 1),
    st.sampled_from((64, product_module._BLOCK)),
    st.just(False),
)
@example(
    (KnotVector(np.array([0.0] * 4 + [0.25] * 2 + [0.5] * 2 + [1.0] * 4), 3),
     KnotVector(np.array([0.0] * 3 + [0.25, 0.5, 0.75] + [1.0] * 3), 2)),
    3,
    64,
    True,
)
@example(
    (KnotVector(np.array([0.0] * 4 + [0.25] * 2 + [0.5] * 2 + [1.0] * 4), 3),
     KnotVector(np.array([0.0] * 3 + [0.25, 0.5, 0.75] + [1.0] * 3), 2)),
    3,
    product_module._BLOCK,
    True,
)
def test_grouped_reduction_equals_the_per_piece_oracle(pair, seed, block, merges):
    """Each block's pieces are reduced in groups of one profile count T,
    with one stacked matmul per group, and f's weighted values are kept
    for hits.  A first call, a hit reusing f's weighted values and a hit
    with new g give the per-piece oracle's bytes, zero signs included,
    under _BLOCK = 64 and the default.  The explicit examples (merges)
    hold a block where two plans of one T share a group."""
    rng = np.random.default_rng(seed)
    factors = []
    for kv in (pair[0], pair[1], pair[1]):
        coeffs = rng.uniform(-1.0, 1.0, kv.dimension)
        coeffs[rng.random(kv.dimension) < 0.3] = -0.0
        factors.append(Spline(kv, coeffs))
    f, g, h = factors
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(product_module, "_BLOCK", block)
        mp.setattr(product_module, "_kept", None)
        for first, second in ((f, g), (f, g), (f, h)):
            expected, merged = _grouped_oracle(first, second)
            result = improved_morken_product(first, second)
            assert _same_bytes(result.product.coefficients, expected)
    if merges:
        assert merged


def _assert_rows_bytes(f, g):
    """One call's coefficients and counts are the per-row loop's."""
    result = improved_morken_product(f, g)
    b, counts = improved_product_rows(f, g)
    assert _same_bytes(result.product.coefficients, b)
    assert np.array_equal(result.distinct_term_counts, counts)


@settings(max_examples=200, deadline=None)
@given(open_knot_pairs(), st.data())
def test_square_products_read_one_merged_side(pair, data):
    """f and g on one knot vector and degree, a square product, read one
    merged side: both sides of the kept layout hold the same stage
    arrays, and a first call and hits, with f's kernel values reused or
    refined anew, give the per-row loop's bytes, zero signs included."""
    kv = pair[0]
    n = kv.dimension
    values = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1.0, 1.0))
    f, g, h = (
        Spline(kv, np.array(data.draw(st.lists(values, min_size=n, max_size=n))))
        for _ in range(3)
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(product_module, "_kept", None)
        _assert_rows_bytes(f, g)
        layout = product_module._kept.layout
        ((_, side_f, side_g),) = layout.ranges
        assert side_f.cols is side_g.cols and side_f.stages is side_g.stages
        for first, second in ((f, h), (g, f)):
            _assert_rows_bytes(first, second)
            assert product_module._kept.layout is layout


def test_square_pair_split_by_a_zero_sign_reads_two_sides():
    """Knots that differ only in the sign of a zero knot are equal values
    but give stage factors of other bits, so such f and g do not share a
    side; a first call and a hit give the per-row loop's bytes.  With
    g's -0.0 coefficient, g's stages on f's factors would give a product
    coefficient of the other zero sign."""
    knots = np.array([-1.0, -1.0, -1.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0])
    kv_f = KnotVector(knots, 2)
    kv_g = KnotVector(np.where(knots == 0.0, -0.0, knots), 2)
    assert kv_f == kv_g
    f = Spline(kv_f, np.array([1.0, -1.0, 0.5, -1.0, -1.0, 1.0]))
    g = Spline(kv_g, np.array([1.0, 0.5, -0.0, 0.5, -1.0, 0.0]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(product_module, "_kept", None)
        for _ in range(2):
            _assert_rows_bytes(f, g)
        ((_, side_f, side_g),) = product_module._kept.layout.ranges
    assert side_f.stages is not side_g.stages
    assert any(
        a[2].tobytes() != b[2].tobytes() for a, b in zip(side_f.stages, side_g.stages)
    )


def test_square_product_past_the_stage_bound_streams_one_side_per_range():
    """Under _BLOCK = 128, spline_spline 7 is cut into 2 row ranges, each
    merged on its own, and each range's f and g sides read the same
    stages.  On equal coefficients every row's g values are its f values
    reversed, since g's profiles are f's in reverse plan order; calls are
    not kept and give the per-row loop's bytes."""
    case = build_family_case("spline_spline", 7, SplitMix64(12345))
    f, g = case.f, case.gs[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(product_module, "_BLOCK", 128)
        mp.setattr(product_module, "_kept", None)
        f2, g2, t = product_module._prepared_factors(f, g, None)
        layout, keep = product_module._layout(f2, g2, t)
        ranges = _row_ranges(layout)
        assert not keep and len(ranges) == 2
        for _, _, pieces, (side_f, side_g) in ranges:
            assert side_f.stages is side_g.stages
            values = []
            for side in (side_f, side_g):
                last = product_module._side_values(f2.coefficients, side)
                values.append([last[leaf] for leaf in side.leaves])
            for block, bf, bg in zip(pieces, *values):
                lo = 0
                for weights, piece in block:
                    hi = lo + piece.size * weights.shape[-1]
                    rows_f = bf[lo:hi].reshape(piece.size, -1)
                    assert _same_bytes(bg[lo:hi].reshape(piece.size, -1), rows_f[:, ::-1])
                    lo = hi
        for _ in range(2):
            _assert_rows_bytes(f, g)
            assert product_module._kept is None


def test_product_knot_vector_bytes_equal_merge_loop_on_families():
    """Every family at its largest parameter, every second factor."""
    for family, params in FAMILY_PARAMETERS.items():
        case = build_family_case(family, params[-1], SplitMix64(5))
        for g in case.gs:
            t = product_knot_vector(case.f.knots, g.knots)
            assert _same_bytes(t.knots, merged_product_knots(case.f.knots, g.knots).knots)
