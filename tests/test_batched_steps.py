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
from splineprod import (
    KnotVector,
    collocation_matrix,
    evaluate,
    greville_abscissae,
    make_open,
    make_spline,
    oslo_coefficients,
    product_knot_vector,
    uniform_open_knots,
)
from splineprod._kernels import find_span0_many, kernel_many, nonzero_basis_rows
from splineprod.bench import FAMILY_PARAMETERS, SplitMix64, build_family_case
from helpers import (
    basis_triangle_rows,
    kernel_rows_reference,
    merged_product_knots,
    random_spline_on,
    refine_rows_by_anchor,
    span0_clamped_scan,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

# spans with a -0.0 end and spans whose equal knots average off their value
SPANS = ((0.0, 1.0), (-0.7, -0.0), (-3.0, -1.7), (-1.0, 1.0))
# _BLOCK values that give one row per block, a few rows, and one block
BLOCKS = (1, 64, 1 << 16)
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
    either sign; coefficients include zeros of both signs.
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


def test_product_knot_vector_bytes_equal_merge_loop_on_families():
    """Every family at its largest parameter, every second factor."""
    for family, params in FAMILY_PARAMETERS.items():
        case = build_family_case(family, params[-1], SplitMix64(5))
        for g in case.gs:
            t = product_knot_vector(case.f.knots, g.knots)
            assert _same_bytes(t.knots, merged_product_knots(case.f.knots, g.knots).knots)
