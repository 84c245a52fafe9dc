"""Knot-vector algebra, evaluation, Greville points, product knots."""

import numpy as np
import numpy.testing as npt
import pytest

from splineprod import (
    BandedMatrix,
    BreakpointRun,
    InsertionMatrix,
    KnotVector,
    LocalWindow,
    ProductResult,
    Spline,
    bernstein_knots,
    evaluate,
    find_span,
    greville_abscissae,
    make_open,
    make_spline,
    multiplicity,
    product_knot_vector,
    uniform_open_knots,
)
from helpers import basis_value, eval_oracle, random_open_kv, random_spline_on, span_scan


# ---------- KnotVector construction ----------


def test_knot_vector_validation():
    with pytest.raises(ValueError, match="nondecreasing"):
        KnotVector(np.array([0.0, 1.0, 0.5, 2.0]), 1)
    with pytest.raises(ValueError, match="multiplicity"):
        KnotVector(np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0]), 1)
    with pytest.raises(ValueError, match="at least degree"):
        KnotVector(np.array([0.0, 1.0, 2.0]), 2)
    with pytest.raises(ValueError, match="degree"):
        KnotVector(np.array([0.0, 0.0, 1.0, 1.0]), -1)
    with pytest.raises(ValueError, match="degree"):
        KnotVector(np.array([0.0, 0.0, 1.0, 1.0]), True)
    with pytest.raises(ValueError, match="finite"):
        KnotVector(np.array([0.0, 0.0, np.nan, 1.0, 1.0]), 1)


def test_knot_vector_properties():
    kv = uniform_open_knots(3, 5)
    assert kv.degree == 3
    assert kv.dimension == 7
    assert kv.span == (0.0, 1.0)
    assert kv.is_open
    runs = kv.breakpoints()
    npt.assert_allclose([r.value for r in runs], [0.0, 0.25, 0.5, 0.75, 1.0])
    assert [r.multiplicity for r in runs] == [4, 1, 1, 1, 4]
    # stored knots are frozen
    with pytest.raises(ValueError):
        kv.knots[0] = 5.0


def test_spline_validation():
    kv = bernstein_knots(2)
    with pytest.raises(ValueError, match="coefficient count"):
        Spline(kv, np.array([1.0, 0.0]))
    s = Spline(kv, np.array([1.0, 0.0, 0.0]))
    assert s.degree == 2


def _knots(v, p):
    return KnotVector(np.repeat(v, [p + 1, 1, p + 1]), p)


def _spline(v, p):
    kv = uniform_open_knots(p, 3)
    return Spline(kv, np.resize(v, kv.dimension))


# (builder from three nondecreasing values and a degree, equal by value)
DATACLASSES = {
    "BreakpointRun": (lambda v, p: BreakpointRun(v[0], p), True),
    "KnotVector": (_knots, True),
    "Spline": (_spline, True),
    "ProductResult": (
        lambda v, p: ProductResult(_spline(v, p), 4, v > 0, np.float64(0.5)),
        True,
    ),
    "BandedMatrix": (
        lambda v, p: BandedMatrix(3, p, p, np.resize(v, (3 * p + 1, 3))),
        False,
    ),
    "LocalWindow": (
        lambda v, p: LocalWindow(np.linspace(0, 1, 2 * p), np.resize(v, p + 1), [0.5] * p),
        False,
    ),
    "InsertionMatrix": (
        lambda v, p: InsertionMatrix(p, p + 1, np.resize(v, p), np.resize(v[::-1], p)),
        False,
    ),
}


@pytest.mark.parametrize("name", DATACLASSES)
def test_public_dataclasses_compare_to_a_bool(name):
    """== gives a bool, by value or by identity; hash agrees with == or
    raises a TypeError that names the class."""
    make, by_value = DATACLASSES[name]
    zero, neg_zero, other = np.array([[0.0, 0.5, 1.0], [-0.0, 0.5, 1.0], [0.25, 0.5, 1.0]])
    a = make(zero, 1)
    assert (a == a) is True
    assert (a == make(zero.copy(), 1)) is by_value
    assert (a == make(neg_zero, 1)) is by_value
    assert (a == make(other, 1)) is False
    assert (a == make(zero, 2)) is False
    assert (a != make(other, 1)) is True
    assert (a == name) is False
    try:
        hash(a)
    except TypeError as err:
        assert name in str(err)
    else:
        for twin in (make(zero.copy(), 1), make(neg_zero, 1)):
            assert hash(a) == hash(twin) if by_value else hash(a) != hash(twin)


# ---------- make_open ----------


def test_make_open_pads_linear():
    s = make_spline(1, [0.0, 1.0, 2.0], [7.0])
    opened = make_open(s)
    npt.assert_array_equal(opened.knots.knots, [0.0, 0.0, 1.0, 2.0, 2.0])
    npt.assert_array_equal(opened.coefficients, [0.0, 7.0, 0.0])


def test_make_open_identity_on_open_input():
    s = make_spline(2, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    opened = make_open(s)
    npt.assert_array_equal(opened.knots.knots, s.knots.knots)
    npt.assert_array_equal(opened.coefficients, s.coefficients)


def test_make_open_preserves_values_on_original_span():
    s = make_spline(2, [0.0, 0.0, 1.0, 1.0], [3.0])
    opened = make_open(s)
    npt.assert_array_equal(opened.knots.knots, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    npt.assert_array_equal(opened.coefficients, [0.0, 3.0, 0.0])
    grid = np.linspace(0.0, 1.0, 11)
    npt.assert_allclose(evaluate(opened, grid), evaluate(s, grid), atol=1e-15)


def test_make_open_idempotent_and_value_preserving():
    rng = np.random.default_rng(2901)
    for _ in range(20):
        p = int(rng.integers(1, 5))
        count = int(rng.integers(p + 2, p + 8))
        knots = np.sort(rng.uniform(0.0, 1.0, size=count))
        # keep multiplicities legal for the degree
        kv_ok = True
        for v in np.unique(knots):
            if np.sum(knots == v) > p + 1:
                kv_ok = False
        if not kv_ok or knots[0] == knots[-1]:
            continue
        s = make_spline(p, knots, rng.uniform(-1, 1, size=count - p - 1))
        opened = make_open(s)
        again = make_open(opened)
        npt.assert_array_equal(again.knots.knots, opened.knots.knots)
        npt.assert_array_equal(again.coefficients, opened.coefficients)
        lo, hi = s.knots.span
        grid = np.linspace(lo, hi, 201)
        npt.assert_allclose(
            evaluate(opened, grid), evaluate(s, grid), atol=1e-14, rtol=0.0
        )


# ---------- find_span ----------


def test_find_span_interval_membership():
    kv = uniform_open_knots(3, 5)
    k = find_span(kv, 0.3)
    assert kv.knots[k - 1] <= 0.3 < kv.knots[k]
    assert kv.knots[k - 1] == 0.25 and kv.knots[k] == 0.5


def test_find_span_right_endpoint():
    kv = uniform_open_knots(3, 5)
    k = find_span(kv, 1.0)
    # last nonempty interval [0.75, 1.0]
    assert kv.knots[k - 1] == 0.75 and kv.knots[k] == 1.0


def test_find_span_at_double_knot_matches_scan():
    knots = np.array([0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0])
    kv = KnotVector(knots, 2)
    k = find_span(kv, 0.5)
    assert k == span_scan(knots, 2, 0.5)
    assert knots[k - 1] == 0.5 and knots[k] == 1.0


def test_find_span_bounds_and_errors():
    kv = uniform_open_knots(3, 5)
    p, n = kv.degree, kv.dimension
    for x in np.linspace(0.0, 1.0, 23):
        k = find_span(kv, x)
        assert p + 1 <= k <= n
        assert k == span_scan(kv.knots, p, x)
    with pytest.raises(ValueError, match="outside"):
        find_span(kv, -0.1)
    with pytest.raises(ValueError, match="outside"):
        find_span(kv, 1.1)


def test_find_span_band_of_nonzero_basis():
    """Only B_{k-p}..B_k may be nonzero at x."""
    rng = np.random.default_rng(404)
    kv = random_open_kv(rng, 3)
    p = kv.degree
    for x in np.linspace(0.0, 1.0, 17):
        k = find_span(kv, x)
        for i in range(kv.dimension):
            value = basis_value(kv.knots, p, i, x)
            if not (k - p <= i + 1 <= k):
                assert value == 0.0


# ---------- evaluate ----------


def test_evaluate_bernstein_quadratic():
    s = make_spline(2, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0])
    assert evaluate(s, 0.5) == pytest.approx(0.25, abs=1e-15)
    assert evaluate(s, 0.0) == 1.0
    assert evaluate(s, 1.0) == 0.0


def test_evaluate_partition_of_unity():
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = int(rng.integers(1, 6))
        kv = random_open_kv(rng, p)
        ones = Spline(kv, np.ones(kv.dimension))
        grid = np.linspace(0.0, 1.0, 101)
        npt.assert_allclose(evaluate(ones, grid), 1.0, atol=1e-14, rtol=0.0)


def test_evaluate_matches_basis_recursion_oracle():
    rng = np.random.default_rng(7)
    kv = uniform_open_knots(3, 5)
    s = random_spline_on(rng, kv)
    grid = np.linspace(0.0, 1.0, 201)
    values = evaluate(s, grid)
    reference = np.array([eval_oracle(s, x) for x in grid])
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(values - reference)) / scale <= 1e-14


def test_evaluate_scalar_array_and_degree_zero():
    s = make_spline(0, [0.0, 0.5, 1.0], [2.0, -1.0])
    assert evaluate(s, 0.25) == 2.0
    assert evaluate(s, 0.75) == -1.0
    assert evaluate(s, 1.0) == -1.0
    npt.assert_array_equal(evaluate(s, np.array([0.0, 0.6])), [2.0, -1.0])
    assert evaluate(s, np.array([])).shape == (0,)
    for bad in (1.5, np.nan):
        with pytest.raises(ValueError, match="outside"):
            evaluate(s, bad)
        with pytest.raises(ValueError, match="outside"):
            evaluate(s, np.array([0.5, bad]))


def test_evaluate_non_open_input_normalized():
    s = make_spline(1, [0.0, 1.0, 2.0], [1.0])
    assert evaluate(s, 1.0) == 1.0
    assert evaluate(s, 0.5) == pytest.approx(0.5)


# ---------- greville_abscissae ----------


def test_greville_linear_and_quadratic():
    npt.assert_array_equal(
        greville_abscissae(KnotVector(np.array([0.0, 0.0, 1.0, 1.0]), 1)), [0.0, 1.0]
    )
    npt.assert_allclose(
        greville_abscissae(bernstein_knots(2)), [0.0, 0.5, 1.0], atol=1e-16
    )


def test_greville_nesting_conditions_cubic():
    kv = uniform_open_knots(3, 5)
    xs = greville_abscissae(kv)
    for i, x in enumerate(xs):
        assert basis_value(kv.knots, 3, i, x) > 0.0


def test_greville_stays_in_its_window():
    """The rounded mean of p equal knots can miss their value."""
    # seven copies of -1.7 average to -1.6999999999999997, past the span
    kv = KnotVector(np.array([-3.0] * 8 + [-1.7] * 8), 7)
    xs = greville_abscissae(kv)
    assert xs[0] == -3.0 and xs[-1] == -1.7
    rng = np.random.default_rng(29)
    for _ in range(200):
        p = int(rng.integers(1, 9))
        start = float(rng.uniform(-5.0, 5.0))
        kv = random_open_kv(
            rng, p, max_interior=6, span=(start, start + float(rng.uniform(0.1, 3.0)))
        )
        xs = greville_abscissae(kv)
        windows = np.lib.stride_tricks.sliding_window_view(
            kv.knots[1 : kv.dimension + p], p
        )
        assert np.all(windows[:, 0] <= xs) and np.all(xs <= windows[:, -1])


def test_greville_rejects_degree_zero():
    kv = KnotVector(np.array([0.0, 0.5, 1.0]), 0)
    with pytest.raises(ValueError, match="degree"):
        greville_abscissae(kv)


# ---------- product_knot_vector ----------


def test_product_knots_no_internal():
    t = product_knot_vector(bernstein_knots(1), bernstein_knots(1))
    assert t.degree == 2
    npt.assert_array_equal(t.knots, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])


def test_product_knots_one_sided_breakpoint():
    kv1 = KnotVector(np.array([0.0, 0.0, 0.5, 1.0, 1.0]), 1)
    kv2 = bernstein_knots(1)
    t = product_knot_vector(kv1, kv2)
    npt.assert_array_equal(t.knots, [0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0])


def test_product_knots_cubic_times_cubic_keeps_c2():
    kv = uniform_open_knots(3, 5)
    t = product_knot_vector(kv, kv)
    assert t.degree == 6
    for v in (0.25, 0.5, 0.75):
        assert multiplicity(t, v) == 4
    assert multiplicity(t, 0.0) == 7


def test_product_knots_multiplicity_rule_randomized():
    """Recomputing output multiplicities reproduces the three-case rule."""
    rng = np.random.default_rng(99)
    for _ in range(15):
        p1, p2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        kv1 = random_open_kv(rng, p1, max_interior=3)
        kv2 = random_open_kv(rng, p2, max_interior=3)
        t = product_knot_vector(kv1, kv2)
        p = p1 + p2
        assert t.degree == p
        values = set(np.unique(kv1.knots)) | set(np.unique(kv2.knots))
        assert values == set(np.unique(t.knots))
        lo, hi = t.span
        for v in sorted(values):
            mu1 = multiplicity(kv1, v)
            mu2 = multiplicity(kv2, v)
            if v in (lo, hi):
                expected = p + 1
            elif mu1 > 0 and mu2 > 0:
                expected = max(p1 + mu2, p2 + mu1)
            elif mu1 > 0:
                expected = p2 + mu1
            else:
                expected = p1 + mu2
            assert multiplicity(t, v) == expected
        assert t.dimension == len(t.knots) - p - 1


def test_product_knots_errors():
    kv = bernstein_knots(2)
    other = bernstein_knots(2, end=2.0)
    with pytest.raises(ValueError, match="span"):
        product_knot_vector(kv, other)
    with pytest.raises(ValueError, match="degree"):
        product_knot_vector(KnotVector(np.array([0.0, 0.5, 1.0]), 0), kv)
    with pytest.raises(ValueError, match="open"):
        product_knot_vector(KnotVector(np.array([0.0, 0.5, 1.0, 2.0]), 1), kv)


def test_product_knots_keep_nearby_breakpoints_apart():
    kv1 = KnotVector(np.array([0.0, 0.0, 0.5, 1.0, 1.0]), 1)
    kv2 = KnotVector(np.array([0.0, 0.0, 0.5 + 1e-12, 1.0, 1.0]), 1)
    exact = product_knot_vector(kv1, kv2)
    # exact comparison keeps both nearby breakpoints
    assert len(np.unique(exact.knots)) == 4


# ---------- multiplicity ----------


def test_multiplicity_counts():
    kv = uniform_open_knots(3, 5)
    assert multiplicity(kv, 0.33) == 0
    assert multiplicity(kv, 0.0) == 4
    assert multiplicity(kv, 1.0) == 4
    assert multiplicity(kv, 0.5) == 1


# ---------- JSON exchange ----------


def test_spline_json_round_trip():
    s = make_spline(2, [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0], [1.0, -2.0, 0.5, 3.0])
    doc = s.to_dict()
    assert set(doc) == {"degree", "knots", "coefficients"}
    back = Spline.from_dict(doc)
    assert back.degree == 2
    npt.assert_array_equal(back.knots.knots, s.knots.knots)
    npt.assert_array_equal(back.coefficients, s.coefficients)


def test_spline_json_rejects_invalid_documents():
    with pytest.raises(ValueError, match="missing required field"):
        Spline.from_dict({"degree": 1, "knots": [0, 0, 1, 1]})
    with pytest.raises(ValueError, match="degree"):
        Spline.from_dict({"degree": -1, "knots": [0, 0, 1, 1], "coefficients": [0, 1]})
    with pytest.raises(ValueError, match="coefficient count"):
        Spline.from_dict({"degree": 1, "knots": [0, 0, 1, 1], "coefficients": [1]})
    with pytest.raises(ValueError, match="nondecreasing"):
        Spline.from_dict({"degree": 1, "knots": [0, 1, 0, 1], "coefficients": [0, 1]})
    with pytest.raises(ValueError, match="array of numbers"):
        Spline.from_dict({"degree": 1, "knots": [0, 0, 1, 1], "coefficients": "ab"})
    with pytest.raises(ValueError, match="object"):
        Spline.from_dict([1, 2, 3])
