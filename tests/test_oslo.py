"""Knot insertion: bidiagonal stages, the matrix-free kernel, refinement."""

import numpy as np
import numpy.testing as npt
import pytest

from splineprod import (
    KnotVector,
    LocalWindow,
    Spline,
    bernstein_knots,
    deboor_kernel,
    evaluate,
    find_span,
    insertion_matrix,
    make_spline,
    oslo_coefficients,
    uniform_open_knots,
)
from helpers import (
    basis_value,
    boehm_insert,
    discrete_bspline_row,
    fit_power_coeffs,
    insertion_dense,
    power_to_bernstein,
    random_open_kv,
    random_spline_on,
)


def random_window(rng, p):
    """LocalWindow with fine knots drawn inside the coarse window's span."""
    coarse = np.sort(rng.uniform(0.0, 1.0, size=2 * p))
    fine = np.sort(rng.uniform(coarse[0], coarse[-1], size=p))
    coeffs = rng.uniform(-1.0, 1.0, size=p + 1)
    return LocalWindow(coarse, coeffs, fine)


def dense_stage_product(window, stages=None):
    """Explicit product of the p bidiagonal stage matrices applied to c^k.

    If `stages` is a list, every intermediate coefficient vector is
    appended to it, longest first; the last one holds the kernel value.
    """
    p = window.degree
    knots = window.coarse_knots
    # embed the window in an open vector so k is a valid 1-based span index
    kv = KnotVector(np.concatenate(([knots[0]] * p, knots, [knots[-1]] * p)), p)
    k = 2 * p
    v = np.array(window.coarse_coeffs)
    for d in range(p, 0, -1):
        v = insertion_matrix(kv, k, d, window.fine_knots[d - 1]).apply(v[: d + 1])
        if stages is not None:
            stages.append(v)
    return v[0]


# ---------- insertion_matrix ----------


def test_insertion_matrix_midpoint():
    kv = KnotVector(np.array([0.0, 0.0, 1.0, 1.0]), 1)
    r = insertion_matrix(kv, 2, 1, 0.5)
    npt.assert_allclose(r.diagonal, [0.5])
    npt.assert_allclose(r.superdiagonal, [0.5])
    npt.assert_allclose(insertion_dense(r), [[0.5, 0.5]])


def test_insertion_matrix_left_endpoint():
    kv = uniform_open_knots(2, 3)
    k = find_span(kv, 0.5)
    r = insertion_matrix(kv, k, 2, kv.knots[k - 2])
    # t equal to tau_{k+l-d} zeroes the superdiagonal entry of row l=1
    assert r.superdiagonal[0] == 0.0
    assert r.diagonal[0] == 1.0


def test_insertion_matrix_zero_denominator_not_nan():
    knots = np.array([0.0, 0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0])
    kv = KnotVector(knots, 2)
    r = insertion_matrix(kv, 3, 1, 0.25)
    assert np.all(np.isfinite(r.diagonal))
    assert np.all(np.isfinite(r.superdiagonal))
    # the row with tau_{k+l} == tau_{k+l-d} is zeroed outright
    dense = insertion_dense(r)
    assert not np.any(np.isnan(dense))


def test_insertion_matrix_rows_sum_to_one():
    rng = np.random.default_rng(31)
    kv = random_open_kv(rng, 3)
    n = kv.dimension
    for _ in range(50):
        k = int(rng.integers(4, n + 1))
        d = int(rng.integers(1, 4))
        t = float(rng.uniform(0.0, 1.0))
        r = insertion_matrix(kv, k, d, t)
        sums = r.diagonal + r.superdiagonal
        for row in range(d):
            if sums[row] != 0.0:  # zero-denominator rows are exempt
                assert sums[row] == pytest.approx(1.0, abs=1e-14)


def test_insertion_matrix_index_errors():
    kv = uniform_open_knots(3, 5)
    with pytest.raises(IndexError):
        insertion_matrix(kv, 4, 0, 0.5)
    with pytest.raises(IndexError):
        insertion_matrix(kv, 4, 4, 0.5)
    with pytest.raises(IndexError):
        insertion_matrix(kv, 3, 1, 0.5)
    with pytest.raises(IndexError):
        insertion_matrix(kv, 8, 1, 0.5)


# ---------- deboor_kernel ----------


def test_kernel_constant_fine_knots_is_evaluation():
    rng = np.random.default_rng(5)
    kv = uniform_open_knots(3, 5)
    s = random_spline_on(rng, kv)
    p = 3
    for x in (0.1, 0.33, 0.77):
        k = find_span(kv, x)
        window = LocalWindow(
            kv.knots[k - p : k + p],
            s.coefficients[k - p - 1 : k],
            np.full(p, x),
        )
        assert deboor_kernel(window, p) == pytest.approx(
            evaluate(s, x), abs=1e-15
        )


def test_kernel_identity_refinement_returns_coefficient():
    rng = np.random.default_rng(6)
    kv = uniform_open_knots(2, 4)
    s = random_spline_on(rng, kv)
    p = 2
    k = find_span(kv, 0.4)
    window = LocalWindow(
        kv.knots[k - p : k + p],
        s.coefficients[k - p - 1 : k],
        kv.knots[k : k + p],
    )
    assert deboor_kernel(window, p) == pytest.approx(
        s.coefficients[k - 1], abs=1e-15
    )


def test_kernel_matches_dense_stage_product():
    rng = np.random.default_rng(77)
    for _ in range(100):
        p = int(rng.integers(1, 6))
        window = random_window(rng, p)
        expected = dense_stage_product(window)
        assert deboor_kernel(window, p) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize(
    "coarse, coeffs, fines",
    [
        (
            [0.0, 0.5, 0.5, 1.0],
            [1.0, -2.0, 0.5],
            [[0.25, 0.75], [0.0, 1.0], [0.5, 0.5], [0.0, 0.0], [1.0, 1.0]],
        ),
        (
            [0.0, 0.5, 0.5, 0.5, 0.75, 1.0],
            [-0.0, 1.5, -1.0, 0.25],
            [[0.25, 0.5, 0.9], [0.0, 0.5, 1.0], [0.5] * 3, [0.0] * 3, [1.0] * 3],
        ),
    ],
)
def test_kernel_empty_anchor_interval_matches_dense_stage_product(
    coarse, coeffs, fines
):
    """A window whose anchor interval is empty has zero denominators; each
    such stage row contributes 0, as in insertion_matrix."""
    p = len(coeffs) - 1
    assert coarse[p - 1] == coarse[p]
    for fine in fines:
        window = LocalWindow(np.array(coarse), np.array(coeffs), np.array(fine))
        value = deboor_kernel(window, p)
        assert np.isfinite(value)
        assert np.float64(value).tobytes() == np.float64(
            dense_stage_product(window)
        ).tobytes()


def test_kernel_intermediate_convexity():
    """Every stage output stays inside [min c, max c] for interior fine knots."""
    rng = np.random.default_rng(88)
    for _ in range(50):
        p = int(rng.integers(1, 6))
        coarse = np.sort(rng.uniform(0.0, 1.0, size=2 * p))
        if coarse[p - 1] == coarse[p]:
            continue
        fine = np.sort(rng.uniform(coarse[p - 1], coarse[p], size=p))
        coeffs = rng.uniform(-1.0, 1.0, size=p + 1)
        window = LocalWindow(coarse, coeffs, fine)
        lo, hi = coeffs.min(), coeffs.max()
        stages = []
        dense_stage_product(window, stages)
        assert [stage.size for stage in stages] == list(range(p, 0, -1))
        for stage in stages:
            assert np.all(stage >= lo - 1e-14)
            assert np.all(stage <= hi + 1e-14)


def test_kernel_window_validation():
    with pytest.raises(ValueError, match="inconsistent window sizes"):
        LocalWindow(np.zeros(4), np.zeros(3), np.zeros(3))
    window = LocalWindow(
        np.array([0.0, 0.0, 1.0, 1.0]), np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5])
    )
    with pytest.raises(ValueError, match="degree"):
        deboor_kernel(window, 3)
    with pytest.raises(ValueError, match="within the coarse window"):
        LocalWindow(
            np.array([0.0, 0.0, 1.0, 1.0]),
            np.array([1.0, 2.0, 3.0]),
            np.array([0.5, 2.0]),
        )


# ---------- oslo_coefficients ----------


def test_oslo_linear_midpoint_insertion():
    coarse = KnotVector(np.array([0.0, 0.0, 1.0, 1.0]), 1)
    fine = KnotVector(np.array([0.0, 0.0, 0.5, 1.0, 1.0]), 1)
    b = oslo_coefficients(1, coarse, np.array([0.0, 1.0]), fine)
    npt.assert_allclose(b, [0.0, 0.5, 1.0], atol=1e-16)
    # degree 0: each fine coefficient copies the coarse one it lies under
    coarse0 = KnotVector(np.array([0.0, 0.5, 1.0]), 0)
    fine0 = KnotVector(np.array([0.0, 0.25, 0.5, 1.0]), 0)
    b0 = oslo_coefficients(0, coarse0, np.array([2.0, -1.0]), fine0)
    npt.assert_array_equal(b0, [2.0, 2.0, -1.0])


def test_oslo_matches_boehm_single_insertion():
    coarse = bernstein_knots(2)
    fine = KnotVector(np.array([0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0]), 2)
    b = oslo_coefficients(2, coarse, np.array([1.0, 0.0, 0.0]), fine)
    npt.assert_allclose(b, [1.0, 0.5, 0.0, 0.0], atol=1e-16)
    # hand-rolled Boehm update as an oracle on a random quadratic
    rng = np.random.default_rng(15)
    coeffs = rng.uniform(-1, 1, size=3)
    expected_knots, expected = boehm_insert(2, coarse.knots, coeffs, 0.5)
    npt.assert_array_equal(fine.knots, expected_knots)
    npt.assert_allclose(
        oslo_coefficients(2, coarse, coeffs, fine), expected, atol=1e-15
    )


def test_oslo_matches_iterated_boehm_on_random_splines():
    rng = np.random.default_rng(23)
    for _ in range(25):
        p = int(rng.integers(1, 5))
        kv = random_open_kv(rng, p)
        coeffs = rng.uniform(-1, 1, size=kv.dimension)
        knots, expected = np.array(kv.knots), np.array(coeffs)
        for u in rng.uniform(0.0, 1.0, size=3):
            knots, expected = boehm_insert(p, knots, expected, u)
        fine = KnotVector(knots, p)
        npt.assert_allclose(
            oslo_coefficients(p, kv, coeffs, fine), expected, atol=1e-13
        )


def test_oslo_pointwise_preservation():
    rng = np.random.default_rng(42)
    for _ in range(20):
        p = int(rng.integers(1, 5))
        kv = random_open_kv(rng, p)
        s = random_spline_on(rng, kv)
        extra = np.sort(rng.uniform(0.0, 1.0, size=int(rng.integers(1, 5))))
        fine_knots = np.sort(np.concatenate([kv.knots, extra]))
        fine = KnotVector(fine_knots, p)
        b = oslo_coefficients(p, kv, s.coefficients, fine)
        refined = Spline(fine, b)
        grid = np.linspace(0.0, 1.0, 201)
        npt.assert_allclose(
            evaluate(refined, grid), evaluate(s, grid), atol=1e-14, rtol=0.0
        )


def test_oslo_bezier_extraction_gives_bernstein_segments():
    rng = np.random.default_rng(64)
    p = 3
    kv = uniform_open_knots(p, 4)
    s = random_spline_on(rng, kv)
    breaks = [r.value for r in kv.breakpoints()]
    fine_knots = np.repeat(breaks, p + 1)
    fine = KnotVector(fine_knots, p)
    b = oslo_coefficients(p, kv, s.coefficients, fine)
    for seg in range(len(breaks) - 1):
        a, c = breaks[seg], breaks[seg + 1]
        power = fit_power_coeffs(lambda x: evaluate(s, x), a, c, p)
        expected = power_to_bernstein(power, a, c)
        npt.assert_allclose(
            b[seg * (p + 1) : (seg + 1) * (p + 1)], expected, atol=1e-12
        )


def test_oslo_local_refinement_on_subinterval():
    """Fine vector covering part of the span restricts the spline there."""
    rng = np.random.default_rng(50)
    kv = uniform_open_knots(2, 5)
    s = random_spline_on(rng, kv)
    fine = KnotVector(np.array([0.25, 0.25, 0.25, 0.4, 0.5, 0.5, 0.5]), 2)
    b = oslo_coefficients(2, kv, s.coefficients, fine)
    restricted = Spline(fine, b)
    grid = np.linspace(0.25, 0.5, 101)
    npt.assert_allclose(
        evaluate(restricted, grid), evaluate(s, grid), atol=1e-14, rtol=0.0
    )


def test_oslo_rejects_non_refinement():
    coarse = KnotVector(np.array([0.0, 0.0, 0.0, 0.5, 0.5, 1.0, 1.0, 1.0]), 2)
    fine = KnotVector(np.array([0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0]), 2)
    with pytest.raises(ValueError, match="refinement"):
        oslo_coefficients(2, coarse, np.zeros(coarse.dimension), fine)
    outside = KnotVector(np.array([0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0]), 2)
    with pytest.raises(ValueError, match="refinement|span"):
        oslo_coefficients(2, coarse, np.zeros(coarse.dimension), outside)


def test_oslo_refinement_check_names_first_short_interior_knot():
    # 0.25 and 0.5 both fall short; the message names 0.25
    coarse = KnotVector(
        np.array([0.0, 0.0, 0.0, 0.25, 0.25, 0.5, 0.5, 0.75, 1.0, 1.0, 1.0]), 2
    )
    fine = KnotVector(np.array([0.0, 0.0, 0.0, 0.25, 0.75, 1.0, 1.0, 1.0]), 2)
    with pytest.raises(ValueError) as info:
        oslo_coefficients(2, coarse, np.zeros(coarse.dimension), fine)
    assert str(info.value) == (
        "not a refinement: coarse knot 0.25 has multiplicity 2 but only 1 "
        "in the fine vector"
    )


def test_oslo_refinement_check_ignores_knots_at_and_beyond_fine_ends():
    # 0.25 and 0.75 are short at the fine span's ends, 0 and 1 lie beyond it
    coarse = KnotVector(
        np.array([0.0, 0.0, 0.0, 0.25, 0.25, 0.5, 0.5, 0.75, 0.75, 1.0, 1.0, 1.0]), 2
    )
    fine = KnotVector(np.array([0.25, 0.3, 0.5, 0.5, 0.7, 0.75]), 2)
    b = oslo_coefficients(2, coarse, np.ones(coarse.dimension), fine)
    # the constant spline keeps unit coefficients
    npt.assert_allclose(b, np.ones(fine.dimension), rtol=0.0, atol=1e-15)


# ---------- discrete_bspline_row ----------


def test_discrete_row_identity_refinement():
    kv = uniform_open_knots(2, 4)
    k = find_span(kv, 0.4)
    alpha = discrete_bspline_row(2, kv, k, kv.knots[k : k + 2])
    npt.assert_allclose(alpha, [0.0, 0.0, 1.0], atol=1e-16)


def test_discrete_row_convexity_and_kernel_agreement():
    rng = np.random.default_rng(9)
    kv = random_open_kv(rng, 3, max_interior=5)
    p, n = 3, kv.dimension
    for _ in range(100):
        k = int(rng.integers(p + 1, n + 1))
        lo, hi = kv.knots[k - 1], kv.knots[k]
        if lo == hi:
            continue
        fine = np.sort(rng.uniform(lo, hi, size=p))
        alpha = discrete_bspline_row(p, kv, k, fine)
        assert np.all(alpha >= -1e-15)
        assert np.sum(alpha) == pytest.approx(1.0, abs=1e-14)
        coeffs = rng.uniform(-1, 1, size=p + 1)
        window = LocalWindow(kv.knots[k - p : k + p], coeffs, fine)
        assert float(alpha @ coeffs) == pytest.approx(
            deboor_kernel(window, p), abs=1e-15
        )


def test_discrete_row_matches_basis_recursion():
    """alpha against recursed B-spline values at a plain evaluation point."""
    kv = uniform_open_knots(3, 5)
    x = 0.42
    k = find_span(kv, x)
    alpha = discrete_bspline_row(3, kv, k, np.full(3, x))
    expected = [basis_value(kv.knots, 3, j, x) for j in range(k - 4, k)]
    npt.assert_allclose(alpha, expected, atol=1e-15)
