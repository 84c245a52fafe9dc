"""Greville collocation: assembly, banded solves, condition estimates."""

import logging

import numpy as np
import numpy.testing as npt
import pytest

import splineprod.collocation as collocation_module
from splineprod import (
    BandedMatrix,
    KnotVector,
    Spline,
    SplitMix64,
    bernstein_knots,
    build_family_case,
    collocation_matrix,
    collocation_product,
    condition_estimate_1norm,
    evaluate,
    greville_abscissae,
    product_knot_vector,
    solve_banded,
    uniform_open_knots,
)
from splineprod.collocation import _solve_products
from helpers import (
    banded_to_dense,
    basis_value,
    dense_cond1,
    random_open_kv,
    random_spline_on,
)


def banded_from_dense(dense, kl, ku):
    """Pack a dense matrix into factorization band storage."""
    m = dense.shape[0]
    bands = np.zeros((2 * kl + ku + 1, m))
    for i in range(m):
        for j in range(max(0, i - kl), min(m, i + ku + 1)):
            bands[kl + ku + i - j, j] = dense[i, j]
    return BandedMatrix(m, kl, ku, bands)


def diagonal_matrix(values):
    return banded_from_dense(np.diag(values), 0, 0)


# ---------- collocation_matrix ----------


def test_linear_collocation_is_identity():
    kv = bernstein_knots(1)
    matrix = collocation_matrix(kv, greville_abscissae(kv))
    npt.assert_array_equal(banded_to_dense(matrix), np.eye(2))


def test_collocation_rows_sum_to_one():
    rng = np.random.default_rng(13)
    for _ in range(10):
        p = int(rng.integers(1, 5))
        kv = random_open_kv(rng, p)
        matrix = collocation_matrix(kv, greville_abscissae(kv))
        npt.assert_allclose(matrix.matvec(np.ones(matrix.order)), 1.0, atol=1e-14, rtol=0.0)


def test_collocation_entries_and_diagonal():
    kv = uniform_open_knots(3, 5)
    xs = greville_abscissae(kv)
    matrix = collocation_matrix(kv, xs)
    dense = banded_to_dense(matrix)
    assert np.all(np.diag(dense) > 0.0)
    for i, x in enumerate(xs):
        for j in range(kv.dimension):
            expected = basis_value(kv.knots, 3, j, x)
            assert dense[i, j] == pytest.approx(expected, abs=1e-14)
    assert matrix.lower_bandwidth <= 3 and matrix.upper_bandwidth <= 3
    # each row holds at most p + 1 nonzero basis values
    assert np.max(np.sum(dense != 0.0, axis=1)) <= 4


def test_collocation_rejects_nesting_violations():
    kv = uniform_open_knots(3, 5)
    clustered = np.linspace(0.01, 0.05, kv.dimension)
    with pytest.raises(ValueError, match="nesting"):
        collocation_matrix(kv, clustered)
    with pytest.raises(ValueError, match="strictly increasing"):
        collocation_matrix(kv, np.zeros(kv.dimension))
    with pytest.raises(ValueError, match="abscissa count"):
        collocation_matrix(kv, np.linspace(0.0, 1.0, 3))


# ---------- solve_banded ----------


def test_solve_identity_and_diagonal():
    rhs = np.array([3.0, -1.0, 2.0, 0.5])
    identity = diagonal_matrix(np.ones(4))
    npt.assert_allclose(solve_banded(identity, rhs), rhs, atol=1e-15)
    scaled = diagonal_matrix(np.arange(1.0, 5.0))
    npt.assert_allclose(
        solve_banded(scaled, rhs), rhs / np.arange(1.0, 5.0), atol=1e-15
    )


def test_solve_matches_dense_oracle():
    rng = np.random.default_rng(300)
    m, p = 50, 3
    dense = np.zeros((m, m))
    for i in range(m):
        for j in range(max(0, i - p), min(m, i + p + 1)):
            dense[i, j] = rng.uniform(-1.0, 1.0)
        dense[i, i] += 2.0 * p  # keep the system well conditioned
    matrix = banded_from_dense(dense, p, p)
    rhs = rng.uniform(-1.0, 1.0, size=m)
    x = solve_banded(matrix, rhs)
    expected = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(x - expected)) / np.max(np.abs(expected)) <= 1e-12
    npt.assert_allclose(matrix.matvec(x), rhs, atol=1e-12)


def test_solve_singular_matrix_raises():
    singular = diagonal_matrix(np.array([1.0, 0.0, 2.0]))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        solve_banded(singular, np.ones(3))
    with pytest.raises(ValueError, match="length"):
        solve_banded(diagonal_matrix(np.ones(3)), np.ones(4))


def test_solve_residual_is_small():
    rng = np.random.default_rng(42)
    kv = uniform_open_knots(4, 7)
    matrix = collocation_matrix(kv, greville_abscissae(kv))
    rhs = rng.uniform(-1.0, 1.0, size=kv.dimension)
    x = solve_banded(matrix, rhs)
    residual = np.max(np.abs(matrix.matvec(x) - rhs)) / np.max(np.abs(rhs))
    assert residual <= 1e-13


# ---------- condition_estimate_1norm ----------


def test_condition_of_identity_and_diagonal():
    assert condition_estimate_1norm(diagonal_matrix(np.ones(5))) == pytest.approx(1.0)
    scaled = diagonal_matrix(np.arange(1.0, 11.0))
    assert condition_estimate_1norm(scaled) == pytest.approx(10.0)


def test_condition_estimate_close_to_exact_small_cases():
    rng = np.random.default_rng(911)
    for trial in range(20):
        p = int(rng.integers(1, 5))
        kv = random_open_kv(rng, p, max_interior=6)
        if kv.dimension > 30:
            continue
        matrix = collocation_matrix(kv, greville_abscissae(kv))
        estimate = condition_estimate_1norm(matrix)
        exact = dense_cond1(matrix)
        assert estimate <= exact * (1.0 + 1e-10)  # estimator is a lower bound
        assert estimate >= exact / 3.0


def test_condition_of_singular_matrix_is_infinite():
    singular = diagonal_matrix(np.array([1.0, 0.0, 2.0]))
    assert condition_estimate_1norm(singular) == np.inf


# ---------- collocation_product ----------


def test_collocation_product_cubic_pair():
    rng = np.random.default_rng(60)
    kv = uniform_open_knots(3, 5)
    f, g = random_spline_on(rng, kv), random_spline_on(rng, kv)
    product = collocation_product(f, g)
    grid = np.linspace(0.0, 1.0, 201)
    reference = evaluate(f, grid) * evaluate(g, grid)
    err = np.max(np.abs(evaluate(product, grid) - reference))
    assert err / np.max(np.abs(reference)) <= 1e-13


def test_collocation_product_with_unit_factor():
    rng = np.random.default_rng(61)
    f = random_spline_on(rng, uniform_open_knots(2, 4))
    g_kv = uniform_open_knots(2, 4)
    g = Spline(g_kv, np.ones(g_kv.dimension))
    product = collocation_product(f, g)
    grid = np.linspace(0.0, 1.0, 201)
    npt.assert_allclose(evaluate(product, grid), evaluate(f, grid), atol=1e-12)


def test_banded_matrix_validation():
    with pytest.raises(ValueError, match="band storage"):
        BandedMatrix(3, 1, 1, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        BandedMatrix(3, -1, 0, np.zeros((0, 3)))


# ---------- one collocation path ----------


def test_solve_products_matches_one_product_per_g():
    """galerkin_p 12: one factorization for all gs gives the bytes of one
    collocation_product call per g; a g on other knots is refused."""
    case = build_family_case("galerkin_p", 12, SplitMix64(12345))
    products, _ = _solve_products(case.f, case.gs)
    assert len(products) == len(case.gs) > 1
    for h, g in zip(products, case.gs):
        single = collocation_product(case.f, g)
        assert h.knots == single.knots
        assert h.coefficients.tobytes() == single.coefficients.tobytes()
    # a g on other knots would need another matrix
    other = build_family_case("spline_poly", 1, SplitMix64(12345)).f
    with pytest.raises(ValueError, match="target_knots must equal"):
        _solve_products(case.f, [case.gs[0], other])


def test_lu_condition_equals_condition_estimate():
    rng = np.random.default_rng(912)
    for p in (1, 3, 8, 20):
        kv = random_open_kv(rng, p)
        matrix = collocation_matrix(kv, greville_abscissae(kv))
        estimate = condition_estimate_1norm(matrix)
        assert matrix.lu().condition().hex() == estimate.hex()


def test_residual_is_computed_only_for_a_debug_log(caplog, monkeypatch):
    """At DEBUG each solve logs one residual record; at WARNING nothing
    reads the residual, so the matrix-vector product is never taken."""
    case = build_family_case("galerkin_k", 5, SplitMix64(7))
    with caplog.at_level(logging.DEBUG, logger="splineprod.collocation"):
        _solve_products(case.f, case.gs)
    residuals = [r for r in caplog.records if "residual" in r.getMessage()]
    assert len(residuals) == len(case.gs)
    calls = []
    matvec = BandedMatrix.matvec

    def counted(self, x):
        calls.append(self.order)
        return matvec(self, x)

    monkeypatch.setattr(BandedMatrix, "matvec", counted)
    with caplog.at_level(logging.WARNING, logger="splineprod.collocation"):
        _solve_products(case.f, case.gs)
        solve_banded(diagonal_matrix(np.ones(3)), np.ones(3))
    assert calls == []


def test_solve_products_checks_short_knot_intervals_for_every_g():
    """The experiment's path rejects the 5e-324 interval as the CLI does."""
    f = Spline(KnotVector([0, 0, 0, 5e-324, 1, 1, 1], 2), [0.5, -0.25, 1.0, 0.75])
    kv = uniform_open_knots(1, 2)
    gs = [Spline(kv, [1.0, -0.5]), Spline(kv, [0.25, 2.0])]
    with pytest.raises(ValueError, match=r"\[0\.0, 5e-324\] is too short for collocation"):
        _solve_products(f, gs)


def test_solve_products_names_a_knot_of_full_multiplicity():
    """A knot of multiplicity degree + 1 in the product space gives two
    equal Greville points: the error names that knot, not a short
    interval, and the 5e-324 interval keeps its own message."""
    f = Spline(
        KnotVector([0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1], 2), [1, -0.5, 2, 0.25, 0.7, -1]
    )
    g = Spline(KnotVector([0, 0, 0.5, 1, 1], 1), [0.3, 1, -0.2])
    with pytest.raises(ValueError) as caught:
        collocation_product(f, g)
    assert str(caught.value) == (
        "knot 0.5 has multiplicity 4 (degree + 1) in the product space, so two "
        "of its Greville points are equal and collocation cannot interpolate "
        "the product there"
    )
    short = Spline(KnotVector([0, 0, 0, 5e-324, 1, 1, 1], 2), [0.5, -0.25, 1.0, 0.75])
    with pytest.raises(ValueError) as caught:
        collocation_product(short, g)
    assert str(caught.value) == (
        "knot interval [0.0, 5e-324] is too short for collocation: the Greville "
        "points of the product space on it round to equal doubles"
    )


def test_solve_products_with_the_gs_on_different_knots():
    """f of degree 3 with 0.5 of multiplicity 3 gives 0.5 multiplicity 5 in
    the product space whether g of degree 2 holds 0.5 zero, one or two
    times, so the three gs share f's product knot vector but not their
    knots: each must be read on its own knots, and the shared path gives
    the bytes of one collocation_product call per g."""
    rng = np.random.default_rng(31)
    f = random_spline_on(rng, KnotVector([0] * 4 + [0.5] * 3 + [1] * 4, 3))
    gs = [
        random_spline_on(rng, KnotVector([0] * 3 + [0.5] * mult + [1] * 3, 2))
        for mult in (0, 1, 2)
    ]
    knots = {product_knot_vector(f.knots, g.knots).knots.tobytes() for g in gs}
    assert len(knots) == 1
    products, _ = _solve_products(f, gs)
    for h, g in zip(products, gs):
        expected = collocation_product(f, g)
        assert h.knots == expected.knots
        assert h.coefficients.tobytes() == expected.coefficients.tobytes()


def test_collocation_imports_nothing_from_the_product_module():
    globals_from_product = [
        name
        for name, value in vars(collocation_module).items()
        if getattr(value, "__module__", None) == "splineprod.product"
    ]
    assert globals_from_product == []
