"""Direct products: binomials, distinct combinations, both product paths."""

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest

from splineprod import (
    KnotVector,
    NaiveInfeasibleError,
    Spline,
    bernstein_knots,
    binomial,
    evaluate,
    improved_morken_product,
    knot_combinations,
    make_spline,
    morken_product,
    product_knot_vector,
    uniform_open_knots,
)
from splineprod._kernels import _stage_factors, find_span0_many
from splineprod.bench import SplitMix64, build_family_case
from splineprod.core import _window_indices
from helpers import (
    brute_combinations,
    distinct_profile_count,
    exact_product_coefficients,
    improved_kernel_rows,
    improved_product_rows,
    merged_product_knots,
    random_open_kv,
    random_spline_on,
    stage_node_counts,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st


# ---------- binomial ----------


def test_binomial_edges_and_small_values():
    assert binomial(0, 0) == 1
    assert binomial(7, 0) == 1
    assert binomial(7, 7) == 1
    assert binomial(6, 3) == 20
    assert binomial(33, 3) == 5456
    assert isinstance(binomial(33, 3), int)


def test_binomial_loggamma_path_matches_big_integer_oracle():
    value = binomial(100, 50)
    assert isinstance(value, float)
    exact = math.comb(100, 50)
    assert abs(value - exact) / exact <= 1e-12
    # C(1200, 600) is about 4e359, past the largest double
    with pytest.raises(ValueError, match="double range"):
        binomial(1200, 600)


def test_binomial_errors():
    with pytest.raises(ValueError, match="0 <= k <= n"):
        binomial(5, -1)
    with pytest.raises(ValueError, match="0 <= k <= n"):
        binomial(5, 6)
    with pytest.raises(ValueError, match="integers"):
        binomial(5.0, 2)
    with pytest.raises(ValueError, match="integers"):
        binomial(True, 0)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 400), st.data())
def test_binomial_agrees_with_math_comb(n, data):
    k = data.draw(st.integers(0, n))
    value = binomial(n, k)
    exact = math.comb(n, k)
    if isinstance(value, int):
        assert value == exact
    else:
        assert abs(value - exact) / exact <= 1e-12


# ---------- knot_combinations ----------


def test_combinations_double_double_window():
    combo = knot_combinations(np.array([0.0, 0.0, 1.0, 1.0]), 2)
    assert combo.combinations == ((2, 0), (1, 1), (0, 2))
    assert combo.repetition_factors == (1, 4, 1)
    assert sum(combo.repetition_factors) == 6
    npt.assert_array_equal([r.value for r in combo.window_breakpoints], [0.0, 1.0])
    assert [r.multiplicity for r in combo.window_breakpoints] == [2, 2]


def test_combinations_all_distinct_and_all_equal():
    distinct = knot_combinations(np.array([0.0, 0.25, 0.5, 1.0]), 2)
    assert len(distinct.combinations) == 6
    assert set(distinct.repetition_factors) == {1}
    equal = knot_combinations(np.array([0.5, 0.5, 0.5, 0.5]), 3)
    assert equal.combinations == ((3,),)
    assert equal.repetition_factors == (math.comb(4, 3),)


def test_combinations_match_brute_force_enumeration():
    """Short windows of few values, then windows of 12-16 knots holding
    10 or more distinct values, split p1 <= 4."""
    rng = np.random.default_rng(314)
    cases = []
    for _ in range(50):
        p = int(rng.integers(1, 9))
        values = np.sort(rng.integers(0, 4, size=p).astype(float))
        cases.append((values, int(rng.integers(0, p + 1))))
    for _ in range(20):
        p = int(rng.integers(12, 17))
        distinct = rng.choice(40, size=int(rng.integers(10, p + 1)), replace=False)
        repeats = rng.choice(distinct, size=p - distinct.size)
        values = np.sort(np.concatenate((distinct, repeats)).astype(float))
        cases.append((values, int(rng.integers(0, 5))))
    for values, p1 in cases:
        combo = knot_combinations(values, p1)
        expected = brute_combinations(values, p1)
        got = dict(zip(combo.combinations, combo.repetition_factors))
        assert got == expected
        _, counts = np.unique(values, return_counts=True)
        assert distinct_profile_count(counts.tolist(), p1) == len(expected)
        # deterministic emission order: reverse-lexicographic profiles
        assert list(combo.combinations) == sorted(combo.combinations, reverse=True)


def test_combinations_of_a_window_of_1200_distinct_knots():
    """1200 runs of one knot each split 1 + 1199 into 1200 profiles, in
    descending lexicographic order, each from one subset."""
    combo = knot_combinations(np.arange(1200.0), 1)
    npt.assert_array_equal(np.array(combo.combinations), np.eye(1200, dtype=int))
    assert combo.repetition_factors == (1,) * 1200


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 5), min_size=2, max_size=20).map(sorted),
    st.data(),
)
def test_combinations_exhaustive_integer_identity(values, data):
    """Repetition factors always sum to C(p, p1) exactly."""
    window = np.asarray(values, dtype=float)
    p = len(window)
    p1 = data.draw(st.integers(0, p))
    combo = knot_combinations(window, p1)
    total = sum(combo.repetition_factors)
    assert total == math.comb(p, p1)
    for profile in combo.combinations:
        assert sum(profile) == p1
        for mu, run in zip(profile, combo.window_breakpoints):
            assert 0 <= mu <= run.multiplicity


def test_combinations_validation():
    with pytest.raises(ValueError, match="nondecreasing"):
        knot_combinations(np.array([1.0, 0.0]), 1)
    with pytest.raises(ValueError, match="p1"):
        knot_combinations(np.array([0.0, 1.0]), 3)
    with pytest.raises(ValueError, match="p1"):
        knot_combinations(np.array([0.0, 1.0]), -1)


# ---------- morken_product ----------


def test_product_of_linear_with_itself():
    s = make_spline(1, [0.0, 0.0, 1.0, 1.0], [0.0, 1.0])
    result = morken_product(s, s)
    assert result.product.degree == 2
    npt.assert_array_equal(result.product.knots.knots, [0, 0, 0, 1, 1, 1])
    npt.assert_allclose(result.product.coefficients, [0.0, 0.0, 1.0], atol=1e-15)
    assert result.naive_term_count == 2


def test_product_with_unit_spline_is_degree_elevation():
    rng = np.random.default_rng(21)
    kv = uniform_open_knots(3, 5)
    f = random_spline_on(rng, kv)
    g_kv = uniform_open_knots(2, 3)
    g = Spline(g_kv, np.ones(g_kv.dimension))
    result = morken_product(f, g)
    grid = np.linspace(0.0, 1.0, 201)
    npt.assert_allclose(
        evaluate(result.product, grid), evaluate(f, grid), atol=1e-14, rtol=0.0
    )


def test_product_pointwise_against_evaluation_oracle():
    rng = np.random.default_rng(22)
    kv = uniform_open_knots(3, 5)
    f = random_spline_on(rng, kv)
    g = random_spline_on(rng, kv)
    result = morken_product(f, g)
    grid = np.linspace(0.0, 1.0, 201)
    reference = evaluate(f, grid) * evaluate(g, grid)
    err = np.max(np.abs(evaluate(result.product, grid) - reference))
    assert err / np.max(np.abs(reference)) <= 1e-13


def test_product_guard_refuses_huge_subset_counts():
    f = Spline(bernstein_knots(30), np.ones(31))
    g = Spline(bernstein_knots(30), np.ones(31))
    with pytest.raises(NaiveInfeasibleError, match="force"):
        morken_product(f, g)


def test_product_guard_can_be_forced(monkeypatch):
    import splineprod.product as product_module

    rng = np.random.default_rng(23)
    kv = uniform_open_knots(2, 3)
    f, g = random_spline_on(rng, kv), random_spline_on(rng, kv)
    monkeypatch.setattr(product_module, "NAIVE_TERM_GUARD", 1)
    with pytest.raises(NaiveInfeasibleError):
        morken_product(f, g)
    forced = morken_product(f, g, force=True)
    reference = improved_morken_product(f, g)
    npt.assert_allclose(
        forced.product.coefficients, reference.product.coefficients, atol=1e-14
    )


def test_naive_in_small_subset_chunks_matches_improved(monkeypatch):
    """Rows sum over many chunks of index subsets, and a last partial one."""
    import splineprod.product as product_module

    monkeypatch.setattr(product_module, "_CHUNK", 7)
    rng = np.random.default_rng(29)
    for p1, p2 in ((3, 4), (2, 3), (1, 7)):
        f = random_spline_on(rng, random_open_kv(rng, p1, max_interior=3))
        g = random_spline_on(rng, random_open_kv(rng, p2, max_interior=3))
        assert math.comb(p1 + p2, p1) > product_module._CHUNK
        naive = morken_product(f, g)
        improved = improved_morken_product(f, g)
        scale = np.max(np.abs(improved.product.coefficients))
        diff = np.max(np.abs(naive.product.coefficients - improved.product.coefficients))
        assert diff <= 1e-13 * max(scale, 1.0)
        npt.assert_array_equal(naive.distinct_term_counts, improved.distinct_term_counts)


def test_product_rejects_mismatched_spans_and_degree_zero():
    f = Spline(bernstein_knots(2), np.ones(3))
    g = Spline(bernstein_knots(2, end=2.0), np.ones(3))
    with pytest.raises(ValueError, match="span"):
        morken_product(f, g)
    h = make_spline(0, [0.0, 0.5, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="degree"):
        morken_product(f, h)


def test_product_rejects_foreign_target_knots():
    rng = np.random.default_rng(3)
    kv = uniform_open_knots(2, 3)
    f, g = random_spline_on(rng, kv), random_spline_on(rng, kv)
    coarser = bernstein_knots(4)
    with pytest.raises(ValueError, match="target"):
        improved_morken_product(f, g, target_knots=coarser)
    exact = product_knot_vector(f.knots, g.knots)
    result = improved_morken_product(f, g, target_knots=exact)
    assert result.product.knots == exact


# ---------- improved_morken_product ----------


def test_improved_matches_naive_on_random_pairs():
    rng = np.random.default_rng(1234)
    for _ in range(25):
        p1, p2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        f = random_spline_on(rng, random_open_kv(rng, p1, max_interior=3))
        g = random_spline_on(rng, random_open_kv(rng, p2, max_interior=3))
        naive = morken_product(f, g)
        improved = improved_morken_product(f, g)
        scale = np.max(np.abs(naive.product.coefficients))
        diff = np.max(
            np.abs(naive.product.coefficients - improved.product.coefficients)
        )
        assert diff <= 1e-13 * max(scale, 1.0)
        npt.assert_array_equal(
            naive.distinct_term_counts, improved.distinct_term_counts
        )
        assert naive.naive_term_count == improved.naive_term_count


def _dyadic_spline(rng):
    """Degree 1-4 on [0, 1], interior knots on eighths repeated 1..p times,
    integer coefficients in [-4, 4]."""
    p = int(rng.integers(1, 5))
    steps = np.sort(rng.choice(np.arange(1, 8), int(rng.integers(0, 4)), replace=False))
    mults = [p + 1, *(int(rng.integers(1, p + 1)) for _ in steps), p + 1]
    kv = KnotVector(np.repeat(np.concatenate(([0], steps, [8])) / 8, mults), p)
    return Spline(kv, rng.integers(-4, 5, kv.dimension).astype(float))


def test_direct_products_match_exact_rational_oracle():
    """Both direct products lie within 4 eps * max|b_exact| of the exact
    coefficients, which Fraction interpolation of f*g at the product's
    Greville points gives.  Single coefficients where terms cancel may be
    tens of ulps off, so the error is scaled by the largest coefficient."""
    rng = np.random.default_rng(1)
    eps = Fraction(np.finfo(float).eps)
    pairs = 0
    while pairs < 40:
        f, g = _dyadic_spline(rng), _dyadic_spline(rng)
        knots = merged_product_knots(f.knots, g.knots)
        if knots.dimension > 30:
            continue
        pairs += 1
        exact = exact_product_coefficients(f, g, knots.knots)
        bound = 4 * eps * max(abs(b) for b in exact)
        for result in (improved_morken_product(f, g), morken_product(f, g)):
            assert result.product.knots == knots
            coeffs = result.product.coefficients
            assert max(abs(Fraction(b) - e) for b, e in zip(coeffs, exact)) <= bound


def test_improved_is_symmetric_in_its_factors():
    rng = np.random.default_rng(77)
    f = random_spline_on(rng, uniform_open_knots(2, 4))
    g = random_spline_on(rng, uniform_open_knots(3, 3))
    fg = improved_morken_product(f, g)
    gf = improved_morken_product(g, f)
    npt.assert_array_equal(fg.product.knots.knots, gf.product.knots.knots)
    scale = np.max(np.abs(fg.product.coefficients))
    npt.assert_allclose(
        fg.product.coefficients, gf.product.coefficients, atol=1e-13 * scale
    )


def test_improved_distinct_counts_bounded_by_naive():
    rng = np.random.default_rng(55)
    f = random_spline_on(rng, uniform_open_knots(3, 5))
    g = random_spline_on(rng, uniform_open_knots(3, 5))
    result = improved_morken_product(f, g)
    assert np.all(result.distinct_term_counts <= result.naive_term_count)
    # repeated knots inside every window here, so the saving is strict
    assert np.all(result.distinct_term_counts < result.naive_term_count)
    assert result.naive_term_count == math.comb(6, 3)


def test_mean_distinct_terms_statistics():
    s = make_spline(1, [0.0, 0.0, 1.0, 1.0], [0.0, 1.0])
    result = improved_morken_product(s, s)
    assert result.mean_distinct == np.mean(result.distinct_term_counts)
    # single-knot windows cannot be grouped: every count is C(2,1) = 2... except
    # boundary windows with repeated knots; the bound still holds
    assert result.mean_distinct <= result.naive_term_count


def test_improved_cubic_times_cubic_mean_below_naive():
    rng = np.random.default_rng(8)
    kv = uniform_open_knots(3, 5)
    f, g = random_spline_on(rng, kv), random_spline_on(rng, kv)
    result = improved_morken_product(f, g)
    assert result.mean_distinct < 20.0


def test_improved_pointwise_for_moderate_degrees():
    rng = np.random.default_rng(31)
    for p2 in (10, 25):
        f = random_spline_on(rng, uniform_open_knots(3, 5))
        g = random_spline_on(rng, bernstein_knots(p2))
        result = improved_morken_product(f, g)
        grid = np.linspace(0.0, 1.0, 201)
        reference = evaluate(f, grid) * evaluate(g, grid)
        err = np.max(np.abs(evaluate(result.product, grid) - reference))
        assert err / np.max(np.abs(reference)) <= 1e-13


@st.composite
def repeated_knot_splines(draw, degree):
    """Spline on [0, 1] whose interior knots repeat up to `degree` times."""
    interior = draw(st.lists(st.integers(1, 15), max_size=4, unique=True).map(sorted))
    knots = [0.0] * (degree + 1)
    for v in interior:
        knots += [v / 16.0] * draw(st.integers(1, degree))
    knots += [1.0] * (degree + 1)
    n = len(knots) - degree - 1
    coeffs = draw(
        st.lists(
            st.floats(-1.0, 1.0, allow_nan=False), min_size=n, max_size=n
        )
    )
    return make_spline(degree, knots, coeffs)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_improved_is_bit_identical_to_per_row_loop(p1, p2, data):
    f = data.draw(repeated_knot_splines(p1))
    g = data.draw(repeated_knot_splines(p2))
    result = improved_morken_product(f, g)
    coeffs, counts = improved_product_rows(f, g)
    assert np.array_equal(result.product.coefficients, coeffs)
    assert np.array_equal(result.distinct_term_counts, counts)
    assert result.mean_distinct == float(counts.mean())


def test_improved_bit_identical_across_row_blocks(monkeypatch):
    """Blocks that split a window group or hold several, and one block."""
    import splineprod.product as product_module

    rng = np.random.default_rng(41)
    f = random_spline_on(rng, uniform_open_knots(3, 40))
    g = random_spline_on(rng, uniform_open_knots(2, 40))
    t = product_knot_vector(f.knots, g.knots)
    coeffs, counts = improved_product_rows(f, g)
    for block in (64, 1 << 20):
        monkeypatch.setattr(product_module, "_BLOCK", block)
        groups = product_module._window_groups(t, 3)
        packing = list(product_module._row_blocks(*groups, 0, t.dimension))
        # the window groups (one plan each) that have rows in each block
        groups = [{id(weights) for weights, _ in pieces} for pieces in packing]
        rows = np.concatenate([piece for pieces in packing for _, piece in pieces])
        assert np.array_equal(np.sort(rows), np.arange(t.dimension))
        if block == 64:
            blocks = Counter(group for held in groups for group in held)
            assert max(blocks.values()) > 2
            assert max(len(held) for held in groups) >= 2
        else:
            assert len(packing) == 1
        result = improved_morken_product(f, g)
        assert np.array_equal(result.product.coefficients, coeffs)
        assert np.array_equal(result.distinct_term_counts, counts)
        # signed zeros too
        assert result.product.coefficients.tobytes() == coeffs.tobytes()


def test_improved_bit_identical_on_claimed_rows():
    """The experiment rows whose product speed the benchmark measures."""
    rows = (
        ("galerkin_k", 12, None),
        ("galerkin_p", 12, 3),
        ("spline_poly", 50, None),
        ("mesh_refine", 6, None),
    )
    for family, param, first in rows:
        case = build_family_case(family, param, SplitMix64(5))
        for g in case.gs[:first]:
            result = improved_morken_product(case.f, g)
            coeffs, counts = improved_product_rows(case.f, g)
            assert np.array_equal(result.product.coefficients, coeffs)
            assert np.array_equal(result.distinct_term_counts, counts)
            assert result.product.coefficients.tobytes() == coeffs.tobytes()


# ---------- the kept layout of the last knot pair ----------


@pytest.fixture
def product_module(monkeypatch):
    """splineprod.product with an empty layout slot, restored afterwards."""
    import splineprod.product as module

    monkeypatch.setattr(module, "_kept", None)
    return module


def _assert_rows_bytes(result, f, g):
    coeffs, counts = improved_product_rows(f, g)
    assert result.product.coefficients.tobytes() == coeffs.tobytes()
    assert np.array_equal(result.distinct_term_counts, counts)


def _hit_layout(module, kept):
    """The slot after a hit on kept's key: it holds kept's very layout."""
    slot = module._kept
    assert slot.key == kept.key
    assert slot.layout is kept.layout
    return slot


def test_kept_layout_sequences_match_per_row_loop(product_module):
    """A, A, A reuse one kept layout; A, B, A rebuilds it each time."""
    a = build_family_case("galerkin_k", 6, SplitMix64(3))
    b = build_family_case("galerkin_p", 5, SplitMix64(3))
    f, g = a.f, a.gs[1]
    result = improved_morken_product(f, g)
    kept = product_module._kept
    assert kept.layout is not None
    for _ in range(2):
        _assert_rows_bytes(improved_morken_product(f, g), f, g)
        kept = _hit_layout(product_module, kept)
    _assert_rows_bytes(result, f, g)
    _assert_rows_bytes(improved_morken_product(b.f, b.gs[0]), b.f, b.gs[0])
    assert product_module._kept[0] != kept[0]
    _assert_rows_bytes(improved_morken_product(f, g), f, g)
    assert product_module._kept[0] == kept[0]
    assert product_module._kept.layout is not kept.layout
    # a degree-20 Galerkin product packs into one block too
    c = build_family_case("galerkin_p", 20, SplitMix64(3))
    f, g = c.f, c.gs[1]
    _assert_rows_bytes(improved_morken_product(f, g), f, g)
    kept = product_module._kept
    assert kept.layout is not None
    for _ in range(2):
        _assert_rows_bytes(improved_morken_product(f, g), f, g)
        kept = _hit_layout(product_module, kept)


def test_kept_layout_with_new_coefficients_and_signed_zeros(product_module):
    """Same knots, new coefficients: -0.0 entries and all-zero windows."""
    rng = np.random.default_rng(17)
    kv1 = KnotVector([0, 0, 0, 0, 0.25, 0.25, 0.5, 0.75, 0.75, 1, 1, 1, 1], 3)
    kv2 = uniform_open_knots(2, 6)
    f = random_spline_on(rng, kv1)
    g = random_spline_on(rng, kv2)
    improved_morken_product(f, g)
    kept = product_module._kept
    assert kept.layout is not None
    c1 = rng.uniform(-1, 1, kv1.dimension)
    c1[:5] = -0.0
    c2 = rng.uniform(-1, 1, kv2.dimension)
    c2[2:] = 0.0
    c2[-1] = -0.0
    zeros = []
    for f2, g2 in (
        (Spline(kv1, c1), g),
        (f, Spline(kv2, c2)),
        (Spline(kv1, c1), Spline(kv2, c2)),
        (Spline(kv1, np.full(kv1.dimension, -0.0)), g),
    ):
        result = improved_morken_product(f2, g2)
        kept = _hit_layout(product_module, kept)
        _assert_rows_bytes(result, f2, g2)
        coeffs = result.product.coefficients
        zeros.append(coeffs[coeffs == 0.0])
    # the zero windows give zero coefficients of both signs
    signs = np.signbit(np.concatenate(zeros))
    assert signs.any() and not signs.all()


def test_kept_f_values_follow_the_coefficient_bytes(product_module):
    """f's kept kernel values are reused only for the same bytes: f with
    its +0.0 entries flipped to -0.0 is refined again, with g kept."""
    case = build_family_case("galerkin_p", 12, SplitMix64(4))
    f, gs = case.f, case.gs
    assert np.count_nonzero(f.coefficients == 0.0) > 0
    flipped = Spline(f.knots, np.where(f.coefficients == 0.0, -0.0, f.coefficients))
    assert np.array_equal(flipped.coefficients, f.coefficients)
    assert flipped.coefficients.tobytes() != f.coefficients.tobytes()
    for f2, g in ((f, gs[0]), (f, gs[1]), (f, gs[2]), (flipped, gs[2]),
                  (flipped, gs[3]), (f, gs[3])):
        _assert_rows_bytes(improved_morken_product(f2, g), f2, g)
        slot = product_module._kept
        assert slot.f_bytes == f2.coefficients.tobytes()
    # the f values each memo holds are those of its own bytes
    values = slot.f_values
    _assert_rows_bytes(improved_morken_product(flipped, gs[0]), flipped, gs[0])
    assert product_module._kept.f_values is not values
    # a hit whose f bytes match keeps the values it reads
    values = product_module._kept.f_values
    improved_morken_product(flipped, gs[1])
    assert all(a is b for a, b in zip(product_module._kept.f_values, values))


def test_kept_layout_on_knots_that_are_not_open(product_module):
    """The slot is keyed on the knots and degrees as passed; each call
    still opens the knots."""
    rng = np.random.default_rng(5)
    kv = KnotVector([0, 0, 0.25, 0.5, 0.75, 1, 1], 2)
    assert not kv.is_open
    f = random_spline_on(rng, kv)
    g = random_spline_on(rng, uniform_open_knots(1, 4))
    improved_morken_product(f, g)
    kept = product_module._kept
    assert kept.layout is not None
    for _ in range(2):
        f = random_spline_on(rng, kv)
        result = improved_morken_product(f, g)
        kept = _hit_layout(product_module, kept)
        _assert_rows_bytes(result, f, g)
    # the same knot array read at another degree is another knot vector
    f = random_spline_on(rng, KnotVector(kv.knots, 1))
    _assert_rows_bytes(improved_morken_product(f, g), f, g)
    assert product_module._kept.layout is not kept.layout


def test_kept_layout_still_checks_target_knots(product_module):
    rng = np.random.default_rng(3)
    kv = uniform_open_knots(2, 3)
    f, g = random_spline_on(rng, kv), random_spline_on(rng, kv)
    exact = product_knot_vector(f.knots, g.knots)
    improved_morken_product(f, g, target_knots=exact)
    kept = product_module._kept
    with pytest.raises(ValueError, match="target"):
        improved_morken_product(f, g, target_knots=bernstein_knots(4))
    assert product_module._kept is kept
    assert improved_morken_product(f, g, target_knots=exact).product.knots == exact


def _blocks(module, f, g):
    """The evaluation blocks that all rows of the product of f and g pack into."""
    t = product_knot_vector(f.knots, g.knots)
    return list(module._row_blocks(*module._window_groups(t, f.degree), 0, t.dimension))


def test_multi_block_product_is_kept_when_both_sides_merge(product_module):
    """galerkin_k 40 packs into 2 blocks and is one row range, so both its
    sides merge across them and its first call keeps the layout; the
    next calls, with new g or f coefficients too, reuse that very layout
    object."""
    case = build_family_case("galerkin_k", 40, SplitMix64(12345))
    f, gs = case.f, case.gs
    assert len(_blocks(product_module, f, gs[0])) == 2
    _assert_rows_bytes(improved_morken_product(f, gs[0]), f, gs[0])
    kept = product_module._kept
    layout = kept.layout
    ((pieces, side_f, side_g),) = layout.ranges
    assert len(pieces) == 2
    # one merged side per factor, with one leaf array per block
    assert len(side_f.leaves) == len(side_g.leaves) == 2
    assert len(kept.f_values) == 2
    f2 = random_spline_on(np.random.default_rng(40), f.knots)
    for f3, g in ((f, gs[1]), (f2, gs[1])):
        _assert_rows_bytes(improved_morken_product(f3, g), f3, g)
        kept = _hit_layout(product_module, kept)
    # another key frees it; the key after that builds a new layout
    other = build_family_case("galerkin_p", 5, SplitMix64(3))
    improved_morken_product(other.f, other.gs[0])
    _assert_rows_bytes(improved_morken_product(f, gs[0]), f, gs[0])
    assert product_module._kept.layout is not layout


def test_product_past_the_stage_bound_streams_row_ranges(product_module):
    """mesh_refine_highdeg 6 merged whole would take 138,952 doubles in one
    stage of its g side, past _BLOCK: its rows are cut into 3 ranges,
    each merged on its own and packed into one block, with one leaf
    array per block on each side.  The layout is not kept, also when the
    key repeats, and the bytes are those of the per-row loop."""
    case = build_family_case("mesh_refine_highdeg", 6, SplitMix64(12345))
    f, g = case.f, case.gs[0]
    f2, g2, t = product_module._prepared_factors(f, g, None)
    layout, keep = product_module._layout(f2, g2, t)
    assert not keep and not isinstance(layout.ranges, tuple)
    ranges = list(layout.ranges)
    assert len(ranges) == 3
    for pieces, side_f, side_g in ranges:
        assert len(pieces) == 1 and len(side_f.leaves) == len(side_g.leaves) == 1
    rows = np.concatenate([rows for pieces, _, _ in ranges for _, rows in pieces[0]])
    assert np.array_equal(np.sort(rows), np.arange(t.dimension))
    for _ in range(2):
        _assert_rows_bytes(improved_morken_product(f, g), f, g)
        assert product_module._kept is None


@pytest.mark.parametrize("block, blocks", [(1, 91), (1024, 2), (1 << 16, 1)])
def test_numbering_across_block_sizes_matches_per_row_loop(
    product_module, monkeypatch, block, blocks
):
    """galerkin_p 12 with one row per block (one-row ranges, streamed), 2
    blocks (one range, merged across them) and one block: first calls,
    hits on new g coefficients with f's values reused, and hits on new f
    coefficients give the per-row loop's bytes."""
    monkeypatch.setattr(product_module, "_BLOCK", block)
    case = build_family_case("galerkin_p", 12, SplitMix64(12345))
    f, gs = case.f, case.gs
    packing = _blocks(product_module, f, gs[0])
    assert len(packing) == blocks
    if block == 1:
        assert all(sum(piece.size for _, piece in pieces) == 1 for pieces in packing)
    f2 = random_spline_on(np.random.default_rng(12), f.knots)
    for f3, g in ((f, gs[0]), (f, gs[1]), (f, gs[2]), (f2, gs[2]), (f2, gs[3])):
        _assert_rows_bytes(improved_morken_product(f3, g), f3, g)
        slot = product_module._kept
        if block == 1:
            assert slot is None
        else:
            ((pieces, _, _),) = slot.layout.ranges
            assert len(pieces) == blocks
            assert slot.f_bytes == f3.coefficients.tobytes()


@pytest.mark.parametrize(
    "family, param, block",
    [("spline_spline", 7, 1 << 16), ("spline_spline", 10, 1 << 16),
     ("galerkin_k", 12, 1 << 16), ("galerkin_k", 12, 2048)],
)
def test_merged_node_counts_match_an_independent_recount(
    product_module, monkeypatch, family, param, block
):
    """Every stage of a merged side holds one node per distinct (anchor
    span, sorted top knot values) over all rows' profiles, counted in
    plain Python sets (tests/helpers.py); galerkin_k 12 at _BLOCK 2048
    spreads them over 2 blocks."""
    monkeypatch.setattr(product_module, "_BLOCK", block)
    case = build_family_case(family, param, SplitMix64(12345))
    f, g = case.f, case.gs[0]
    improved_morken_product(f, g)
    ((pieces, *sides),) = product_module._kept.layout.ranges
    assert len(pieces) == (2 if block == 2048 else 1)
    for side, counts in zip(sides, stage_node_counts(f, g)):
        assert len(side.leaves) == len(pieces)
        assert [stage[0].size for stage in side.stages] == counts


def test_shared_stages_hold_one_node_per_parent_and_pair(product_module, monkeypatch):
    """The first call's kept galerkin_k 12 layout, packed into 2 blocks, is
    numbered across them: no stage holds two nodes with the same (parent,
    knot pair), every pair's stage factors are those of its span's knot
    window at its value, the side holds fewer nodes than its rows'
    row-nodes, and each block's values are those of the per-row loop,
    bit for bit."""
    monkeypatch.setattr(product_module, "_BLOCK", 2048)
    case = build_family_case("galerkin_k", 12, SplitMix64(12345))
    f, g = case.f, case.gs[0]
    _assert_rows_bytes(improved_morken_product(f, g), f, g)
    ((pieces, *sides),) = product_module._kept.layout.ranges
    assert len(pieces) == 2
    f, g, t = product_module._prepared_factors(f, g, None)
    spans = [find_span0_many(s.knots.knots, s.degree, t.knots[: t.dimension]) for s in (f, g)]
    pairs = [product_module._pairs(k, t.knots, product_module._runs(t.knots)) for k in spans]
    # a row's row-nodes are the nodes of that row alone
    per_row = [stage_node_counts(f, g, [i]) for i in range(t.dimension)]
    row_nodes = [sum(sum(counts[side]) for counts in per_row) for side in (0, 1)]
    rows = improved_kernel_rows(f, g)
    for i, (s, after, numbered) in enumerate(zip((f, g), sides, pairs)):
        q = s.degree
        kw, _ = _window_indices(q, numbered.pair_spans)
        for j, (parent, at, diag, sup) in enumerate(after.stages):
            d = q - j
            expected = _stage_factors(
                s.knots.knots[kw], d, q, numbered.pair_values[:, None]
            )
            assert diag.tobytes() == expected[0].tobytes()
            assert sup.tobytes() == expected[1].tobytes()
            keys = parent * diag.shape[0] + at
            assert np.unique(keys).size == keys.size
        nodes = sum(stage[0].size for stage in after.stages)
        assert nodes < row_nodes[i]
        values = product_module._side_values(s.coefficients, after)
        for leaf, block in zip(after.leaves, pieces):
            expected = np.concatenate(
                [rows[r][1 + i] for _, piece in block for r in piece]
            )
            assert values[leaf].tobytes() == expected.tobytes()


def test_one_block_product_is_kept(product_module):
    """spline_poly 30 packs into one block, so its layout is kept and a
    second call, with new coefficients too, runs on it."""
    case = build_family_case("spline_poly", 30, SplitMix64(9))
    f, g = case.f, case.gs[0]
    assert len(_blocks(product_module, f, g)) == 1
    _assert_rows_bytes(improved_morken_product(f, g), f, g)
    kept = product_module._kept
    assert kept.layout is not None
    rng = np.random.default_rng(9)
    for f2 in (f, random_spline_on(rng, f.knots)):
        _assert_rows_bytes(improved_morken_product(f2, g), f2, g)
        kept = _hit_layout(product_module, kept)


def test_one_block_product_with_an_unmerged_side_is_not_kept(
    product_module, monkeypatch
):
    """mesh_refine 10 packs into one block, and each side is made not to
    merge whole: it cuts the rows left to build in half, as a stage past
    _BLOCK would, so the product streams row ranges.  Its layout is not
    kept, also when the key repeats, and each call gives the per-row
    loop's bytes."""
    merge = product_module._merged
    monkeypatch.setattr(
        product_module,
        "_merged",
        lambda q, runs, pairs, end: merge(q, runs, pairs, max(end // 2, 1)),
    )
    case = build_family_case("mesh_refine", 10, SplitMix64(12345))
    f, g = case.f, case.gs[0]
    f2, g2, t = product_module._prepared_factors(f, g, None)
    assert len(_blocks(product_module, f, g)) == 1
    layout, keep = product_module._layout(f2, g2, t)
    assert not keep and not isinstance(layout.ranges, tuple)
    for _ in range(2):
        _assert_rows_bytes(improved_morken_product(f, g), f, g)
        assert product_module._kept is None


def test_kept_counts_are_read_only(product_module):
    case = build_family_case("galerkin_p", 6, SplitMix64(3))
    first = improved_morken_product(case.f, case.gs[0])
    second = improved_morken_product(case.f, case.gs[1])
    kept = product_module._kept[1].counts
    for counts in (first.distinct_term_counts, second.distinct_term_counts, kept):
        assert not counts.flags.writeable
        with pytest.raises(ValueError):
            counts[0] = -1
        base = counts.base
        assert base is None or not base.flags.writeable
    assert np.array_equal(first.distinct_term_counts, second.distinct_term_counts)


# ---------- stage values past the double range ----------


def _short_interval_pair(eps):
    """f of degree 5 whose first knot interval has length eps, and g of
    degree 2, with coefficients uniform in [-1, 1]."""
    rng = np.random.default_rng(23)
    f = random_spline_on(rng, KnotVector([0] * 6 + [eps, 0.5] + [1] * 6, 5))
    g = random_spline_on(rng, KnotVector([0] * 3 + [0.3, 0.55] + [1] * 3, 2))
    return f, g


@pytest.mark.parametrize("eps", [1e-80, 1e-100])
@pytest.mark.parametrize("method", ["naive", "direct"])
def test_products_name_the_overflow_on_a_very_short_knot_interval(
    product_module, method, eps
):
    """The stage values pass the double range before they cancel, although
    the product is bounded: the error names that, not the coefficients."""
    f, g = _short_interval_pair(eps)
    product = morken_product if method == "naive" else improved_morken_product
    with pytest.raises(ValueError, match="overflowed the double range"):
        with pytest.warns(RuntimeWarning):
            product(f, g)
    # a failed product keeps no layout
    assert product_module._kept is None


def test_products_on_a_short_knot_interval_within_the_double_range(product_module):
    """At eps = 1e-64 the stage values stay finite and both paths agree."""
    f, g = _short_interval_pair(1e-64)
    result = improved_morken_product(f, g)
    _assert_rows_bytes(result, f, g)
    npt.assert_allclose(
        morken_product(f, g).product.coefficients,
        result.product.coefficients,
        rtol=0,
        atol=1e-13,
    )
    assert np.max(np.abs(result.product.coefficients)) < 1


def _input_scale(f, g):
    """Largest coefficient magnitude of f times that of g."""
    return float(np.max(np.abs(f.coefficients)) * np.max(np.abs(g.coefficients)))


def _within(error, scale):
    """error <= 1e-13 * scale; below the normal range (hypothesis draws
    coefficients down to subnormals) doubles have only an absolute
    precision, so the smallest normal double is the floor."""
    return error <= 1e-13 * scale + np.finfo(float).tiny


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_improved_property_symmetric(p1, p2, data):
    f = data.draw(repeated_knot_splines(p1))
    g = data.draw(repeated_knot_splines(p2))
    fg = improved_morken_product(f, g).product
    gf = improved_morken_product(g, f).product
    assert np.array_equal(fg.knots.knots, gf.knots.knots)
    scale = max(np.max(np.abs(fg.coefficients)), np.max(np.abs(gf.coefficients)))
    assert _within(np.max(np.abs(fg.coefficients - gf.coefficients)), scale)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.data(),
)
def test_improved_property_bilinear_in_g(p1, p2, a, b, data):
    f = data.draw(repeated_knot_splines(p1))
    g1 = data.draw(repeated_knot_splines(p2))
    n = g1.coefficients.size
    c2 = data.draw(
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=n, max_size=n)
    )
    g2 = Spline(g1.knots, np.array(c2))
    mixed = Spline(g1.knots, a * g1.coefficients + b * g2.coefficients)
    lhs = improved_morken_product(f, mixed).product.coefficients
    rhs = (
        a * improved_morken_product(f, g1).product.coefficients
        + b * improved_morken_product(f, g2).product.coefficients
    )
    scale = _input_scale(f, g1) * abs(a) + _input_scale(f, g2) * abs(b)
    assert _within(np.max(np.abs(lhs - rhs)), scale)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.lists(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), min_size=1, max_size=20
    ),
    st.data(),
)
def test_improved_property_pointwise(p1, p2, points, data):
    f = data.draw(repeated_knot_splines(p1))
    g = data.draw(repeated_knot_splines(p2))
    x = np.array(points)
    product = improved_morken_product(f, g).product
    reference = evaluate(f, x) * evaluate(g, x)
    err = np.max(np.abs(evaluate(product, x) - reference))
    assert _within(err, _input_scale(f, g))
