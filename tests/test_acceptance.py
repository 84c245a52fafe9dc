"""Acceptance suite: one check per shipped claim, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion.  The checks cover: naive/improved agreement, pointwise
accuracy and its collocation comparison, term-count statistics, mesh
refinement, conditioning growth, knot-insertion invariants, combination
exhaustiveness, and bitwise CSV reproducibility.

Two claims are checked only where they can hold, against oracles that
share no code with the package:

- Criterion 05 (term-count plateau of cubic x degree 30 under mesh
  refinement) checks the exact integer profile totals against a
  generating-function count, the rise of nu_bar with the level, the
  ceiling of 180 at every level, and the [120, 180] band from level 7
  on.  A counting bound rules out an earlier onset (see the test).
- Criterion 07 (collocation conditioning growth under degree elevation)
  checks monotonicity and agreement with the explicit inverse while the
  estimate is below 1/eps, and that it never falls back below 1/eps
  after.  Past 1/eps the LU solves keep no correct digits, so the
  estimate only says "singular to working precision"; the true
  condition number still rises, but no double-precision quantity shows it.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

import splineprod
from splineprod import (
    ExperimentConfig,
    KnotVector,
    Spline,
    SplitMix64,
    binomial,
    build_family_case,
    collocation_matrix,
    condition_estimate_1norm,
    evaluate,
    greville_abscissae,
    improved_morken_product,
    knot_combinations,
    morken_product,
    oslo_coefficients,
    product_knot_vector,
    relative_linf_error,
    run_experiment,
    uniform_open_knots,
)
from helpers import (
    dense_cond1,
    fit_power_coeffs,
    power_to_bernstein,
    random_open_kv,
    random_spline_on,
    window_profile_total,
)

ACCEPTANCE_SEED = 987654321


@pytest.fixture(scope="module")
def spline_poly_rows():
    cfg = ExperimentConfig(family="spline_poly", seed=ACCEPTANCE_SEED)
    return run_experiment(cfg)


@pytest.fixture(scope="module")
def mesh_refine_rows():
    cfg = ExperimentConfig(family="mesh_refine", seed=ACCEPTANCE_SEED)
    return run_experiment(cfg)


def distinct_term_total(t, p1):
    """Total distinct profile count and dimension of product space t."""
    p, m = t.degree, t.dimension
    windows = sliding_window_view(t.knots[1 : m + p], p)
    unique, counts = np.unique(windows, axis=0, return_counts=True)
    total = sum(
        int(count) * len(knot_combinations(window, p1).combinations)
        for window, count in zip(unique, counts)
    )
    return total, m


def mean_distinct_count(kv1, kv2):
    """nu_bar of the product space; depends on the knots alone."""
    total, m = distinct_term_total(product_knot_vector(kv1, kv2), kv1.degree)
    return total / m


def test_criterion_01_improved_equals_naive_on_random_pairs():
    """200 random pairs, degrees 1..6, mixed knots: agreement to 1e-13."""
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    start = time.perf_counter()
    for trial in range(200):
        p1 = int(rng.integers(1, 7))
        p2 = int(rng.integers(1, 7))
        if trial % 2 == 0:
            kv1 = uniform_open_knots(p1, int(rng.integers(2, 6)))
            kv2 = uniform_open_knots(p2, int(rng.integers(2, 6)))
        else:
            kv1 = random_open_kv(rng, p1, max_interior=3, mult_cap=p1)
            kv2 = random_open_kv(rng, p2, max_interior=3, mult_cap=p2)
        f = random_spline_on(rng, kv1)
        g = random_spline_on(rng, kv2)
        naive = morken_product(f, g).product.coefficients
        improved = improved_morken_product(f, g).product.coefficients
        scale = max(np.max(np.abs(naive)), 1e-300)
        assert np.max(np.abs(naive - improved)) / scale <= 1e-13
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"200 pair comparisons took {elapsed:.1f} s"


def test_criterion_02_pointwise_error_and_collocation_gap(spline_poly_rows):
    """Direct error <= 5e-14 at all degrees; collocation 1e8 worse at 50."""
    for row in spline_poly_rows:
        assert row.e_direct <= 5e-14, (
            f"direct error {row.e_direct:.3e} at degree {row.param}"
        )
    last = spline_poly_rows[-1]
    assert last.param == 50
    ratio = last.e_colloc / last.e_direct
    assert ratio >= 1e8, f"collocation/direct error ratio {ratio:.3e} at degree 50"


def test_criterion_02_direct_error_spline_spline_degree_50():
    """The 5e-14 bound also holds for the spline_spline row at degree 50.

    The product has degree 100, where dividing by a C(100, 50) with a
    relative error of 5.4e-14 alone would exceed the bound.
    """
    master = SplitMix64(ACCEPTANCE_SEED)
    seeds = [master.next_u64() for _ in range(1, 51)]
    case = build_family_case("spline_spline", 50, SplitMix64(seeds[-1]))
    g = case.gs[0]
    result = improved_morken_product(case.f, g)
    e_direct = relative_linf_error(result.product, case.f, g)
    assert e_direct <= 5e-14, f"direct error {e_direct:.3e} at degree 50"


@pytest.mark.parametrize(
    "family, param", [("spline_poly_general", 50), ("mesh_refine_highdeg", 10)]
)
def test_criterion_02_direct_error_at_largest_parameter(family, param):
    """The 5e-14 bound also holds at the last row of two more families.

    spline_poly_general 50 multiplies a random cubic by a random degree-50
    polynomial; mesh_refine_highdeg 10 a random cubic by a random degree-30
    spline on 1,027 breakpoints (m = 4,223 rows of degree 33).
    """
    case = build_family_case(family, param, SplitMix64(12345))
    g = case.gs[0]
    result = improved_morken_product(case.f, g)
    e_direct = relative_linf_error(result.product, case.f, g)
    assert e_direct <= 5e-14, f"direct error {e_direct:.3e} at {family} {param}"


@pytest.mark.parametrize("family", ["galerkin_p", "galerkin_k"])
def test_criterion_02_direct_error_galerkin_degree_50(family):
    """The 5e-14 bound holds for every product of a degree-50 Galerkin row.

    One f times 99 (galerkin_p) or 54 (galerkin_k) g on one knot pair:
    the first product builds and keeps the layout, one row range, and
    the rest reuse it and f's kernel values.
    """
    case = build_family_case(family, 50, SplitMix64(12345))
    for j, g in enumerate(case.gs):
        result = improved_morken_product(case.f, g)
        e_direct = relative_linf_error(result.product, case.f, g)
        assert e_direct <= 5e-14, (
            f"direct error {e_direct:.3e} at {family} 50, product {j}"
        )


def test_criterion_03_term_counts_spline_poly(spline_poly_rows):
    """nu_bar < 4 for all degrees; naive count is exactly C(3 + d, 3)."""
    for row in spline_poly_rows:
        assert row.nu_bar < 4.0, f"nu_bar {row.nu_bar} at degree {row.param}"
        assert row.naive_terms == math.comb(3 + row.param, 3)


def test_criterion_04_term_counts_galerkin_p():
    """nu_bar near 3.3 and 26.4 at the range ends; naive counts 20 and ~1e29."""
    def factor_knots(degree):
        return uniform_open_knots(degree, 5, interior_multiplicity=degree - 2)

    nu_3 = mean_distinct_count(factor_knots(3), factor_knots(3))
    nu_50 = mean_distinct_count(factor_knots(50), factor_knots(50))
    assert abs(nu_3 - 3.3) <= 0.15 * 3.3, f"nu_bar at degree 3 is {nu_3}"
    assert abs(nu_50 - 26.4) <= 0.15 * 26.4, f"nu_bar at degree 50 is {nu_50}"
    assert binomial(6, 3) == 20
    naive_50 = binomial(100, 50)
    exact = math.comb(100, 50)
    assert abs(naive_50 - exact) / exact <= 1e-12
    assert 1e29 <= naive_50 < 1.1e29


def test_criterion_05_term_counts_mesh_refine_highdeg():
    """Cubic x degree-30: naive count 5456; nu_bar in [120, 180] for n >= 7.

    The cubic has 5 breakpoints, the degree-30 factor 2^n + 3, so the
    product has degree p = 33 and every window holds 33 knots.  At every
    level 1..10 the program's profile total must equal an independent
    generating-function count exactly, nu_bar must rise with the level
    and stay at most 180, and it must sit in [120, 180] from level 7 on.

    The ceiling is a theorem: fine breakpoints have multiplicity 4 in the
    product, so a window holds at most 9 distinct values, and k values
    give at most C(k + 2, 3) profiles of 3 knots, here C(11, 3) = 165.
    The same bound fixes the onset.  At level 3 no window holds more
    than 4 distinct values (at most 20 profiles), at level 4 no more
    than 6 (at most 56), so nu_bar cannot reach 120 there.  From level 5
    on, the same 223 windows, near the ends (multiplicity 34) and the
    cubic's breakpoints (multiplicity 31), hold fewer than 9 values.
    They are 87% of the m = 255 windows at level 5 and 58% of 383 at
    level 6, where nu_bar is 60.1 and 93.5; at level 7 they are 35% of
    639 and nu_bar is 120.1, rising to 154.0 at level 10.
    """
    cubic5 = uniform_open_knots(3, 5)
    assert binomial(33, 3) == 5456
    curve = {}
    for level in range(1, 11):
        fine = uniform_open_knots(30, 2**level + 3)
        t = product_knot_vector(cubic5, fine)
        total, m = distinct_term_total(t, 3)
        expected = window_profile_total(t.knots, t.degree, 3)
        assert (total, m) == expected, (
            f"profile total {total} over {m} rows at level {level}; "
            f"independent count {expected}"
        )
        curve[level] = total / m
    shown = {level: round(value, 2) for level, value in curve.items()}
    assert all(
        curve[level] > curve[level - 1] for level in range(2, 11)
    ), f"nu_bar does not rise with the level: {shown}"
    assert max(curve.values()) <= 180.0, f"nu_bar above 180: {shown}"
    outside = {
        level: round(value, 2)
        for level, value in curve.items()
        if level >= 7 and not 120.0 <= value <= 180.0
    }
    assert not outside, (
        f"nu_bar outside [120, 180] at levels {outside}; full curve {shown}"
    )


def test_criterion_06_mesh_refinement_accuracy(mesh_refine_rows):
    """Cubic x cubic under refinement: both methods at machine precision."""
    for row in mesh_refine_rows:
        assert row.e_direct <= 1e-13, (
            f"direct error {row.e_direct:.3e} at level {row.param}"
        )
        assert row.e_colloc <= 1e-13, (
            f"collocation error {row.e_colloc:.3e} at level {row.param}"
        )


def test_criterion_07_conditioning_growth_k_refinement():
    """Condition estimate rising while resolvable, above 1e12 by degree 50.

    Product space of two degree-d C^(d-1) splines on 5 uniform
    breakpoints, d = 3..50.  Hager's estimator is a lower bound only
    while the LU solves keep correct digits, i.e. kappa_1 * eps < 1.  So
    monotonicity from degree 10 and 1% agreement with the explicit
    inverse are checked over the resolvable range, the degrees before
    the estimate first reaches 1/eps; that range must reach degree 20.
    Past it the estimate must stay at or above 1/eps: the
    ill-conditioning never recedes.  There the estimate and the explicit
    inverse both wobble, although the true kappa_1 keeps rising (about
    9.4e15 at degree 23 and 2.9e24 at degree 35 in 90-digit arithmetic
    on the exactly evaluated matrix); rounding the entries to doubles
    alone caps it far below that.
    """
    inverse_eps = 1.0 / np.finfo(float).eps
    matrices = {}
    estimates = {}
    for degree in range(3, 51):
        kv = uniform_open_knots(degree, 5, interior_multiplicity=1)
        t = product_knot_vector(kv, kv)
        matrices[degree] = collocation_matrix(t, greville_abscissae(t))
        estimates[degree] = condition_estimate_1norm(matrices[degree])
    assert any(
        value > 1e12 for degree, value in estimates.items() if degree < 50
    ), "condition estimate never exceeded 1e12 before degree 50"
    unresolved = next(
        (degree for degree in range(10, 51) if estimates[degree] >= inverse_eps),
        51,
    )
    assert unresolved > 20, f"estimate reaches 1/eps already at degree {unresolved}"
    resolvable = range(10, unresolved)
    violations = [
        (degree, estimates[degree - 1], estimates[degree])
        for degree in resolvable[1:]
        if estimates[degree] < estimates[degree - 1]
    ]
    assert not violations, (
        "condition estimate decreased past degree 10 at "
        + ", ".join(
            f"{degree} ({before:.3e} -> {after:.3e})"
            for degree, before, after in violations
        )
    )
    for degree in resolvable:
        exact = dense_cond1(matrices[degree])
        assert abs(estimates[degree] - exact) <= 0.01 * exact, (
            f"estimate {estimates[degree]:.4e} vs explicit inverse "
            f"{exact:.4e} at degree {degree}"
        )
    receded = {
        degree: f"{estimates[degree]:.3e}"
        for degree in range(unresolved, 51)
        if estimates[degree] < inverse_eps
    }
    assert not receded, f"estimate fell back below 1/eps at {receded}"


def test_criterion_08_knot_insertion_invariants():
    """Oslo refinement pointwise to 1e-14; Bezier extraction to 1e-12."""
    rng = np.random.default_rng(ACCEPTANCE_SEED + 8)
    for _ in range(100):
        p = int(rng.integers(1, 6))
        kv = random_open_kv(rng, p)
        s = random_spline_on(rng, kv)
        extra = np.sort(rng.uniform(0.0, 1.0, size=int(rng.integers(1, 6))))
        fine = KnotVector(np.sort(np.concatenate([kv.knots, extra])), p)
        b = oslo_coefficients(p, kv, s.coefficients, fine)
        grid = np.linspace(0.0, 1.0, 201)
        original = evaluate(s, grid)
        refined = evaluate(Spline(fine, b), grid)
        scale = max(np.max(np.abs(original)), 1.0)
        assert np.max(np.abs(refined - original)) <= 1e-14 * scale
    for p in range(1, 6):
        kv = uniform_open_knots(p, 4)
        s = random_spline_on(rng, kv)
        breaks = [r.value for r in kv.breakpoints()]
        fine = KnotVector(np.repeat(breaks, p + 1), p)
        b = oslo_coefficients(p, kv, s.coefficients, fine)
        for seg in range(len(breaks) - 1):
            lo, hi = breaks[seg], breaks[seg + 1]
            power = fit_power_coeffs(lambda x: evaluate(s, x), lo, hi, p)
            expected = power_to_bernstein(power, lo, hi)
            got = b[seg * (p + 1) : (seg + 1) * (p + 1)]
            assert np.max(np.abs(got - expected)) <= 1e-12


def test_criterion_09_combination_exhaustiveness():
    """Sum of repetition factors is C(p, p1) exactly, in integer arithmetic."""
    rng = np.random.default_rng(ACCEPTANCE_SEED + 9)
    for _ in range(1000):
        p = int(rng.integers(2, 21))
        window = np.sort(rng.integers(0, 6, size=p)).astype(float)
        for p1 in range(0, p + 1):
            combo = knot_combinations(window, p1)
            total = sum(combo.repetition_factors)
            assert isinstance(total, int)
            assert total == math.comb(p, p1)


def test_criterion_10_bitwise_reproducible_csv(tmp_path):
    """Two runs of the same experiment invocation emit identical bytes."""
    command = [
        sys.executable,
        "-m",
        "splineprod",
        "experiment",
        "--family",
        "mesh_refine",
        "--seed",
        "123",
    ]
    # the child imports the package this process imported, also when
    # only pytest's pythonpath setting put it on sys.path
    package_root = str(Path(splineprod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (package_root, os.environ.get("PYTHONPATH")))
    )
    paths = []
    for name in ("one.csv", "two.csv"):
        out = tmp_path / name
        result = subprocess.run(
            command + ["-o", str(out)], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        paths.append(out)
    first, second = (path.read_bytes() for path in paths)
    assert first == second
    assert first.startswith(b"family,param,")
