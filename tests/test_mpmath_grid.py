"""Direct and collocation products against f·g evaluated in mpmath.

The experiment's e_direct compares the product with f·g evaluated in
doubles, whose rounding is as large as the product's own error.  Here
f, g and the product h are evaluated at the same grid points (201, or
21 at each family's top degree) by a de Boor recurrence in 50-digit
mpmath arithmetic, which shares no code with the package: the doubles
of the knots, coefficients and points enter exactly, so what is left is
the error of h's coefficients.
"""

import bisect

import numpy as np
import pytest

from splineprod import collocation_product, improved_morken_product
from splineprod.bench import SplitMix64, build_family_case

mpmath = pytest.importorskip("mpmath")

EPS = float(np.finfo(float).eps)


def mp_values(spline, xs):
    """Spline values at the points xs by de Boor's recurrence in mpmath.

    Each point takes the last knot interval [t_k, t_{k+1}) that holds it,
    clipped to the intervals degree .. n - 1 with full basis support, so
    the right end of the span reads the last interval.
    """
    p = spline.degree
    t = [mpmath.mpf(float(v)) for v in spline.knots.knots]
    c = [mpmath.mpf(float(v)) for v in spline.coefficients]
    n = len(c)
    out = []
    for x in xs:
        x = mpmath.mpf(float(x))
        k = min(max(bisect.bisect_right(t, x) - 1, p), n - 1)
        d = c[k - p : k + 1]
        for r in range(1, p + 1):
            for j in range(p, r - 1, -1):
                i = k - p + j
                a = (x - t[i]) / (t[i + p + 1 - r] - t[i])
                d[j] = (1 - a) * d[j - 1] + a * d[j]
        out.append(d[p])
    return out


def grid_error(h, ref, xs):
    """max|h - ref| / max|ref| over the points xs, in mpmath."""
    err = max(abs(u - r) for u, r in zip(mp_values(h, xs), ref))
    return err / max(abs(r) for r in ref)


@pytest.mark.parametrize(
    "family, param",
    [("galerkin_p", 12), ("galerkin_k", 12), ("mesh_refine_highdeg", 3)],
)
def test_direct_product_is_exact_to_roundoff_on_the_grid(family, param):
    """max|h - f·g| / max|f·g| over the grid, in mpmath, stays within 4 eps
    for the first two second factors of each galerkin row and the one of
    mesh_refine_highdeg 3 (row seed 12345).  Measured: at most 1.4 eps."""
    case = build_family_case(family, param, SplitMix64(12345))
    f = case.f
    with mpmath.workdps(50):
        for g in case.gs[:2]:
            h = improved_morken_product(f, g).product
            xs = np.linspace(*h.knots.span, 201)
            ref = [u * v for u, v in zip(mp_values(f, xs), mp_values(g, xs))]
            assert grid_error(h, ref, xs) <= 4 * EPS


@pytest.mark.parametrize(
    "family, param, ill_conditioned",
    [
        ("spline_spline", 50, True),
        ("galerkin_p", 50, True),
        ("galerkin_k", 50, True),
        ("spline_poly_general", 50, True),
        ("mesh_refine_highdeg", 10, False),
    ],
)
def test_direct_and_collocation_errors_at_the_top_degree(family, param, ill_conditioned):
    """At each family's top degree, for the first second factor (row seed
    12345) on 21 grid points, the direct product stays within 4 eps of f·g
    in mpmath.  Collocation, against the same f·g, is off by at least 32
    eps on the degree-50 rows, whose condition estimates are 1.8e18 ..
    9.8e21, and stays within 4 eps on mesh_refine_highdeg 10, whose
    estimate is 2.5e8.  Measured: direct 0.23 .. 1.10 eps; collocation
    61.8 .. 370 eps at degree 50 and 0.67 eps on mesh_refine_highdeg 10."""
    case = build_family_case(family, param, SplitMix64(12345))
    f, g = case.f, case.gs[0]
    h = improved_morken_product(f, g).product
    xs = np.linspace(*h.knots.span, 21)
    with mpmath.workdps(50):
        ref = [u * v for u, v in zip(mp_values(f, xs), mp_values(g, xs))]
        assert grid_error(h, ref, xs) <= 4 * EPS
        colloc = grid_error(collocation_product(f, g), ref, xs)
    if ill_conditioned:
        assert colloc >= 32 * EPS
    else:
        assert colloc <= 4 * EPS
