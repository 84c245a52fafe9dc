"""Independent oracles shared by the test modules.

Everything here is deliberately naive: textbook recursions and dense
linear algebra, written without reference to the package internals, so
the fast implementations have something honest to be checked against.
The exceptions are the former loop forms of the package's batched
steps, which the batched code must match bit for bit: the per-row loop
of the improved product (`improved_product_rows`), the per-anchor refine
loop (`refine_rows_by_anchor`) and the scalar-column Cox-de Boor
triangle (`basis_triangle_rows`).
"""

import itertools
import math

import numpy as np


def basis_value(knots, degree, i, x):
    """B_{i,p}(x) by the Cox-de Boor recursion, 0-based index i.

    The last nonempty interval is treated as closed on the right so the
    basis sums to one on the full closed span.
    """
    knots = np.asarray(knots, dtype=float)
    if degree == 0:
        if knots[i] <= x < knots[i + 1]:
            return 1.0
        # right-endpoint closure on the last nonempty interval
        if x == knots[-1] and knots[i] < knots[i + 1] == knots[-1]:
            return 1.0
        return 0.0
    value = 0.0
    den = knots[i + degree] - knots[i]
    if den > 0.0:
        value += (x - knots[i]) / den * basis_value(knots, degree - 1, i, x)
    den = knots[i + degree + 1] - knots[i + 1]
    if den > 0.0:
        value += (knots[i + degree + 1] - x) / den * basis_value(
            knots, degree - 1, i + 1, x
        )
    return value


def eval_oracle(spline, x):
    """Sum of coefficients times individually recursed basis functions."""
    knots = np.asarray(spline.knots.knots, dtype=float)
    p = spline.degree
    coeffs = np.asarray(spline.coefficients, dtype=float)
    return sum(
        c * basis_value(knots, p, i, x) for i, c in enumerate(coeffs) if c != 0.0
    )


def span_scan(knots, degree, x):
    """1-based span index by linear scan over the nonempty intervals."""
    knots = np.asarray(knots, dtype=float)
    n = len(knots) - degree - 1
    last = None
    for k in range(degree + 1, n + 1):
        lo, hi = knots[k - 1], knots[k]
        if lo < hi:
            last = k
            if lo <= x < hi:
                return k
    if x == knots[-1] and last is not None:
        return last
    raise ValueError("x outside every nonempty interval")


def boehm_insert(degree, knots, coeffs, u):
    """Single knot insertion: new knot vector and coefficients.

    Standard Boehm update with 1-based span k such that t_k <= u < t_{k+1}.
    """
    knots = np.asarray(knots, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    p = degree
    k = span_scan(knots, p, u)
    new_knots = np.insert(knots, k, u)
    new_coeffs = np.empty(len(coeffs) + 1)
    for i in range(1, len(new_coeffs) + 1):  # 1-based coefficient index
        if i <= k - p:
            new_coeffs[i - 1] = coeffs[i - 1]
        elif i >= k + 1:
            new_coeffs[i - 1] = coeffs[i - 2]
        else:
            den = knots[i + p - 1] - knots[i - 1]
            a = (u - knots[i - 1]) / den if den > 0.0 else 0.0
            new_coeffs[i - 1] = a * coeffs[i - 1] + (1.0 - a) * coeffs[i - 2]
    return new_knots, new_coeffs


def power_to_bernstein(power_coeffs, a, b):
    """Bernstein coefficients on [a, b] of sum_k c_k x^k (global coords)."""
    poly = np.polynomial.Polynomial(power_coeffs)
    local = poly(np.polynomial.Polynomial([a, b - a]))
    c = local.coef
    p = len(power_coeffs) - 1
    c = np.pad(c, (0, p + 1 - len(c)))
    return np.array(
        [
            sum(math.comb(i, k) / math.comb(p, k) * c[k] for k in range(i + 1))
            for i in range(p + 1)
        ]
    )


def fit_power_coeffs(fun, a, b, degree):
    """Power-basis coefficients of a polynomial sampled at Chebyshev points."""
    nodes = np.cos((2 * np.arange(degree + 1) + 1) * np.pi / (2 * (degree + 1)))
    xs = 0.5 * (a + b) + 0.5 * (b - a) * nodes
    values = np.array([fun(x) for x in xs])
    vander = np.vander(xs, degree + 1, increasing=True)
    return np.linalg.solve(vander, values)


def brute_combinations(window, p1):
    """All C(p, p1) index subsets of the window grouped by knot multiset.

    Returns {multiplicity profile over distinct window values: count}.
    """
    window = np.asarray(window, dtype=float)
    values = np.unique(window)
    groups = {}
    for subset in itertools.combinations(range(len(window)), p1):
        profile = tuple(
            int(np.sum(window[list(subset)] == v)) for v in values
        )
        groups[profile] = groups.get(profile, 0) + 1
    return groups


def distinct_profile_count(multiplicities, p1):
    """Distinct p1-knot sub-multisets of a window, by generating function.

    A window whose distinct values occur c_1, ..., c_s times has one
    profile per (mu_1, ..., mu_s) with 0 <= mu_j <= c_j summing to p1,
    so the count is the coefficient of x^p1 in prod_j (1 + x + ... + x^c_j).
    Exact integer polynomial products; no enumeration of profiles.
    """
    poly = [1]
    for c in multiplicities:
        grown = [0] * (len(poly) + int(c))
        for i, a in enumerate(poly):
            for j in range(int(c) + 1):
                grown[i + j] += a
        poly = grown
    return poly[p1] if 0 <= p1 < len(poly) else 0


def window_profile_total(knots, degree, p1):
    """Total distinct-profile count over the interior windows of a basis.

    Window i (0-based) is knots[i + 1 : i + 1 + degree], the interior
    knots of B_i.  Returns (total, number of windows); the ratio is the
    mean distinct term count nu_bar.
    """
    knots = np.asarray(knots, dtype=float)
    m = len(knots) - degree - 1
    total = 0
    for i in range(m):
        _, counts = np.unique(knots[i + 1 : i + 1 + degree], return_counts=True)
        total += distinct_profile_count(counts.tolist(), p1)
    return total, m


def random_open_kv(rng, degree, max_interior=4, span=(0.0, 1.0), mult_cap=None):
    """Random open knot vector with interior multiplicities up to the degree."""
    from splineprod import KnotVector

    a, b = span
    cap = degree if mult_cap is None else mult_cap
    cap = max(cap, 1)
    count = int(rng.integers(0, max_interior + 1))
    interior = np.sort(rng.uniform(a, b, size=count))
    interior = np.unique(interior)
    knots = [a] * (degree + 1)
    for v in interior:
        knots.extend([v] * int(rng.integers(1, cap + 1)))
    knots.extend([b] * (degree + 1))
    return KnotVector(np.array(knots), degree)


def random_spline_on(rng, kv):
    """Spline on kv with coefficients uniform in [-1, 1]."""
    from splineprod import Spline

    return Spline(kv, rng.uniform(-1.0, 1.0, size=kv.dimension))


def dense_cond1(matrix):
    """Exact 1-norm condition number via the explicit inverse."""
    dense = matrix.to_dense()
    norm = np.abs(dense).sum(axis=0).max()
    inv_norm = np.abs(np.linalg.inv(dense)).sum(axis=0).max()
    return norm * inv_norm


def improved_product_rows(f, g):
    """Improved-product coefficients and distinct counts, one row at a time.

    Each row enumerates its window's distinct profiles, builds their knot
    rows, runs one kernel_many call per factor over them and reduces with
    one dot of weights * bf against bg, divided by C(p, p1).  Returns
    (coefficients, distinct counts).
    """
    from splineprod import knot_combinations, make_open, product_knot_vector
    from splineprod._kernels import find_span0_many, kernel_many

    f, g = make_open(f), make_open(g)
    t = product_knot_vector(f.knots, g.knots)
    p1, p2, p, m = f.degree, g.degree, t.degree, t.dimension
    anchors = t.knots[:m]
    k1 = find_span0_many(f.knots.knots, p1, f.knots.dimension, anchors)
    k2 = find_span0_many(g.knots.knots, p2, g.knots.dimension, anchors)
    divisor = float(math.comb(p, p1))
    b = np.empty(m)
    counts = np.empty(m, dtype=np.int64)
    for i in range(m):
        combo = knot_combinations(t.knots[i + 1 : i + 1 + p], p1)
        rows_f, rows_g = combo.knot_rows()
        bf = kernel_many(
            f.knots.knots[k1[i] - p1 + 1 : k1[i] + p1 + 1],
            f.coefficients[k1[i] - p1 : k1[i] + 1],
            rows_f,
        )
        bg = kernel_many(
            g.knots.knots[k2[i] - p2 + 1 : k2[i] + p2 + 1],
            g.coefficients[k2[i] - p2 : k2[i] + 1],
            rows_g,
        )
        b[i] = float(np.dot(combo.weights * bf, bg)) / divisor
        counts[i] = len(combo.combinations)
    return b, counts


def refine_rows_by_anchor(knots, coeffs, p, spans, fine_rows):
    """Kernel value of every fine row at its 0-based anchor spans[r].

    Rows are grouped by anchor, stably, so each group shares one knot and
    coefficient window and takes one kernel_many call on 1-D windows.
    """
    from splineprod._kernels import kernel_many

    out = np.empty(spans.size)
    if spans.size == 0:
        return out
    order = np.argsort(spans, kind="stable")
    boundaries = np.flatnonzero(np.diff(spans[order])) + 1
    for group in np.split(order, boundaries):
        k0 = int(spans[group[0]])
        out[group] = kernel_many(
            knots[k0 - p + 1 : k0 + p + 1], coeffs[k0 - p : k0 + 1], fine_rows[group]
        )
    return out


def basis_triangle_rows(knots, degree, span0s, xs):
    """All nonzero basis values per point, the triangle one column at a time."""
    p = degree
    m = xs.shape[0]
    N = np.zeros((m, p + 1))
    N[:, 0] = 1.0
    left = np.empty((m, p + 1))
    right = np.empty((m, p + 1))
    for j in range(1, p + 1):
        left[:, j] = xs - knots[span0s + 1 - j]
        right[:, j] = knots[span0s + j] - xs
        saved = np.zeros(m)
        for r in range(j):
            temp = N[:, r] / (right[:, r + 1] + left[:, j - r])
            N[:, r] = saved + right[:, r + 1] * temp
            saved = left[:, j - r] * temp
        N[:, j] = saved
    return N
