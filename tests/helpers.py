"""Independent oracles shared by the test modules.

Everything here is deliberately naive: textbook recursions and dense
linear algebra, written without reference to the package internals, so
the fast implementations have something honest to be checked against.
`exact_product_coefficients` runs them on `fractions.Fraction` values.
The exceptions are the former loop forms of the package's batched
steps, which the batched code must match bit for bit: the clamped span
scan (`span0_clamped_scan`), the row-major de Boor kernel
(`kernel_rows_reference`), the per-row loop of the improved product
(`improved_kernel_rows`, `improved_product_rows`), the per-anchor refine loop
(`refine_rows_by_anchor`), the scalar-column Cox-de Boor triangle
(`basis_triangle_rows`) and the per-breakpoint merge of the product knot
vector (`merged_product_knots`).  `insertion_dense`,
`discrete_bspline_row` and `banded_to_dense` were package code that only
tests used.
"""

import itertools
import math
from fractions import Fraction

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


def exact_basis_row(knots, degree, x):
    """All B_{i,p}(x), i = 0..n-1, by the Cox-de Boor recursion on Fractions.

    knots and x are Fractions.  Degree 0 closes the last nonempty
    interval on the right, as basis_value does; each degree step adds
    the two weighted lower-degree values whose denominators are nonzero.
    """
    t = knots
    last = max(i for i in range(len(t) - 1) if t[i] < t[i + 1])
    row = [
        Fraction(int(t[i] <= x < t[i + 1] or (i == last and x == t[-1])))
        for i in range(len(t) - 1)
    ]
    for d in range(1, degree + 1):
        row = [
            (
                (x - t[i]) / (t[i + d] - t[i]) * row[i] if t[i + d] > t[i] else 0
            )
            + (
                (t[i + d + 1] - x) / (t[i + d + 1] - t[i + 1]) * row[i + 1]
                if t[i + d + 1] > t[i + 1]
                else 0
            )
            for i in range(len(row) - 1)
        ]
    return row


def exact_solve(matrix, rhs):
    """x with matrix @ x = rhs, by Gaussian elimination on Fractions."""
    m = len(rhs)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, m):
            factor = rows[r][col] / rows[col][col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    x = [Fraction(0)] * m
    for r in reversed(range(m)):
        tail = sum(rows[r][c] * x[c] for c in range(r + 1, m))
        x[r] = (rows[r][m] - tail) / rows[r][r]
    return x


def exact_product_coefficients(f, g, knots):
    """Coefficients of f*g over `knots`, exact, as Fractions.

    f*g is interpolated at the Greville points of knots, of degree
    f.degree + g.degree, in Fraction arithmetic: every double is an
    exact rational, so a product space with a nonsingular Greville
    system (interior multiplicities at most the degree) gives the
    product's coefficients exactly.
    """
    p = f.degree + g.degree
    t = [Fraction(v) for v in knots]
    xs = [sum(t[i + 1 : i + p + 1]) / p for i in range(len(t) - p - 1)]

    def value(s, x):
        row = exact_basis_row([Fraction(v) for v in s.knots.knots], s.degree, x)
        return sum(Fraction(c) * b for c, b in zip(s.coefficients, row))

    matrix = [exact_basis_row(t, p, x) for x in xs]
    return exact_solve(matrix, [value(f, x) * value(g, x) for x in xs])


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


def span0_clamped_scan(knots, degree, x):
    """0-based anchor of one point by the former scan of find_span0_many.

    The last index k with knots[k] <= x, clamped to [p, n - 1]; then a
    step left over empty intervals while k > p, and right while
    k < n - 1.  Raises ValueError with the package's messages, checked
    in its order, when x lies outside the knots, when no interval has
    full basis support, or when the interval reached is still empty.
    """
    knots = [float(t) for t in knots]
    p = degree
    n = len(knots) - p - 1
    if not knots[0] <= x <= knots[-1]:
        raise ValueError("evaluation point lies outside the knot span")
    if n < p + 1:
        raise ValueError(
            "knot vector has no interval with full basis support; "
            "normalize with make_open first"
        )
    k = max(i for i, t in enumerate(knots) if t <= x)
    k = min(max(k, p), n - 1)
    while knots[k] == knots[k + 1] and k > p:
        k -= 1
    while knots[k] == knots[k + 1] and k < n - 1:
        k += 1
    if knots[k] == knots[k + 1]:
        raise ValueError(
            "no nonempty knot interval with full basis support contains "
            "the evaluation point; normalize with make_open first"
        )
    return k


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


def banded_to_dense(matrix):
    """Dense form of a BandedMatrix, entry A[i, j] from bands[kl + ku + i - j, j]."""
    kl, ku, m = matrix.lower_bandwidth, matrix.upper_bandwidth, matrix.order
    dense = np.zeros((m, m))
    for i in range(m):
        for j in range(max(0, i - kl), min(m, i + ku + 1)):
            dense[i, j] = matrix.bands[kl + ku + i - j, j]
    return dense


def dense_cond1(matrix):
    """Exact 1-norm condition number via the explicit inverse."""
    dense = banded_to_dense(matrix)
    norm = np.abs(dense).sum(axis=0).max()
    inv_norm = np.abs(np.linalg.inv(dense)).sum(axis=0).max()
    return norm * inv_norm


def merged_product_knots(kv1, kv2):
    """Product knot vector from one dict entry per distinct knot value.

    Each factor's breakpoint runs go into a dict keyed by value, so where
    -0.0 and +0.0 meet the first factor's zero is kept; then the
    multiplicity rule of `product_knot_vector` is applied value by value.
    """
    from splineprod import KnotVector

    runs = {}
    for which, kv in enumerate((kv1, kv2)):
        for run in kv.breakpoints():
            entry = runs.setdefault(run.value, [0, 0])
            entry[which] = max(entry[which], run.multiplicity)
    p1, p2 = kv1.degree, kv2.degree
    p = p1 + p2
    values = []
    mults = []
    for v, (m1, m2) in sorted(runs.items()):
        if m1 > 0 and m2 > 0:
            mu = max(p1 + m2, p2 + m1)
        elif m1 > 0:
            mu = p2 + m1
        else:
            mu = p1 + m2
        values.append(v)
        mults.append(min(mu, p + 1))
    return KnotVector(np.repeat(np.asarray(values), np.asarray(mults)), p)


def insertion_dense(r):
    """Dense (rows, cols) form of a bidiagonal InsertionMatrix."""
    dense = np.zeros((r.rows, r.cols))
    idx = np.arange(r.rows)
    dense[idx, idx] = r.diagonal
    dense[idx, idx + 1] = r.superdiagonal
    return dense


def discrete_bspline_row(p, coarse, k, fine_window):
    """Row of discrete B-spline values alpha_{k-p..k} for one fine window.

    Computed as the explicit product of the dense stage matrices R_1 ..
    R_p, so tests can cross-check the kernel; returns p+1 weights,
    nonnegative with sum 1 whenever the fine window lies in the anchor
    interval.
    """
    from splineprod import insertion_matrix

    n = coarse.dimension
    if not p + 1 <= k <= n:
        raise IndexError(
            f"anchor k must satisfy degree+1 <= k <= dimension, got {k}"
        )
    fine_window = np.asarray(fine_window, dtype=float)
    if fine_window.shape != (p,):
        raise ValueError("fine window must contain exactly p knots")
    if np.any(np.diff(fine_window) < 0):
        raise ValueError("window knots must be nondecreasing")
    if p == 0:
        return np.ones(1)
    row = insertion_dense(insertion_matrix(coarse, k, 1, float(fine_window[0])))
    for d in range(2, p + 1):
        r = insertion_matrix(coarse, k, d, float(fine_window[d - 1]))
        row = row @ insertion_dense(r)
    return row[0]


def kernel_rows_reference(tau_window, coeff_window, fine_rows):
    """Refined coefficients, one per row of fine knots, rows along the first axis.

    The row-major form of `splineprod._kernels.kernel_many`, with the same
    arguments: windows of shape (2p,) and (p + 1,) or one per row, and
    fine_rows (B, p).  Each stage takes its factors from `_stage_factors`,
    so a zero denominator zeroes its row's factors.
    """
    from splineprod._kernels import _stage_factors

    p = coeff_window.shape[-1] - 1
    B = fine_rows.shape[0]
    v = np.broadcast_to(np.asarray(coeff_window, dtype=float), (B, p + 1)).copy()
    for d in range(p, 0, -1):
        t = fine_rows[:, d - 1 : d]
        diag, sup = _stage_factors(tau_window, d, p, t)
        v = diag * v[:, :d] + sup * v[:, 1 : d + 1]
    return v[:, 0]


def improved_kernel_rows(f, g):
    """The per-row loop of the improved product, up to its reduction.

    Each row enumerates its window's distinct profiles, builds their knot
    rows and runs one kernel_rows_reference call per factor over them.
    Returns one (weights, bf, bg) per row, in row order: the profiles'
    subset counts and the two factors' kernel values.
    """
    from splineprod import knot_combinations, make_open, product_knot_vector
    from splineprod._kernels import find_span0_many

    f, g = make_open(f), make_open(g)
    t = product_knot_vector(f.knots, g.knots)
    p1, p2, p, m = f.degree, g.degree, t.degree, t.dimension
    anchors = t.knots[:m]
    k1 = find_span0_many(f.knots.knots, p1, anchors)
    k2 = find_span0_many(g.knots.knots, p2, anchors)
    out = []
    for i in range(m):
        combo = knot_combinations(t.knots[i + 1 : i + 1 + p], p1)
        rows_f, rows_g = combo.knot_rows()
        bf = kernel_rows_reference(
            f.knots.knots[k1[i] - p1 + 1 : k1[i] + p1 + 1],
            f.coefficients[k1[i] - p1 : k1[i] + 1],
            rows_f,
        )
        bg = kernel_rows_reference(
            g.knots.knots[k2[i] - p2 + 1 : k2[i] + p2 + 1],
            g.coefficients[k2[i] - p2 : k2[i] + 1],
            rows_g,
        )
        out.append((combo.weights, bf, bg))
    return out


def improved_product_rows(f, g):
    """Improved-product coefficients and distinct counts, one row at a time.

    Each row reduces its improved_kernel_rows values with one dot of
    weights * bf against bg, divided by C(p, p1).  Returns (coefficients,
    distinct counts).
    """
    p1, p = f.degree, f.degree + g.degree
    divisor = float(math.comb(p, p1))
    rows = improved_kernel_rows(f, g)
    b = np.array([float(np.dot(w * bf, bg)) / divisor for w, bf, bg in rows])
    counts = np.array([w.size for w, _, _ in rows], dtype=np.int64)
    return b, counts


def piece_reduction(blocks, values_f, values_g, size):
    """The improved product's reduction one (plan weights, rows) piece at a
    time, before the division by C(p, p1): the oracle of its reduction
    grouped by profile count.

    blocks lists each block's pieces as product._row_blocks yields them,
    and values_f[i] and values_g[i] hold row i's kernel values on the f
    and g side, one per profile in plan order.  Each piece stacks its
    rows' values, multiplies f's by the plan and reduces every row with
    one matmul of 1 x T by T x 1 products, or with one multiply when T is
    1.  Returns the size reduced rows.
    """
    b = np.empty(size)
    for block in blocks:
        for weights, rows in block:
            wbf = weights * np.array([values_f[i] for i in rows])
            cols = np.array([values_g[i] for i in rows])
            if cols.shape[1] == 1:
                dots = wbf[:, 0] * cols[:, 0]
            else:
                dots = (wbf[:, None, :] @ cols[:, :, None]).ravel()
            b[rows] = dots
    return b


def stage_node_counts(f, g, rows=None):
    """Distinct stage nodes of each factor side of the improved product, per stage.

    A kernel stage's vector depends only on the row's anchor span in the
    factor and on the fine knots read so far: stage d = q, .., 1 reads
    knot d of the profile's sorted knot row, so a node of stage d is one
    (anchor span, sorted top q - d + 1 knot values).  Counted in plain
    Python sets over every profile of the product rows in rows (all of
    them by default).  Returns one list per factor, f then g, of the
    counts for stages q, .., 1.
    """
    from splineprod import knot_combinations, make_open, product_knot_vector
    from splineprod._kernels import find_span0_many

    f, g = make_open(f), make_open(g)
    t = product_knot_vector(f.knots, g.knots)
    p1, p, m = f.degree, t.degree, t.dimension
    anchors = t.knots[:m]
    rows = range(m) if rows is None else rows
    knot_rows = {
        i: knot_combinations(t.knots[i + 1 : i + 1 + p], p1).knot_rows() for i in rows
    }
    counts = []
    for side, s in enumerate((f, g)):
        q = s.degree
        spans = find_span0_many(s.knots.knots, q, anchors)
        nodes = [set() for _ in range(q)]
        for i in rows:
            for row in knot_rows[i][side]:
                knots = sorted(float(x) for x in row)
                for j, d in enumerate(range(q, 0, -1)):
                    nodes[j].add((int(spans[i]), tuple(knots[d - 1 :])))
        counts.append([len(stage) for stage in nodes])
    return counts


def refine_rows_by_anchor(knots, coeffs, p, spans, fine_rows):
    """Kernel value of every fine row at its 0-based anchor spans[r].

    Rows are grouped by anchor, stably, so each group shares one knot and
    coefficient window and takes one kernel_rows_reference call on 1-D
    windows.
    """
    out = np.empty(spans.size)
    if spans.size == 0:
        return out
    order = np.argsort(spans, kind="stable")
    boundaries = np.flatnonzero(np.diff(spans[order])) + 1
    for group in np.split(order, boundaries):
        k0 = int(spans[group[0]])
        out[group] = kernel_rows_reference(
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
