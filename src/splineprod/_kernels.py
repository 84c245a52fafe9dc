"""Low-level B-spline kernels on raw arrays.

Everything here works on plain numpy arrays with 0-based indices and no
validation; the public modules wrap these with typed containers, 1-based
index contracts and error checking.  stage_pass is the batched de Boor
stage loop on fine windows: kernel_many runs it on rows of fine knots
for the naive product, and oslo.oslo_coefficients on the column windows
of core._window_blocks.  Evaluation, whose every fine knot is the point
itself, takes its stage factors from core's kept layouts instead.
"""
from __future__ import annotations

import numpy as np

# the doubles one block of rows may take into a stage loop: each stage
# of an improved product's row range, one block of its rows' leaf
# values, and the stage passes of evaluate and oslo_coefficients; one
# unblocked batch over all rows ran at half speed from memory traffic
_BLOCK = 1 << 16

__all__ = [
    "find_span0_many",
    "kernel_many",
    "nonzero_basis_rows",
    "stage_pass",
]


def find_span0_many(knots: np.ndarray, degree: int, xs: np.ndarray) -> np.ndarray:
    """0-based anchor k0 of every point of xs.

    k0 is the interval [knots[k0], knots[k0+1]) holding x, clipped into
    the first and the last nonempty interval with full basis support,
    degree <= k0 <= dimension - 1, dimension = knots.size - degree - 1,
    so the coefficient window c[k0-degree .. k0] always exists.  The
    interval holding x < knots[-1] is nonempty, so a point leaves it only
    when the clip moves it (x == knots[-1] always is).  NaN points lie
    outside every span.
    """
    if xs.size == 0:
        return np.empty(0, dtype=np.intp)
    dimension = knots.size - degree - 1
    if not (knots[0] <= xs.min() and xs.max() <= knots[-1]):
        raise ValueError("evaluation point lies outside the knot span")
    if dimension < degree + 1:
        raise ValueError(
            "knot vector has no interval with full basis support; "
            "normalize with make_open first"
        )
    full = knots[degree : dimension + 1]
    nonempty = np.flatnonzero(full[:-1] < full[1:]) + degree
    if nonempty.size == 0:
        raise ValueError(
            "no nonempty knot interval with full basis support contains "
            "the evaluation point; normalize with make_open first"
        )
    k0 = np.searchsorted(knots, xs, side="right").astype(np.intp) - 1
    return np.clip(k0, nonempty[0], nonempty[-1], out=k0)


def _stage_factors(
    tau_window: np.ndarray, d: int, p: int, t
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and superdiagonal of the d-th bidiagonal stage.

    `t` may be a scalar or a column of shape (B, 1) for batched use;
    tau_window may carry leading batch axes, with the window on the last.
    Rows with a zero denominator get both entries set to 0: the whole
    fraction vanishes by convention, it is not an omega/(1-omega) pair.
    On a nonempty anchor interval every denominator is positive, because
    hi >= tau_{k+1} > tau_k >= lo.
    """
    hi = tau_window[..., p : p + d]
    lo = tau_window[..., p - d : p]
    denom = hi - lo
    ok = denom > 0
    if ok.all():
        return (hi - t) / denom, (t - lo) / denom
    safe = np.where(ok, denom, 1.0)
    diag = np.where(ok, (hi - t) / safe, 0.0)
    sup = np.where(ok, (t - lo) / safe, 0.0)
    return diag, sup


def stage_pass(tau: np.ndarray, v: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Apply the de Boor stages R_p, .., R_1 in place to windows in columns.

    tau holds knot windows tau_{k+1-p} .. tau_{k+p}, (2p, B) or (2p, 1)
    for one shared window; v coefficient windows c_{k-p} .. c_k, (p + 1,
    B); t fine windows t_{i+1} .. t_{i+p}, (p, B), stage d reading row d.
    A stage takes three subtractions, two divisions, two in-place
    multiplies and one add, the arithmetic of _stage_factors, so values
    keep their bits.  Every anchor interval [tau_k, tau_{k+1}) must be
    nonempty, so that every denominator hi - lo is positive.  Returns
    row 0 of v.
    """
    p = v.shape[0] - 1
    for d in range(p, 0, -1):
        hi, lo = tau[p : p + d], tau[p - d : p]
        w = hi - lo
        a = hi - t[d - 1]
        a /= w
        b = t[d - 1] - lo
        b /= w
        a *= v[:d]
        b *= v[1 : d + 1]
        np.add(a, b, out=v[:d])
    return v[0]


def kernel_many(
    tau_window: np.ndarray,
    coeff_window: np.ndarray,
    fine_rows: np.ndarray,
) -> np.ndarray:
    """Refined coefficients from local windows, one per row of fine knots.

    tau_window has length 2p (knots tau_{k+1-p} .. tau_{k+p}), coeff_window
    length p+1 (c_{k-p} .. c_k), fine_rows shape (B, p), each row a fine
    window t_{i+1} .. t_{i+p}.  Either window may also hold one window per
    row, shapes (B, 2p) and (B, p+1); p is read from coeff_window's last
    axis.  The rows run as the columns of one stage_pass, so every anchor
    interval must be nonempty.  With p = 0 every row gets its coefficient.
    """
    p = coeff_window.shape[-1] - 1
    B = fine_rows.shape[0]
    # one window per row is copied, so that every stage slice is contiguous
    tau = np.ascontiguousarray(np.atleast_2d(tau_window).T)
    v = np.array(np.broadcast_to(coeff_window, (B, p + 1)).T, dtype=float, order="C")
    return stage_pass(tau, v, fine_rows.T)


def nonzero_basis_rows(
    knots: np.ndarray, degree: int, span0s: np.ndarray, xs: np.ndarray
) -> np.ndarray:
    """Triangular evaluation of all nonzero basis values, one row per point.

    Each triangle row j takes whole-array steps over all points, entry by
    entry the arithmetic of the scalar recursion.  Denominators are
    differences of knots spanning the (nonempty) anchor interval, so they
    never vanish for valid spans.
    """
    p = degree
    # transposed, so every slice runs along the points; left[j] is
    # x - t_{k+1-j}, right[j] is t_{k+j} - x, and row 0 of both is unused
    N = np.zeros((p + 1, xs.shape[0]))
    N[0] = 1.0
    offsets = np.arange(p + 1)[:, None]
    left = xs - knots[span0s + 1 - offsets]
    right = knots[span0s + offsets] - xs
    for j in range(1, p + 1):
        right_j, left_j = right[1 : j + 1], left[j:0:-1]
        temp = right_j + left_j
        np.divide(N[:j], temp, out=temp)
        saved = left_j * temp
        np.multiply(right_j, temp, out=N[:j])
        # the recursion adds the first entry to a saved 0.0, which turns
        # a -0.0 into +0.0
        N[0] += 0.0
        N[1:j] += saved[: j - 1]
        N[j] = saved[j - 1]
    return N.T
