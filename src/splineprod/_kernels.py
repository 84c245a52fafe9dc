"""Low-level B-spline kernels on raw arrays.

Everything here works on plain numpy arrays with 0-based indices and no
validation; the public modules wrap these with typed containers, 1-based
index contracts and error checking.
"""
from __future__ import annotations

import numpy as np

# the doubles one block of rows may take into a stage loop, in the
# improved product and in the refine step under evaluate; one unblocked
# batch over all rows ran at half speed from memory traffic
_BLOCK = 1 << 16

__all__ = [
    "find_span0_many",
    "kernel_many",
    "nonzero_basis_rows",
]


def find_span0_many(
    knots: np.ndarray, degree: int, dimension: int, xs: np.ndarray
) -> np.ndarray:
    """0-based anchor k0 with knots[k0] <= x < knots[k0+1], per point of xs.

    The right endpoint is closed: x == knots[-1] anchors to the last
    nonempty interval.  The result is clamped into [degree, dimension-1]
    so the coefficient window c[k0-degree .. k0] always exists; when the
    clamped interval is empty the scan moves to the nearest nonempty one
    (left first, matching right-endpoint closure, then right).  NaN
    points lie outside every span.
    """
    if xs.size == 0:
        return np.empty(0, dtype=np.intp)
    if not (knots[0] <= xs.min() and xs.max() <= knots[-1]):
        raise ValueError("evaluation point lies outside the knot span")
    if dimension < degree + 1:
        raise ValueError(
            "knot vector has no interval with full basis support; "
            "normalize with make_open first"
        )
    k0 = np.searchsorted(knots, xs, side="right").astype(np.intp) - 1
    np.clip(k0, degree, dimension - 1, out=k0)
    # scan left over empty intervals (right-endpoint closure), then right
    for _ in range(len(knots)):
        mask = (knots[k0] == knots[k0 + 1]) & (k0 > degree)
        if not mask.any():
            break
        k0[mask] -= 1
    for _ in range(len(knots)):
        mask = (knots[k0] == knots[k0 + 1]) & (k0 < dimension - 1)
        if not mask.any():
            break
        k0[mask] += 1
    if np.any(knots[k0] == knots[k0 + 1]):
        raise ValueError(
            "no nonempty knot interval with full basis support contains "
            "the evaluation point; normalize with make_open first"
        )
    return k0


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
    axis.  Applies the bidiagonal stages R_p, .., R_1; stage d uses fine
    knot number d and shrinks the vector from d+1 to d entries.  Cost is
    3p(p+1)/2 flops per row.  With p = 0 every row gets its coefficient.
    """
    p = coeff_window.shape[-1] - 1
    B = fine_rows.shape[0]
    v = np.broadcast_to(np.asarray(coeff_window, dtype=float), (B, p + 1)).copy()
    for d in range(p, 0, -1):
        t = fine_rows[:, d - 1 : d]
        diag, sup = _stage_factors(tau_window, d, p, t)
        v = diag * v[:, :d] + sup * v[:, 1 : d + 1]
    return v[:, 0]


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
