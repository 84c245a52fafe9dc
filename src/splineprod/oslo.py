"""Knot insertion: bidiagonal stage matrices and the local de Boor kernel.

One refined coefficient b_i depends only on a window of the coarse data:
the anchor index k of t_i in the coarse knots tau gives the knot window
tau_{k+1-p} .. tau_{k+p} (length 2p), the coefficient window c_{k-p} .. c_k
(length p+1) and the fine window t_{i+1} .. t_{i+p} (length p).  b_i is
the product of the bidiagonal stages applied to the coefficient window,
3p(p+1)/2 flops in total.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import _stage_factors, find_span0_many, stage_pass
from .core import (
    KnotVector,
    _multiplicities,
    _window_blocks,
    _window_slices,
    make_open,
    make_spline,
)

__all__ = [
    "LocalWindow",
    "InsertionMatrix",
    "insertion_matrix",
    "deboor_kernel",
    "oslo_coefficients",
]


@dataclass(frozen=True, eq=False)
class LocalWindow:
    """The three arrays one refined coefficient depends on.

    coarse_knots has even length 2p, coarse_coeffs length p+1 and
    fine_knots length p; all three are nondecreasing and the fine knots
    lie inside the coarse window's span.  Compares and hashes by
    identity.
    """

    coarse_knots: np.ndarray
    coarse_coeffs: np.ndarray
    fine_knots: np.ndarray

    def __post_init__(self):
        coarse = np.array(self.coarse_knots, dtype=float)
        coeffs = np.array(self.coarse_coeffs, dtype=float)
        fine = np.array(self.fine_knots, dtype=float)
        p = coeffs.size - 1
        if p < 1 or coarse.size != 2 * p or fine.size != p:
            raise ValueError(
                "inconsistent window sizes: need 2p coarse knots, p+1 "
                "coefficients and p fine knots"
            )
        if np.any(np.diff(coarse) < 0) or np.any(np.diff(fine) < 0):
            raise ValueError("window knots must be nondecreasing")
        if fine[0] < coarse[0] or fine[-1] > coarse[-1]:
            raise ValueError("fine knots must lie within the coarse window's span")
        for name, arr in (("coarse_knots", coarse), ("coarse_coeffs", coeffs),
                          ("fine_knots", fine)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def degree(self) -> int:
        return self.coarse_coeffs.size - 1


@dataclass(frozen=True, eq=False)
class InsertionMatrix:
    """Bidiagonal stage R_d: d rows, d+1 columns, two nonzero bands.

    Compares and hashes by identity.
    """

    rows: int
    cols: int
    diagonal: np.ndarray
    superdiagonal: np.ndarray

    def __post_init__(self):
        if self.cols != self.rows + 1:
            raise ValueError("stage matrix must have one more column than rows")
        if self.diagonal.size != self.rows or self.superdiagonal.size != self.rows:
            raise ValueError("band lengths must equal the row count")

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape[-1] != self.cols:
            raise ValueError("vector length must equal the column count")
        return self.diagonal * v[..., : self.rows] + self.superdiagonal * v[..., 1:]


def insertion_matrix(coarse: KnotVector, k: int, d: int, t: float) -> InsertionMatrix:
    """Stage matrix R_d^k(t) over the coarse knots, k 1-based.

    Entry l (1-based, l = 1..d) has diagonal (tau_{k+l} - t) / w and
    superdiagonal (t - tau_{k+l-d}) / w with w = tau_{k+l} - tau_{k+l-d};
    when w = 0 the whole fraction vanishes and both entries are 0.
    """
    p = coarse.degree
    n = coarse.dimension
    if not 1 <= d <= p:
        raise IndexError(f"stage d must satisfy 1 <= d <= degree, got {d}")
    if not p + 1 <= k <= n:
        raise IndexError(
            f"anchor k must satisfy degree+1 <= k <= dimension, got {k}"
        )
    window = coarse.knots[_window_slices(p, k - 1)[0]]
    diag, sup = _stage_factors(window, d, p, float(t))
    return InsertionMatrix(rows=d, cols=d + 1, diagonal=diag, superdiagonal=sup)


def deboor_kernel(window: LocalWindow, p: int) -> float:
    """One refined coefficient from a local window.

    Equals the product R_1(t'_1) .. R_p(t'_p) applied to the coefficient
    window; the stages are applied right to left, stage d consuming fine
    knot number d, with the factors of insertion_matrix: where the anchor
    interval is empty, a stage row with a zero denominator gives 0.
    """
    if window.degree != p:
        raise ValueError(
            f"inconsistent window sizes: window has degree {window.degree}, "
            f"kernel called with p = {p}"
        )
    v = window.coarse_coeffs
    for d in range(p, 0, -1):
        diag, sup = _stage_factors(window.coarse_knots, d, p, window.fine_knots[d - 1])
        v = diag * v[:d] + sup * v[1 : d + 1]
    return float(v[0])


def _validate_refinement(coarse: KnotVector, fine: KnotVector) -> None:
    """Fine must locally refine coarse on the fine span."""
    lo, hi = fine.span
    clo, chi = coarse.span
    if lo < clo or hi > chi:
        raise ValueError(
            "not a refinement: fine span must lie within the coarse span"
        )
    values, counts = np.unique(coarse.knots, return_counts=True)
    have = _multiplicities(fine, values)
    short = np.flatnonzero((have < counts) & (lo < values) & (values < hi))
    if short.size:
        i = short[0]
        raise ValueError(
            "not a refinement: coarse knot "
            f"{float(values[i])!r} has multiplicity {int(counts[i])} but "
            f"only {int(have[i])} in the fine vector"
        )


def oslo_coefficients(
    p: int, coarse: KnotVector, coeffs: np.ndarray, fine: KnotVector
) -> np.ndarray:
    """Coefficients of the same spline on a locally refined knot vector.

    Both knot vectors must have degree p and the fine vector must contain
    every interior coarse knot of its span with at least the coarse
    multiplicity; a fine span strictly inside the coarse span yields the
    coefficients of the restriction.  The coarse side is normalized to an
    open vector first so every anchor has a full coefficient window; the
    returned array has one coefficient per fine B-spline.  Rows run one
    stage_pass per block of core._window_blocks, each row's fine window
    t_{i+1} .. t_{i+p} in one column.
    """
    if coarse.degree != p or fine.degree != p:
        raise ValueError("degree mismatch between knot vectors and p")
    src = make_open(make_spline(p, coarse.knots, np.asarray(coeffs, dtype=float)))
    ckv = src.knots
    _validate_refinement(ckv, fine)
    n = fine.dimension
    spans = find_span0_many(ckv.knots, p, fine.knots[:n])
    # rows of the transposed view are contiguous: sliced, not copied
    fine_windows = np.lib.stride_tricks.sliding_window_view(fine.knots[1 : n + p], p).T
    out = np.empty(n)
    for rows, cols, tau in _window_blocks(ckv.knots, p, spans):
        out[rows] = stage_pass(tau, src.coefficients[cols], fine_windows[:, rows])
    return out

