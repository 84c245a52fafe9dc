"""Banded spline collocation: the baseline way to get product coefficients.

Interpolating the pointwise product f*g at the Greville abscissae of the
product knot vector yields a banded linear system whose solution is the
coefficient vector.  The band never exceeds p+1 nonzeros per row and the
factorization is a banded LU with partial pivoting (LAPACK dgbtrf).
Every collocation product, of collocation_product, of `splineprod
product --method collocation` and of the experiment rows, goes through
_solve_products: one factorization of the product space's matrix, then
one solve per second factor.  The factors (_BandedLU) also give the
1-norm condition estimate, a Hager-style power iteration on the
factored inverse, and each solve's relative residual, computed only
while this module's logger is enabled for DEBUG.  The estimate bounds
the true value from below, up to rounding of relative size about
kappa_1 * eps, only while kappa_1 * eps < 1 and the LU solves keep some
correct digits; beyond that it means "singular to working precision"
and may exceed the true kappa_1.  dgbtrf runs with scipy's bundled
OpenBLAS on one thread (_one_blas_thread).
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import math
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.linalg import lapack

from ._kernels import find_span0_many, nonzero_basis_rows
from .core import (
    KnotVector,
    Spline,
    _evaluate_many,
    _prepared_factors,
    greville_abscissae,
)

__all__ = [
    "BandedMatrix",
    "collocation_matrix",
    "solve_banded",
    "condition_estimate_1norm",
    "collocation_product",
]

logger = logging.getLogger(__name__)


def _thread_controls(lib):
    """(get, set) of an OpenBLAS build's thread count, or None when lib
    exports no such pair."""
    try:
        get = lib.scipy_openblas_get_num_threads
        put = lib.scipy_openblas_set_num_threads
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@functools.cache
def _blas_threads():
    """_thread_controls of the OpenBLAS that scipy's wheels bundle in
    scipy.libs, or None where there is none.  Opening it again only
    finds the copy that scipy.linalg has loaded."""
    libs = Path(scipy.__file__).parent.parent / "scipy.libs"
    paths = sorted(libs.glob("libscipy_openblas*.so"))
    try:
        return _thread_controls(ctypes.CDLL(str(paths[0]))) if paths else None
    except OSError:
        return None


# the thread count that the outermost of overlapping guards saved, and
# how many guards are open; the library's count is one per process, so
# only the first guard to enter saves it and only the last to leave
# restores it
_guard_lock = threading.Lock()
_guard_saved = 0
_guard_depth = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with the bundled OpenBLAS on one thread, then restore
    its thread count, also when the block raises; without it, do nothing.

    On 2 threads a dgbtrf at bandwidths from 66 up (the degree-33 and
    higher Galerkin rows) sometimes took 100-190 ms where one thread
    took 0.6-1.3 ms, with the same factors and pivots.  The count is the
    library's, so other threads calling BLAS while any guard is open run
    on one thread too; guards open in several threads at once restore
    the count when the last of them closes.  No environment variable is
    set.
    """
    global _guard_saved, _guard_depth
    controls = _blas_threads()
    if controls is None:
        yield
        return
    get, put = controls
    with _guard_lock:
        if _guard_depth == 0:
            _guard_saved = get()
            put(1)
        _guard_depth += 1
    try:
        yield
    finally:
        with _guard_lock:
            _guard_depth -= 1
            if _guard_depth == 0:
                put(_guard_saved)


@dataclass(frozen=True, eq=False)
class _BandedLU:
    """Factors of one banded matrix, ready for dgbtrs solves.

    Holds the matrix it factors, whose column sums the condition
    estimate reads.  Compares and hashes by identity.
    """

    matrix: BandedMatrix
    bands: np.ndarray
    pivots: np.ndarray

    def solve(self, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        a = self.matrix
        x, info = lapack.dgbtrs(
            self.bands,
            a.lower_bandwidth,
            a.upper_bandwidth,
            rhs.reshape(a.order, -1),
            self.pivots,
            trans=1 if transpose else 0,
        )
        if info != 0:
            raise np.linalg.LinAlgError(f"banded solve failed (info={info})")
        return x.reshape(rhs.shape)

    def condition(self) -> float:
        """Estimated 1-norm condition number of the factored matrix.

        ||A||_1 times at most 5 Hager iterations for ||A^-1||_1.  One
        probe vector drives the iteration; an alternating graded vector
        guards against the iteration stalling at a poor column.  See
        condition_estimate_1norm for what the estimate bounds.
        """
        a = self.matrix
        m = a.order
        x = np.full(m, 1.0 / m)
        est = 0.0
        for _ in range(5):
            y = self.solve(x)
            new_est = float(np.abs(y).sum())
            if new_est <= est:
                break
            est = new_est
            xi = np.where(y >= 0.0, 1.0, -1.0)
            z = self.solve(xi, transpose=True)
            j = int(np.argmax(np.abs(z)))
            if float(np.abs(z[j])) <= float(z @ x):
                break
            x = np.zeros(m)
            x[j] = 1.0
        if m == 1:
            alt = np.ones(1)
        else:
            alt = (-1.0) ** np.arange(m) * (1.0 + np.arange(m) / (m - 1))
        est_alt = 2.0 * float(np.abs(self.solve(alt)).sum()) / (3.0 * m)
        # the band rows below the fill-in space hold every entry once
        norm = np.abs(a.bands[a.lower_bandwidth :, :]).sum(axis=0).max()
        return float(norm) * max(est, est_alt)


@dataclass(frozen=True, eq=False)
class BandedMatrix:
    """Square banded matrix in LAPACK factorization storage.

    bands has 2*kl + ku + 1 rows and `order` columns; entry A[i, j] lives
    at bands[kl + ku + i - j, j] and the top kl rows are fill-in space
    for the pivoting factorization.  Compares and hashes by identity.
    """

    order: int
    lower_bandwidth: int
    upper_bandwidth: int
    bands: np.ndarray

    def __post_init__(self):
        kl, ku = self.lower_bandwidth, self.upper_bandwidth
        if kl < 0 or ku < 0 or self.order < 1:
            raise ValueError("bandwidths must be nonnegative and order positive")
        bands = np.array(self.bands, dtype=float)
        if bands.shape != (2 * kl + ku + 1, self.order):
            raise ValueError(
                "band storage must have 2*kl + ku + 1 rows and `order` columns"
            )
        bands.setflags(write=False)
        object.__setattr__(self, "bands", bands)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        kl, ku, m = self.lower_bandwidth, self.upper_bandwidth, self.order
        x = np.asarray(x, dtype=float)
        y = np.zeros(m)
        for d in range(-kl, ku + 1):
            row = self.bands[kl + ku - d]
            if d >= 0:
                y[: m - d] += row[d:] * x[d:]
            else:
                y[-d:] += row[: m + d] * x[: m + d]
        return y

    def lu(self) -> _BandedLU:
        """Banded LU with partial pivoting; exact zero pivot raises."""
        with _one_blas_thread():
            bands, pivots, info = lapack.dgbtrf(
                np.asfortranarray(self.bands),
                self.lower_bandwidth,
                self.upper_bandwidth,
            )
        if info < 0:
            raise ValueError(f"illegal dgbtrf argument {-info}")
        if info > 0:
            raise np.linalg.LinAlgError(
                f"matrix is singular: zero pivot at column {info}"
            )
        return _BandedLU(self, bands, pivots)


def collocation_matrix(kv: KnotVector, abscissae) -> BandedMatrix:
    """Matrix of basis values B_j(x_i) in banded storage.

    Needs exactly dimension many strictly increasing abscissae inside the
    knot span, each with B_i(x_i) != 0 (the nesting conditions); Greville
    abscissae of an open vector always qualify.
    """
    xs = np.asarray(abscissae, dtype=float)
    m = kv.dimension
    p = kv.degree
    if xs.ndim != 1 or xs.size != m:
        raise ValueError(
            f"abscissa count must equal the spline space dimension {m}"
        )
    if np.any(np.diff(xs) <= 0):
        raise ValueError("abscissae must be strictly increasing")
    spans = find_span0_many(kv.knots, p, xs)
    values = nonzero_basis_rows(kv.knots, p, spans, xs)
    first_cols = spans - p
    rows = np.arange(m)
    diag_offset = rows - first_cols
    if np.any(diag_offset < 0) or np.any(diag_offset > p) or np.any(
        values[rows, np.clip(diag_offset, 0, p)] == 0.0
    ):
        raise ValueError(
            "abscissae violate the nesting conditions: some B_i(x_i) is zero"
        )
    kl = int(max(0, diag_offset.max()))
    ku = int(max(0, (p - diag_offset).max()))
    bands = np.zeros((2 * kl + ku + 1, m))
    cols = first_cols[:, None] + np.arange(p + 1)[None, :]
    keep = (cols >= 0) & (cols < m)
    band_rows = kl + ku + rows[:, None] - cols
    bands[band_rows[keep], cols[keep]] = values[keep]
    return BandedMatrix(order=m, lower_bandwidth=kl, upper_bandwidth=ku, bands=bands)


def solve_banded(matrix: BandedMatrix, rhs) -> np.ndarray:
    """Solve the banded system; the relative residual is logged at DEBUG."""
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape != (matrix.order,):
        raise ValueError("right-hand side length must equal the matrix order")
    return _logged_solve(matrix.lu(), rhs)


def _logged_solve(lu: _BandedLU, rhs: np.ndarray) -> np.ndarray:
    """lu.solve(rhs); the relative residual, which only the log line reads,
    is computed only while the logger is enabled for DEBUG."""
    x = lu.solve(rhs)
    if logger.isEnabledFor(logging.DEBUG):
        denom = float(np.abs(rhs).max()) or 1.0
        residual = float(np.abs(lu.matrix.matvec(x) - rhs).max()) / denom
        logger.debug("banded solve residual (relative, max norm): %.3e", residual)
    return x


def condition_estimate_1norm(matrix: BandedMatrix) -> float:
    """Estimated 1-norm condition number, matrix.lu().condition().

    A lower bound on the true value, up to rounding of relative size
    about kappa_1 * eps, while kappa_1 * eps < 1.  Beyond that the solves
    keep no correct digits, so the value only says that the matrix is
    singular to working precision, and it can exceed the true kappa_1:
    for the product of two degree-24 C^23 splines on 5 uniform
    breakpoints it is 6.28e16, where the same double-precision matrix
    has kappa_1 = 5.52e16 in 90-digit arithmetic.  Matrices with an
    exact zero pivot report infinity.
    """
    try:
        lu = matrix.lu()
    except np.linalg.LinAlgError:
        return math.inf
    return lu.condition()


def collocation_product(
    f: Spline, g: Spline, target_knots: KnotVector | None = None
) -> Spline:
    """Product spline by collocation at the Greville abscissae.

    Builds the product knot vector, interpolates the pointwise product
    there, and solves the banded system.  Exact for the product space,
    but the solve inherits the conditioning of the collocation matrix.
    """
    return _solve_products(f, [g], target_knots)[0][0]


def _solve_products(
    f: Spline, gs, target_knots: KnotVector | None = None
) -> tuple[list[Spline], _BandedLU]:
    """collocation_product of f and each g in gs, and the LU they share.

    Every g, on whatever knots, must give f the same product knot vector.
    The collocation matrix is assembled and factored once, f and the gs
    evaluated in one _evaluate_many call, and each g costs one solve.
    """
    f, g, t = _prepared_factors(f, gs[0], target_knots)
    gs = [g] + [_prepared_factors(f, h, t)[1] for h in gs[1:]]
    xs = greville_abscissae(t)
    # consecutive windows t_{i+1} .. t_{i+p} and t_{i+2} .. t_{i+p+1} differ
    # in t_{i+1} and t_{i+p+1}; on a knot interval that short their means
    # round to one double, and where the two knots are equal, a knot of
    # multiplicity p + 1, the windows and their means are equal
    equal = np.flatnonzero(np.diff(xs) <= 0)
    if equal.size:
        i = int(equal[0])
        lo, hi = float(t.knots[i + 1]), float(t.knots[i + t.degree + 1])
        if lo == hi:
            raise ValueError(
                f"knot {lo!r} has multiplicity {t.degree + 1} (degree + 1) "
                "in the product space, so two of its Greville points are equal "
                "and collocation cannot interpolate the product there"
            )
        raise ValueError(
            f"knot interval [{lo!r}, {hi!r}] is too short for collocation: "
            "the Greville points of the product space on it round to equal doubles"
        )
    lu = collocation_matrix(t, xs).lu()
    values = _evaluate_many([f, *gs], xs)
    return [Spline(t, _logged_solve(lu, values[0] * gx)) for gx in values[1:]], lu
