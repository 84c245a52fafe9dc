"""Knot vectors, splines, and the product knot vector.

Index convention: the public find_span returns 1-based indices k with
degree+1 <= k <= dimension, matching the windows c_{k-p..k} used
throughout; helper slices convert to 0-based internally.  Knot equality
is exact floating-point equality everywhere, in product_knot_vector
too: breakpoints 1e-12 apart stay two breakpoints.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._kernels import _BLOCK, find_span0_many

__all__ = [
    "KnotVector",
    "Spline",
    "BreakpointRun",
    "make_open",
    "find_span",
    "evaluate",
    "greville_abscissae",
    "product_knot_vector",
    "multiplicity",
    "make_spline",
    "uniform_open_knots",
    "bernstein_knots",
]


@dataclass(frozen=True)
class BreakpointRun:
    """One distinct knot value together with its multiplicity."""

    value: float
    multiplicity: int

    def __post_init__(self):
        mult = _check_integer(self.multiplicity, "multiplicity must be an integer")
        if mult < 1:
            raise ValueError("breakpoint multiplicity must be at least 1")
        if not np.isfinite(self.value):
            raise ValueError("breakpoint value must be a finite number")


@dataclass(frozen=True, eq=False)
class KnotVector:
    """Nondecreasing knot sequence read in the context of a degree.

    Invariants checked on construction: the degree is a nonnegative
    integer, the knots are finite and nondecreasing, no value occurs
    more than degree+1 times, and there are at least degree+2 knots so
    the spline space is nonempty.  Equal degrees and knot values compare
    equal (-0.0 equals 0.0); the type is unhashable.
    """

    knots: np.ndarray
    degree: int

    def __post_init__(self):
        degree = _check_integer(self.degree, "degree must be a nonnegative integer")
        if degree < 0:
            raise ValueError("degree must be a nonnegative integer")
        object.__setattr__(self, "degree", degree)
        knots = np.array(self.knots, dtype=float)
        if knots.ndim != 1:
            raise ValueError("knots must be a one-dimensional array of numbers")
        if not np.all(np.isfinite(knots)):
            raise ValueError("knots must be finite numbers")
        if knots.size < self.degree + 2:
            raise ValueError("knot vector must contain at least degree + 2 knots")
        if np.any(np.diff(knots) < 0):
            raise ValueError("knots must be nondecreasing")
        values, counts = np.unique(knots, return_counts=True)
        worst = int(np.argmax(counts))
        if counts[worst] > self.degree + 1:
            raise ValueError(
                "knot multiplicity must not exceed degree + 1 "
                f"(value {values[worst]!r} occurs {int(counts[worst])} times)"
            )
        knots.setflags(write=False)
        object.__setattr__(self, "knots", knots)

    @property
    def dimension(self) -> int:
        """Number of B-splines over this knot vector."""
        return self.knots.size - self.degree - 1

    @property
    def span(self) -> tuple[float, float]:
        return (float(self.knots[0]), float(self.knots[-1]))

    @property
    def is_open(self) -> bool:
        """True when both boundary knots have multiplicity degree + 1."""
        p1 = self.degree + 1
        k = self.knots
        return bool(k.size >= 2 * p1 and k[0] == k[p1 - 1] and k[-p1] == k[-1])

    def breakpoints(self) -> list[BreakpointRun]:
        values, counts = np.unique(self.knots, return_counts=True)
        return [
            BreakpointRun(float(v), int(c)) for v, c in zip(values, counts)
        ]

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnotVector):
            return NotImplemented
        return self.degree == other.degree and np.array_equal(
            self.knots, other.knots
        )


@dataclass(frozen=True, eq=False)
class Spline:
    """B-spline coefficients over a knot vector.

    Equal knot vectors and coefficient values compare equal (-0.0 equals
    0.0); the type is unhashable.
    """

    knots: KnotVector
    coefficients: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coefficients, dtype=float)
        if coeffs.ndim != 1:
            raise ValueError("coefficients must be a one-dimensional array of numbers")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite numbers")
        if coeffs.size != self.knots.dimension:
            raise ValueError(
                "coefficient count must equal len(knots) - degree - 1 "
                f"(expected {self.knots.dimension}, got {coeffs.size})"
            )
        coeffs.setflags(write=False)
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return self.knots.degree

    def __eq__(self, other) -> bool:
        if not isinstance(other, Spline):
            return NotImplemented
        return self.knots == other.knots and np.array_equal(
            self.coefficients, other.coefficients
        )

    def __call__(self, x):
        return evaluate(self, x)

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "knots": [float(t) for t in self.knots.knots],
            "coefficients": [float(c) for c in self.coefficients],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Spline":
        if not isinstance(data, dict):
            raise ValueError("spline document must be a JSON object")
        for key in ("degree", "knots", "coefficients"):
            if key not in data:
                raise ValueError(f"missing required field '{key}'")
        degree = _check_integer(data["degree"], "degree must be a nonnegative integer")
        arrays = {}
        for key in ("knots", "coefficients"):
            seq = data[key]
            if not isinstance(seq, (list, tuple)) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in seq
            ):
                raise ValueError(f"{key} must be an array of numbers")
            try:
                arrays[key] = np.asarray(seq, dtype=float)
            except OverflowError:  # a JSON integer past the double range
                raise ValueError(f"{key} must be finite numbers") from None
        return cls(KnotVector(arrays["knots"], degree), arrays["coefficients"])


def _check_integer(value, message: str) -> int:
    """value as an int: Python and numpy integers pass; bools, floats and
    the rest raise ValueError(message)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(message)
    return int(value)


def make_spline(degree: int, knots, coefficients) -> Spline:
    """Convenience constructor from plain sequences."""
    return Spline(
        KnotVector(np.asarray(knots, dtype=float), degree),
        np.asarray(coefficients, dtype=float),
    )


def uniform_open_knots(
    degree: int,
    num_breakpoints: int,
    interior_multiplicity: int = 1,
    start: float = 0.0,
    end: float = 1.0,
) -> KnotVector:
    """Open knot vector on uniform breakpoints.

    Breakpoints are start + (end-start)*j/(num_breakpoints-1), so equal
    parameters produce bitwise-equal knot values across calls.
    """
    if _check_integer(num_breakpoints, "breakpoint count must be an integer") < 2:
        raise ValueError("need at least 2 breakpoints")
    if _check_integer(interior_multiplicity, "multiplicity must be an integer") < 1:
        raise ValueError("interior multiplicity must be at least 1")
    bps = start + (end - start) * (
        np.arange(num_breakpoints) / (num_breakpoints - 1)
    )
    mults = np.full(num_breakpoints, interior_multiplicity)
    mults[0] = mults[-1] = degree + 1
    return KnotVector(np.repeat(bps, mults), degree)


def bernstein_knots(degree: int, start: float = 0.0, end: float = 1.0) -> KnotVector:
    """Knot vector of a polynomial piece: (start^(p+1), end^(p+1))."""
    return uniform_open_knots(degree, 2, start=start, end=end)


def multiplicity(kv: KnotVector, value: float) -> int:
    """How many times `value` occurs in the knot vector (exact equality)."""
    return int(np.count_nonzero(kv.knots == value))


def _multiplicities(kv: KnotVector, values: np.ndarray) -> np.ndarray:
    """How many times each of `values` occurs in the knot vector."""
    return np.searchsorted(kv.knots, values, "right") - np.searchsorted(
        kv.knots, values
    )


def make_open(s: Spline) -> Spline:
    """Equivalent spline on an open knot vector.

    Boundary knots are repeated up to multiplicity degree+1 and the new
    coefficients are zero; the spline is unchanged as a function on the
    original span.  Open input is returned unchanged.
    """
    kv = s.knots
    if kv.is_open:
        return s
    p = kv.degree
    pad_left = p + 1 - multiplicity(kv, kv.knots[0])
    pad_right = p + 1 - multiplicity(kv, kv.knots[-1])
    knots = np.concatenate(
        [np.full(pad_left, kv.knots[0]), kv.knots, np.full(pad_right, kv.knots[-1])]
    )
    coeffs = np.concatenate(
        [np.zeros(pad_left), s.coefficients, np.zeros(pad_right)]
    )
    return Spline(KnotVector(knots, p), coeffs)


def find_span(kv: KnotVector, x: float) -> int:
    """1-based index k of the interval [t_k, t_{k+1}) holding x.

    The interval is clipped into the first and the last nonempty interval
    with full basis support, so degree+1 <= k <= dimension and the
    coefficient window c_{k-p..k} exists.  At an interior knot the
    interval starting there holds x; x at the right end of the span gets
    the last nonempty interval.
    """
    xs = np.array([float(x)])
    return int(find_span0_many(kv.knots, kv.degree, xs)[0]) + 1


def _window_slices(p: int, k0: int) -> tuple[slice, slice]:
    """Knot window tau_{k+1-p..k+p} and coefficient window c_{k-p..k}.

    k0 = k - 1 is the 0-based anchor; the first slice indexes the knot
    array (2p entries), the second the coefficient array (p+1 entries).
    """
    return slice(k0 - p + 1, k0 + p + 1), slice(k0 - p, k0 + 1)


def _window_indices(p: int, spans: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Knot and coefficient window indices at every 0-based anchor, one row each."""
    kw, cw = _window_slices(p, 0)
    col = spans[:, None]
    return col + np.arange(kw.start, kw.stop), col + np.arange(cw.start, cw.stop)


def _window_blocks(knots: np.ndarray, p: int, spans: np.ndarray):
    """Anchors in blocks, with their windows laid out one column each.

    Yields (rows, cols, tau) for every block of _BLOCK // (3p + 1)
    anchors, whose windows (3p + 1 words each) take about _BLOCK doubles:
    rows slices spans, cols holds the coefficient window indices c_{k-p}
    .. c_k, (p + 1, B), and tau the knot windows tau_{k+1-p} .. tau_{k+p},
    (2p, B).  Both are gathered along the columns, so every stage slice
    of stage_pass is contiguous.
    """
    kw, cw = (np.arange(w.start, w.stop)[:, None] for w in _window_slices(p, 0))
    step = max(1, _BLOCK // (3 * p + 1))
    for lo in range(0, spans.size, step):
        rows = slice(lo, lo + step)
        k0 = spans[rows]
        yield rows, cw + k0, knots[kw + k0]


# layouts kept across evaluate calls.  The benchmark's error grid reads
# a spline_poly row's f, g and product one spline at a time, three knot
# vectors in turn: layout misses over three short_products passes were
# 633 with one entry, 99 with two, 72 with three and 72 with four
_LAYOUTS = 3


@lru_cache(maxsize=_LAYOUTS)
def _evaluation_layout(
    knot_bytes: bytes, p: int, point_bytes: bytes
) -> tuple[tuple, ...]:
    """Knot-only blocks of the points on the open knots, 5p + 1 words per point.

    The blocks of _window_blocks, each with the stage numerators hi - x
    over x - lo, (2p, B), of its points; taking the numerators per call
    made hits 4-29% slower.  Only _pass reads them.  The key is bytes,
    so a -0.0 and a +0.0 point, whose numerators can differ in sign,
    never share a layout.  Every miss places its points with
    find_span0_many, one clip into the nonempty intervals; a key whose
    points it rejects is not kept.
    """
    knots = np.frombuffer(knot_bytes)
    xs = np.frombuffer(point_bytes)
    return tuple(
        (rows, cols, tau, np.concatenate((tau[p:] - xs[rows], xs[rows] - tau[:p])))
        for rows, cols, tau in _window_blocks(knots, p, find_span0_many(knots, p, xs))
    )


# the splines one pass takes at a time: their coefficient windows take
# at most 8 * _BLOCK * (p + 1) / (3p + 1) doubles.  On galerkin_p 50's
# 198 product vectors one at a time took 691 ms, 8 at a time 375 ms and
# all at once 356 ms, but all at once took the row's peak RSS from 67
# to 98 MB, where 8 at a time take 69 MB
_PASS = 8


def _pass(knot_bytes: bytes, p: int, coefficients, xs: np.ndarray) -> np.ndarray:
    """Values at xs of splines on one open knot vector, one row each.

    coefficients holds each spline's coefficient vector.  In each block
    of the kept layout (_evaluation_layout), each stage's factors
    (hi - x) / (hi - lo) and (x - lo) / (hi - lo), the arithmetic of
    _stage_factors, are computed once for every _PASS splines; each
    spline's windows then take two multiplies and one add.  The last of
    them multiplies in place in the factor arrays, so one spline
    allocates what a stage_pass does.
    """
    out = np.empty((len(coefficients), xs.size))
    layout = _evaluation_layout(knot_bytes, p, xs.tobytes())
    for lo in range(0, len(coefficients), _PASS):
        chunk = coefficients[lo : lo + _PASS]
        for rows, cols, tau, num in layout:
            vs = [c[cols] for c in chunk]
            *rest, last = vs
            for d in range(p, 0, -1):
                w = tau[p : p + d] - tau[p - d : p]
                a = num[:d] / w
                b = np.divide(num[2 * p - d :], w, out=w)
                for v in rest:
                    np.add(a * v[:d], b * v[1 : d + 1], out=v[:d])
                a *= last[:d]
                b *= last[1 : d + 1]
                np.add(a, b, out=last[:d])
            for k, v in enumerate(vs, lo):
                out[k, rows] = v[0]
    return out


def _evaluate_many(splines, xs: np.ndarray) -> np.ndarray:
    """Values of every spline at the points xs, (len(splines), xs.size).

    Splines on one open knot vector (bytes and degree) share one _pass,
    whatever their order.  Every value has the bits of its own evaluate
    call.
    """
    passes: dict[tuple, list] = {}
    for i, s in enumerate(splines):
        s = make_open(s)
        key = (s.knots.knots.tobytes(), s.degree)
        passes.setdefault(key, []).append((i, s.coefficients))
    out = np.empty((len(splines), xs.size))
    for (knot_bytes, p), members in passes.items():
        rows, coefficients = zip(*members)
        out[list(rows)] = _pass(knot_bytes, p, coefficients, xs)
    return out


def evaluate(s: Spline, x):
    """Value of the spline at x (scalar or array).

    The _pass of the one spline.  The last _LAYOUTS knot-only layouts of
    points (see _evaluation_layout) are kept, so evaluating another
    spline on the same knots and points runs only the stage arithmetic.
    Non-open knot vectors are normalized first so every point in the
    span has a full coefficient window.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    s = make_open(s)
    out = _pass(s.knots.knots.tobytes(), s.degree, [s.coefficients], xs.ravel())
    out = out[0].reshape(xs.shape)
    return float(out[0]) if scalar else out


def greville_abscissae(kv: KnotVector) -> np.ndarray:
    """Knot averages x_i = (t_{i+1} + .. + t_{i+p}) / p for i = 1..dimension.

    Each average is clipped into its window [t_{i+1}, t_{i+p}], since the
    rounded mean of p equal knots can miss them (7 x -1.7 averages to
    -1.6999999999999997).
    """
    p = kv.degree
    if p < 1:
        raise ValueError("degree must be at least 1 for Greville abscissae")
    if not kv.is_open:
        raise ValueError("knot vector must be open")
    n = kv.dimension
    windows = np.lib.stride_tricks.sliding_window_view(kv.knots[1 : n + p], p)
    return np.clip(windows.mean(axis=1), windows[:, 0], windows[:, -1])


def product_knot_vector(kv1: KnotVector, kv2: KnotVector) -> KnotVector:
    """Knot vector of degree p1+p2 containing all products of the two spaces.

    Breakpoints are the union of the factors' breakpoints.  An interior
    breakpoint appearing in both factors with multiplicities mu1, mu2 > 0
    gets multiplicity max(p1 + mu2, p2 + mu1); one appearing only in
    factor one gets p2 + mu1, only in factor two gets p1 + mu2.  Open
    boundaries come out at multiplicity p1+p2+1.  Where the factors hold
    -0.0 and +0.0, the first factor's zero is kept.
    """
    p1, p2 = kv1.degree, kv2.degree
    if p1 < 1 or p2 < 1:
        raise ValueError("degree must be at least 1 for product knot vectors")
    if not (kv1.is_open and kv2.is_open):
        raise ValueError("knot vectors must be open; normalize with make_open")
    if kv1.span != kv2.span:
        raise ValueError(
            "knot vectors must share the same span "
            f"(got {kv1.span} and {kv2.span})"
        )
    v1 = np.unique(kv1.knots)
    v2 = np.unique(kv2.knots)
    # the shared span keeps every index below v1.size; a value of kv2
    # equal to one of kv1 (-0.0 and +0.0 included) is taken from kv1
    only2 = v1[np.searchsorted(v1, v2)] != v2
    values = np.sort(np.concatenate([v1, v2[only2]]))
    mu1 = _multiplicities(kv1, values)
    mu2 = _multiplicities(kv2, values)
    # mu1 <= p1 + 1 and mu2 <= p2 + 1, so no multiplicity exceeds p1 + p2 + 1
    mults = np.maximum(np.where(mu2 > 0, p1 + mu2, 0), np.where(mu1 > 0, p2 + mu1, 0))
    return KnotVector(np.repeat(values, mults), p1 + p2)


def _prepared_factors(
    f: Spline, g: Spline, target_knots: KnotVector | None
) -> tuple[Spline, Spline, KnotVector]:
    """Normalize factors to open vectors and fix the product knot vector."""
    if f.degree < 1 or g.degree < 1:
        raise ValueError("degree must be at least 1 for spline products")
    f = make_open(f)
    g = make_open(g)
    if f.knots.span != g.knots.span:
        raise ValueError(
            "factors must share the same knot span "
            f"(got {f.knots.span} and {g.knots.span})"
        )
    t = product_knot_vector(f.knots, g.knots)
    _check_target(target_knots, t)
    return f, g, t


def _check_target(target_knots: KnotVector | None, t: KnotVector) -> None:
    if target_knots is not None and target_knots != t:
        raise ValueError(
            "target_knots must equal the product knot vector of the factors; "
            "coarser or otherwise different targets are not supported"
        )
