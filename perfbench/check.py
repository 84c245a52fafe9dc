"""Correctness check against scipy, run outside the timed pass.

f, g and every computed product are evaluated with
``scipy.interpolate.BSpline``, which shares no code with splineprod, on a
grid of CHECK_POINTS points.  The error of a product h is
max|h - f*g| / max|f*g| on that grid.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import BSpline

# odd and not 2^k + 1, so the grid is not a superset of the program's own
# 201-point error grid
CHECK_POINTS = 397
DIRECT_TOLERANCE = 1e-12
# naive and improved coefficients agree to this, as acceptance criterion 01 asks
NAIVE_TOLERANCE = 1e-13
# digits are capped here so an exact product reports a finite number
DIGITS_CAP = 17.0


def _scipy(s) -> BSpline:
    return BSpline(s.knots.knots, s.coefficients, s.degree)


def digits(err: float) -> float:
    return min(DIGITS_CAP, -math.log10(err)) if err > 0.0 else DIGITS_CAP


def check_outputs(outputs) -> tuple[int, dict]:
    """Failed-operation count and the digits of every product, per path.

    A direct product fails above DIRECT_TOLERANCE; a collocation product
    fails on a non-finite result; a naive product fails when it differs
    from the improved one by more than NAIVE_TOLERANCE relative to its
    largest coefficient.
    """
    failed = 0
    found = {"direct": [], "colloc": []}
    f_values = {}  # the factors of one row share f
    for o in outputs:
        lo, hi = o.f.knots.span
        xs = np.linspace(lo, hi, CHECK_POINTS)
        if id(o.f) not in f_values:
            f_values[id(o.f)] = _scipy(o.f)(xs)
        ref = f_values[id(o.f)] * _scipy(o.g)(xs)
        scale = float(np.abs(ref).max()) or 1.0
        for path, h in (("direct", o.direct), ("colloc", o.colloc)):
            if h is None:
                continue
            err = float(np.abs(_scipy(h)(xs) - ref).max()) / scale
            if not math.isfinite(err) or (path == "direct" and err > DIRECT_TOLERANCE):
                failed += 1
            else:
                found[path].append(digits(err))
        if o.naive is not None and o.direct is not None:
            a, b = o.naive.coefficients, o.direct.coefficients
            rel = float(np.abs(a - b).max()) / max(float(np.abs(a).max()), 1e-300)
            if not rel <= NAIVE_TOLERANCE:
                failed += 1
    return failed, found
