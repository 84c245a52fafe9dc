"""Batched refine and basis steps against their loop forms, byte for byte.

`evaluate` and `oslo_coefficients` refine rows in blocks with one window
per row, and `collocation_matrix` computes the Cox-de Boor triangle one
whole row at a time.  Each must give the bits, zero signs included, of
the per-anchor and scalar-column loops in `tests/helpers.py`.
"""

import numpy as np
import pytest

import splineprod.collocation as collocation_module
import splineprod.core as core
from splineprod import (
    KnotVector,
    collocation_matrix,
    evaluate,
    greville_abscissae,
    make_spline,
    oslo_coefficients,
    uniform_open_knots,
)
from splineprod._kernels import find_span0_many, nonzero_basis_rows
from helpers import basis_triangle_rows, random_spline_on, refine_rows_by_anchor

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

# spans with a -0.0 end and spans whose equal knots average off their value
SPANS = ((0.0, 1.0), (-0.7, -0.0), (-3.0, -1.7), (-1.0, 1.0))
# _BLOCK values that give one row per block, a few rows, and one block
BLOCKS = (1, 64, 1 << 16)


@st.composite
def open_splines(draw, min_degree=0, max_degree=12, full_multiplicity=True):
    """Spline on an open knot vector with repeated interior knots.

    Interior knots sit on sixteenths of the span and repeat up to degree
    + 1 times, or up to degree times without full_multiplicity.
    Coefficients include zeros of both signs.
    """
    p = draw(st.integers(min_degree, max_degree))
    a, b = draw(st.sampled_from(SPANS))
    cap = p + 1 if full_multiplicity else max(p, 1)
    steps = draw(st.lists(st.integers(1, 15), max_size=6, unique=True).map(sorted))
    knots = [a] * (p + 1)
    for k in steps:
        knots += [a + (b - a) * k / 16] * draw(st.integers(1, cap))
    knots += [b] * (p + 1)
    n = len(knots) - p - 1
    coeffs = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n))
    return make_spline(p, knots, coeffs)


def _points(s, fractions):
    """Every knot, both ends and points at the given fractions of the span."""
    a, b = s.knots.span
    inner = np.clip(a + (b - a) * np.array(fractions, dtype=float), a, b)
    return np.concatenate((s.knots.knots, [a, b], inner))


def _same_bytes(actual, expected):
    """Equal values and equal zero signs."""
    return actual.shape == expected.shape and actual.tobytes() == expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    open_splines(),
    st.lists(st.floats(0.0, 1.0), max_size=20),
    st.sampled_from(BLOCKS),
)
def test_evaluate_bytes_equal_per_anchor_loop(s, fractions, block):
    kv = s.knots
    p = kv.degree
    xs = _points(s, fractions)
    spans = find_span0_many(kv.knots, p, kv.dimension, xs)
    fine = np.broadcast_to(xs[:, None], (xs.size, p))
    expected = refine_rows_by_anchor(kv.knots, s.coefficients, p, spans, fine)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK", block)
        values = evaluate(s, xs)
    assert _same_bytes(values, expected)


@settings(max_examples=300, deadline=None)
@given(
    open_splines(),
    st.lists(st.integers(0, 15), max_size=8, unique=True),
    st.sampled_from(BLOCKS),
)
def test_oslo_bytes_equal_per_anchor_loop(s, odd, block):
    kv = s.knots
    p = kv.degree
    a, b = kv.span
    # new knots on odd thirty-seconds, so none meets a coarse knot
    extra = [a + (b - a) * (2 * k + 1) / 32 for k in odd]
    fine = KnotVector(np.sort(np.concatenate((kv.knots, extra))), p)
    n = fine.dimension
    spans = find_span0_many(kv.knots, p, kv.dimension, fine.knots[:n])
    windows = np.lib.stride_tricks.sliding_window_view(fine.knots[1 : n + p], p)
    expected = refine_rows_by_anchor(kv.knots, s.coefficients, p, spans, windows)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_BLOCK", block)
        refined = oslo_coefficients(p, kv, s.coefficients, fine)
    assert _same_bytes(refined, expected)


@settings(max_examples=300, deadline=None)
@given(
    open_splines(min_degree=1, full_multiplicity=False),
    st.lists(st.floats(0.0, 1.0), max_size=20),
)
# equal knots of -0.0 leave -0.0 entries unless the first entry of each
# triangle row is added to 0.0, as the scalar recursion does
@example(make_spline(5, [-0.7] * 6 + [-0.0] * 6, np.ones(6)), [])
def test_collocation_bands_bytes_equal_scalar_triangle(s, fractions):
    kv = s.knots
    p = kv.degree
    xs = _points(s, fractions)
    spans = find_span0_many(kv.knots, p, kv.dimension, xs)
    rows = nonzero_basis_rows(kv.knots, p, spans, xs)
    assert _same_bytes(rows, basis_triangle_rows(kv.knots, p, spans, xs))
    greville = greville_abscissae(kv)
    matrix = collocation_matrix(kv, greville)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(collocation_module, "nonzero_basis_rows", basis_triangle_rows)
        expected = collocation_matrix(kv, greville)
    assert _same_bytes(matrix.bands, expected.bands)


def test_refine_rows_one_kernel_call_per_block(monkeypatch):
    """evaluate and oslo_coefficients call the kernel once per block of rows."""
    calls = []
    kernel = core.kernel_many

    def counted(tau_window, coeff_window, fine_rows):
        calls.append(fine_rows.shape[0])
        return kernel(tau_window, coeff_window, fine_rows)

    monkeypatch.setattr(core, "kernel_many", counted)
    rng = np.random.default_rng(3)
    s = random_spline_on(rng, uniform_open_knots(3, 1000))
    xs = np.linspace(0.0, 1.0, 4001)
    evaluate(s, xs)
    assert calls == [4001]
    calls.clear()
    fine = uniform_open_knots(3, 1999)
    oslo_coefficients(3, s.knots, s.coefficients, fine)
    assert calls == [fine.dimension]
    # a degree-3 row gathers 3p + 1 = 10 doubles
    monkeypatch.setattr(core, "_BLOCK", 1000)
    calls.clear()
    evaluate(s, xs)
    assert calls == [100] * 40 + [1]
