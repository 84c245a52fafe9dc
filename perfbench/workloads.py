"""Workloads and the timed pass.

A pass reproduces what ``splineprod experiment`` does for each of a
workload's rows: the direct products (``improved_morken_product``), the
collocation matrix with its LU and one solve per product, the condition
estimate, and the error grids (``relative_linf_error``).  Some rows add
the naive expansion (``morken_product``) as a cross-check.

Inputs come from ``build_family_case`` with row seeds drawn from one
``SplitMix64`` stream per run, so a seed fixes every input.  Pass k moves
every knot vector by +k (the functions are only reparametrised), so no
knot vector repeats across passes and a cache keyed on knot values cannot
turn later passes into lookups; within a pass, knot reuse is whatever the
family has.  Set-up warms up on a span no pass uses.

Every call into the program goes through its module attribute
(``product.improved_morken_product``, ...), so tracing can wrap it.
Between operations a pass runs the host-speed reference of
``hostspeed.py``, which scales each operation's time.
"""
from __future__ import annotations

import sys
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from perfbench.hostspeed import Probe
from splineprod import bench, collocation, core, product


@dataclass(frozen=True)
class Row:
    """One experiment row; `naive` adds the naive product as a cross-check."""

    family: str
    param: int
    naive: bool = False


# name -> (why, rows).  The rows are fixed; the seed varies only the
# random coefficients, so every seed does the same amount of work.
WORKLOADS: dict[str, tuple[str, tuple[Row, ...]]] = {
    "short_products": (
        "galerkin rows at degree 12 (93% repeat a knot pair, 84% zero coefficients) "
        "and mesh_refine 10 / spline_poly 50 (thousands of rows, short kernel calls)",
        (
            Row("galerkin_k", 3, naive=True),
            Row("galerkin_p", 12),
            Row("galerkin_k", 12),
            Row("mesh_refine", 10, naive=True),
            Row("spline_poly", 50),
            Row("spline_poly_general", 50),
        ),
    ),
    "highdeg_products": (
        "spline_spline degrees 30 and 50 (+degree 7, naive-checked): one product "
        "per knot vector, nu_bar 100-270, kernel stages dominate",
        (
            Row("spline_spline", 7, naive=True),
            Row("spline_spline", 30),
            Row("spline_spline", 50),
        ),
    ),
}

# set-up warm-up: degree-2 factors never occur in a pass, and its span
# [-1, 0] lies below every pass's span [k, k + 1]
WARMUP_ROWS = (Row("spline_spline", 2, naive=True),)
WARMUP_SHIFT = -1.0


@dataclass(frozen=True)
class RowInput:
    row: Row
    f: core.Spline
    gs: tuple[core.Spline, ...]


@dataclass
class Output:
    """The products of one factor pair, kept for the correctness check."""

    f: core.Spline
    g: core.Spline
    direct: core.Spline | None = None
    naive: core.Spline | None = None
    colloc: core.Spline | None = None


@dataclass
class PassRecord:
    """Times of one pass, keyed by operation so passes line up.

    A key is (kind, row index, ...); kinds are "knots", "direct",
    "naive", "colloc_factor", "colloc_solve", "condition" and "error".
    """

    wall: float = 0.0
    # key -> seconds of each run of the operation in this pass
    op_s: dict = field(default_factory=dict)
    # op_s scaled to the nominal host speed (see hostspeed.py)
    op_scaled: dict = field(default_factory=dict)
    probe: Probe = field(default_factory=Probe)
    # (key, run index, probe sample before, probe sample after) of every run
    bracket: list = field(default_factory=list)
    # whether operations marked for it are repeated (untraced passes)
    repeat: bool = True
    # product coefficients made by each direct, naive and collocation-solve key
    op_coeffs: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    outputs: list[Output] = field(default_factory=list)
    # deterministic workload properties of the improved products
    props: Counter = field(default_factory=Counter)


# naive and collocation operations are few or short in a pass; an
# untraced pass repeats them so that a run has enough samples of each
REPEATS = 3
REPEAT_S = 0.3


def _shifted(s: core.Spline, shift: float) -> core.Spline:
    if shift == 0.0:
        return s
    return core.Spline(core.KnotVector(s.knots.knots + shift, s.degree), s.coefficients)


def pass_inputs(
    rows: tuple[Row, ...], master: bench.SplitMix64, shift: float
) -> list[RowInput]:
    """Factor splines of every row, one row seed per row from `master`."""
    out = []
    for row in rows:
        case = bench.build_family_case(
            row.family, row.param, bench.SplitMix64(master.next_u64())
        )
        out.append(
            RowInput(row, _shifted(case.f, shift), tuple(_shifted(g, shift) for g in case.gs))
        )
    return out


def _op(rec: PassRecord, key: tuple, fn, coeffs: int = 0, repeat: bool = False):
    """Time one operation; a raised exception counts as a failed operation.

    With `repeat`, an untraced pass runs it up to REPEATS times, until
    the runs so far took REPEAT_S, and keeps the output of the last.
    """
    total = 0.0
    for _ in range(REPEATS if repeat and rec.repeat else 1):
        rec.attempted += 1
        before = rec.probe.maybe()
        start = time.perf_counter()
        try:
            out = fn()
        except Exception:  # the run must go on and report the failure count
            rec.failed += 1
            print(f"operation {key} failed\n{traceback.format_exc()}", file=sys.stderr)
            return None
        sec = time.perf_counter() - start
        times = rec.op_s.setdefault(key, [])
        times.append(sec)
        # the next probe, taken before the next operation or at the pass's end
        rec.bracket.append((key, len(times) - 1, before, len(rec.probe.samples)))
        total += sec
        if total >= REPEAT_S:
            break
    if coeffs:
        rec.op_coeffs[key] = coeffs
    return out


def _knot_key(s: core.Spline) -> tuple:
    return (s.degree, s.knots.knots.tobytes())


def _run_row(i: int, ri: RowInput, rec: PassRecord, seen: set, span) -> None:
    f = ri.f
    t = _op(rec, ("knots", i), lambda: core.product_knot_vector(f.knots, ri.gs[0].knots))
    if t is None:
        return
    m = t.dimension
    outs = [Output(f, g) for g in ri.gs]
    rec.outputs.extend(outs)

    with span("direct"):
        for j, o in enumerate(outs):
            key = (_knot_key(f), _knot_key(o.g))
            rec.props["improved_calls"] += 1
            rec.props["repeat_calls"] += key in seen
            seen.add(key)
            res = _op(rec, ("direct", i, j), lambda: product.improved_morken_product(
                f, o.g, target_knots=t), m)
            if res is None:
                continue
            o.direct = res.product
            rec.props["coeffs"] += m
            rec.props["zero_coeffs"] += int(np.count_nonzero(res.product.coefficients == 0.0))
            rec.props["profiles"] += int(res.distinct_term_counts.sum())
            rec.props["naive_terms"] += float(res.naive_term_count) * m

    if ri.row.naive:
        with span("naive"):
            for j, o in enumerate(outs):
                res = _op(rec, ("naive", i, j), lambda: product.morken_product(
                    f, o.g, target_knots=t), m, repeat=True)
                if res is not None:
                    o.naive = res.product

    with span("collocation"):
        def factor():
            xs = core.greville_abscissae(t)
            matrix = collocation.collocation_matrix(t, xs)
            return xs, matrix, matrix.lu(), core.evaluate(f, xs)

        ready = _op(rec, ("colloc_factor", i), factor, repeat=True)
        if ready is None:
            return
        xs, matrix, lu, fx = ready
        for j, o in enumerate(outs):
            o.colloc = _op(rec, ("colloc_solve", i, j), lambda: core.Spline(
                t, lu.solve(fx * core.evaluate(o.g, xs))), m, repeat=True)

    with span("condition"):
        _op(rec, ("condition", i), lambda: collocation.condition_estimate_1norm(matrix))

    with span("errors"):
        for j, o in enumerate(outs):
            for path, h in (("direct", o.direct), ("colloc", o.colloc)):
                if h is not None:
                    _op(rec, ("error", i, j, path),
                        lambda: bench.relative_linf_error(h, f, o.g))


def run_pass(inputs: list[RowInput], tracer=None) -> PassRecord:
    """One timed pass over the rows; `tracer` adds spans when given."""
    # repeats would change the traced pass's calls and counts
    rec = PassRecord(repeat=tracer is None)
    seen: set = set()
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    start = time.perf_counter()
    with span("pass"):
        for i, ri in enumerate(inputs):
            with span(f"row.{ri.row.family}.{ri.row.param}"):
                _run_row(i, ri, rec, seen, span)
        rec.probe.force()
    rec.wall = time.perf_counter() - start
    for key, run, before, after in rec.bracket:
        rec.op_scaled.setdefault(key, []).append(
            rec.op_s[key][run] * rec.probe.factor(before, after))
    return rec
