"""In-memory spans around the layer entry points of splineprod.

Tracing wraps each entry point in the namespace of every module that
imports it (``splineprod.product.kernel_many``, ``splineprod.core.kernel_many``,
...), so calls between the package's own modules are seen too.  A span is
``[name, start, end, parent]`` with ``parent`` the index of the enclosing
span (-1 at top level).  Nothing is written while the benchmark runs; the
spans stay in memory until the caller serialises them.

An entry point whose module or attribute no longer exists is reported as
absent instead of failing, so a refactor that renames a function shows up
as a missing layer in the output.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


def _kernel_rows(counters, args, kwargs, out):
    # kernel_many(tau_window, coeff_window, fine_rows)
    rows = args[2] if len(args) > 2 else kwargs["fine_rows"]
    coeffs = args[1] if len(args) > 1 else kwargs["coeff_window"]
    counters["kernels.rows"] += rows.shape[0]
    counters["kernels.stage_rows"] += rows.shape[0] * (len(coeffs) - 1)


def _evaluate_points(counters, args, kwargs, out):
    # evaluate(s, x)
    counters["core.evaluate.points"] += int(np.size(args[1] if len(args) > 1 else kwargs["x"]))


def _collocation_rows(counters, args, kwargs, out):
    # collocation_matrix(kv, abscissae)
    counters["collocation.rows"] += out.order


# span name -> (dotted owners that hold the entry point, attribute, counter)
ENTRY_POINTS = {
    "kernels.kernel_many": (
        ("splineprod.product", "splineprod.core"), "kernel_many", _kernel_rows),
    "kernels.find_span0_many": (
        ("splineprod.product", "splineprod.core", "splineprod.collocation"),
        "find_span0_many", None),
    "kernels.nonzero_basis_rows": (
        ("splineprod.collocation",), "nonzero_basis_rows", None),
    "core.evaluate": (
        ("splineprod.core", "splineprod.bench", "splineprod.collocation"),
        "evaluate", _evaluate_points),
    "core.product_knot_vector": (
        ("splineprod.core", "splineprod.product", "splineprod.bench"),
        "product_knot_vector", None),
    "product.improved": (
        ("splineprod.product", "splineprod.bench"), "improved_morken_product", None),
    "product.naive": (("splineprod.product",), "morken_product", None),
    "product.knot_combinations": (
        ("splineprod.product",), "knot_combinations", None),
    "product.knot_rows": (
        ("splineprod.product:CombinationSet",), "knot_rows", None),
    "collocation.collocation_matrix": (
        ("splineprod.collocation", "splineprod.bench"), "collocation_matrix",
        _collocation_rows),
    "collocation.lu": (("splineprod.collocation:BandedMatrix",), "lu", None),
    "collocation.solve": (("splineprod.collocation:_BandedLU",), "solve", None),
    "collocation.condition_estimate": (
        ("splineprod.collocation", "splineprod.bench"), "condition_estimate_1norm",
        None),
    "bench.relative_linf_error": (
        ("splineprod.bench",), "relative_linf_error", None),
}


def _resolve(owner: str):
    """Module, or class inside a module for ``module:Class``; None if gone."""
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Span recorder plus counters; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                try:
                    count(self.counters, args, kwargs, out)
                except (LookupError, AttributeError, TypeError):
                    self.counters["trace.counter_errors"] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every entry point that exists; remember the rest as absent."""
        self.absent = []
        for name, (owners, attr, count) in ENTRY_POINTS.items():
            wrappers: dict[int, object] = {}
            found = False
            for owner in owners:
                target = _resolve(owner)
                original = getattr(target, attr, None) if target is not None else None
                if original is None:
                    continue
                found = True
                # one wrapper per original keeps `a.f is b.f` true across modules
                wrapper = wrappers.setdefault(
                    id(original), self._wrap(name, original, count)
                )
                self._patched.append((target, attr, original))
                setattr(target, attr, wrapper)
            if not found:
                self.absent.append(name)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched = []


# spans whose whole subtree is their own time: the condition estimate's
# LU and solves are its work, not the collocation path's
OPAQUE = frozenset({"collocation.condition_estimate"})


def self_times(spans: list[list], first: int = 0) -> tuple[dict, dict]:
    """Total self time and call count per span name, from index `first` on.

    Self time is a span's duration minus the time its direct children
    cover; children of one span never overlap in this single-threaded
    benchmark, so their durations add.  Spans inside an OPAQUE span are
    neither counted nor subtracted, so their time stays with it.
    """
    hidden: set[int] = set()
    child = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans[first:], start=first):
        if parent >= first and (parent in hidden or spans[parent][0] in OPAQUE):
            hidden.add(i)
        elif parent >= first:
            child[parent] += end - start
    total = defaultdict(float)
    calls = Counter()
    for i, (name, start, end, parent) in enumerate(spans[first:], start=first):
        if i not in hidden:
            total[name] += (end - start) - child[i]
            calls[name] += 1
    return dict(total), dict(calls)
