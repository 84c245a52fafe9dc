"""The benchmark tracer (perfbench/tracing.py) still finds every layer.

A traced benchmark run drops a layer's metrics when one of the entry
points it wraps is renamed or moved, so this loads the tracer by path,
unchanged, and runs the improved and the naive product, one collocation
solve, one error grid and one evaluate call under it.  evaluate runs no
kernel_many call, so the naive product is the one that reaches it.  The
collocation solve and the error grid evaluate through
core._evaluate_many, one pass per knot vector, which is not an entry
point, so evaluate is called on its own.
"""

import importlib.util
from pathlib import Path

import numpy as np

import splineprod.core as core
from splineprod import bench, collocation, product, uniform_open_knots
from helpers import random_spline_on

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_entry_point():
    tracing = _load_tracing()
    rng = np.random.default_rng(12)
    f = random_spline_on(rng, uniform_open_knots(3, 4))
    g = random_spline_on(rng, uniform_open_knots(2, 4))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        direct = product.improved_morken_product(f, g).product
        product.morken_product(f, g)
        collocation.collocation_product(f, g)
        bench.relative_linf_error(direct, f, g)
        core.evaluate(f, np.linspace(0.0, 1.0, 5))
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert tracer.counters["trace.counter_errors"] == 0
    assert callable(product._profiles.cache_info)
    seen = {name for name, *_ in tracer.spans}
    assert {
        "product.improved",
        "collocation.collocation_matrix",
        "collocation.lu",
        "collocation.solve",
        "core.evaluate",
        "kernels.kernel_many",
        "bench.relative_linf_error",
    } <= seen
    # uninstall put the originals back
    assert not hasattr(product.improved_morken_product, "__wrapped__")
