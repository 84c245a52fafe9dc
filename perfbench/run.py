"""splineprod benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The workload's rows (see ``workloads.py``) are run as timed
passes, closed loop with one caller, until a pass as slow as the slowest
so far would end after S seconds of pass time; an untraced run makes at
least ACCURACY_PASSES passes.  Every output is checked against scipy
outside the timed passes.  The end-to-end times are scaled to one host
speed by a reference computation run between operations (see
``hostspeed.py``).

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The last
line of standard output is the result object; the line before it holds
the environment, the workload properties and the figures that are not
metrics.  Everything, with the spans of a traced run, is also written to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""
import os

# BLAS reads its thread count when numpy loads it, so pin it first
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-up runs once in this process and this many times in fresh ones,
# spread over the run so the samples meet different states of the host
SETUP_PROBES = 4
# traced runs alternate untraced (False) and traced (True) passes
TRACE_PATTERN = (False, True, True, False)
# the accuracy metrics pool the products of the first this many passes,
# which every untraced run makes, so they depend on the seed alone and
# not on how many passes the host's speed allowed
ACCURACY_PASSES = 8
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time set-up in a fresh process and exit
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return ap, args


def setup(w, workload: str, seed: int):
    """Pass-0 inputs and the seed's stream, after a warm-up on unused knots."""
    rows = w.WORKLOADS[workload][1]
    master = w.bench.SplitMix64(seed)
    inputs = w.pass_inputs(rows, master, 0.0)
    warm = w.run_pass(w.pass_inputs(w.WARMUP_ROWS, w.bench.SplitMix64(seed), w.WARMUP_SHIFT))
    return rows, master, inputs, warm


def setup_probe(args) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def tail(samples: list[float]) -> dict | None:
    """Highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11],
            "samples": n}


def _ratio(num, den):
    return num / den if den else None


def properties(props) -> dict:
    """Deterministic workload properties of one pass's improved products."""
    return {
        "improved_calls": props["improved_calls"],
        "repeat_knot_share": _ratio(props["repeat_calls"], props["improved_calls"]),
        "zero_coeff_share": _ratio(props["zero_coeffs"], props["coeffs"]),
        "nu_bar": _ratio(props["profiles"], props["coeffs"]),
        "profiles": props["profiles"],
        "distinct_to_naive_ratio": _ratio(props["profiles"], props["naive_terms"]),
    }


def _self_s(span):
    return "s", span, lambda d: d["self"].get(span, 0.0)


def _calls(span):
    return "count", span, lambda d: d["calls"].get(span, 0)


def _counter(span, key):
    return "count", span, lambda d: d["counters"].get(key, 0)


def _prop(key, unit):
    return unit, None, lambda d: d["props"][key]


# per-layer metric -> (unit, span it needs, value from one traced pass)
LAYER_METRICS = {
    "kernels.kernel_many.s": _self_s("kernels.kernel_many"),
    "kernels.kernel_many.calls": _calls("kernels.kernel_many"),
    "kernels.rows": _counter("kernels.kernel_many", "kernels.rows"),
    "kernels.stage_rows": _counter("kernels.kernel_many", "kernels.stage_rows"),
    "kernels.rows_per_call": (
        "count", "kernels.kernel_many",
        lambda d: _ratio(d["counters"].get("kernels.rows", 0),
                         d["calls"].get("kernels.kernel_many", 0))),
    "kernels.find_span0_many.s": _self_s("kernels.find_span0_many"),
    "kernels.nonzero_basis_rows.s": _self_s("kernels.nonzero_basis_rows"),
    "core.evaluate.s": _self_s("core.evaluate"),
    "core.evaluate.points": _counter("core.evaluate", "core.evaluate.points"),
    "core.product_knot_vector.calls": _calls("core.product_knot_vector"),
    "product.improved.self_s": _self_s("product.improved"),
    "product.knot_combinations.s": _self_s("product.knot_combinations"),
    "product.knot_combinations.calls": _calls("product.knot_combinations"),
    "product.knot_rows.s": _self_s("product.knot_rows"),
    "product.profiles": _prop("profiles", "count"),
    "product.nu_bar": _prop("nu_bar", "count"),
    "product.distinct_to_naive_ratio": _prop("distinct_to_naive_ratio", "ratio"),
    "product.zero_coeff_share": _prop("zero_coeff_share", "ratio"),
    "collocation.collocation_matrix.s": _self_s("collocation.collocation_matrix"),
    "collocation.lu.s": _self_s("collocation.lu"),
    "collocation.solve.s": _self_s("collocation.solve"),
    "collocation.condition_estimate.s": _self_s("collocation.condition_estimate"),
    "collocation.rows": _counter("collocation.collocation_matrix", "collocation.rows"),
    "bench.relative_linf_error.s": _self_s("bench.relative_linf_error"),
    "workload.repeat_knot_share": _prop("repeat_knot_share", "ratio"),
}


def _by_key(passes, attr) -> dict:
    """Every sample of every operation over the passes, from `attr`."""
    found: dict = {}
    for p in passes:
        for key, samples in getattr(p, attr).items():
            found.setdefault(key, []).extend(samples)
    return found


def scaled_times(passes) -> dict:
    """Median scaled time of every operation over the passes that ran it.

    Scaling (hostspeed.py) takes out the host's speed states; the median
    over its runs takes out what is left of the noise between runs.
    """
    return {key: statistics.median(v) for key, v in _by_key(passes, "op_scaled").items()}


def end_to_end(passes, digits, setup_samples) -> dict:
    scaled = scaled_times(passes)
    coeffs = passes[0].op_coeffs

    def rate(*kinds):
        keys = [k for k in scaled if k[0] in kinds]
        return _ratio(sum(coeffs.get(k, 0) for k in keys), sum(scaled[k] for k in keys))

    direct_ms = [1e3 * sec for k, sec in scaled.items() if k[0] == "direct"]
    values = {
        "setup_s": ("s", statistics.median(setup_samples)),
        "wall_s": ("s", sum(scaled.values())),
        "direct_coeffs_per_s": ("1/s", rate("direct")),
        "direct_p50_ms": ("ms", statistics.median(direct_ms) if direct_ms else None),
        "naive_coeffs_per_s": ("1/s", rate("naive")),
        "colloc_coeffs_per_s": ("1/s", rate("colloc_factor", "colloc_solve")),
        "digits_direct_min": ("digits", min(digits["direct"], default=None)),
        # the mean, not the minimum: one random product's collocation
        # error moves by two digits with its coefficients
        "digits_colloc_mean": ("digits", statistics.fmean(digits["colloc"]) if digits["colloc"] else None),
        "peak_rss_mb": ("MB", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0),
    }
    return {k: {"value": v, "unit": u} for k, (u, v) in values.items() if v is not None}


def per_layer(traced, untraced, absent, cold_hit_ratio) -> dict:
    """Per-layer values of the traced passes: fastest for times, else median."""
    out = {}
    for name, (unit, needs, fn) in LAYER_METRICS.items():
        if needs in absent:
            continue
        values = [v for v in (fn(d) for d in traced) if v is not None]
        if values:
            out[name] = {"value": min(values) if unit == "s" else statistics.median(values),
                         "unit": unit}
    ratio = (sum(scaled_times([d["record"] for d in traced]).values())
             / sum(scaled_times(untraced).values()))
    out["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    if cold_hit_ratio is not None:
        out["product.profile_cache.hit_ratio"] = {"value": cold_hit_ratio, "unit": "ratio"}
    return out


def _cache_counts(product):
    """Hits and misses of the profile cache so far, None if it is gone."""
    info = getattr(getattr(product, "_profiles", None), "cache_info", None)
    if info is None:
        return None
    i = info()
    return i.hits, i.misses


def _hit_ratio(before, after):
    if before is None or after is None:
        return None
    hits, misses = after[0] - before[0], after[1] - before[1]
    return _ratio(hits, hits + misses)


def main(argv=None) -> int:
    ap, args = parse_args(argv)
    if not (SRC / "splineprod" / "__init__.py").is_file():
        print(f"splineprod sources not found under {SRC}", file=sys.stderr)
        return 1

    start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(ROOT)]
    import numpy
    import scipy

    from perfbench import check, hostspeed, tracing
    from perfbench import workloads as w
    if args.workload not in w.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(w.WORKLOADS)}")
    rows, master, inputs, warm = setup(w, args.workload, args.seed)
    setup_s = hostspeed.scaled_setup(time.perf_counter() - start)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    warm_failed, _ = check.check_outputs(warm.outputs)
    attempted = warm.attempted
    failed = warm.failed + warm_failed

    tracer = tracing.Tracer() if args.trace else None
    passes, traced, untraced = [], [], []
    setup_samples = [setup_s]
    digits, props0 = {"direct": [], "colloc": []}, None
    timed = 0.0
    counter_errors = 0
    k = 0
    while True:
        if k:
            inputs = w.pass_inputs(rows, master, float(k))
        is_traced = bool(args.trace) and TRACE_PATTERN[k % len(TRACE_PATTERN)]
        cache0 = _cache_counts(w.product)
        if is_traced:
            tracer.counters.clear()
            first = len(tracer.spans)
            tracer.install()
            try:
                rec = w.run_pass(inputs, tracer)
            finally:
                tracer.uninstall()
            self_s, calls = tracing.self_times(tracer.spans, first)
            counter_errors += tracer.counters.pop("trace.counter_errors", 0)
            traced.append({
                "record": rec, "self": self_s, "calls": calls,
                "counters": dict(tracer.counters), "props": properties(rec.props),
            })
        else:
            rec = w.run_pass(inputs)
            untraced.append(rec)
        check_failed, found = check.check_outputs(rec.outputs)
        if k < ACCURACY_PASSES:
            for path, values in found.items():
                digits[path].extend(values)
        if k == 0:
            # the first pass meets the profile cache cold; later passes
            # reuse its entries, since only the knot values move
            props0 = properties(rec.props)
            props0["profile_cache_hit_ratio"] = _hit_ratio(cache0, _cache_counts(w.product))
        attempted += rec.attempted
        failed += rec.failed + check_failed
        rec.outputs = []
        passes.append(rec)
        timed += rec.wall
        k += 1
        if not args.trace and len(setup_samples) <= SETUP_PROBES and (
            timed >= len(setup_samples) * args.seconds / (SETUP_PROBES + 1)
        ):
            setup_samples.append(setup_probe(args))
        enough = k >= (2 if args.trace else ACCURACY_PASSES)
        if enough and timed + max(p.wall for p in passes) > args.seconds:
            break

    if args.trace:
        metrics = per_layer(traced, untraced, set(tracer.absent),
                            props0["profile_cache_hit_ratio"])
    else:
        while len(setup_samples) <= SETUP_PROBES:
            setup_samples.append(setup_probe(args))
        metrics = end_to_end(passes, digits, setup_samples)

    direct_ms = [1e3 * sec for k, v in _by_key(passes, "op_s").items() if k[0] == "direct"
                 for sec in v]
    detail = {
        "workload": args.workload,
        "why": w.WORKLOADS[args.workload][0],
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "machine": platform.machine(),
            "seed": args.seed,
            "seconds": args.seconds,
        },
        "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes],
        # unscaled, for comparison with wall_s: the sum of each
        # operation's median raw time, and the median reference time
        "raw_wall_s": sum(statistics.median(v) for v in _by_key(passes, "op_s").values()),
        "reference_ms": 1e3 * statistics.median(
            s for p in passes for s in p.probe.samples),
        "setup_samples_s": setup_samples,
        "properties": props0,
        "direct_tail_ms": tail(direct_ms),
        "digits_colloc_min": min(digits["colloc"], default=None),
        "fail_ratio": failed / attempted,
        "absent_layers": tracer.absent if tracer is not None else [],
        # a counter that no longer fits its entry point's signature
        "counter_errors": counter_errors,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    record = {"detail": detail, "result": result}
    for attr in ("op_s", "op_scaled"):
        record[attr] = {":".join(map(str, k)): v for k, v in _by_key(passes, attr).items()}
    if tracer is not None:
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        record["spans"] = [[name, round(1e6 * (s - t0)), round(1e6 * (e - t0)), parent]
                           for name, s, e, parent in tracer.spans]
        record["span_units"] = "name, start_us, end_us, parent index (-1: none)"
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))

    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
