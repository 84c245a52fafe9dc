"""Command line front end: one-off products and benchmark sweeps.

Exit codes: 0 on success, 2 on invalid input (unreadable or malformed
spline files, incompatible factors, bad arguments), 3 when the naive
method refuses an unforced oversized expansion.  A collocation product
whose condition estimate reaches 1/eps still exits 0, with a warning
line on stderr.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import ExperimentConfig, FAMILY_PARAMETERS, run_experiment, write_csv
from .collocation import _solve_products
from .core import Spline
from .product import (
    NaiveInfeasibleError,
    improved_morken_product,
    morken_product,
)


def _load_spline(path: str) -> Spline:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    return Spline.from_dict(data)


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _run_product(args) -> int:
    f = _load_spline(args.f)
    g = _load_spline(args.g)
    if args.method == "direct":
        document = improved_morken_product(f, g).to_dict()
    elif args.method == "naive":
        document = morken_product(f, g, force=args.force).to_dict()
    else:
        # no term-count stats on the collocation path; the condition
        # estimate reuses the solve's factorization
        (product,), lu = _solve_products(f, [g])
        cond = lu.condition()
        if cond >= 1.0 / np.finfo(float).eps:
            print(
                f"warning: collocation condition estimate {cond:.3g} reaches 1/eps; "
                "the coefficients may have no correct digits",
                file=sys.stderr,
            )
        document = product.to_dict()
    _emit(json.dumps(document, indent=2) + "\n", args.output)
    return 0


def _run_experiment(args) -> int:
    config = ExperimentConfig(
        family=args.family, seed=args.seed, grid_points=args.grid_points
    )
    rows = run_experiment(config)
    if args.output is None:
        write_csv(rows, sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            write_csv(rows, fh)
    return 0


def _parse_seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splineprod",
        description="Exact B-spline products and the benchmark suite around them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prod = sub.add_parser("product", help="multiply two splines given as JSON files")
    prod.add_argument("f", help="first factor (JSON: degree, knots, coefficients)")
    prod.add_argument("g", help="second factor (same format)")
    prod.add_argument(
        "--method",
        required=True,
        choices=("direct", "naive", "collocation"),
        help="direct = distinct-term expansion, naive = full expansion, "
        "collocation = banded interpolation baseline",
    )
    prod.add_argument(
        "--force",
        action="store_true",
        help="run the naive method even beyond the term-count guard",
    )
    prod.add_argument("-o", "--output", help="write the product JSON here instead of stdout")
    prod.set_defaults(handler=_run_product)

    exp = sub.add_parser("experiment", help="run one benchmark family to CSV")
    exp.add_argument(
        "--family", required=True, choices=sorted(FAMILY_PARAMETERS)
    )
    exp.add_argument("--seed", required=True, type=_parse_seed)
    exp.add_argument("--grid-points", type=int, default=201)
    exp.add_argument("-o", "--output", help="write the CSV here instead of stdout")
    exp.set_defaults(handler=_run_experiment)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a failed product ends in one error line, without numpy's
        # floating-point warnings ahead of it; the library still warns
        with np.errstate(all="ignore"):
            return args.handler(args)
    except NaiveInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, np.linalg.LinAlgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
