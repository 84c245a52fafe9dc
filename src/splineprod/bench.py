"""Benchmark experiments comparing the product methods.

Every experiment family fixes a one-parameter sweep (degree or mesh
level), draws any random coefficients from a SplitMix64 stream seeded
per row, and produces one CSV row per parameter value.  Rows are fully
deterministic for a given seed: the t_direct/t_colloc columns are flop
counts (1.5 * nu_bar * m * (p1^2 + p2^2) for the improved product and
(2/3) * m * p^2 for the banded factorization), not clock readings, so a
rerun writes the identical file.  Measured wall times stay on the row
objects (wall_time_direct/wall_time_colloc) and are not serialized.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .collocation import _solve_products
from .core import (
    KnotVector,
    Spline,
    _check_integer,
    _evaluate_many,
    bernstein_knots,
    evaluate,
    product_knot_vector,
    uniform_open_knots,
)
from .product import improved_morken_product

__all__ = [
    "SplitMix64",
    "ExperimentConfig",
    "ExperimentRow",
    "FamilyCase",
    "FAMILY_PARAMETERS",
    "CSV_HEADER",
    "build_family_case",
    "relative_linf_error",
    "run_experiment",
    "write_csv",
]

_MASK64 = (1 << 64) - 1

CSV_HEADER = "family,param,e_direct,e_colloc,cond,nu_bar,naive_terms,t_direct,t_colloc"

FAMILY_PARAMETERS: dict[str, range] = {
    "spline_poly": range(1, 51),
    "spline_poly_general": range(1, 51),
    "spline_spline": range(1, 51),
    "galerkin_p": range(3, 51),
    "galerkin_k": range(3, 51),
    "mesh_refine": range(1, 11),
    "mesh_refine_highdeg": range(1, 11),
}


class SplitMix64:
    """SplitMix64 stream; one 64-bit draw per call, stateful and portable."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform_symmetric(self) -> float:
        """Uniform double in [-1, 1) from the top 53 bits of one draw."""
        return (self.next_u64() >> 11) * 2.0**-52 - 1.0

    def uniform_vector(self, n: int) -> np.ndarray:
        return np.array([self.uniform_symmetric() for _ in range(n)])


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment invocation: family, seed and error-grid size."""

    family: str
    seed: int
    grid_points: int = 201

    def __post_init__(self):
        if self.family not in FAMILY_PARAMETERS:
            raise ValueError(
                f"unknown family {self.family!r}; choose one of "
                f"{', '.join(sorted(FAMILY_PARAMETERS))}"
            )
        _check_integer(self.seed, "seed must be an integer")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        _check_grid_points(self.grid_points)

    @property
    def parameters(self) -> range:
        return FAMILY_PARAMETERS[self.family]


@dataclass(frozen=True)
class ExperimentRow:
    """One CSV row plus the measured (non-serialized) wall times."""

    family: str
    param: int
    e_direct: float
    e_colloc: float
    cond_estimate: float
    nu_bar: float
    naive_terms: int | float
    t_direct: float
    t_colloc: float
    wall_time_direct: float = 0.0
    wall_time_colloc: float = 0.0

    def __post_init__(self):
        if self.e_direct < 0 or self.e_colloc < 0:
            raise ValueError("errors must be nonnegative")
        if self.nu_bar > self.naive_terms:
            raise ValueError("nu_bar cannot exceed the naive term count")


@dataclass(frozen=True)
class FamilyCase:
    """The factor splines of one parameter value: f times each g."""

    f: Spline
    gs: tuple[Spline, ...]


def _middle_index(n: int) -> int:
    # lower median for even basis counts
    return (n - 1) // 2


def _unit_spline(kv: KnotVector, index: int) -> Spline:
    coeffs = np.zeros(kv.dimension)
    coeffs[index] = 1.0
    return Spline(kv, coeffs)


def _random_spline(kv: KnotVector, rng: SplitMix64) -> Spline:
    return Spline(kv, rng.uniform_vector(kv.dimension))


def _overlapping_indices(kv: KnotVector, i: int) -> np.ndarray:
    """Indices j whose basis support meets supp(B_i) with positive measure."""
    p, n, t = kv.degree, kv.dimension, kv.knots
    return np.flatnonzero(np.maximum(t[:n], t[i]) < np.minimum(t[p + 1 :], t[i + p + 1]))


def build_family_case(family: str, param: int, rng: SplitMix64) -> FamilyCase:
    """Factor splines of one row; draws f's coefficients before g's."""
    if family not in FAMILY_PARAMETERS:
        raise ValueError(f"unknown family {family!r}")
    _check_integer(param, f"{family} parameter must be an integer, got {param!r}")
    if param not in FAMILY_PARAMETERS[family]:
        raise ValueError(f"parameter {param} outside the {family} range")
    cubic5 = uniform_open_knots(3, 5)
    if family == "spline_poly":
        f = _unit_spline(cubic5, _middle_index(cubic5.dimension))
        return FamilyCase(f, (_random_spline(bernstein_knots(param), rng),))
    if family == "spline_poly_general":
        f = _random_spline(cubic5, rng)
        return FamilyCase(f, (_random_spline(bernstein_knots(param), rng),))
    if family == "spline_spline":
        kv = uniform_open_knots(param, 5)
        f = _random_spline(kv, rng)
        return FamilyCase(f, (_random_spline(kv, rng),))
    if family in ("galerkin_p", "galerkin_k"):
        interior = param - 2 if family == "galerkin_p" else 1
        kv = uniform_open_knots(param, 5, interior_multiplicity=interior)
        i = _middle_index(kv.dimension)
        f = _unit_spline(kv, i)
        gs = tuple(_unit_spline(kv, j) for j in _overlapping_indices(kv, i))
        return FamilyCase(f, gs)
    # mesh refinement: cubic on 5 breakpoints times a spline on 2^param + 3
    f = _random_spline(cubic5, rng)
    degree = 3 if family == "mesh_refine" else 30
    fine = uniform_open_knots(degree, 2**param + 3)
    return FamilyCase(f, (_random_spline(fine, rng),))


def _check_grid_points(grid_points) -> None:
    """An error grid takes an integer number of points, at least 2."""
    _check_integer(grid_points, "grid size must be an integer")
    if grid_points < 2:
        raise ValueError("grid must contain at least 2 points")


def relative_linf_error(
    computed: Spline, f: Spline, g: Spline, grid_points: int = 201
) -> float:
    """max|computed - f*g| / max|f*g| on a uniform grid with both endpoints.

    A reference that vanishes on the whole grid makes the relative error
    undefined; that case warns and reports the absolute error instead.
    """
    _check_grid_points(grid_points)
    span = computed.knots.span
    if span != f.knots.span or span != g.knots.span:
        raise ValueError("splines must share the same span")
    xs = np.linspace(span[0], span[1], grid_points)
    ref = evaluate(f, xs) * evaluate(g, xs)
    return _grid_error(evaluate(computed, xs), ref)


def _grid_error(values: np.ndarray, ref: np.ndarray) -> float:
    """relative_linf_error of values on the grid against ref = (f*g)(xs)."""
    err = float(np.abs(values - ref).max())
    denom = float(np.abs(ref).max())
    if denom == 0.0:
        warnings.warn(
            "reference product vanishes on the whole grid; "
            "reporting absolute error",
            UserWarning,
            # the line that called relative_linf_error
            stacklevel=3,
        )
        return err
    return err / denom


def _compute_row(
    family: str, param: int, row_seed: int, grid_points: int
) -> ExperimentRow:
    case = build_family_case(family, param, SplitMix64(row_seed))
    f = case.f
    p1 = f.degree
    p2 = case.gs[0].degree
    t = product_knot_vector(f.knots, case.gs[0].knots)
    m = t.dimension
    p = t.degree

    start = time.perf_counter()
    direct = [improved_morken_product(f, g, target_knots=t) for g in case.gs]
    wall_direct = time.perf_counter() - start

    start = time.perf_counter()
    colloc, lu = _solve_products(f, case.gs, t)
    wall_colloc = time.perf_counter() - start

    # the error grid of relative_linf_error, one pass per knot vector
    grid = np.linspace(t.span[0], t.span[1], grid_points)
    n = len(case.gs)
    values = _evaluate_many([f, *case.gs, *(r.product for r in direct), *colloc], grid)
    refs = values[0] * values[1 : n + 1]
    e_direct = [_grid_error(v, ref) for v, ref in zip(values[n + 1 : 2 * n + 1], refs)]
    e_colloc = [_grid_error(v, ref) for v, ref in zip(values[2 * n + 1 :], refs)]
    nu_bar = direct[0].mean_distinct
    return ExperimentRow(
        family=family,
        param=param,
        e_direct=float(np.mean(e_direct)),
        e_colloc=float(np.mean(e_colloc)),
        cond_estimate=lu.condition(),
        nu_bar=nu_bar,
        naive_terms=direct[0].naive_term_count,
        t_direct=1.5 * nu_bar * m * (p1**2 + p2**2),
        t_colloc=(2.0 / 3.0) * m * p**2,
        wall_time_direct=wall_direct,
        wall_time_colloc=wall_colloc,
    )


def run_experiment(config: ExperimentConfig) -> list[ExperimentRow]:
    """All rows of one family, seeded reproducibly.

    The master stream hands one row seed per parameter value in ascending
    order, so any row can be recomputed without running the others.
    """
    master = SplitMix64(config.seed)
    seeds = [master.next_u64() for _ in config.parameters]
    return [
        _compute_row(config.family, param, seed, config.grid_points)
        for param, seed in zip(config.parameters, seeds)
    ]


def _field(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_csv(rows, stream) -> None:
    """Serialize rows with 17 significant digits; identical rows, identical bytes."""
    stream.write(CSV_HEADER + "\n")
    for r in rows:
        stream.write(
            ",".join(
                [
                    r.family,
                    str(r.param),
                    _field(r.e_direct),
                    _field(r.e_colloc),
                    _field(r.cond_estimate),
                    _field(r.nu_bar),
                    _field(r.naive_terms),
                    _field(r.t_direct),
                    _field(r.t_colloc),
                ]
            )
            + "\n"
        )
