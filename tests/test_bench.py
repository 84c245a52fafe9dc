"""Experiment runner: RNG, family builders, error metric, CSV output."""

import io
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from splineprod import (
    ExperimentConfig,
    ExperimentRow,
    SplitMix64,
    Spline,
    build_family_case,
    evaluate,
    improved_morken_product,
    relative_linf_error,
    run_experiment,
    uniform_open_knots,
    write_csv,
)
import splineprod.core as core
from splineprod.bench import _MASK64, CSV_HEADER, FAMILY_PARAMETERS, _compute_row


DATA = Path(__file__).parent / "data"


# ---------- SplitMix64 ----------


def test_splitmix64_reference_vector():
    """First outputs for seed 0 from the published reference sequence."""
    gen = SplitMix64(0)
    assert gen.next_u64() == 0xE220A8397B1DCDAF
    assert gen.next_u64() == 0x6E789E6AA1B965F4
    assert gen.next_u64() == 0x06C45D188009454F


def test_splitmix64_determinism_and_range():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    va = a.uniform_vector(1000)
    vb = b.uniform_vector(1000)
    npt.assert_array_equal(va, vb)
    assert np.all(va >= -1.0)
    assert np.all(va < 1.0)
    # seed held in 64 bits: huge seeds wrap rather than overflow
    SplitMix64(2**64 - 1).next_u64()


def test_splitmix64_uniform_is_mantissa_scaled():
    gen = SplitMix64(0)
    word = SplitMix64(0).next_u64()
    assert gen.uniform_symmetric() == (word >> 11) * 2.0**-52 - 1.0


# ---------- configuration ----------


def test_experiment_config_validation():
    cfg = ExperimentConfig(family="spline_poly", seed=7)
    assert cfg.grid_points == 201
    assert list(cfg.parameters) == list(range(1, 51))
    with pytest.raises(ValueError, match="family"):
        ExperimentConfig(family="nope", seed=7)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(family="spline_poly", seed=-1)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(family="spline_poly", seed=2**64)
    with pytest.raises(ValueError, match="grid"):
        ExperimentConfig(family="spline_poly", seed=7, grid_points=1)
    for size in (2.5, 201.0, True, "201"):
        with pytest.raises(ValueError, match="grid"):
            ExperimentConfig(family="spline_poly", seed=7, grid_points=size)
    assert ExperimentConfig("spline_poly", 7, grid_points=np.int64(5)).grid_points == 5
    for seed in (np.uint64(7), np.int64(7), np.uint64(_MASK64)):
        assert ExperimentConfig("spline_poly", seed).seed == seed
    for seed in (True, np.True_, 7.0, "7"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            ExperimentConfig(family="spline_poly", seed=seed)
    with pytest.raises(ValueError, match="seed must fit"):
        ExperimentConfig(family="spline_poly", seed=np.int64(-1))


def test_family_parameter_ranges():
    assert list(FAMILY_PARAMETERS["spline_poly"]) == list(range(1, 51))
    assert list(FAMILY_PARAMETERS["spline_spline"]) == list(range(1, 51))
    assert list(FAMILY_PARAMETERS["galerkin_p"]) == list(range(3, 51))
    assert list(FAMILY_PARAMETERS["galerkin_k"]) == list(range(3, 51))
    assert list(FAMILY_PARAMETERS["mesh_refine"]) == list(range(1, 11))
    assert list(FAMILY_PARAMETERS["mesh_refine_highdeg"]) == list(range(1, 11))


def test_experiment_row_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        ExperimentRow("spline_poly", 1, -1.0, 0.0, 1.0, 1.0, 2, 0.0, 0.0)
    with pytest.raises(ValueError, match="naive"):
        ExperimentRow("spline_poly", 1, 0.0, 0.0, 1.0, 5.0, 2, 0.0, 0.0)


# ---------- family builders ----------


def test_spline_poly_case_structure():
    case = build_family_case("spline_poly", 4, SplitMix64(1))
    assert case.f.degree == 3
    assert case.f.knots.dimension == 7
    npt.assert_array_equal(case.f.coefficients, [0, 0, 0, 1, 0, 0, 0])
    (g,) = case.gs
    assert g.degree == 4
    assert len(np.unique(g.knots.knots)) == 2  # polynomial: single segment
    assert np.all(np.abs(g.coefficients) <= 1.0)


def test_galerkin_case_structure():
    case = build_family_case("galerkin_p", 5, SplitMix64(1))
    runs = case.f.knots.breakpoints()
    assert [r.multiplicity for r in runs] == [6, 3, 3, 3, 6]
    # f is a single middle basis function; every g overlaps its support
    assert np.sum(case.f.coefficients) == 1.0
    assert len(case.gs) >= 2
    k_case = build_family_case("galerkin_k", 5, SplitMix64(1))
    runs = k_case.f.knots.breakpoints()
    assert [r.multiplicity for r in runs] == [6, 1, 1, 1, 6]


def test_mesh_refine_case_structure():
    case = build_family_case("mesh_refine", 3, SplitMix64(9))
    (g,) = case.gs
    assert g.degree == 3
    assert len(g.knots.breakpoints()) == 2**3 + 3
    high = build_family_case("mesh_refine_highdeg", 2, SplitMix64(9))
    assert high.gs[0].degree == 30
    with pytest.raises(ValueError, match="range"):
        build_family_case("mesh_refine", 11, SplitMix64(0))
    with pytest.raises(ValueError, match="family"):
        build_family_case("unknown", 1, SplitMix64(0))
    # 3.0 and True lie in range(1, 11), so the type is checked first
    for param in (3.0, True, np.float64(3.0)):
        with pytest.raises(ValueError, match="mesh_refine parameter must be an integer"):
            build_family_case("mesh_refine", param, SplitMix64(9))
    same = build_family_case("mesh_refine", np.int64(3), SplitMix64(9))
    assert same.gs[0] == case.gs[0] and same.f == case.f


def test_case_draws_are_seed_deterministic():
    a = build_family_case("spline_spline", 7, SplitMix64(33))
    b = build_family_case("spline_spline", 7, SplitMix64(33))
    npt.assert_array_equal(a.f.coefficients, b.f.coefficients)
    npt.assert_array_equal(a.gs[0].coefficients, b.gs[0].coefficients)
    c = build_family_case("spline_spline", 7, SplitMix64(34))
    assert np.any(a.f.coefficients != c.f.coefficients)


# ---------- error metric ----------


def test_relative_error_of_exact_product():
    rng = np.random.default_rng(2)
    kv = uniform_open_knots(2, 4)
    f = Spline(kv, rng.uniform(-1, 1, size=kv.dimension))
    g = Spline(kv, rng.uniform(-1, 1, size=kv.dimension))
    product = improved_morken_product(f, g).product
    assert relative_linf_error(product, f, g) <= 1e-14


def test_relative_error_of_shifted_product():
    kv = uniform_open_knots(1, 3)
    ones = Spline(kv, np.ones(kv.dimension))
    product = improved_morken_product(ones, ones).product
    shifted = Spline(product.knots, product.coefficients + 1e-6)
    # reference f*g is identically 1, so the error equals the shift
    assert relative_linf_error(shifted, ones, ones) == pytest.approx(1e-6)


def test_relative_error_zero_reference_warns():
    kv = uniform_open_knots(1, 3)
    zero = Spline(kv, np.zeros(kv.dimension))
    ones = Spline(kv, np.ones(kv.dimension))
    product = improved_morken_product(zero, ones).product
    off = Spline(product.knots, product.coefficients + 0.5)
    with pytest.warns(UserWarning, match="vanishes"):
        err = relative_linf_error(off, zero, ones)
    assert err == pytest.approx(0.5)


def test_relative_error_validation():
    kv1 = uniform_open_knots(1, 3)
    kv2 = uniform_open_knots(1, 3, end=2.0)
    s1 = Spline(kv1, np.ones(kv1.dimension))
    s2 = Spline(kv2, np.ones(kv2.dimension))
    with pytest.raises(ValueError, match="span"):
        relative_linf_error(s1, s2, s2)
    with pytest.raises(ValueError, match="grid"):
        relative_linf_error(s1, s1, s1, grid_points=1)
    for size in (5.5, 5.0, False, "5"):
        with pytest.raises(ValueError, match="grid"):
            relative_linf_error(s1, s1, s1, grid_points=size)
    assert relative_linf_error(s1, s1, s1, grid_points=np.int64(5)) == 0.0


# ---------- rows and CSV ----------


def test_galerkin_p_row_at_degree_three():
    row = _compute_row("galerkin_p", 3, 12345, 201)
    assert row.naive_terms == 20
    assert 2.8 <= row.nu_bar <= 3.8
    assert row.e_direct <= 1e-13
    # product space has m = 19 coefficients (degree 6, interior mult 4)
    assert row.t_colloc == pytest.approx(2.0 / 3.0 * 19 * 36)
    assert row.t_direct == pytest.approx(1.5 * row.nu_bar * 19 * (9 + 9))


@pytest.mark.parametrize(
    "family, param, on_grid, at_greville",
    [("galerkin_p", 6, 2, 1), ("galerkin_k", 5, 2, 1), ("spline_poly", 4, 3, 2)],
)
def test_row_evaluates_once_per_knot_vector(
    monkeypatch, family, param, on_grid, at_greville
):
    """A row reads each evaluation layout once: on the error grid f and the
    gs (one knot vector in the Galerkin rows, two in spline_poly) and the
    products, at the Greville points f and the gs."""
    calls = []
    layout = core._evaluation_layout

    def counted(knot_bytes, p, point_bytes):
        calls.append((knot_bytes, p, point_bytes))
        return layout(knot_bytes, p, point_bytes)

    monkeypatch.setattr(core, "_evaluation_layout", counted)
    _compute_row(family, param, 12345, 201)
    grid = np.linspace(0.0, 1.0, 201).tobytes()
    assert len(set(calls)) == len(calls) == on_grid + at_greville
    assert sum(points == grid for _, _, points in calls) == on_grid


def test_run_experiment_mesh_refine():
    cfg = ExperimentConfig(family="mesh_refine", seed=424242)
    rows = run_experiment(cfg)
    assert [r.param for r in rows] == list(range(1, 11))
    for row in rows:
        assert row.family == "mesh_refine"
        assert row.e_direct <= 1e-13
        assert row.e_colloc <= 1e-13
        assert row.nu_bar <= row.naive_terms
        assert row.naive_terms == math.comb(6, 3)
        assert row.cond_estimate >= 1.0
        assert row.wall_time_direct >= 0.0
        # serialized time columns are deterministic operation counts
        m = row.t_colloc / (2.0 / 3.0 * 36.0)
        assert row.t_direct == pytest.approx(1.5 * row.nu_bar * m * 18.0)
    # bitwise reproducibility of the serialized output
    first, second = io.StringIO(), io.StringIO()
    write_csv(rows, first)
    write_csv(run_experiment(cfg), second)
    assert first.getvalue() == second.getvalue()


@pytest.mark.parametrize(
    "family, seed, name",
    [("mesh_refine", 123, "mesh_refine_seed123.csv"),
     ("spline_poly", 42, "spline_poly_seed42.csv"),
     ("spline_poly_general", 7, "spline_poly_general_seed7.csv"),
     ("spline_spline", 7, "spline_spline_seed7.csv"),
     ("mesh_refine_highdeg", 7, "mesh_refine_highdeg_seed7.csv")],
)
def test_experiment_csv_bytes_match_golden_file(family, seed, name):
    """`splineprod experiment --family F --seed S` output, byte for byte.

    The files pin this platform's BLAS dot bits: the improved product
    reduces each row with a BLAS dot, and collocation factors its matrix
    with LAPACK.  A change that moves a CSV value on purpose regenerates
    them with the command above and says so.
    """
    stream = io.StringIO()
    write_csv(run_experiment(ExperimentConfig(family=family, seed=seed)), stream)
    assert stream.getvalue().encode() == (DATA / name).read_bytes()


@pytest.mark.parametrize(
    "family, params, name",
    [
        pytest.param(family, params, f"{family}_seed7_{tag}.csv", id=id_)
        for family, params, tag, id_ in (
            ("galerkin_p", range(3, 9), "params3-8", "galerkin_p"),
            ("galerkin_k", range(3, 9), "params3-8", "galerkin_k"),
            ("galerkin_p", [50], "param50", "galerkin_p-50"),
            ("galerkin_k", [50], "param50", "galerkin_k-50"),
            ("galerkin_p", [36, 44], "params36-44", "galerkin_p-36-44"),
            ("galerkin_k", [28, 36, 44], "params28-36-44", "galerkin_k-28-36-44"),
        )
    ],
)
def test_galerkin_rows_bytes_match_golden_file(family, params, name):
    """CSV lines of the experiment's rows params of a Galerkin family, seed 7.

    Every g shares f's knots in these rows, so f and the gs share one
    evaluation pass on the error grid and one at the Greville points, and
    the products one on the grid.  Rows 28-50 pack their
    products into several blocks (galerkin_k 28, 36, 44 and 50: 2, 3, 6
    and 9; galerkin_p 36, 44 and 50: 2, 2 and 3), whose stage nodes each
    side numbers across the blocks.  The files were written by
    `splineprod experiment --family F --seed 7`, rows 3-8 before
    evaluate kept layouts, row 50 before every kept product layout was
    shared as it was built, and rows 28-44 before the sides were
    numbered across blocks, and cut to these rows.
    """
    master = SplitMix64(7)
    seeds = {param: master.next_u64() for param in FAMILY_PARAMETERS[family]}
    rows = [_compute_row(family, param, seeds[param], 201) for param in params]
    stream = io.StringIO()
    write_csv(rows, stream)
    assert stream.getvalue().encode() == (DATA / name).read_bytes()


def test_write_csv_layout():
    row = ExperimentRow("spline_poly", 2, 0.1, 0.25, 10.0, 2.0, 10, 1.0, 2.0)
    stream = io.StringIO()
    write_csv([row], stream)
    lines = stream.getvalue().splitlines()
    assert lines[0] == CSV_HEADER
    assert (
        lines[0] == "family,param,e_direct,e_colloc,cond,nu_bar,naive_terms,"
        "t_direct,t_colloc"
    )
    fields = lines[1].split(",")
    assert fields[0] == "spline_poly"
    assert fields[1] == "2"
    assert fields[2] == "0.10000000000000001"  # 17 significant digits
    assert fields[3] == "0.25"
    assert fields[6] == "10"
    assert len(lines) == 2
