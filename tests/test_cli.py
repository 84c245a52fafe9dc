"""Command-line entry points: product computation and experiment runs."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from splineprod import (
    KnotVector,
    Spline,
    bernstein_knots,
    make_spline,
    uniform_open_knots,
)
from splineprod.bench import CSV_HEADER
from splineprod.cli import build_parser, main

SRC = Path(__file__).resolve().parents[1] / "src"


def write_spline(path, spline):
    path.write_text(json.dumps(spline.to_dict()))
    return str(path)


@pytest.fixture
def cubic_pair(tmp_path):
    rng = np.random.default_rng(17)
    kv = uniform_open_knots(3, 5)
    f = Spline(kv, rng.uniform(-1, 1, size=kv.dimension))
    g = Spline(kv, rng.uniform(-1, 1, size=kv.dimension))
    return (
        write_spline(tmp_path / "f.json", f),
        write_spline(tmp_path / "g.json", g),
    )


def test_parser_rejects_bad_invocations():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])
    with pytest.raises(SystemExit):
        parser.parse_args(["product", "f.json", "g.json"])  # --method required
    with pytest.raises(SystemExit):
        parser.parse_args(["product", "f.json", "g.json", "--method", "magic"])
    with pytest.raises(SystemExit):
        parser.parse_args(["experiment", "--family", "spline_poly"])  # no seed
    with pytest.raises(SystemExit):
        parser.parse_args(
            ["experiment", "--family", "spline_poly", "--seed", "-3"]
        )
    with pytest.raises(SystemExit):
        parser.parse_args(
            ["experiment", "--family", "spline_poly", "--seed", str(2**64)]
        )


def test_product_direct_writes_document(cubic_pair, tmp_path, capsys):
    f_path, g_path = cubic_pair
    out = tmp_path / "product.json"
    code = main(["product", f_path, g_path, "--method", "direct", "-o", str(out)])
    assert code == 0
    document = json.loads(out.read_text())
    assert document["degree"] == 6
    assert len(document["coefficients"]) == len(document["knots"]) - 7
    stats = document["stats"]
    assert stats["naive_terms"] == math.comb(6, 3)
    assert 0 < stats["nu_bar"] <= stats["naive_terms"]
    assert len(stats["distinct_counts"]) == len(document["coefficients"])
    # the emitted document is a valid spline input again
    assert Spline.from_dict(document).degree == 6


def test_product_stdout_and_method_agreement(cubic_pair, capsys):
    f_path, g_path = cubic_pair
    assert main(["product", f_path, g_path, "--method", "direct"]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert main(["product", f_path, g_path, "--method", "naive"]) == 0
    naive = json.loads(capsys.readouterr().out)
    assert main(["product", f_path, g_path, "--method", "collocation"]) == 0
    colloc = json.loads(capsys.readouterr().out)
    npt.assert_allclose(direct["coefficients"], naive["coefficients"], atol=1e-13)
    npt.assert_allclose(direct["coefficients"], colloc["coefficients"], atol=1e-10)
    assert "stats" not in colloc


def test_product_span_mismatch_exits_2(tmp_path, capsys):
    f = Spline(bernstein_knots(2), np.ones(3))
    g = Spline(bernstein_knots(2, end=2.0), np.ones(3))
    code = main(
        [
            "product",
            write_spline(tmp_path / "f.json", f),
            write_spline(tmp_path / "g.json", g),
            "--method",
            "direct",
        ]
    )
    assert code == 2
    assert "span" in capsys.readouterr().err


def test_product_invalid_documents_exit_2(tmp_path, capsys, cubic_pair):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["product", str(bad), cubic_pair[1], "--method", "direct"]) == 2
    assert "bad.json" in capsys.readouterr().err
    missing = tmp_path / "missing.json"
    assert main(["product", str(missing), cubic_pair[1], "--method", "direct"]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"degree": 1, "knots": [0, 0, 1, 1]}))
    assert main(["product", str(invalid), cubic_pair[1], "--method", "direct"]) == 2
    assert "missing required field" in capsys.readouterr().err


def test_product_integer_past_double_range_exits_2(tmp_path, capsys, cubic_pair):
    """A JSON integer that no double can hold is malformed input."""
    huge = 10**400
    documents = (
        {"degree": 1, "knots": [0, 0, huge, huge], "coefficients": [1, 2]},
        {"degree": 1, "knots": [0, 0, 1, 1], "coefficients": [1, huge]},
    )
    for document in documents:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(document))
        assert main(["product", str(path), cubic_pair[1], "--method", "direct"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1


def test_naive_guard_exits_3(tmp_path, capsys):
    f = Spline(bernstein_knots(30), np.ones(31))
    g = Spline(bernstein_knots(31), np.ones(32))
    f_path = write_spline(tmp_path / "f.json", f)
    g_path = write_spline(tmp_path / "g.json", g)
    assert main(["product", f_path, g_path, "--method", "naive"]) == 3
    assert "force" in capsys.readouterr().err
    # the direct method handles the same pair fine
    assert main(["product", f_path, g_path, "--method", "direct"]) == 0


def test_product_degree_600_exits_2(tmp_path, capsys):
    """C(1200, 600) overflows a double: a clean input error, no traceback."""
    piece = Spline(bernstein_knots(600), np.ones(601))
    b = write_spline(tmp_path / "b600.json", piece)
    for method in ("direct", "naive"):
        assert main(["product", b, b, "--method", method]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


def _short_interval_files(tmp_path):
    """f of degree 2 whose first knot interval has length 5e-324, and a
    linear g, written as spline documents."""
    f = Spline(KnotVector([0, 0, 0, 5e-324, 1, 1, 1], 2), [0.5, -0.25, 1.0, 0.75])
    g = Spline(uniform_open_knots(1, 2), [1.0, -0.5])
    return write_spline(tmp_path / "f.json", f), write_spline(tmp_path / "g.json", g)


def test_product_overflow_on_a_very_short_knot_interval_exits_2(tmp_path, capsys):
    """A knot interval of length 5e-324 overflows the stage factors' division:
    exit 2 with one error line that names the overflow, and no warning."""
    f_path, g_path = _short_interval_files(tmp_path)
    for method in ("direct", "naive"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["product", f_path, g_path, "--method", method]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "overflowed the double range" in err


def test_collocation_names_a_knot_interval_too_short(tmp_path, capsys):
    """On the same pair the product space's Greville points round to equal
    doubles: exit 2 with one error line that names the knot interval."""
    f_path, g_path = _short_interval_files(tmp_path)
    assert main(["product", f_path, g_path, "--method", "collocation"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: knot interval [0.0, 5e-324] is too short for collocation: the "
        "Greville points of the product space on it round to equal doubles\n"
    )


def test_collocation_names_a_knot_of_full_multiplicity(tmp_path, capsys):
    """0.5 has multiplicity 3 in f of degree 2, so 4 = degree + 1 in the
    product space, where two Greville points are exactly equal: exit 2
    with one error line that names the knot and its multiplicity, while
    the direct product of the same pair succeeds."""
    f = make_spline(2, [0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1], [1, -0.5, 2, 0.25, 0.7, -1])
    g = make_spline(1, [0, 0, 0.5, 1, 1], [0.3, 1, -0.2])
    f_path = write_spline(tmp_path / "f.json", f)
    g_path = write_spline(tmp_path / "g.json", g)
    assert main(["product", f_path, g_path, "--method", "collocation"]) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: knot 0.5 has multiplicity 4 (degree + 1) in the product space, "
        "so two of its Greville points are equal and collocation cannot "
        "interpolate the product there\n"
    )
    assert main(["product", f_path, g_path, "--method", "direct"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("method", ["direct", "naive"])
def test_overflow_error_is_the_only_stderr_line(tmp_path, method):
    """Run as a program, the overflowing product writes exactly one line to
    stderr: numpy's floating-point warnings are silenced in main."""
    f_path, g_path = _short_interval_files(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-m", "splineprod", "product", f_path, g_path,
         "--method", method],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("error:") and "overflowed the double range" in done.stderr


def test_collocation_warns_when_condition_reaches_inverse_eps(tmp_path, capsys):
    """Two degree-20 Bezier pieces: estimate 4e16, coefficients off by 8."""
    piece = Spline(bernstein_knots(20), np.ones(21))
    b = write_spline(tmp_path / "b20.json", piece)
    assert main(["product", b, b, "--method", "collocation"]) == 0
    captured = capsys.readouterr()
    warnings = [
        line for line in captured.err.splitlines() if line.startswith("warning:")
    ]
    assert len(warnings) == 1
    assert "1/eps" in warnings[0]
    # the document still goes to stdout, unchanged
    assert len(json.loads(captured.out)["coefficients"]) == 41


def test_collocation_well_conditioned_pair_does_not_warn(tmp_path, capsys):
    f = make_spline(2, [0, 0, 0, 0.5, 1, 1, 1], [1.0, -0.5, 2.0, 0.25])
    g = make_spline(1, [0, 0, 1, 1], [0.0, 1.0])
    code = main(
        [
            "product",
            write_spline(tmp_path / "f.json", f),
            write_spline(tmp_path / "g.json", g),
            "--method",
            "collocation",
        ]
    )
    assert code == 0
    assert capsys.readouterr().err == ""


def test_collocation_when_equal_knots_average_off_their_value(tmp_path, capsys):
    """Degree 1 times degree 6 on [-3, -1.7]: the last Greville point is
    the mean of seven copies of -1.7, which rounds past the span's end."""
    f = make_spline(1, [-3, -3, -1.7, -1.7], [0.5, -1.25])
    g = make_spline(
        6, [-3] * 7 + [-1.7] * 7, [1.0, -0.5, 2.0, 0.25, -1.0, 0.75, 1.5]
    )
    f_path = write_spline(tmp_path / "f.json", f)
    g_path = write_spline(tmp_path / "g.json", g)
    assert main(["product", f_path, g_path, "--method", "collocation"]) == 0
    colloc = json.loads(capsys.readouterr().out)
    assert main(["product", f_path, g_path, "--method", "direct"]) == 0
    direct = json.loads(capsys.readouterr().out)
    npt.assert_allclose(direct["coefficients"], colloc["coefficients"], atol=1e-10)


def test_collocation_factors_the_matrix_once(tmp_path, capsys, monkeypatch):
    """The solve and the condition estimate share one banded LU."""
    from splineprod.collocation import BandedMatrix

    calls = []
    lu = BandedMatrix.lu

    def counted(self):
        calls.append(self.order)
        return lu(self)

    monkeypatch.setattr(BandedMatrix, "lu", counted)
    readme_f = make_spline(2, [0, 0, 0, 0.5, 1, 1, 1], [1.0, -0.5, 2.0, 0.25])
    readme_g = make_spline(1, [0, 0, 1, 1], [0.0, 1.0])
    bezier = Spline(bernstein_knots(20), np.ones(21))
    for f, g in ((readme_f, readme_g), (bezier, bezier)):
        calls.clear()
        f_path = write_spline(tmp_path / "f.json", f)
        g_path = write_spline(tmp_path / "g.json", g)
        assert main(["product", f_path, g_path, "--method", "collocation"]) == 0
        assert len(calls) == 1
    # the degree-20 pair still warns
    assert "warning:" in capsys.readouterr().err


def test_experiment_writes_csv(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(
        [
            "experiment",
            "--family",
            "mesh_refine",
            "--seed",
            "99",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 11
    assert all(line.startswith("mesh_refine,") for line in lines[1:])


def test_experiment_stdout_grid_points(capsys):
    code = main(
        [
            "experiment",
            "--family",
            "mesh_refine",
            "--seed",
            "7",
            "--grid-points",
            "11",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 11


def test_module_entry_point():
    import splineprod.__main__  # noqa: F401  -- import must not execute main
