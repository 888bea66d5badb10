import argparse
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction as F
from pathlib import Path

import pytest

from sobolev1d.cli import (
    MAX_GALERKIN_DEGREE,
    MAX_K,
    MAX_POINTS,
    MAX_SWEEP_ROWS,
    _fmt,
    _sweep_values,
    main,
)
from sobolev1d.closed_forms import dirac_mu
from sobolev1d.scalars import format_rational
from sobolev1d.solver import ExtremalSolution, ProblemSpec, closed_form, solve
from sobolev1d.weights import (
    MAX_DEGREE,
    MAX_LITERAL_BITS,
    MAX_POLY_BITS,
    MAX_WEIGHT_SIZE,
    parse_weight,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constant_uniform(capsys):
    code, out, _ = run(capsys, "constant", "--k", "1", "--weight", "poly:1")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu_exact"] == "12"
    assert doc["mu_float"] == 12.0
    assert doc["lambda"] == pytest.approx(1 / math.sqrt(12), abs=1e-12)
    assert doc["method"] == "pipeline"
    assert doc["outside_theorem_scope"] is False
    # reparsing the printed fraction is lossless
    assert F(doc["mu_exact"]) == 12


def test_constant_dirac_k2(capsys):
    code, out, _ = run(capsys, "constant", "--k", "2", "--weight", "dirac:1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu_exact"] == "192"
    assert doc["outside_theorem_scope"] is True


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("k", [2, 6])
def test_constant_prints_the_point_mass_deviation(capsys, k, mode):
    # `constant` reads the series-profile deviation, which a solve leaves
    # uncomputed until read: it prints the 513-point maximum, bit for bit
    code, out, _ = run(capsys, "constant", "--k", str(k), "--weight", "dirac:2/7", "--mode", mode)
    assert code == 0
    deviation = json.loads(out)["diagnostics"]["pointload_candidate_deviation"]
    spec = ProblemSpec(k, parse_weight("dirac:2/7"), mode)
    s, ref = solve(spec), closed_form(spec)
    expected = max(abs(s.eval_u(i / 512) - ref.eval_u(i / 512)) for i in range(513))
    assert deviation.hex() == expected.hex()


def test_constant_exact_fraction_round_trip(capsys):
    code, out, _ = run(capsys, "constant", "--k", "1", "--weight", "chi:0,1/2")
    doc = json.loads(out)
    assert F(doc["mu_exact"]) == F(48, 5)


def test_constant_hardy(capsys):
    code, out, _ = run(capsys, "constant", "--k", "1", "--weight", "hardy:1")
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"] == 1.0
    assert doc["outside_theorem_scope"] is True
    assert doc["method"] == "closed_form"


def test_minimizer_samples(capsys):
    code, out, _ = run(
        capsys, "minimizer", "--k", "1", "--weight", "poly:1", "--samples", "3"
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,u,u_k"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 3
    assert float(rows[0][1]) == 0.0  # u(0) = 0
    assert float(rows[1][1]) == pytest.approx(1.5)  # 6 * 1/2 * 1/2
    assert float(rows[2][1]) == 0.0  # u(1) = 0


def test_minimizer_hardy_origin_row(capsys):
    code, out, _ = run(
        capsys, "minimizer", "--k", "1", "--weight", "hardy:1", "--samples", "5"
    )
    assert code == 0
    rows = out.strip().split("\n")[1:]
    first = rows[0].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 0.0  # limit value of -x ln x
    assert first[2] == "inf"  # the derivative -ln x - 1 diverges at 0
    mid = rows[2].split(",")  # x = 1/2: u' = -ln(1/2) - 1 = ln 2 - 1
    assert float(mid[2]) == pytest.approx(math.log(2.0) - 1.0, abs=1e-12)
    last = rows[-1].split(",")
    assert float(last[1]) == 0.0
    assert float(last[2]) == pytest.approx(-1.0, abs=1e-12)  # u'(1) = -1


def test_minimizer_boundary_rows_always_zero(capsys):
    for weight in ("poly:1 + x", "chi:1/4,3/4", "dirac:1/3"):
        _, out, _ = run(
            capsys, "minimizer", "--k", "2", "--weight", weight, "--samples", "9"
        )
        rows = out.strip().split("\n")[1:]
        assert float(rows[0].split(",")[1]) == 0.0
        assert float(rows[-1].split(",")[1]) == 0.0


def test_minimizer_csv_matches_fraction_evaluation(capsys):
    # every exact sample must print as float() of the Fraction value at
    # the exact point i/(n-1); 120 samples put points on 1/4, 3/4 and 1/3
    weights = ("dirac:1/3", "chi:1/4,3/4", "pw:[0,1/3]=x^2;[1/3,2/3]=1/5;[2/3,1]=1-x")
    for weight in weights:
        for k in (1, 3, 6):
            solution = solve(ProblemSpec(k, parse_weight(weight)))
            for n in (2, 120, 121):
                lines = ["x,u,u_k"]
                for i in range(n):
                    x = F(i, n - 1)
                    u, u_k = float(solution.u(x)), float(solution.u_k(x))
                    lines.append(f"{_fmt(i / (n - 1))},{_fmt(u)},{_fmt(u_k)}")
                argv = ["minimizer", "--k", str(k), "--weight", weight]
                _, out, _ = run(capsys, *argv, "--samples", str(n))
                assert out == "\n".join(lines) + "\n", (weight, k, n)


# dirac:1/1000 at k = 40 included: its mu overflows a float, which the
# minimizer never prints
@pytest.mark.parametrize(
    "weight, k",
    [
        (weight, k)
        for weight in (
            "poly:1",
            "poly:1 + x^2",
            "pw:[0,1/2]=1;[1/2,1]=x",
            "chi:1/4,3/4",
            "dirac:1/3",
            "dirac:1/1000",
        )
        for k in (1, 6, 24, 40)
    ],
)
def test_float_mode_minimizer_prints_what_exact_mode_prints(capsys, weight, k):
    # both modes sample the same exact u at the exact points i/(n-1); Horner
    # over rounded coefficients would lose every digit to cancellation at
    # high k
    argv = ["minimizer", "--k", str(k), "--weight", weight, "--samples", "101"]
    exact = run(capsys, *argv, "--mode", "exact")
    floaty = run(capsys, *argv, "--mode", "float")
    assert exact[0] == 0 and floaty == exact
    if (weight, k) == ("poly:1", 40):
        # README's example: u(1/2) at k = 40
        assert floaty[1].splitlines()[51].split(",")[:2] == ["0.5", "7.2031581806864855"]


def test_verify_uniform_k2(capsys):
    code, out, _ = run(capsys, "verify", "--k", "2", "--weight", "poly:1")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "agree"
    assert doc["galerkin"]["gap"] == 0.0
    assert doc["sign_iteration"]["sign_definite"] is True
    assert doc["max_principle"] == "pass"


def test_verify_half_indicator(capsys):
    code, out, _ = run(capsys, "verify", "--k", "1", "--weight", "chi:0,1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "agree"
    assert doc["pipeline_mu"] == pytest.approx(9.6)
    # the extremizer is piecewise here, not a polynomial, so the dual-norm
    # bound approaches from below without closing
    assert doc["galerkin"]["gap"] > 0


def test_verify_power_weight(capsys):
    code, out, _ = run(capsys, "verify", "--k", "1", "--weight", "pow:1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "agree"
    assert doc["pipeline_mu"] == pytest.approx(4.5, abs=1e-8)


def test_verify_flags_galerkin_degree(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--k", "2", "--weight", "poly:1",
        "--galerkin-degree", "6", "--grid", "199",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["galerkin"]["N"] == 6
    assert doc["galerkin"]["gap"] == 0.0
    assert doc["verdict"] == "agree"


def test_verify_dirac(capsys):
    code, out, _ = run(capsys, "verify", "--k", "1", "--weight", "dirac:1/2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "agree"
    # kinked extremizer: the polynomial lower bound stays strictly below
    assert doc["galerkin"]["gap"] > 1e-3
    assert doc["sign_iteration"]["within_5pct"] is True


@pytest.mark.parametrize(
    "k, weight",
    [
        (1, "chi:331/1000,332/1000"),
        (
            2,
            "chi:6148914691236517205/18446744073709551615,"
            "6148914691236517206/18446744073709551615",
        ),
    ],
)
def test_verify_skips_the_sign_iteration_on_an_indicator_between_nodes(
    capsys, k, weight
):
    # no node of the default 199-node grid lies in the indicator, so the
    # sampled weight has no mass; the other two oracles still decide
    code, out, err = run(capsys, "verify", "--k", str(k), "--weight", weight)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["sign_iteration"] == "skipped"
    assert doc["max_principle"] == "pass"
    assert 0 < doc["galerkin"]["relative_gap"] < 0.05
    assert doc["verdict"] == "agree"
    # a grid fine enough to place a node inside runs the iteration again
    if k == 1:
        argv = ["verify", "--k", "1", "--weight", weight, "--grid", "2000"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["sign_iteration"]["grid"] == 2000


@pytest.mark.parametrize("k", [1, 6, 24])
def test_constant_reports_a_grid_minimum_only_without_a_certificate(capsys, k):
    # a float grid scan of a certified extremizer only adds cancellation
    # noise (about -9.2e9 for chi:1/4,3/4 at k = 24), so none is reported;
    # every kind has a certificate, x^(k - alpha) terms by Boggio's theorem
    weights = ["poly:1 + x", "pw:[0,1/2]=2*x;[1/2,1]=2-2*x", "chi:1/4,3/4", "dirac:1/3"]
    if k == 1:
        weights.append("hardy:1")
    for weight in weights + ["pow:1/2"]:
        code, out, _ = run(capsys, "constant", "--k", str(k), "--weight", weight)
        assert code == 0
        diagnostics = json.loads(out)["diagnostics"]
        assert diagnostics["min_interior_value"] is None, weight
        assert diagnostics["positivity_certified"] is True, weight


def test_verify_reports_the_exact_galerkin_gap(capsys):
    # at k = 18 the float difference 1/mu - lambda^2 cancels to 0.0, while
    # the exact relative gap is 2.4e-17; pow:1/2 runs in float mode, where
    # mu is the exact value of the rounded float
    from sobolev1d.oracles import GalerkinConfig, galerkin_lambda
    from sobolev1d.scalars import EXACT, FLOAT

    for k, weight, mode in ((18, "chi:3/11,8/13", EXACT), (1, "pow:1/2", FLOAT)):
        code, out, _ = run(capsys, "verify", "--k", str(k), "--weight", weight)
        assert code == 0
        doc = json.loads(out)
        mu = F(doc["pipeline_mu_exact"] or doc["pipeline_mu"])
        spec = ProblemSpec(k, parse_weight(weight), mode)
        gal = galerkin_lambda(spec, GalerkinConfig(doc["galerkin"]["N"]))
        lam_sq = gal.details["lambda_sq_exact"]
        assert doc["galerkin"]["gap"] == float(1 / mu - lam_sq), weight
        assert doc["galerkin"]["relative_gap"] == float(1 - mu * lam_sq), weight
        assert doc["galerkin"]["relative_gap"] > 0, weight


def test_sweep_power(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--k", "1", "--param", "power",
        "--start", "0", "--stop", "1/2", "--step", "1/4",
    )
    assert code == 0
    rows = [[float(v) for v in r.split(",")] for r in out.strip().split("\n")[1:]]
    assert len(rows) == 3
    # alpha = 0 reduces to the uniform weight, alpha = 1/2 was derived by hand
    assert rows[0][1] == pytest.approx(12.0, abs=1e-8)
    assert rows[2][1] == pytest.approx(4.5, abs=1e-8)


def test_sweep_dirac(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--k", "1", "--param", "dirac",
        "--start", "1/10", "--stop", "9/10", "--step", "1/10",
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "param,mu,lambda"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == 9
    for a, mu, lam in rows:
        assert mu == pytest.approx(1.0 / (a * (1.0 - a)), rel=1e-12)
        assert lam == pytest.approx(1.0 / math.sqrt(mu), rel=1e-12)
    # reflection symmetry of the family
    for i in range(4):
        assert rows[i][1] == pytest.approx(rows[8 - i][1], rel=1e-12)
    # ascending parameter order
    assert [r[0] for r in rows] == sorted(r[0] for r in rows)


def test_sweep_options_read_decimals_and_fractions_exactly():
    from sobolev1d.cli import _sweep_option

    args = argparse.Namespace(start="0.3", stop=" 48/5 ", step="-7/21", center="1")
    assert _sweep_option(args, "start") == F(3, 10)
    assert _sweep_option(args, "stop") == F(48, 5)
    assert _sweep_option(args, "step") == F(-1, 3)
    assert _sweep_option(args, "center") == 1


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--start", "1/0", "--start: zero denominator"),
        ("--stop", "1/00", "--stop: zero denominator"),
        ("--start", "9" * 5000, f"--start: 5000-digit number exceeds {MAX_LITERAL_BITS} bits"),
        ("--step", f"1/{2**MAX_LITERAL_BITS}", f"exceeds {MAX_LITERAL_BITS} bits"),
        # read as the weight DSL reads a literal: no exponent forms
        ("--step", "1e-1", "--step: expected a number, found '1e-1'"),
        ("--center", "1/2/3", "--center: expected a number"),
    ],
    ids=["zero", "zero-00", "5000-digits", "65-bits", "exponent", "two-slashes"],
)
def test_sweep_number_errors_are_one_short_line(capsys, option, value, message):
    argv = {"--start": "1/10", "--stop": "1/5", "--step": "1/10", "--center": "1/2"}
    argv[option] = value
    code, out, err = run(
        capsys, "sweep", "--k", "1", "--param", "indicator",
        *(item for pair in argv.items() for item in pair),
    )
    assert code == 2
    assert out == ""
    assert message in err
    assert err.count("\n") == 1 and len(err) < 120, err[:200]


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("constant", "--k", "1", "--weight", "dirac:" + "x" * 5000),
            "expected a number, found '" + "x" * 30 + "'... (5000 characters) (at position 6)",
        ),
        (
            ("sweep", "--k", "1", "--param", "power", "--start", "1e" * 2500, "--stop", "1/2", "--step", "1/4"),
            "--start: expected a number, found '" + "1e" * 15 + "'... (5000 characters)",
        ),
        (
            ("constant", "--k", "1", "--weight", "x" * 5000 + ":1"),
            "unknown weight kind '" + "x" * 30 + "'... (5000 characters)",
        ),
    ],
    ids=["dirac-payload", "sweep-start", "weight-kind"],
)
def test_a_long_malformed_value_gives_one_short_error_line(capsys, argv, message):
    # the value is cut to its first 30 characters and its length
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err
    assert err.count("\n") == 1 and len(err) < 120, err[:200]


def test_sweep_indicator_shrinks_to_dirac(capsys):
    code, out, _ = run(
        capsys,
        "sweep", "--k", "1", "--param", "indicator", "--center", "1/2",
        "--start", "1/20", "--stop", "2/5", "--step", "1/20",
    )
    assert code == 0
    rows = [
        [float(v) for v in line.split(",")]
        for line in out.strip().split("\n")[1:]
    ]
    mus = [r[1] for r in rows]
    # mu(eps) = 12/(3 - 4 eps) decreases to the point-mass value 4 as eps -> 0
    assert all(a < b for a, b in zip(mus, mus[1:]))
    assert mus[0] == pytest.approx(12.0 / (3.0 - 4.0 * 0.05), rel=1e-12)
    assert mus[0] > 4.0


def test_format_rational_renders_integers_past_the_str_digit_limit():
    assert format_rational(F(10**5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
    assert format_rational(F(-(10**4400))) == "-1" + "0" * 4400


def test_constant_prints_a_mu_past_the_str_digit_limit(capsys, monkeypatch):
    import sobolev1d.cli as cli

    big = F(10**5000 + 1, 3 * 10**4999)

    def huge_solve(spec):
        s = solve(spec)
        return ExtremalSolution(
            s.spec, big, s.lam, s.seeds, s.u, s.u_k, s.diagnostics, s.method
        )

    monkeypatch.setattr(cli, "solve", huge_solve)
    code, out, _ = run(capsys, "constant", "--k", "1", "--weight", "poly:1")
    assert code == 0
    assert json.loads(out)["mu_exact"] == "1" + "0" * 4999 + "1/3" + "0" * 4999


def test_constant_reports_a_mu_past_the_float_range(capsys):
    # mu = 79 (39!)^2 / (a (1 - a))^79 at a = 1/1000 is past the float range
    code, out, err = run(capsys, "constant", "--k", "40", "--weight", "dirac:1/1000")
    assert code == 0, err
    doc = json.loads(out)
    mu = dirac_mu(40, F(1, 1000))
    assert mu > F(10) ** 309
    assert F(doc["mu_exact"]) == mu
    assert doc["mu_float"] is None
    lam = doc["lambda"]
    assert math.isfinite(lam) and lam > 0
    assert abs(F(lam) ** 2 * mu - 1) < F(1, 10**15)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--k", "40", "--weight", "dirac:1/1000"),
        ("sweep", "--k", "40", "--param", "dirac", "--start", "1/1000",
         "--stop", "1/1000", "--step", "1"),
    ],
    ids=["verify", "sweep"],
)
def test_float_arithmetic_on_a_mu_past_the_float_range_exits_3(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert "overflows a float" in err


def test_float_mode_constant_names_a_mu_past_the_float_range(capsys):
    code, out, err = run(
        capsys, "constant", "--k", "40", "--weight", "dirac:1/1000", "--mode", "float"
    )
    assert (code, out) == (3, "")
    assert "mu (about 10^331) overflows a float" in err


def test_exit_code_input_error(capsys):
    code, _, err = run(capsys, "constant", "--k", "1", "--weight", "chi:3/4,1/4")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "constant", "--k", "1", "--weight", "poly:1 +")
    assert code == 2


@pytest.mark.parametrize("weight", ["poly:x²", "poly:x⁰", "pw:[0,1/2]=1;[1/2,1]=x²"])
def test_superscript_digit_exits_2(capsys, weight):
    code, out, err = run(capsys, "constant", "--k", "1", "--weight", weight)
    assert (code, out) == (2, "")
    assert "unexpected character" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "weight, position",
    [("poly:1/0*x", 5), ("chi:1/0,1/2", 4), ("pw:[0,1/2]=1;[1/2,1q]=x", 18), ("poly:" + "9" * 5000, 5)],
    ids=lambda v: v[:24] if isinstance(v, str) else None,
)
def test_literal_errors_exit_2_at_the_literal(capsys, weight, position):
    code, out, err = run(capsys, "constant", "--k", "1", "--weight", weight)
    assert (code, out) == (2, "")
    assert f"(at position {position})" in err and "Traceback" not in err
    assert len(err) < 200  # a long literal is not repeated


def test_exit_code_solver_error(capsys):
    code, _, err = run(capsys, "constant", "--k", "1", "--weight", "poly:0")
    assert code == 3
    assert "solver error" in err


@pytest.mark.parametrize(
    "weight", ["poly:(x-1/2)*(x-2047/4096)", "poly:(x-1/2)*(x-1/2+1/1025)"]
)
def test_weights_negative_between_close_roots_exit_2(capsys, weight):
    code, out, err = run(capsys, "constant", "--k", "1", "--weight", weight)
    assert (code, out) == (2, "")
    assert "weight is negative" in err


# 1/3 and 1/3 + 1/(2^64 - 1), two breakpoints that round to one float
_THIRD = "6148914691236517205/18446744073709551615"
_THIRD_AND_A_BIT = "6148914691236517206/18446744073709551615"


@pytest.mark.parametrize(
    "argv",
    [
        [
            "constant",
            "--weight",
            f"pw:[0,1/3]=1;[1/3,{_THIRD_AND_A_BIT}]=2;[{_THIRD_AND_A_BIT},1]=1",
        ],
        ["minimizer", "--samples", "4", "--weight", f"chi:{_THIRD},{_THIRD_AND_A_BIT}"],
    ],
    ids=["constant-pw", "minimizer-chi"],
)
def test_float_mode_on_breakpoints_that_round_to_one_float(capsys, argv):
    # the two breakpoints round to one float; float mode keeps u exact and
    # samples it at exact rational points, so no float breakpoint is formed
    code, out, err = run(capsys, *argv, "--k", "1", "--mode", "float")
    assert (code, err) == (0, "")
    exact_mu = solve(ProblemSpec(1, parse_weight(argv[-1]))).mu
    if argv[0] == "constant":
        assert json.loads(out)["mu_float"] == float(exact_mu) == 12.0
    else:
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 4 and rows[0][1] == "0"
        assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("name", ["galerkin_lambda", "sign_iteration"])
def test_oracle_errors_exit_3(capsys, monkeypatch, name):
    from sobolev1d import oracles

    error = {
        "galerkin_lambda": ZeroDivisionError("pivot"),
        "sign_iteration": oracles.PositivityViolatedError(0.5, -1.0),
    }[name]

    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(oracles, name, fail)
    code, out, err = run(capsys, "verify", "--k", "1", "--weight", "poly:1")
    assert (code, out) == (3, "")
    assert err.startswith("solver error:")


def test_out_file(tmp_path, capsys):
    path = tmp_path / "result.json"
    code, out, _ = run(
        capsys, "constant", "--k", "1", "--weight", "poly:1", "--out", str(path)
    )
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["mu_exact"] == "12"


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
def test_unwritable_out_path_exits_2(tmp_path, capsys, target):
    path = tmp_path / "missing" / "x.json" if target == "missing_dir" else tmp_path
    code, out, err = run(
        capsys, "constant", "--k", "1", "--weight", "poly:1", "--out", str(path)
    )
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")
    assert "Traceback" not in err


def test_csv_line_endings(tmp_path, capsys):
    path = tmp_path / "u.csv"
    run(
        capsys,
        "minimizer", "--k", "1", "--weight", "poly:1",
        "--samples", "3", "--out", str(path),
    )
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().splitlines()[0] == "x,u,u_k"


def test_format_mismatch_rejected(capsys):
    code, _, err = run(
        capsys, "constant", "--k", "1", "--weight", "poly:1", "--format", "csv"
    )
    assert code == 2


def test_config_file_defaults_and_precedence(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sobolev.conf"
    cfg.write_text("samples=4\nmode=exact\n# comment\n")
    monkeypatch.setenv("SOBOLEV_CONFIG", str(cfg))
    _, out, _ = run(capsys, "minimizer", "--k", "1", "--weight", "poly:1")
    assert len(out.strip().split("\n")) == 1 + 4  # header + config samples
    # explicit flag wins over the file
    _, out, _ = run(
        capsys, "minimizer", "--k", "1", "--weight", "poly:1", "--samples", "6"
    )
    assert len(out.strip().split("\n")) == 1 + 6


def test_config_file_unknown_key(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "bad.conf"
    cfg.write_text("samples=4\nwhat=1\n")
    monkeypatch.setenv("SOBOLEV_CONFIG", str(cfg))
    code, _, err = run(capsys, "constant", "--k", "1", "--weight", "poly:1")
    assert code == 2


def test_strong_power_weight_terminates_in_bounded_memory():
    # x^(-97/100) once sent the graded quadrature mesh into an endless loop
    resource = pytest.importorskip("resource")
    cap = 2 * 1024**3

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "SOBOLEV_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sobolev1d.cli", "constant", "--k", "2", "--weight", "pow:97/100"],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit_memory,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # exact value of the generalized-polynomial pipeline at alpha = 97/100
    assert json.loads(proc.stdout)["mu_float"] == pytest.approx(115.7707266786, rel=1e-9)


def _child_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "SOBOLEV_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _cli_under_memory_cap(*argv):
    """``python -m sobolev1d.cli ARGV`` in a child capped at 2 GiB of address
    space and 60 s."""
    resource = pytest.importorskip("resource")
    cap = 2 * 1024**3

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    return subprocess.run(
        [sys.executable, "-m", "sobolev1d.cli", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        preexec_fn=limit_memory,
        timeout=60,
    )


def test_verify_fine_grid_terminates_in_bounded_memory():
    # a dense operator on this grid would take 3.2 GB; the banded one is O(n)
    proc = _cli_under_memory_cap(
        "verify", "--k", "2", "--weight", "poly:1", "--grid", "20000"
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "agree"
    assert doc["sign_iteration"]["grid"] == 20000


@pytest.mark.parametrize(
    "command, flag", [("verify", "--grid"), ("minimizer", "--samples")]
)
def test_point_counts_above_the_cap_exit_2(command, flag):
    proc = _cli_under_memory_cap(
        command, "--k", "1", "--weight", "poly:1", flag, str(MAX_POINTS + 1)
    )
    assert proc.returncode == 2
    assert f"must be <= {MAX_POINTS}" in proc.stderr


@pytest.mark.parametrize(
    "argv, message",
    [
        (("constant", "--k", str(MAX_K + 1), "--weight", "poly:1 + x"), f"k must be <= {MAX_K}"),
        (("constant", "--k", "2", "--weight", f"poly:x^{MAX_DEGREE + 1}"), f"0..{MAX_DEGREE}"),
        (("constant", "--k", "2", "--weight", "poly:x^5000"), f"0..{MAX_DEGREE}"),
        (
            ("constant", "--k", "2", "--weight", f"poly:1 + x^{MAX_DEGREE}*x"),
            f"degree {MAX_DEGREE + 1} exceeds {MAX_DEGREE}",
        ),
        (
            ("verify", "--k", "1", "--weight", "poly:1",
             "--galerkin-degree", str(MAX_GALERKIN_DEGREE + 1)),
            f"galerkin degree must be <= {MAX_GALERKIN_DEGREE}",
        ),
        (
            ("sweep", "--k", "1", "--param", "dirac", "--start", "1/4000",
             "--stop", f"{MAX_SWEEP_ROWS + 1}/4000", "--step", "1/4000"),
            f"sweep has {MAX_SWEEP_ROWS + 1} rows",
        ),
        (
            ("sweep", "--k", "1", "--param", "dirac", "--start", "1/1000000",
             "--stop", "999999/1000000", "--step", "1/1000000"),
            f"at most {MAX_SWEEP_ROWS}",
        ),
    ],
)
def test_inputs_above_their_cap_exit_2(argv, message):
    # each check runs before any work that grows with the input
    proc = _cli_under_memory_cap(*argv)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


def test_inputs_at_their_cap_run(capsys):
    code, out, _ = run(capsys, "constant", "--k", str(MAX_K), "--weight", "poly:1")
    assert code == 0 and math.isfinite(json.loads(out)["mu_float"])
    code, _, _ = run(capsys, "constant", "--k", "1", "--weight", f"poly:1 + x^{MAX_DEGREE}")
    assert code == 0
    assert len(_sweep_values(F(1, 4000), F(MAX_SWEEP_ROWS, 4000), F(1, 4000))) == MAX_SWEEP_ROWS


_LITERAL = 2**MAX_LITERAL_BITS - 1  # the longest literal allowed
_POWER, _REST = divmod(MAX_POLY_BITS, MAX_LITERAL_BITS)
# a product whose coefficient bound is exactly MAX_POLY_BITS
_POLY_AT_CAP = f"{_LITERAL}^{_POWER}" + (f"*{2**_REST - 1}" if _REST else "")


@pytest.mark.parametrize(
    "weight",
    [f"poly:{_LITERAL}", f"chi:1/{_LITERAL},1/2", f"dirac:{_LITERAL - 1}/{_LITERAL}",
     f"poly:{_POLY_AT_CAP}"],
    ids=["poly-literal", "chi", "dirac", "poly-product"],
)
def test_rationals_at_the_bit_caps_run(weight):
    proc = _cli_under_memory_cap("constant", "--k", "2", "--weight", weight)
    assert proc.returncode == 0, proc.stderr
    assert F(json.loads(proc.stdout)["mu_exact"]) > 0


@pytest.mark.parametrize(
    "weight, message",
    [
        (f"poly:{_LITERAL + 1}", f"{MAX_LITERAL_BITS + 1}-bit number exceeds"),
        (f"chi:1/{_LITERAL + 1},1/2", f"{MAX_LITERAL_BITS + 1}-bit number exceeds"),
        (f"pw:[0,1/{_LITERAL + 1}]=1;[1/{_LITERAL + 1},1]=x", "-bit number exceeds"),
        (f"poly:{_POLY_AT_CAP}*1", f"up to {MAX_POLY_BITS + 1} bits exceed {MAX_POLY_BITS}"),
        (f"poly:{_POLY_AT_CAP} + 1/3", f"bits exceed {MAX_POLY_BITS}"),
        ("poly:((2^256)^256)^256", f"bits exceed {MAX_POLY_BITS}"),
    ],
    ids=["poly-literal", "chi", "pw", "product", "sum", "tower"],
)
def test_rationals_above_the_bit_caps_exit_2(weight, message):
    # each bound is checked before the product is multiplied out
    proc = _cli_under_memory_cap("constant", "--k", "2", "--weight", weight)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr


def _pw(pieces):
    """pw weight text with the given piece texts on equal parts of [0, 1]."""
    n = len(pieces)
    cuts = ["0", *(f"{i}/{n}" for i in range(1, n)), "1"]
    return "pw:" + ";".join(f"[{a},{b}]={p}" for a, b, p in zip(cuts, cuts[1:], pieces))


# three pieces of degree 15 on 64-bit breakpoints, size 3 x 16 x 64: the
# slowest input found at the caps (verify --k 60 took 8.7 s against the 10 s
# budget the caps are set from); degree 16 makes it 3 x 17 x 64
_CUTS = ("0", "1212534804593786696/3637604413781271093",
         "9938324321300422253/14907486481950237672", "1")


def _long_cuts(degree):
    pieces = (f"(4/5+x)^{degree}", f"(7/5+x)^{degree}", f"(6/7+x)^{degree}")
    return "pw:" + ";".join(f"[{a},{b}]={p}" for a, b, p in zip(_CUTS, _CUTS[1:], pieces))


def test_weights_above_the_size_and_piece_caps_exit_2():
    # both caps are checked before any piece is certified or solved
    assert 3 * 16 * 64 <= MAX_WEIGHT_SIZE < 3 * 17 * 64
    for weight, message in [
        (
            _long_cuts(16),
            f"weight size {3 * 17 * 64} (3 pieces x (degree 16 + 1) x 64 bits) "
            f"exceeds {MAX_WEIGHT_SIZE}",
        ),
        (_pw(["1"] * 4), "pw weight has 4 pieces, at most 3"),
    ]:
        proc = _cli_under_memory_cap("constant", "--k", "2", "--weight", weight)
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr


def test_weights_at_the_size_and_piece_caps_run():
    proc = _cli_under_memory_cap("constant", "--k", "2", "--weight", _pw(["1"] * 3))
    assert proc.returncode == 0, proc.stderr
    assert F(json.loads(proc.stdout)["mu_exact"]) > 0
    # the slowest input found at the size cap, at the largest k
    proc = _cli_under_memory_cap("verify", "--k", str(MAX_K), "--weight", _long_cuts(15))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] == "agree"


def test_config_file_galerkin_degree_is_capped(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sobolev.conf"
    cfg.write_text(f"galerkin_degree={MAX_GALERKIN_DEGREE + 1}\n")
    monkeypatch.setenv("SOBOLEV_CONFIG", str(cfg))
    code, out, err = run(capsys, "verify", "--k", "1", "--weight", "poly:1")
    assert (code, out) == (2, "")
    assert f"galerkin degree must be <= {MAX_GALERKIN_DEGREE}" in err


def test_config_file_point_counts_are_capped(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "sobolev.conf"
    monkeypatch.setenv("SOBOLEV_CONFIG", str(cfg))
    for key, command in (("grid", "verify"), ("samples", "minimizer")):
        cfg.write_text(f"{key}={MAX_POINTS + 1}\n")
        code, out, err = run(capsys, command, "--k", "1", "--weight", "poly:1")
        assert code == 2
        assert out == ""
        assert f"{key} must be <= {MAX_POINTS}" in err


def test_numpy_stays_off_the_import_path():
    # no library module imports numpy; the seeded sign-iteration start is a
    # pure-Python copy of its generator
    script = textwrap.dedent(
        """
        import contextlib, io, sys
        import sobolev1d, sobolev1d.cli
        assert "numpy" not in sys.modules, "import"
        for argv in (
            ["constant", "--k", "2", "--weight", "chi:1/4,3/4"],
            ["minimizer", "--k", "1", "--weight", "pw:[0,1/2]=1;[1/2,1]=x"],
            ["sweep", "--k", "1", "--param", "indicator",
             "--start", "1/8", "--stop", "1/4", "--step", "1/8"],
            ["verify", "--k", "2", "--weight", "poly:1 + x"],
        ):
            with contextlib.redirect_stdout(io.StringIO()):
                code = sobolev1d.cli.main(argv)
            assert code == 0, (argv, code)
            assert "numpy" not in sys.modules, argv
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_seeded_sign_iteration_leaves_numpy_unloaded():
    script = textwrap.dedent(
        """
        import sys
        from sobolev1d import ProblemSpec, parse_weight, sign_iteration
        spec = ProblemSpec(1, parse_weight("poly:1 + x"))
        sign_iteration(spec, n=199, seed=1)
        assert "numpy" not in sys.modules
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
