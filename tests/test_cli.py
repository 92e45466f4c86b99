import json
import subprocess
import sys
from dataclasses import replace

import pytest

import zeps.verify
from zeps.algebra import LaurentPoly, RationalFn
from zeps.cli import EXIT_EVALUATION, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, main
from zeps.sdomain import TustinParams, factored_laplace, laplace_determinant
from zeps.ztransform import determinant_ztransform, factored_ztransform


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEmit:
    def test_text_2d(self, capsys):
        code, out, _ = run(capsys, "emit", "--domain", "z", "--dim", "2", "--format", "text")
        assert code == EXIT_OK
        assert out.strip() == "z1^-1*z2^-2 - z1^-2*z2^-1"

    def test_json_3d_scale(self, capsys):
        code, out, _ = run(capsys, "emit", "--domain", "z", "--dim", "3", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["scale"] == {"num": 1, "den": 2}
        assert LaurentPoly.from_json_dict(data["body"]) == determinant_ztransform(3).body

    def test_json_s_domain_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "emit", "--domain", "s", "--dim", "2", "--T", "1", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        rebuilt = RationalFn(
            LaurentPoly.from_json_dict(data["numerator"]),
            LaurentPoly.from_json_dict(data["denominator"]),
        )
        assert rebuilt == laplace_determinant(2, TustinParams.uniform(2)).body

    def test_latex(self, capsys):
        code, out, _ = run(capsys, "emit", "--domain", "z", "--dim", "2", "--format", "latex")
        assert code == EXIT_OK
        assert out.strip() == "z_{1}^{-1} z_{2}^{-2} - z_{1}^{-2} z_{2}^{-1}"

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "emit", "--domain", "s", "--dim", "3", "--format", "json")
        _, second, _ = run(capsys, "emit", "--domain", "s", "--dim", "3", "--format", "json")
        assert first == second

    def test_per_dimension_steps(self, capsys):
        code, out, _ = run(
            capsys, "emit", "--domain", "s", "--dim", "2", "--T", "1,1/2", "--format", "json"
        )
        assert code == EXIT_OK
        assert json.loads(out)["T"] == [{"num": 1, "den": 1}, {"num": 1, "den": 2}]

    def test_dim_out_of_range(self, capsys):
        code, _, err = run(capsys, "emit", "--domain", "z", "--dim", "7")
        assert code == EXIT_USAGE and "dimension" in err
        code, _, err = run(capsys, "emit", "--domain", "s", "--dim", "6")
        assert code == EXIT_USAGE and "dimension" in err

    def test_bad_format_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["emit", "--domain", "z", "--dim", "2", "--format", "xml"])
        assert exc.value.code == EXIT_USAGE


class TestEval:
    def test_exact_zero_on_diagonal(self, capsys):
        code, out, _ = run(capsys, "eval", "--domain", "z", "--dim", "2", "--point", "1,1")
        assert code == EXIT_OK
        assert out.strip() == "0"

    def test_exact_rational_point(self, capsys):
        code, out, _ = run(capsys, "eval", "--domain", "z", "--dim", "2", "--point", "2,1")
        assert code == EXIT_OK
        assert out.strip() == "1/4"

    def test_complex_point(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--domain", "z", "--dim", "2", "--point", "2+0j,1+0j"
        )
        assert code == EXIT_OK
        assert complex(out.strip()) == pytest.approx(0.25 + 0j)

    def test_s_domain_origin(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--domain", "s", "--dim", "3", "--T", "1", "--point", "0,0,0"
        )
        assert code == EXIT_OK
        assert out.strip() == "0"

    def test_singular_point_is_evaluation_error(self, capsys):
        code, _, err = run(
            capsys, "eval", "--domain", "s", "--dim", "2", "--T", "1", "--point=-2,1"
        )
        assert code == EXIT_EVALUATION
        assert "evaluation error" in err

    def test_zero_z_coordinate_is_evaluation_error(self, capsys):
        code, _, err = run(capsys, "eval", "--domain", "z", "--dim", "2", "--point", "0,1")
        assert code == EXIT_EVALUATION
        assert "evaluation error" in err

    def test_wrong_arity_is_usage_error(self, capsys):
        code, _, err = run(capsys, "eval", "--domain", "z", "--dim", "3", "--point", "1,2")
        assert code == EXIT_USAGE


class TestVerify:
    def test_passes_for_dim_3(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--dim", "3", "--samples", "25", "--seed", "7"
        )
        assert code == EXIT_OK
        lines = [line for line in out.splitlines() if line.startswith("PASS")]
        assert len(lines) == 3

    def test_deterministic_given_seed(self, capsys):
        args = ("verify", "--dim", "2", "--samples", "10", "--seed", "3")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_dim_6_skips_s_domain_check(self, capsys):
        code, out, _ = run(capsys, "verify", "--dim", "6", "--samples", "5")
        assert code == EXIT_OK
        assert "SKIP" in out

    def test_dim_out_of_range(self, capsys):
        code, _, err = run(capsys, "verify", "--dim", "7")
        assert code == EXIT_USAGE

    def test_failed_check_gives_distinct_exit_code(self, capsys, monkeypatch):
        # force one check to fail to pin down the exit-code contract
        from zeps.verify import CheckResult

        monkeypatch.setattr(
            "zeps.cli.check_epsilon_formulas",
            lambda dim: CheckResult("forced failure", False, ("mismatch at (1, 2)",)),
        )
        code, out, err = run(capsys, "verify", "--dim", "2", "--samples", "2")
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL: forced failure" in out
        assert "mismatch at (1, 2)" in err

    def test_doubled_factored_z_body_fails(self, capsys, monkeypatch):
        # verify must check the form emit prints, not only its oracles
        def doubled(dim):
            result = factored_ztransform(dim)
            return replace(result, body=2 * result.body)

        monkeypatch.setattr("zeps.verify.factored_ztransform", doubled)
        code, out, err = run(capsys, "verify", "--dim", "4", "--samples", "2")
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines()[1].startswith("FAIL: factored closed form")
        assert "factored and determinant differ in 24 monomials" in err

    def test_wrong_power_of_4_in_factored_s_form_fails(self, capsys, monkeypatch):
        def off_by_a_power(dim, params=None):
            result = factored_laplace(dim, params)
            if dim != 4:
                return result
            body = RationalFn(4 * result.body.num, result.body.den)
            return replace(result, body=body)

        monkeypatch.setattr("zeps.verify.factored_laplace", off_by_a_power)
        code, out, err = run(capsys, "verify", "--dim", "4", "--samples", "2")
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines()[2].startswith("FAIL: factored Laplace form")
        assert "factored Laplace form differs" in err
        code, _, _ = run(capsys, "verify", "--dim", "3", "--samples", "2")
        assert code == EXIT_OK

    @pytest.mark.parametrize("route", ["factored_value", "factored_laplace_value"])
    def test_doubled_eval_route_fails(self, capsys, monkeypatch, route):
        # verify must also check the values eval prints, route by route
        true_route = getattr(zeps.verify, route)
        monkeypatch.setattr(f"zeps.verify.{route}", lambda *args: 2 * true_route(*args))
        code, out, err = run(capsys, "verify", "--dim", "4", "--samples", "2")
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines()[2].startswith("FAIL: factored Laplace form")
        assert err.count("    at s=") == 2

    def test_bad_samples_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--dim", "2", "--samples", "0"])
        assert exc.value.code == EXIT_USAGE

    def test_bad_tol_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--dim", "2", "--tol", "-1"])
        assert exc.value.code == EXIT_USAGE


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self):
        completed = subprocess.run(
            [sys.executable, "-m", "zeps", "emit", "--domain", "z", "--dim", "2"],
            capture_output=True,
            text=True,
        )
        assert completed.returncode == EXIT_OK
        assert completed.stdout.strip() == "z1^-1*z2^-2 - z1^-2*z2^-1"

    def test_reader_closing_early_is_not_a_failure(self):
        # ``zeps emit ... | head -c 20``: a closed pipe is the reader's
        # choice, not a failed verification (exit 1) or a traceback
        with subprocess.Popen(
            [sys.executable, "-m", "zeps", "emit", "--domain", "s", "--dim", "5",
             "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as process:
            head = process.stdout.read(20)
            process.stdout.close()
            err = process.stderr.read()
            assert process.wait() == EXIT_OK
        assert head.startswith(b"{")
        assert err == b""


class TestReport:
    def test_unit_step_text(self, capsys):
        code, out, _ = run(capsys, "report", "--dim", "2", "--T", "1")
        assert code == EXIT_OK
        assert "pole at -2 (multiplicity 2)" in out
        assert "zero at 2" in out
        assert "s1 = s2" in out

    def test_half_step(self, capsys):
        code, out, _ = run(capsys, "report", "--dim", "2", "--T", "0.5")
        assert code == EXIT_OK
        assert "pole at -4" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "report", "--dim", "2", "--T", "1", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["poles"][0]["location"] == {"num": -2, "den": 1}

    def test_dim_3_names_alternative(self, capsys):
        code, _, err = run(capsys, "report", "--dim", "3")
        assert code == EXIT_USAGE
        assert "verify" in err


class TestPointBoundary:
    def test_zero_denominator_coordinate_is_usage_error(self, capsys):
        code, out, err = run(capsys, "eval", "--domain", "z", "--dim", "2", "--point=1/0,1")
        assert code == EXIT_USAGE and out == ""
        assert "finite" in err

    @pytest.mark.parametrize("point", ["nan,1", "inf+0j,1"])
    def test_non_finite_coordinate_is_usage_error(self, capsys, point):
        code, out, err = run(
            capsys, "eval", "--domain", "z", "--dim", "2", f"--point={point}"
        )
        assert code == EXIT_USAGE and out == ""
        assert "finite" in err

    def test_exact_coordinate_beyond_complex_range_is_usage_error(self, capsys):
        # 1e400 is exact on its own but has no complex value beside 1+0j
        code, out, err = run(
            capsys, "eval", "--domain", "z", "--dim", "2", "--point=1e400,1+0j"
        )
        assert code == EXIT_USAGE and out == ""
        assert "too large" in err

    def test_z_extreme_coordinates_with_finite_value_evaluate(self, capsys):
        # 1/z = (1e-200, 1e200): the value is 1e-200 * 1e200 * (1e200 - 1e-200)
        code, out, _ = run(
            capsys, "eval", "--domain", "z", "--dim", "2", "--point=1e200+0j,1e-200+0j"
        )
        assert code == EXIT_OK
        assert complex(out.strip()) == pytest.approx(1e200)

    def test_s_extreme_coordinate_with_finite_value_evaluates(self, capsys):
        # w = (-1, 1/3) to double precision: the value is -1 * 1/3 * (1/3 + 1)
        code, out, _ = run(
            capsys, "eval", "--domain", "s", "--dim", "2", "--point=1e200+0j,1"
        )
        assert code == EXIT_OK
        assert complex(out.strip()) == pytest.approx(-4 / 9)

    def test_z_value_beyond_float_range_is_evaluation_error(self, capsys):
        # 1/z = (1e200, 1e100): the true value is about -1e500
        code, out, err = run(
            capsys, "eval", "--domain", "z", "--dim", "2", "--point=1e-200+0j,1e-100+0j"
        )
        assert code == EXIT_EVALUATION and out == ""
        assert "evaluation error" in err

    def test_s_value_beyond_float_range_is_evaluation_error(self, capsys):
        # 1e-300 off the pole T s1 = -2: w1 is about -4e300j, the value about 5e600
        code, out, err = run(
            capsys, "eval", "--domain", "s", "--dim", "2", "--point=-2+1e-300j,1"
        )
        assert code == EXIT_EVALUATION and out == ""
        assert "evaluation error" in err

    def test_non_finite_result_is_never_printed(self, capsys):
        # each term overflows to an infinity and their difference is nan
        code, out, err = run(
            capsys, "eval", "--domain", "z", "--dim", "2", "--point=1e-100+0j,1e-150+0j"
        )
        assert code == EXIT_EVALUATION and out == ""
        assert "evaluation error" in err


class TestStepBoundary:
    def test_zero_denominator_step_on_emit_is_usage_error(self, capsys):
        code, out, err = run(capsys, "emit", "--domain", "s", "--dim", "2", "--T=1/0")
        assert code == EXIT_USAGE and out == ""
        assert "step constant" in err

    def test_zero_denominator_step_on_verify_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--dim", "2", "--samples", "2", "--T=1/0")
        assert code == EXIT_USAGE and out == ""
        assert "step constant" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("verify", "--dim", "6", "--samples", "1", "--T=1/0"),
            ("eval", "--domain", "z", "--dim", "2", "--T=abc", "--point", "1,2"),
            ("emit", "--domain", "z", "--dim", "2", "--T=abc"),
        ],
    )
    def test_step_is_read_where_unused(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert "step constant" in err


class TestLongIntegers:
    def test_json_prints_coefficients_past_the_digit_cap(self, capsys):
        # the cap on int-to-str conversion (4,300 digits by default) guards
        # input parsing; built coefficients print whatever their length
        code, out, _ = run(
            capsys, "emit", "--domain", "s", "--dim", "4", "--T", "1e308", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        terms = data["numerator"]["terms"] + data["denominator"]["terms"]
        assert max(len(term["num"]) for term in terms) > 4300

    @pytest.mark.parametrize("step", ["1e308", "1e500"])
    def test_json_past_the_digit_cap_reads_back(self, capsys, step):
        code, out, _ = run(
            capsys, "emit", "--domain", "s", "--dim", "4", "--T", step, "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        terms = data["numerator"]["terms"] + data["denominator"]["terms"]
        assert max(len(term["num"]) for term in terms) > sys.get_int_max_str_digits()
        rebuilt = RationalFn.from_json_dict(data)
        body = laplace_determinant(4, TustinParams.uniform(4, step)).body
        assert rebuilt.num == body.num and rebuilt.den == body.den


class TestDigitCap:
    # Python caps int-to-str conversion at 4,300 digits; exponent notation
    # must not get a longer number past it through --T or --point
    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "--domain", "z", "--dim", "2", "--point", "1e1000000,1"),
            ("eval", "--domain", "z", "--dim", "2", "--point", "1e-5000,1"),
            ("emit", "--domain", "s", "--dim", "2", "--T", "1e1000000"),
            ("emit", "--domain", "s", "--dim", "2", "--T", "1e5000", "--format", "json"),
            ("report", "--dim", "2", "--T", "1e5000"),
            ("report", "--dim", "2", "--T", "9999e4299"),
        ],
    )
    def test_exponent_past_the_cap_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert f"int-to-str cap of {sys.get_int_max_str_digits()}" in err

    def test_exponent_under_the_cap_is_read(self, capsys):
        code, out, _ = run(capsys, "report", "--dim", "2", "--T", "1e308", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["T"] == {"num": 10**308, "den": 1}


class TestDimensionWindow:
    @pytest.mark.parametrize(
        "argv,window",
        [
            (("emit", "--domain", "z", "--dim", "7"), "[2, 6], got 7"),
            (("emit", "--domain", "s", "--dim", "6"), "[2, 5], got 6"),
            (("eval", "--domain", "s", "--dim=-1", "--point", "0"), "[2, 5], got -1"),
            (("verify", "--dim", "7"), "[2, 6], got 7"),
        ],
    )
    def test_library_check_names_the_window(self, capsys, argv, window):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert f"dimension must be an integer in {window}" in err
