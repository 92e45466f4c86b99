import importlib
import json
import math
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import zeps.cli
import zeps.verify
from zeps.algebra import LaurentPoly, RationalFn, det, read_rational
from zeps.epsilon import _parity, _product_value
from zeps.cli import (
    EXIT_EVALUATION, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAILED, build_parser, main,
)
from zeps.errors import InputDomainError
from zeps.sdomain import (
    LaplaceResult, TustinParams, _denominator_product, _tustin_keys, factored_laplace,
    laplace_determinant,
)
from zeps.verify import EPSILON_CHECK, ORACLE_CHECK, TUSTIN_CHECK
from zeps.ztransform import (
    TransformResult, determinant_ztransform, factored_ztransform, scale_constant,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEmit:
    def test_text_2d(self, capsys):
        code, out, _ = run(capsys, "emit", "--domain", "z", "--dim", "2", "--format", "text")
        assert code == EXIT_OK
        assert out.strip() == "z1^-1*z2^-2 - z1^-2*z2^-1"

    def test_json_3d_scale(self, capsys, json_terms):
        code, out, _ = run(capsys, "emit", "--domain", "z", "--dim", "3", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["scale"] == {"num": 1, "den": 2}
        assert json_terms(data["body"]) == determinant_ztransform(3).body.terms

    def test_json_s_domain_round_trip(self, capsys, json_terms):
        code, out, _ = run(
            capsys, "emit", "--domain", "s", "--dim", "2", "--T", "1", "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        body = laplace_determinant(TustinParams.uniform(2)).body
        assert json_terms(data["numerator"]) == body.num.terms
        assert json_terms(data["denominator"]) == body.den.terms

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


class TestStreamedOutput:
    @pytest.mark.parametrize(
        "error,code,message",
        [
            (InputDomainError("planted"), EXIT_USAGE, "error: planted\n"),
            (OverflowError("planted"), EXIT_EVALUATION, "evaluation error: planted\n"),
        ],
        ids=["zeps-error", "overflow"],
    )
    def test_a_writer_error_after_its_first_piece_ends_the_output(
        self, capsys, monkeypatch, error, code, message
    ):
        # the result is built before the first write; an error raised while
        # the writer renders ends the output with the command's own message
        render = LaurentPoly._render

        def failing(self, *args):
            yield next(render(self, *args))
            raise error

        monkeypatch.setattr(LaurentPoly, "_render", failing)
        assert run(capsys, "emit", "--domain", "z", "--dim", "3") == (code, "1/2 * (", message)

    def test_a_failed_build_writes_nothing(self, capsys, monkeypatch):
        def failing(params):
            raise InputDomainError("planted")

        monkeypatch.setitem(zeps.cli.DOMAINS, "z", (6, failing, None))
        assert run(capsys, "emit", "--domain", "z", "--dim", "3") == (
            EXIT_USAGE, "", "error: planted\n"
        )


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

    def test_verify_builds_the_z_determinant_once(self, capsys, monkeypatch):
        # the oracle check builds it; the Tustin check reads the factored form
        calls = []

        def counted(matrix):
            calls.append(len(matrix))
            return det(matrix)

        monkeypatch.setattr("zeps.ztransform.det", counted)
        code, _, _ = run(capsys, "verify", "--dim", "4", "--samples", "2")
        assert code == EXIT_OK
        assert calls == [4]

    @pytest.mark.parametrize("dim", [3, 4, 5, 6])
    def test_one_request_sweeps_the_tuples_once_and_builds_the_z_form_once(
        self, capsys, monkeypatch, dim
    ):
        # the epsilon check and the brute force read one sweep, and the
        # oracle and Tustin checks one factored z form
        calls = {"parity": 0, "product": 0, "factored": 0}

        def counted(name, fn):
            def call(*args):
                calls[name] += 1
                return fn(*args)

            return call

        for module in ("verify", "ztransform"):
            monkeypatch.setattr(f"zeps.{module}._parity", counted("parity", _parity))
        monkeypatch.setattr("zeps.verify._product_value", counted("product", _product_value))
        monkeypatch.setattr(
            "zeps.verify.factored_ztransform", counted("factored", factored_ztransform)
        )
        code, _, _ = run(capsys, "verify", "--dim", str(dim), "--samples", "1")
        assert code == EXIT_OK
        assert calls == {"parity": dim**dim, "product": dim**dim, "factored": 1}

    @pytest.mark.parametrize("dim", [3, 4])
    def test_one_flipped_parity_sign_fails_the_epsilon_and_oracle_checks(
        self, capsys, monkeypatch, dim
    ):
        # the brute force reads the sweep's parities, so the oracle still
        # catches a wrong one
        swapped = (2, 1, *range(3, dim + 1))

        def flipped(idx):
            return -_parity(idx) if idx == swapped else _parity(idx)

        monkeypatch.setattr("zeps.verify._parity", flipped)
        code, out, err = run(capsys, "verify", "--dim", str(dim), "--samples", "2")
        assert code == EXIT_VERIFY_FAILED
        lines = out.splitlines()
        assert [line[:5] for line in lines] == ["FAIL:", "FAIL:", "PASS:"]
        assert lines[1].startswith("FAIL: factored closed form")
        assert f"    mismatch at {swapped}" in err
        assert "    determinant differs from brute force in 1 monomials" in err

    def test_a_check_that_raises_fails_its_line(self, capsys, monkeypatch):
        def planted(point, params):
            raise KeyError("planted")

        monkeypatch.setattr("zeps.verify.factored_laplace_value", planted)
        code, out, err = run(capsys, "verify", "--dim", "3", "--samples", "2")
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines() == [
            f"PASS: {EPSILON_CHECK.format(dim=3)}",
            f"PASS: {ORACLE_CHECK.format(dim=3)}",
            f"FAIL: {TUSTIN_CHECK.format(dim=3, samples=2)}",
        ]
        assert err == "    raised KeyError: 'planted'\n"

    def test_a_remainder_in_the_product_kernel_fails_both_checks_of_the_sweep(
        self, capsys, monkeypatch
    ):
        # a divisor twice D(1..N) leaves a remainder at the first tuple of
        # distinct indices; the sweep raises once and each check reading it fails
        calls = []

        def doubled(dim):
            calls.append(dim)
            return 2 * scale_constant(dim)

        monkeypatch.setattr("zeps.epsilon._identity_product", doubled)
        code, out, err = run(capsys, "verify", "--dim", "3", "--samples", "2")
        assert code == EXIT_VERIFY_FAILED
        assert [line[:5] for line in out.splitlines()] == ["FAIL:", "FAIL:", "PASS:"]
        detail = "    raised IdentityViolationError: product form left remainder 2 at (1, 2, 3)\n"
        assert err == 2 * detail
        assert calls == [3]

    def test_verify_expands_the_pole_product_once(self, capsys, monkeypatch):
        # the two Laplace forms compare numerators and steps; only the
        # s-route's first evaluation expands the pole product
        calls = []

        def counted(params):
            calls.append(params)
            return _denominator_product(params)

        monkeypatch.setattr("zeps.sdomain._denominator_product", counted)
        code, _, _ = run(capsys, "verify", "--dim", "4", "--samples", "2")
        assert code == EXIT_OK
        assert calls == [TustinParams.uniform(4)]

    @pytest.mark.parametrize(
        "argv", [("--dim", "3"), ("--dim", "4", "--samples", "2")], ids=["dim3", "dim4"]
    )
    def test_one_power_too_many_in_the_pole_product_fails(self, capsys, monkeypatch, argv):
        # prod_q (2 + T_q s_q)^(dim + 1): every Laplace form reads the wrong body
        def one_power_too_many(params):
            return math.prod(v ** (params.dim + 1) for _, v in _tustin_keys(params.steps))

        monkeypatch.setattr("zeps.sdomain._denominator_product", one_power_too_many)
        code, out, _ = run(capsys, "verify", *argv)
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines()[2].startswith("FAIL: factored Laplace form")

    def test_failing_tustin_check_at_huge_steps_prints_its_fail_line(self, capsys, monkeypatch):
        # at T = 1e500 the check's exact values run past Python's int-to-str
        # digit cap; the detail lines must still be written.  A wrong pole
        # product fails the term-for-term comparison (the points divide by
        # the pole factors, so they still agree); a skewed scale fails the points.
        def one_power_too_many(params):
            return math.prod(v ** (params.dim + 1) for _, v in _tustin_keys(params.steps))

        def skewed(params):
            result = laplace_determinant(params)
            return LaplaceResult(2 * result.scale, result.numerator, params)

        argv = ("verify", "--dim", "4", "--T", "1e500", "--samples", "1")
        with monkeypatch.context() as patch:
            patch.setattr("zeps.sdomain._denominator_product", one_power_too_many)
            code, out, err = run(capsys, *argv)
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines()[2].startswith("FAIL:")
        assert "    pole product differs from its binomial expansion in 1296 monomials" in err
        monkeypatch.setattr("zeps.verify.laplace_determinant", skewed)
        code, out, err = run(capsys, *argv)
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines()[2].startswith("FAIL:")
        assert "    at s=" in err

    @pytest.mark.parametrize("dim", [3, 4, 5])
    @pytest.mark.parametrize("mutant", ["coefficient", "power"])
    def test_a_wrong_pole_product_fails_the_term_for_term_comparison(
        self, capsys, monkeypatch, dim, mutant
    ):
        # one binomial coefficient off (the s_1 coefficient, by adding s_1),
        # or the first factor at power dim - 1; with per-dimension steps
        def coefficient(params):
            return _denominator_product(params) + LaurentPoly.variable(params.dim, 1)

        def power(params):
            (_, first), *rest = _tustin_keys(params.steps)
            return first ** (params.dim - 1) * math.prod(v**params.dim for _, v in rest)

        mutants = {"coefficient": coefficient, "power": power}
        monkeypatch.setattr("zeps.sdomain._denominator_product", mutants[mutant])
        steps = ",".join(["1/2", "2/3", "3/4", "4/3", "5/2"][:dim])
        code, out, err = run(capsys, "verify", "--dim", str(dim), "--T", steps, "--samples", "2")
        assert code == EXIT_VERIFY_FAILED
        lines = out.splitlines()
        assert [line[:5] for line in lines] == ["PASS:", "PASS:", "FAIL:"]
        assert lines[2].startswith("FAIL: factored Laplace form")
        assert "    pole product differs from its binomial expansion in " in err
        assert "at s=" not in err

    def test_verify_evaluates_no_expanded_pole_product(self, capsys, monkeypatch):
        # the s-route divides by the pole factors; nothing evaluates a quotient
        def refuse(self, point):
            raise AssertionError("RationalFn.evaluate called")

        monkeypatch.setattr(RationalFn, "evaluate", refuse)
        code, out, _ = run(capsys, "verify", "--dim", "5", "--samples", "4")
        assert code == EXIT_OK
        assert out.count("PASS:") == 3

    @pytest.mark.parametrize(
        "argv", [("--dim", "3"), ("--dim", "4", "--samples", "2")], ids=["dim3", "dim4"]
    )
    def test_one_kernel_feeds_both_factored_forms(self, capsys, monkeypatch, argv):
        # both builders look up factored_moment_det; without prod_q a_q
        # neither factored form matches its determinant
        def without_key_product(keys):
            return scale_constant(len(keys)) * math.prod(
                a * b_i - a_i * b for j, (a, b) in enumerate(keys) for a_i, b_i in keys[:j]
            )

        for module in ("ztransform", "sdomain"):
            monkeypatch.setattr(f"zeps.{module}.factored_moment_det", without_key_product)
        code, out, _ = run(capsys, "verify", *argv)
        assert code == EXIT_VERIFY_FAILED
        lines = out.splitlines()
        assert lines[1].startswith("FAIL: factored closed form")
        assert lines[2].startswith("FAIL: factored Laplace form")

    def test_failed_check_gives_distinct_exit_code(self, capsys, monkeypatch):
        # force one check to fail to pin down the exit-code contract
        from zeps.verify import CheckResult

        monkeypatch.setattr(
            "zeps.cli.check_epsilon_formulas",
            lambda dim, *, shared: CheckResult("forced failure", ("mismatch at (1, 2)",)),
        )
        code, out, err = run(capsys, "verify", "--dim", "2", "--samples", "2")
        assert code == EXIT_VERIFY_FAILED
        assert "FAIL: forced failure" in out
        assert "mismatch at (1, 2)" in err

    def test_doubled_factored_z_body_fails(self, capsys, monkeypatch):
        # verify must check the form emit prints, not only its oracles
        def doubled(dim):
            result = factored_ztransform(dim)
            return TransformResult(result.scale, 2 * result.body)

        monkeypatch.setattr("zeps.verify.factored_ztransform", doubled)
        code, out, err = run(capsys, "verify", "--dim", "4", "--samples", "2")
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines()[1].startswith("FAIL: factored closed form")
        assert "factored differs from determinant in 24 monomials" in err

    def test_wrong_power_of_4_in_factored_s_form_fails(self, capsys, monkeypatch):
        def off_by_a_power(params):
            result = factored_laplace(params)
            if params.dim != 4:
                return result
            return LaplaceResult(result.scale, 4 * result.numerator, params)

        monkeypatch.setattr("zeps.verify.factored_laplace", off_by_a_power)
        code, out, err = run(capsys, "verify", "--dim", "4", "--samples", "2")
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines()[2].startswith("FAIL: factored Laplace form")
        assert "factored Laplace form differs" in err
        code, _, _ = run(capsys, "verify", "--dim", "3", "--samples", "2")
        assert code == EXIT_OK

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @pytest.mark.parametrize(
        "bend", [lambda u, v: (u + 1, v), lambda u, v: (v, v)], ids=["u=3-Ts", "u=v"]
    )
    def test_a_wrong_tustin_pair_fails_the_tustin_check(self, capsys, monkeypatch, dim, bend):
        # the builders and eval read Tustin's pair (u_q, v_q) from
        # _tustin_keys; the check maps each point with the paper's own
        # formula, so a wrong u_q bends the s-routes and not the z-route
        def bent(steps, xs=None):
            return [bend(u, v) for u, v in _tustin_keys(steps, xs)]

        monkeypatch.setattr("zeps.sdomain._tustin_keys", bent)
        monkeypatch.setattr("zeps.verify._tustin_keys", bent, raising=False)
        code, out, err = run(capsys, "verify", "--dim", str(dim), "--T", "2/3", "--samples", "20")
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines()[2].startswith("FAIL: factored Laplace form")
        assert "    at s=" in err and "z-route" in err

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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_reader_closing_early_is_not_a_failure(self, fmt):
        # ``zeps emit ... | head -c 20``: a closed pipe is the reader's
        # choice, not a failed verification (exit 1) or a traceback; the
        # close lands while the writer is still yielding pieces
        with subprocess.Popen(
            [sys.executable, "-m", "zeps", "emit", "--domain", "s", "--dim", "5",
             "--format", fmt],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as process:
            head = process.stdout.read(20)
            process.stdout.close()
            err = process.stderr.read()
            assert process.wait() == EXIT_OK
        assert head.startswith(b"{" if fmt == "json" else b"1/288 * ((")
        assert err == b""

    def test_package_root_imports_no_module(self):
        # each name is imported from its module, so importing one module
        # loads only what that module itself imports
        loaded = "sorted(m for m in sys.modules if m.startswith('zeps'))"
        completed = subprocess.run(
            [sys.executable, "-c", f"import sys, zeps.algebra; print({loaded})"],
            capture_output=True,
            text=True,
        )
        assert completed.stdout.strip() == "['zeps', 'zeps.algebra', 'zeps.errors']"

    def test_cold_start_imports_no_heavy_stdlib_module(self):
        # every command pays for its imports in a fresh process; -S keeps a
        # site .pth file from preloading typing, so src goes on the path by hand
        heavy = (
            "dataclasses", "inspect", "ast", "dis", "tokenize", "typing",
            "argparse", "gettext", "locale", "shutil",
        )
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "import zeps.cli; zeps.cli.build_parser()\n"
            f"print([name for name in {heavy!r} if name in sys.modules])"
        )
        src = Path(zeps.cli.__file__).resolve().parents[1]
        completed = subprocess.run(
            [sys.executable, "-I", "-S", "-B", "-c", script, str(src)],
            capture_output=True, text=True, check=True,
        )
        assert completed.stdout.strip() == "[]"


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

    def test_dim_3_hint_names_the_verify_window(self, capsys):
        code, out, err = run(capsys, "report", "--dim", "3")
        assert code == EXIT_USAGE and out == ""
        assert "for dims 3 to 6 use `verify`" in err

    @pytest.mark.parametrize("dim", ["1", "7"])
    def test_dim_outside_the_window_gets_the_window_message(self, capsys, dim):
        # no hint toward `verify`, which refuses these dims too
        code, out, err = run(capsys, "report", "--dim", dim)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: dimension must be an integer in [2, 6], got {dim}\n"

    def test_step_is_read_before_the_dim_3_refusal(self, capsys):
        code, out, err = run(capsys, "report", "--dim", "3", "--T=abc")
        assert code == EXIT_USAGE and out == ""
        assert "step constant" in err


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

    @pytest.mark.parametrize(
        "point, value",
        [("1e308j,1", "(-0+0j)"), ("1e308+1e308j,1/3", "(-0.7500000000000002+0j)")],
    )
    def test_s_coordinate_past_the_float_range_maps_to_its_limit(self, capsys, point, value):
        # T s1 overflows, so both parts of Tustin's pair are infinite and w1 = -1;
        # the value is w1 w2 (w2 - w1) with w2 = 0, then w2 = 1/2
        code, out, _ = run(
            capsys, "eval", "--domain", "s", "--dim", "2", "--T", "2", f"--point={point}"
        )
        assert code == EXIT_OK
        assert out.strip() == value

    @pytest.mark.parametrize(
        "domain, value",
        [("s", "(-0.4444444444444444+0j)"), ("z", "(5e-309-5e-309j)")],
    )
    def test_coordinate_near_the_float_maximum_divides_without_overflow(
        self, capsys, domain, value
    ):
        # Python's own complex division of 1 or of 2 - s by 1e308+1e308j
        # overflows in its denominator.  In s, w1 = -1 as at 1e307+1e307j and
        # the value is -1 * 1/3 * (1/3 + 1); in z, 1/z1 = (1 - 1j)/2e308 is
        # subnormal and 1/z2 = 1, so the value is 1/z1 * (1 - 1/z1).
        code, out, err = run(
            capsys, "eval", "--domain", domain, "--dim", "2", "--point=1e308+1e308j,1"
        )
        assert (code, err) == (EXIT_OK, "")
        assert out.strip() == value
        _, near, _ = run(
            capsys, "eval", "--domain", domain, "--dim", "2", "--point=1e307+1e307j,1"
        )
        assert (out == near) == (domain == "s")

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

    def test_zero_factor_times_overflow_is_evaluation_error(self, capsys):
        # z1 = z2 zeroes one factor and 1/z3 = 1e320 overflows to inf; the
        # complex product turns 0 * inf into nan, never into a rounded 0
        code, out, err = run(
            capsys, "eval", "--domain", "z", "--dim", "3", "--point=1+0j,1+0j,1e-320+0j"
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
    def test_json_past_the_digit_cap_reads_back(self, capsys, json_terms, step):
        code, out, _ = run(
            capsys, "emit", "--domain", "s", "--dim", "4", "--T", step, "--format", "json"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        terms = data["numerator"]["terms"] + data["denominator"]["terms"]
        assert max(len(term["num"]) for term in terms) > sys.get_int_max_str_digits()
        body = laplace_determinant(TustinParams.uniform(4, step)).body
        assert json_terms(data["numerator"]) == body.num.terms
        assert json_terms(data["denominator"]) == body.den.terms


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
            # digits written out past the cap, quoted by a short prefix only
            ("emit", "--domain", "s", "--dim", "2", "--T", "1/" + "9" * 4400),
            ("eval", "--domain", "z", "--dim", "2", "--point", "9" * 4400 + ",1"),
        ],
    )
    def test_exponent_past_the_cap_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert f"int-to-str cap of {sys.get_int_max_str_digits()}" in err
        assert len(err) < 200

    def test_a_coordinate_one_digit_past_the_cap_is_usage_error(self, capsys):
        cap = sys.get_int_max_str_digits()
        point = "9" * (cap + 1) + ",1"
        code, out, err = run(capsys, "eval", "--domain", "z", "--dim", "2", "--point", point)
        assert code == EXIT_USAGE and out == ""
        assert f"exceeds Python's int-to-str cap of {cap} digits" in err

    def test_reading_a_coordinate_compiles_no_pattern(self, monkeypatch):
        # every pattern read_rational needs is compiled at import, so a
        # forked request compiles none.  re._compile is recorded, not
        # refused, and only around the two reads: pytest's own reporters
        # (junitxml's escaping, pytest.raises(match=)) compile patterns
        compile_, compiled = re._compile, []

        def recorded(*args, **kwargs):
            compiled.append(args)
            return compile_(*args, **kwargs)

        cap = sys.get_int_max_str_digits()
        with monkeypatch.context() as patch:
            patch.setattr(re, "_compile", recorded)
            plain = read_rational("0.3+0.1j")
            with pytest.raises(InputDomainError) as raised:
                read_rational("9" * (cap + 1))
        assert compiled == []
        assert plain is None
        assert f"exceeds Python's int-to-str cap of {cap} digits" in str(raised.value)

    def test_exponent_under_the_cap_is_read(self, capsys):
        code, out, _ = run(capsys, "report", "--dim", "2", "--T", "1e308", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["T"] == {"num": 10**308, "den": 1}

    def test_report_prints_a_pole_past_the_cap_in_full(self, capsys):
        # T = 1/(10**4300 - 1) is read under the cap, but -2/T has 4,301 digits
        nines = 10**4300 - 1
        step = "1/" + "9" * 4300
        code, out, _ = run(capsys, "report", "--dim", "2", "--T", step)
        assert code == EXIT_OK
        assert out.count("pole at -1" + "9" * 4299 + "8 ") == 2
        code, out, _ = run(capsys, "report", "--dim", "2", "--T", step, "--format", "json")
        assert code == EXIT_OK
        cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            data = json.loads(out)
        finally:
            sys.set_int_max_str_digits(cap)
        assert data["poles"][0]["location"] == {"num": -2 * nines, "den": 1}
        assert data["T"] == {"num": 1, "den": nines}

    def test_report_leaves_the_cap_as_it_is(self, capsys, monkeypatch):
        # the 4,301-digit pole is written without lifting the cap for the process
        def refuse(limit):
            raise AssertionError(f"int-to-str cap set to {limit}")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        step = "1/" + "9" * 4300
        code, out, _ = run(capsys, "report", "--dim", "2", "--T", step, "--format", "json")
        assert code == EXIT_OK
        assert out.count('"num": -1' + "9" * 4299 + "8,") == 2


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


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of ``main(argv)``; a ``SystemExit`` gives its code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# Help, usage errors and good runs of every command, in the order one
# process runs them below.
SEQUENCE = (
    ("--help",),
    ("emit", "--help"),
    ("verify", "--dim", "3", "--samples", "0"),
    ("eval", "--domain", "z", "--dim", "2", "--T=abc", "--point", "1,2"),
    ("eval", "--domain", "s", "--dim", "2"),
    ("emit", "--domain", "s", "--dim", "2", "--T", "1/2", "--format", "json"),
    ("eval", "--domain", "z", "--dim", "3", "--point", "2,1,1/3"),
    ("verify", "--dim", "3", "--samples", "2"),
    ("report", "--dim", "2"),
)


class TestSharedParser:
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_later_calls_build_no_parser(self, capsys, monkeypatch):
        outcome(capsys, ("emit", "--domain", "z", "--dim", "2"))
        built = []
        init = zeps.cli.Parser.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(zeps.cli.Parser, "__init__", counting)
        calls = (
            ("emit", "--domain", "z", "--dim", "3", "--format", "json"),
            ("emit", "--domain", "s", "--dim", "2", "--format", "latex"),
            ("eval", "--domain", "z", "--dim", "2", "--point", "2,1"),
            ("eval", "--domain", "s", "--dim", "2", "--point", "1+1j,2"),
            ("eval", "--domain", "z", "--dim", "2", "--point", "0,1"),
            ("verify", "--dim", "3", "--samples", "1"),
            ("report", "--dim", "2", "--format", "json"),
            ("report", "--dim", "3"),
            ("emit", "--domain", "z", "--dim", "2", "--format", "xml"),
            ("eval", "--help"),
        )
        codes = [outcome(capsys, argv)[0] for argv in calls]
        assert codes == [0, 0, 0, 0, 3, 0, 0, 2, 2, 0]
        assert built == []

    def test_each_call_matches_a_fresh_process(self, capsys):
        fresh = [
            subprocess.Popen(
                [sys.executable, "-m", "zeps", *argv],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for argv in SEQUENCE
        ]
        here = [outcome(capsys, argv) for argv in SEQUENCE]
        there = []
        for process in fresh:
            out, err = process.communicate()
            there.append((process.returncode, out, err))
        assert here == there
        assert [code for code, _, _ in here] == [0, 0, 2, 2, 2, 0, 0, 0, 0]


def same_as(*argv):
    return ("same as", argv)


HELP, USAGE = "help", "usage error"

# ``zeps COMMAND (--name VALUE | --name=VALUE)...``: each argv and what it
# gives, the outcome of another argv, help or a usage error
GRAMMAR = [
    # --name value equals --name=value, whatever the value starts with
    (("emit", "--domain=s", "--dim=2", "--T=1/2", "--format=json"),
     same_as("emit", "--domain", "s", "--dim", "2", "--T", "1/2", "--format", "json")),
    (("eval", "--domain", "s", "--dim", "2", "--point", "-1,2"),
     same_as("eval", "--domain=s", "--dim=2", "--point=-1,2")),
    (("verify", "--dim", "3", "--samples", "2", "--seed", "5"),
     same_as("verify", "--dim=3", "--samples=2", "--seed=5")),
    # the last repeat wins
    (("emit", "--domain", "s", "--dim", "3", "--format", "latex", "--domain=z", "--dim", "2",
      "--format", "text"), same_as("emit", "--domain", "z", "--dim", "2")),
    # a unique prefix names its option
    (("report", "--d", "2", "--f", "json"), same_as("report", "--dim", "2", "--format", "json")),
    (("eval", "--do", "z", "--di=2", "--p", "2,1"),
     same_as("eval", "--domain", "z", "--dim", "2", "--point", "2,1")),
    (("-h",), HELP), (("--help",), HELP), (("--he",), HELP),
    (("emit", "-h"), HELP), (("eval", "--help"), HELP), (("report", "--h"), HELP),
    (("verify", "--dim", "3", "-h", "--samples", "0"), HELP),
    ((), USAGE),  # no command
    (("frobnicate", "--dim", "2"), USAGE),  # unknown command
    (("--dim", "2", "emit", "--domain", "z"), USAGE),  # an option before the command
    (("emit", "--domain", "z", "--dim", "2", "--tol", "1"), USAGE),  # unknown option
    (("emit", "--domain", "z", "--dim", "2", "-f", "json"), USAGE),  # no short options
    (("emit", "--d", "2", "--domain", "z"), USAGE),  # ambiguous prefix: --dim or --domain
    (("eval", "--domain", "z", "--dim", "2", "--point"), USAGE),  # missing value
    (("emit", "--dim", "2"), USAGE),  # missing required option
    (("eval", "--domain", "z", "--point", "1,2"), USAGE),  # missing required option
    (("verify", "--dim", "two"), USAGE),  # bad int
    (("verify", "--dim", "3", "--seed="), USAGE),  # bad int
    (("emit", "--domain", "z", "--dim", "2", "--format", "xml"), USAGE),  # not a choice
    (("eval", "--domain", "w", "--dim", "2", "--point", "1,2"), USAGE),  # not a choice
    (("verify", "--dim", "3", "--samples", "0"), USAGE),  # --samples below 1
    (("emit", "--domain", "z", "--dim", "2", "stray"), USAGE),  # stray token
    (("emit", "--domain", "z", "--dim", "2", "--"), USAGE),  # stray token
]


@pytest.mark.parametrize(
    "argv,expected", GRAMMAR, ids=[" ".join(argv) or "no command" for argv, _ in GRAMMAR]
)
def test_command_line_grammar(capsys, argv, expected):
    code, out, err = outcome(capsys, argv)
    command = argv[0] if argv and argv[0] in zeps.cli.COMMANDS else None
    if expected == HELP:
        assert (code, err) == (0, "")
        assert out.startswith(f"usage: zeps {command or ''}".rstrip() + " [-h] ")
        if command is None:
            listed = list(zeps.cli.COMMANDS)
        else:
            listed = [f"\n  --{row[0]} " for row in zeps.cli.COMMANDS[command][2]]
        assert [name for name in listed if name not in out] == []
    elif expected == USAGE:
        assert (code, out) == (EXIT_USAGE, "")
        prog = "zeps" if command is None else f"zeps {command}"
        assert err.startswith(f"usage: {prog} [-h] ")
        assert f"\n{prog}: error: " in err and err.count("\n") == 2
    else:
        assert code == 0
        assert (code, out, err) == outcome(capsys, expected[1])


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_module_table_names_real_objects():
    # every `name` (...) entry of a `zeps.<module>` row, `a`/`b` (...) naming both
    rows = re.findall(r"^\| `zeps\.(\w+)` +\|(.*)\|$", README.read_text(), re.M)
    named = [
        (module, name)
        for module, cells in rows
        for entry in re.findall(r"((?:`\w+`/)*`\w+`) \(", cells)
        for name in re.findall(r"\w+", entry)
    ]
    assert {module for module, _ in named} == {"epsilon", "algebra", "ztransform", "sdomain"}
    missing = [
        f"zeps.{module}.{name}"
        for module, name in named
        if not hasattr(importlib.import_module(f"zeps.{module}"), name)
    ]
    assert missing == []


def test_readme_cli_block_runs_as_stated(capsys):
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        line.partition("#")[0].strip() for line in block.splitlines() if line.startswith("zeps ")
    ]
    assert len(commands) == 8
    outputs = {}
    for command in commands:
        code, out, err = run(capsys, *shlex.split(command)[1:])
        assert code == EXIT_OK, (command, err)
        outputs[command] = out
    # each output the block states, by the command it follows
    stated = {
        "zeps emit --domain z --dim 2 --format text": "z1^-1*z2^-2 - z1^-2*z2^-1",
        "zeps eval --domain z --dim 2 --point 2,1": "1/4",
        "zeps eval --domain z --dim 2 --point 2+0j,1+0j": "(0.25+0j)",
    }
    for command, expected in stated.items():
        assert expected in block.split(command, 1)[1].split("\nzeps ", 1)[0]
        assert outputs[command].strip() == expected
    assert 'scale {"num": 1, "den": 2}' in block
    z3 = json.loads(outputs["zeps emit --domain z --dim 3 --format json"])
    assert z3["scale"] == {"num": 1, "den": 2}
