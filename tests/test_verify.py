import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from zeps.epsilon import _parity, _product_value
from zeps.errors import UnsupportedDimensionError
from zeps.sdomain import TustinParams, laplace_determinant
from zeps.verify import (
    _S_MARGIN,
    check_determinant_oracle,
    check_epsilon_formulas,
    check_tustin_consistency,
    random_rational_s_point,
    random_s_point,
    rel_close,
)


class TestRelClose:
    def test_absolute_floor(self):
        assert rel_close(0, 1e-12, 1e-10)
        assert not rel_close(0, 1e-8, 1e-10)

    def test_relative_scaling(self):
        assert rel_close(1e8, 1e8 * (1 + 1e-11), 1e-10)
        assert not rel_close(1e8, 1e8 * (1 + 1e-9), 1e-10)

    def test_works_on_fractions(self):
        assert rel_close(Fraction(1, 3), Fraction(1, 3), 1e-10)
        assert not rel_close(Fraction(1, 3), Fraction(1, 2), 1e-10)


class TestSamplers:
    def test_s_points_keep_margin(self):
        rng = random.Random(0)
        params = TustinParams(2, (Fraction(1), Fraction(1, 2)))
        for _ in range(200):
            point = random_s_point(rng, params)
            for q, s in enumerate(point):
                t = float(params.steps[q])
                assert abs(t * s - 2) >= _S_MARGIN and abs(t * s + 2) >= _S_MARGIN

    def test_rational_points_are_exact_and_regular(self):
        rng = random.Random(0)
        params = TustinParams(3, (Fraction(1), Fraction(2), Fraction(1, 2)))
        for _ in range(200):
            point = random_rational_s_point(rng, params)
            assert all(isinstance(s, Fraction) for s in point)
            for q, s in enumerate(point):
                assert params.steps[q] * s not in (2, -2)

    def test_sampling_is_seed_deterministic(self):
        params = TustinParams.uniform(2)
        a = [random_rational_s_point(random.Random(5), params) for _ in range(3)]
        b = [random_rational_s_point(random.Random(5), params) for _ in range(3)]
        assert a == b


class TestChecks:
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_epsilon_check_passes(self, dim):
        result = check_epsilon_formulas(dim)
        assert result.passed and not result.details

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_determinant_check_passes(self, dim):
        assert check_determinant_oracle(dim).passed

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_tustin_check_passes(self, dim):
        result = check_tustin_consistency(TustinParams.uniform(dim), samples=10, seed=11)
        assert result.passed, result.details

    def test_tustin_check_with_mixed_steps(self):
        params = TustinParams(3, (Fraction(1), Fraction(1, 2), Fraction(3)))
        result = check_tustin_consistency(params, samples=20, seed=2)
        assert result.passed, result.details

    def test_tustin_check_reports_a_planted_relative_mismatch_of_1e_12(self, monkeypatch):
        # both routes are exact, so a mismatch far below any float
        # tolerance is still a failure
        build = laplace_determinant

        def skewed(params):
            result = build(params)
            return replace(result, scale=result.scale * Fraction(10**12 + 1, 10**12))

        monkeypatch.setattr("zeps.verify.laplace_determinant", skewed)
        result = check_tustin_consistency(TustinParams.uniform(3), samples=3, seed=1)
        assert not result.passed
        # the factored form no longer matches either, and every point fails
        assert result.details[0] == "factored Laplace form differs from the Laplace determinant"
        assert sum(line.startswith("at s=") for line in result.details) == 3

    def test_tustin_check_writes_the_failing_point_as_rationals(self, monkeypatch):
        build = laplace_determinant

        def skewed(params):
            result = build(params)
            return replace(result, scale=result.scale * 2)

        monkeypatch.setattr("zeps.verify.laplace_determinant", skewed)
        result = check_tustin_consistency(TustinParams.uniform(3), samples=4, seed=3)
        lines = [line for line in result.details if line.startswith("at s=")]
        assert len(lines) == 4
        # the check draws its points from the seed in this order
        rng, params = random.Random(3), TustinParams.uniform(3)
        for line in lines:
            point = random_rational_s_point(rng, params)
            assert line.startswith(f"at s=({', '.join(map(str, point))}): z-route ")
            assert "Fraction(" not in line

    @pytest.mark.parametrize("check", ["epsilon", "tustin"])
    def test_a_failing_check_keeps_its_first_20_detail_lines(self, monkeypatch, check):
        # every permutation's sign flipped gives 24 mismatches; a skewed
        # determinant gives one line for the forms and one per point, 26
        if check == "epsilon":
            monkeypatch.setattr("zeps.verify._product_value", lambda idx: -_parity(idx))
            result = check_epsilon_formulas(4)
            flipped = [idx for idx in itertools.product(range(1, 5), repeat=4) if _parity(idx)]
            expected = tuple(f"mismatch at {idx}" for idx in flipped[:20])
        else:
            build = laplace_determinant

            def skewed(params):
                result = build(params)
                return replace(result, scale=2 * result.scale)

            monkeypatch.setattr("zeps.verify.laplace_determinant", skewed)
            result = check_tustin_consistency(TustinParams.uniform(3), samples=25, seed=1)
            expected = ("factored Laplace form differs from the Laplace determinant",)
            expected += tuple(line for line in result.details if line.startswith("at s="))
        assert not result.passed
        assert len(result.details) == 20
        assert result.details == expected


class TestEpsilonSweep:
    @pytest.mark.parametrize("dim", [3, 4])
    def test_each_tuple_reaches_both_kernels_once_unvalidated(self, monkeypatch, dim):
        # "all N**N tuples": each one goes to each kernel once, and the
        # window check comes once, so no tuple is validated again
        calls = {"product": [], "parity": []}

        def counted(name, kernel):
            def call(idx):
                calls[name].append(idx)
                return kernel(idx)

            return call

        def refuse(indices):
            raise AssertionError("a tuple was validated again")

        monkeypatch.setattr("zeps.verify._product_value", counted("product", _product_value))
        monkeypatch.setattr("zeps.verify._parity", counted("parity", _parity))
        monkeypatch.setattr("zeps.epsilon.check_index", refuse)
        assert check_epsilon_formulas(dim).passed
        tuples = list(itertools.product(range(1, dim + 1), repeat=dim))
        assert calls == {"product": tuples, "parity": tuples}

    def test_one_flipped_permutation_sign_fails(self, monkeypatch):
        def flipped(idx):
            value = _product_value(idx)
            return -value if idx == (1, 2, 4, 3) else value

        monkeypatch.setattr("zeps.verify._product_value", flipped)
        result = check_epsilon_formulas(4)
        assert not result.passed
        assert result.details == ("mismatch at (1, 2, 4, 3)",)


def test_epsilon_check_rejects_dimension_before_enumerating():
    # 7**7 tuples would take most of a minute; the window check comes first
    with pytest.raises(UnsupportedDimensionError):
        check_epsilon_formulas(7)
