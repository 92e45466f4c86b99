import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from zeps.algebra import LaurentPoly, RationalFn
from zeps.errors import (
    EvaluationPoleError,
    InputDomainError,
    MapSingularityError,
    UnsupportedDimensionError,
)
from zeps.sdomain import (
    LaplaceResult,
    TustinParams,
    _denominator_product,
    factored_laplace_value,
    laplace_2d_closed,
    laplace_compact_3d,
    laplace_determinant,
    pole_zero_report_2d,
    r_sum,
    tustin_map,
)
from zeps.verify import random_rational_s_point, random_s_point, rel_close
from zeps.ztransform import determinant_ztransform, s_sum


class TestTustinParams:
    def test_uniform_default(self):
        params = TustinParams.uniform(3)
        assert params.steps == (Fraction(1),) * 3
        assert params.is_uniform

    def test_float_steps_become_exact(self):
        params = TustinParams.uniform(2, 0.5)
        assert params.steps == (Fraction(1, 2), Fraction(1, 2))
        # a non-finite float has no exact value
        for step in (float("inf"), float("nan")):
            with pytest.raises(InputDomainError, match="cannot read step constant"):
                TustinParams.uniform(2, step)

    def test_positive_steps_required(self):
        with pytest.raises(InputDomainError):
            TustinParams(2, (1, 0))
        with pytest.raises(InputDomainError):
            TustinParams(2, (Fraction(-1, 2), 1))
        with pytest.raises(InputDomainError, match="must be rational numbers, got complex"):
            TustinParams(2, (1, 1j))

    def test_non_positive_step_past_the_digit_cap_is_named(self):
        # the message writes the step in full, past Python's int-to-str cap
        with pytest.raises(InputDomainError, match=f"positive, got -1{'0' * 5000}$"):
            TustinParams(1, (-(10**5000),))

    def test_repr_reads_as_the_dataclass_repr(self):
        assert repr(TustinParams(1, (3,))) == "TustinParams(dim=1, steps=(Fraction(3, 1),))"
        assert repr(TustinParams(2, (1, Fraction(1, 2)))) == (
            "TustinParams(dim=2, steps=(Fraction(1, 1), Fraction(1, 2)))"
        )

    def test_repr_past_the_digit_cap(self):
        # Fraction's own repr raises past Python's int-to-str cap
        step = f"Fraction(1, 1{'0' * 5000})"
        text = repr(TustinParams(2, (Fraction(1, 10**5000),) * 2))
        assert text == f"TustinParams(dim=2, steps=({step}, {step}))"

    def test_step_count_must_match(self):
        with pytest.raises(InputDomainError):
            TustinParams(3, (1, 1))
        with pytest.raises(InputDomainError, match="positive integer, got 0"):
            TustinParams(0, ())


class TestTustinMap:
    def test_origin_maps_to_one(self):
        assert tustin_map(0, 1) == 1
        assert tustin_map(0, Fraction(3, 7)) == 1

    def test_imaginary_axis_lands_on_unit_circle(self):
        rng = random.Random(21)
        for _ in range(200):
            s = complex(0.0, rng.uniform(-50, 50))
            assert abs(abs(tustin_map(s, 1.0)) - 1.0) <= 1e-12

    def test_left_half_plane_maps_inside(self):
        rng = random.Random(22)
        for _ in range(200):
            s = complex(rng.uniform(-40, -0.01), rng.uniform(-40, 40))
            assert abs(tustin_map(s, 0.5)) < 1.0

    def test_right_half_plane_maps_outside(self):
        rng = random.Random(23)
        for _ in range(200):
            s = complex(rng.uniform(0.01, 40), rng.uniform(-40, 40))
            assert abs(tustin_map(s, 2.0)) > 1.0

    def test_exact_rational_path(self):
        assert tustin_map(Fraction(1), Fraction(1)) == Fraction(3)

    def test_overflowed_pair_gives_its_limit(self):
        # T s = 2e308j overflows, so 2 - T s and 2 + T s are both infinite;
        # their ratio tends to -1, and dividing them would give nan
        assert tustin_map(1e308j, 2) == complex(-1)

    def test_singularity(self):
        with pytest.raises(MapSingularityError):
            tustin_map(2, 1)
        with pytest.raises(MapSingularityError):
            tustin_map(Fraction(4), Fraction(1, 2))

    def test_step_must_be_positive(self):
        with pytest.raises(InputDomainError):
            tustin_map(1, 0)

    def test_builds_no_step_record(self, monkeypatch):
        # one step is read on its own, with TustinParams's messages
        def no_params(*args):
            raise AssertionError("a TustinParams was built")

        monkeypatch.setattr("zeps.sdomain.TustinParams", no_params)
        assert tustin_map(Fraction(1), "1") == Fraction(3)
        assert tustin_map(0.5j, 2.0) == (2 + 1j) / (2 - 1j)
        with pytest.raises(InputDomainError, match="^step constants must be positive, got 0$"):
            tustin_map(1, 0)
        with pytest.raises(MapSingularityError, match="s = 2/T = 4$"):
            tustin_map(4, "1/2")

    def test_singularity_past_the_digit_cap_is_named(self):
        # 2/T has 4,301 digits, past Python's int-to-str cap of 4,300
        step = Fraction(1, 10**4300 - 1)
        with pytest.raises(MapSingularityError, match=f"s = 2/T = 1{'9' * 4299}8$"):
            tustin_map(2 / step, step)


class TestRSum:
    def test_value_at_origin(self):
        # every summand is 1 at s = 0
        value = r_sum(0, 1, TustinParams.uniform(2)).evaluate((0, 0))
        assert value == 2

    def test_vanishes_where_forward_factor_does(self):
        # T s = 2 makes every summand vanish
        params = TustinParams.uniform(3, Fraction(1, 2))
        value = r_sum(0, 2, params).evaluate((1, 4, 1))
        assert value == 0

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_matches_moment_sum_through_the_map(self, p):
        params = TustinParams.uniform(3)
        fn = r_sum(p, 2, params)
        moment = s_sum(3, p, 2)
        rng = random.Random(17)
        for _ in range(25):
            point = random_s_point(rng, params)
            mapped = tuple(tustin_map(s, 1) for s in point)
            assert rel_close(fn.evaluate(point), moment.evaluate(mapped), 1e-10)

    def test_range_validation(self):
        params = TustinParams.uniform(3)
        with pytest.raises(InputDomainError):
            r_sum(3, 1, params)
        with pytest.raises(InputDomainError):
            r_sum(0, 4, params)

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("step", [Fraction(1), Fraction(2, 3)])
    def test_matches_cubic_closed_form(self, p, step):
        # independent route for dim 3:
        # (x-2)(2^p (x^2-4) - 3^p (x-2)^2 - (x+2)^2) / (x+2)^3 with x = T s
        params = TustinParams.uniform(3, step)
        x = step * LaurentPoly.variable(3, 1)
        numerator = (x - 2) * (
            (2**p) * (x * x - 4) - (3**p) * (x - 2) ** 2 - (x + 2) ** 2
        )
        denominator = (x + 2) ** 3
        assert r_sum(p, 1, params) == RationalFn(numerator, denominator)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_matches_literal_sum_for_every_entry(self, dim):
        # sum_r r^p (2 - T_q s_q)^r (2 + T_q s_q)^(N-r) over (2 + T_q s_q)^N,
        # written out term by term with per-dimension steps
        params = TustinParams(dim, tuple(Fraction(q, 3) for q in range(1, dim + 1)))
        for q in range(1, dim + 1):
            ts = params.steps[q - 1] * LaurentPoly.variable(dim, q)
            for p in range(dim):
                numerator = LaurentPoly(dim)
                for r in range(1, dim + 1):
                    numerator = numerator + r**p * (2 - ts) ** r * (2 + ts) ** (dim - r)
                fn = r_sum(p, q, params)
                assert fn.num == numerator
                assert fn.den == (2 + ts) ** dim


def closed_form_2d(step: Fraction) -> RationalFn:
    """4T(s1 - s2)(T s1 - 2)(T s2 - 2) / ((T s1 + 2)^2 (T s2 + 2)^2), built directly."""
    s1 = LaurentPoly.variable(2, 1)
    s2 = LaurentPoly.variable(2, 2)
    numerator = (4 * step) * (s1 - s2) * (step * s1 - 2) * (step * s2 - 2)
    denominator = (step * s1 + 2) ** 2 * (step * s2 + 2) ** 2
    return RationalFn(numerator, denominator)


class TestLaplaceDeterminant:
    @pytest.mark.parametrize("step", [Fraction(1), Fraction(1, 2), Fraction(3)])
    def test_two_dimensional_closed_form(self, step):
        params = TustinParams.uniform(2, step)
        result = laplace_determinant(params)
        assert result.scale == 1
        assert result.body == closed_form_2d(step)

    def test_entry_combination_matches_closed_form(self):
        # the 2x2 determinant written out entry by entry: column q of the
        # matrix shares the denominator (2 + s_q)^2
        params = TustinParams.uniform(2)
        r01, r02 = r_sum(0, 1, params), r_sum(0, 2, params)
        r11, r12 = r_sum(1, 1, params), r_sum(1, 2, params)
        combination = RationalFn(r01.num * r12.num - r11.num * r02.num, r01.den * r12.den)
        assert combination == closed_form_2d(Fraction(1))

    def test_vanishes_at_origin(self):
        for dim in (2, 3):
            result = laplace_determinant(TustinParams.uniform(dim))
            assert result.evaluate((0,) * dim) == 0

    def test_dimension_window(self):
        with pytest.raises(UnsupportedDimensionError):
            laplace_determinant(TustinParams.uniform(1))
        with pytest.raises(UnsupportedDimensionError):
            laplace_determinant(TustinParams.uniform(6))

    def test_denominator_is_pole_product_2d(self):
        params = TustinParams(2, (Fraction(1), Fraction(1, 3)))
        result = laplace_determinant(params)
        assert result.body.den == _denominator_product(params)

    @pytest.mark.parametrize(
        "steps",
        [(Fraction(3, 2),) * 5, tuple(map(Fraction, ("1/2", "3", "2/5", "7", "5/3")))],
        ids=["uniform", "per-dimension"],
    )
    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_pole_product_matches_its_binomial_expansion(self, dim, steps):
        # the coefficient of s^k in prod_q (2 + T_q s_q)^N is
        # prod_q C(N, k_q) 2^(N - k_q) T_q^(k_q), written with no polynomial product
        steps = steps[:dim]
        expected = {
            k: math.prod(math.comb(dim, i) * 2 ** (dim - i) * t**i for i, t in zip(k, steps))
            for k in itertools.product(range(dim + 1), repeat=dim)
        }
        assert dict(_denominator_product(TustinParams(dim, steps)).terms) == expected

    def test_pole_confinement_3d_by_sampling(self):
        params = TustinParams(3, (Fraction(1), Fraction(2), Fraction(1, 2)))
        body = laplace_determinant(params).body
        rng = random.Random(8)
        for _ in range(50):
            point = random_s_point(rng, params)
            assert abs(body.den.evaluate(point)) > 1e-9
        # on the hyperplane T_1 s_1 = -2 the denominator vanishes exactly
        on_pole = (Fraction(-2), Fraction(1, 3), Fraction(5))
        assert body.den.evaluate(on_pole) == 0

    @pytest.mark.parametrize("dim", [2, 3])
    def test_substitution_consistency(self, dim):
        params = (
            TustinParams.uniform(dim)
            if dim == 2
            else TustinParams(3, (Fraction(1), Fraction(1, 2), Fraction(2)))
        )
        z_form = determinant_ztransform(dim)
        s_form = laplace_determinant(params)
        rng = random.Random(101)
        for _ in range(100):
            point = random_s_point(rng, params)
            mapped = tuple(
                tustin_map(s, params.steps[q]) for q, s in enumerate(point)
            )
            assert rel_close(z_form.evaluate(mapped), s_form.evaluate(point), 1e-10)


class TestLaplace2dClosed:
    def test_matches_determinant(self):
        params = TustinParams.uniform(2)
        assert laplace_2d_closed(params).body == laplace_determinant(params).body

    def test_inter_dimensional_zero(self):
        result = laplace_2d_closed(TustinParams.uniform(2))
        assert result.evaluate((Fraction(1, 3), Fraction(1, 3))) == 0

    def test_intra_dimensional_zero(self):
        result = laplace_2d_closed(TustinParams.uniform(2, Fraction(1, 2)))
        assert result.evaluate((4, Fraction(9, 7))) == 0

    def test_requires_uniform_step(self):
        with pytest.raises(InputDomainError):
            laplace_2d_closed(TustinParams(2, (1, 2)))
        with pytest.raises(InputDomainError):
            laplace_2d_closed(TustinParams.uniform(3))


class TestLaplaceCompact3d:
    def test_zero_at_origin(self):
        assert laplace_compact_3d(TustinParams.uniform(3))((0, 0, 0)) == 0

    def test_pole_raises(self):
        evaluator = laplace_compact_3d(TustinParams.uniform(3, Fraction(1, 2)))
        with pytest.raises(EvaluationPoleError):
            evaluator((Fraction(-4), 0, 0))

    def test_wrong_arity_rejected(self):
        with pytest.raises(InputDomainError):
            laplace_compact_3d(TustinParams.uniform(3))((0, 0))

    def test_inter_dimensional_zero(self):
        evaluator = laplace_compact_3d(TustinParams.uniform(3))
        assert evaluator((Fraction(1, 5), Fraction(1, 5), Fraction(1, 5))) == 0

    def test_matches_determinant_at_samples(self):
        params = TustinParams(3, (Fraction(1), Fraction(3), Fraction(1, 4)))
        evaluator = laplace_compact_3d(params)
        determinant = laplace_determinant(params)
        rng = random.Random(55)
        for _ in range(25):
            point = random_s_point(rng, params)
            assert rel_close(evaluator(point), determinant.evaluate(point), 1e-10)

    @pytest.mark.parametrize(
        "params",
        [TustinParams.uniform(3), TustinParams(3, (Fraction(1), Fraction(3), Fraction(1, 4)))],
    )
    def test_equals_factored_value_exactly(self, params):
        # the factored route shares no moment code with the compact sum
        evaluator = laplace_compact_3d(params)
        rng = random.Random(59)
        for _ in range(50):
            point = random_rational_s_point(rng, params)
            assert evaluator(point) == factored_laplace_value(point, params)


class TestPoleZeroReport:
    def test_unit_step(self):
        report = pole_zero_report_2d(TustinParams.uniform(2))
        assert report.poles == ((Fraction(-2), 2), (Fraction(-2), 2))
        assert report.intra_zeros == ((Fraction(2), 1), (Fraction(2), 1))
        assert report.inter_zeros == ("s1 = s2",)

    def test_half_step_scales_locations(self):
        report = pole_zero_report_2d(TustinParams.uniform(2, Fraction(1, 2)))
        assert report.poles[0] == (Fraction(-4), 2)
        assert report.intra_zeros[0] == (Fraction(4), 1)

    def test_requires_dim_2_uniform(self):
        with pytest.raises(InputDomainError):
            pole_zero_report_2d(TustinParams.uniform(3))
        with pytest.raises(InputDomainError):
            pole_zero_report_2d(TustinParams(2, (1, 2)))

    def test_json_locations_are_exact(self):
        report = pole_zero_report_2d(TustinParams.uniform(2, Fraction(1, 2)))
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data["poles"][0]["location"] == {"num": -4, "den": 1}
        assert data["intra_zeros"][1]["location"] == {"num": 4, "den": 1}
        assert data["inter_zeros"] == ["s1 = s2"]

    def test_text_mentions_structure(self):
        text = pole_zero_report_2d(TustinParams.uniform(2)).to_text()
        assert "pole at -2 (multiplicity 2)" in text
        assert "zero at 2" in text
        assert "s1 = s2" in text


class TestLaplaceResultSurface:
    def test_json_shape(self, json_terms):
        params = TustinParams.uniform(2, Fraction(1, 2))
        result = laplace_determinant(params)
        data = json.loads(json.dumps(result.to_json_dict()))
        assert data["dim"] == 2
        assert data["T"] == [{"num": 1, "den": 2}, {"num": 1, "den": 2}]
        assert data["scale"] == {"num": 1, "den": 1}
        assert json_terms(data["numerator"]) == result.body.num.terms
        assert json_terms(data["denominator"]) == result.body.den.terms

    def test_latex_uses_factored_denominator(self):
        latex = laplace_determinant(TustinParams.uniform(2)).to_latex()
        assert "\\left(s_{1} + 2\\right)^{2}" in latex
        assert "\\left(s_{2} + 2\\right)^{2}" in latex

    def test_latex_scale_prefix_3d(self):
        latex = laplace_determinant(TustinParams.uniform(3)).to_latex()
        assert latex.startswith("\\frac{1}{2}")
        assert "\\left(s_{3} + 2\\right)^{3}" in latex

    def test_repr_reads_as_the_dataclass_repr(self):
        result = laplace_determinant(TustinParams(2, (1, Fraction(1, 2))))
        assert repr(result) == (
            f"LaplaceResult(scale=Fraction(1, 1), numerator={result.numerator!r}, "
            "params=TustinParams(dim=2, steps=(Fraction(1, 1), Fraction(1, 2))))"
        )

    def test_repr_past_the_digit_cap(self):
        step = Fraction(1, 10**5000)
        result = laplace_determinant(TustinParams(2, (step, 1)))
        text = repr(LaplaceResult(step, result.numerator, result.params))
        assert text.startswith(f"LaplaceResult(scale=Fraction(1, 1{'0' * 5000}), ")
        assert text.endswith(f"steps=(Fraction(1, 1{'0' * 5000}), Fraction(1, 1))))")

    def test_latex_non_uniform_steps(self):
        params = TustinParams(2, (Fraction(1), Fraction(1, 2)))
        latex = laplace_determinant(params).to_latex()
        assert "\\left(s_{1} + 2\\right)^{2}" in latex
        assert "\\left(\\frac{1}{2} s_{2} + 2\\right)^{2}" in latex
