import itertools
import json
import random
from fractions import Fraction
from math import factorial

import pytest

from zeps.algebra import LaurentPoly
from zeps.epsilon import _parity
from zeps.errors import InputDomainError, UnsupportedDimensionError
from zeps.verify import random_z_point, rel_close
from zeps.ztransform import (
    TransformResult,
    brute_force_ztransform,
    compact_form_3d,
    determinant_ztransform,
    factored_ztransform,
    s_sum,
    scale_constant,
)

TWO_D_BODY = LaurentPoly(2, {(-1, -2): 1, (-2, -1): -1})


def heaviside(n: int, n0: int) -> int:
    """Discrete unit step: 0 while n < n0, 1 from n0 on; the window reference."""
    return 0 if n < n0 else 1


class TestHeaviside:
    def test_step_values(self):
        assert heaviside(0, 1) == 0
        assert heaviside(1, 1) == 1
        assert heaviside(5, -2) == 1
        assert heaviside(-3, -2) == 0


class TestMomentSums:
    def test_three_dim_p0(self):
        assert s_sum(3, 0, 1) == LaurentPoly(
            3, {(-1, 0, 0): 1, (-2, 0, 0): 1, (-3, 0, 0): 1}
        )

    def test_three_dim_p2(self):
        # numerator z^2 + 4z + 9 over z^3
        assert s_sum(3, 2, 2) == LaurentPoly(
            3, {(0, -1, 0): 1, (0, -2, 0): 4, (0, -3, 0): 9}
        )

    def test_two_dim_p1(self):
        # (z + 2)/z^2
        assert s_sum(2, 1, 1) == LaurentPoly(2, {(-1, 0): 1, (-2, 0): 2})

    def test_range_validation(self):
        with pytest.raises(InputDomainError):
            s_sum(3, 3, 1)
        with pytest.raises(InputDomainError):
            s_sum(3, -1, 1)
        with pytest.raises(InputDomainError):
            s_sum(3, 0, 0)
        with pytest.raises(InputDomainError):
            s_sum(3, 0, 4)

    @pytest.mark.parametrize("dim,p,q", [(2, 1, 2), (3, 2, 1), (4, 3, 3)])
    def test_matches_step_windowed_sum(self, dim, p, q):
        # independent route: gate n^p z^{-n} with a step-function window
        windowed = LaurentPoly.zero(dim)
        for n in range(-dim, 3 * dim + 1):
            gate = heaviside(n, 1) - heaviside(n, dim + 1)
            if gate:
                windowed = windowed + (n**p) * LaurentPoly.variable(dim, q, -n)
        assert windowed == s_sum(dim, p, q)


class TestScaleConstant:
    def test_values(self):
        assert scale_constant(2) == 1
        assert scale_constant(3) == 2
        assert scale_constant(4) == 12

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_equals_factorial_product(self, dim):
        product = 1
        for j in range(1, dim):
            product *= factorial(j)
        assert scale_constant(dim) == product

    def test_dimension_validation(self):
        with pytest.raises(UnsupportedDimensionError):
            scale_constant(1)


class TestBruteForce:
    def test_two_dimensional_body(self):
        result = brute_force_ztransform(2)
        assert result.scale == 1
        assert result.body == TWO_D_BODY

    def test_three_dimensional_balance_point(self):
        assert brute_force_ztransform(3).evaluate((1, 1, 1)) == 0

    def test_four_dimensional_term_count(self):
        body = brute_force_ztransform(4).body
        assert len(body.terms) == 24
        assert all(c in (1, -1) for c in body.terms.values())

    def test_dimension_window(self):
        with pytest.raises(UnsupportedDimensionError):
            brute_force_ztransform(1)
        with pytest.raises(UnsupportedDimensionError):
            brute_force_ztransform(7)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_term_count_is_factorial(self, dim):
        body = brute_force_ztransform(dim).body
        assert len(body.terms) == factorial(dim)
        assert all(c in (1, -1) for c in body.terms.values())

    @pytest.mark.parametrize("dim", [3, 4])
    def test_each_tuple_reaches_the_parity_kernel_once_unvalidated(self, monkeypatch, dim):
        # "all N**N tuples": each one goes to the kernel once, and the
        # window check comes once, so no tuple is validated again
        calls = []

        def counted(idx):
            calls.append(idx)
            return _parity(idx)

        def refuse(indices):
            raise AssertionError("a tuple was validated again")

        monkeypatch.setattr("zeps.ztransform._parity", counted)
        monkeypatch.setattr("zeps.epsilon.check_index", refuse)
        body = brute_force_ztransform(dim).body
        assert calls == list(itertools.product(range(1, dim + 1), repeat=dim))
        assert body == factored_ztransform(dim).expanded()


class TestDeterminantTransform:
    def test_two_dimensional_exact(self):
        result = determinant_ztransform(2)
        assert result.scale == 1
        assert result.body == TWO_D_BODY

    def test_three_dimensional_scale_and_oracle(self):
        result = determinant_ztransform(3)
        assert result.scale == Fraction(1, 2)
        assert result.expanded() == brute_force_ztransform(3).expanded()

    def test_three_by_three_determinant_is_twice_the_oracle(self):
        assert determinant_ztransform(3).body == (
            2 * brute_force_ztransform(3).expanded()
        )

    @pytest.mark.parametrize("dim", [4, 5])
    def test_matches_oracle(self, dim):
        assert (
            determinant_ztransform(dim).expanded()
            == brute_force_ztransform(dim).expanded()
        )

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_exponent_window(self, dim):
        body = determinant_ztransform(dim).body
        for exponents in body.terms:
            assert all(-dim <= e <= -1 for e in exponents)

    def test_inter_dimensional_zero_exact(self):
        result = determinant_ztransform(2)
        for c in (Fraction(5, 3), 2, Fraction(-7, 4)):
            assert result.evaluate((c, c)) == 0

    @pytest.mark.parametrize("dim", [4.0, Fraction(4)])
    def test_cache_keeps_non_int_dims_out(self, dim):
        # 4.0 and Fraction(4) compare equal to 4, yet are no integer dimension
        determinant_ztransform(4)
        with pytest.raises(UnsupportedDimensionError):
            determinant_ztransform(dim)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_swap_antisymmetry_sampled(self, dim):
        result = determinant_ztransform(dim)
        rng = random.Random(314)
        pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
        for _ in range(100):
            point = random_z_point(rng, dim)
            a, b = pairs[rng.randrange(len(pairs))]
            swapped = list(point)
            swapped[a], swapped[b] = swapped[b], swapped[a]
            assert rel_close(result.evaluate(swapped), -result.evaluate(point), 1e-10)


class TestCompactForm3d:
    def test_equals_determinant_form(self):
        assert compact_form_3d() == determinant_ztransform(3)

    def test_scale_is_one_half(self):
        assert compact_form_3d().scale == Fraction(1, 2)

    def test_matches_brute_force_at_a_point(self):
        point = (2, 2, 2)
        compact = compact_form_3d().evaluate(point)
        brute = brute_force_ztransform(3).evaluate(point)
        assert compact == brute


class TestROC:
    def test_two_dimensional(self):
        assert factored_ztransform(2).roc == ("z1 != 0", "z2 != 0")

    @pytest.mark.parametrize("dim", [3, 5])
    def test_one_constraint_per_dimension(self, dim):
        assert len(factored_ztransform(dim).roc) == dim


class TestTransformResultSurface:
    def test_text(self):
        assert determinant_ztransform(2).to_text() == "z1^-1*z2^-2 - z1^-2*z2^-1"
        assert determinant_ztransform(3).to_text().startswith("1/2 * (")

    def test_latex(self):
        assert determinant_ztransform(2).to_latex() == (
            "z_{1}^{-1} z_{2}^{-2} - z_{1}^{-2} z_{2}^{-1}"
        )
        assert determinant_ztransform(3).to_latex().startswith("\\frac{1}{2}")

    def test_json_shape_and_round_trip(self):
        result = determinant_ztransform(3)
        data = json.loads(json.dumps(result.to_json_dict()))
        assert data["dim"] == 3
        assert data["scale"] == {"num": 1, "den": 2}
        assert data["roc"] == ["z1 != 0", "z2 != 0", "z3 != 0"]
        assert LaurentPoly.from_json_dict(data["body"]) == result.body

    def test_repr_reads_as_the_dataclass_repr(self):
        result = determinant_ztransform(3)
        assert repr(result) == (
            f"TransformResult(dim=3, scale=Fraction(1, 2), body={result.body!r})"
        )

    def test_repr_past_the_digit_cap(self):
        # Fraction's own repr raises past Python's int-to-str cap
        body = determinant_ztransform(2).body
        text = repr(TransformResult(2, Fraction(1, 10**5000), body))
        assert text == f"TransformResult(dim=2, scale=Fraction(1, 1{'0' * 5000}), body={body!r})"

    def test_evaluate_applies_scale(self):
        result = determinant_ztransform(3)
        raw = result.body.evaluate((2, 3, 4))
        assert result.evaluate((2, 3, 4)) == Fraction(1, 2) * raw
