import json
import os
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zeps.algebra import LaurentPoly, RationalFn, det, int_text, quoted
from zeps.errors import (
    DegenerateDenominatorError,
    EvaluationPoleError,
    InputDomainError,
)
from zeps.sdomain import (
    LaplaceResult, PoleZeroReport, TustinParams, factored_laplace, laplace_2d_closed,
    pole_zero_report_2d,
)
from zeps.verify import CheckResult
from zeps.ztransform import TransformResult, compact_form_3d, factored_ztransform


def P(arity, terms):
    return LaurentPoly(arity, terms)


def moment_sum_2(p, q):
    """z_q^{-1} + 2^p z_q^{-2} inside the 2-variable ring."""
    e1 = [0, 0]
    e1[q - 1] = -1
    e2 = [0, 0]
    e2[q - 1] = -2
    return P(2, {tuple(e1): 1, tuple(e2): 2**p})


def random_poly(rng, arity, max_terms=4, exp_range=3, coeff_range=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = tuple(rng.randint(-exp_range, exp_range) for _ in range(arity))
        terms[exps] = Fraction(rng.randint(-coeff_range, coeff_range), rng.randint(1, 4))
    return P(arity, terms)


@st.composite
def polys(draw, arity):
    n_terms = draw(st.integers(0, 4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(-3, 3)) for _ in range(arity))
        terms[exps] = draw(
            st.fractions(min_value=-5, max_value=5, max_denominator=4)
        )
    return P(arity, terms)


class TestConstruction:
    def test_zero_coefficients_dropped(self):
        p = P(2, {(1, 0): 0, (0, 1): 1})
        assert p.terms == {(0, 1): Fraction(1)}

    def test_canonical_equality(self):
        a = P(1, {(1,): 1, (0,): 2})
        b = P(1, {(0,): 2, (1,): 1})
        assert a == b and a.terms == b.terms

    def test_arity_validation(self):
        with pytest.raises(InputDomainError):
            P(2, {(1,): 1})
        with pytest.raises(InputDomainError):
            P(0, {})
        with pytest.raises(InputDomainError):
            P(1, {(1.5,): 1})
        for var in (0, 3):
            with pytest.raises(InputDomainError, match=f"variable {var} outside"):
                LaurentPoly.variable(2, var)

    def test_float_coefficients_rejected(self):
        for coeff, name in [(0.5, "float"), (1j, "complex"), ("1", "str")]:
            message = f"^coefficients must be integers or Fractions, got {name}$"
            with pytest.raises(InputDomainError, match=message):
                P(1, {(1,): coeff})

    def test_immutable(self):
        p = P(1, {(1,): 1})
        with pytest.raises(AttributeError):
            p.arity = 2


class TestArithmetic:
    def test_additive_inverse_cancels(self):
        a = P(1, {(-1,): 1})
        assert not a + (-a)

    def test_add_builds_two_dimensional_transform(self):
        a = P(2, {(-1, -2): 1})
        b = P(2, {(-2, -1): -1})
        assert a + b == P(2, {(-1, -2): 1, (-2, -1): -1})

    def test_add_collects_like_terms(self):
        z_plus_1 = P(1, {(1,): 1, (0,): 1})
        z_minus_1 = P(1, {(1,): 1, (0,): -1})
        assert z_plus_1 + z_minus_1 == P(1, {(1,): 2})

    def test_mul_adds_exponents(self):
        z_inv = P(1, {(-1,): 1})
        assert z_inv * z_inv == P(1, {(-2,): 1})

    def test_mul_distributes(self):
        a = P(1, {(1,): 1, (0,): 2})
        b = P(1, {(1,): 1, (0,): 3})
        assert a * b == P(1, {(2,): 1, (1,): 5, (0,): 6})

    def test_mul_moment_sums(self):
        # expanded by hand: (z1^-1 + z1^-2)(z2^-1 + 2 z2^-2)
        product = moment_sum_2(0, 1) * moment_sum_2(1, 2)
        assert product == P(
            2, {(-1, -1): 1, (-1, -2): 2, (-2, -1): 1, (-2, -2): 2}
        )

    def test_scalar_mixing(self):
        p = P(1, {(1,): 1})
        assert 2 * p == P(1, {(1,): 2})
        assert p + 1 == P(1, {(1,): 1, (0,): 1})
        assert Fraction(1, 2) * p == P(1, {(1,): Fraction(1, 2)})
        assert 1 - p == P(1, {(0,): 1, (1,): -1})

    def test_pow(self):
        p = P(1, {(1,): 1, (0,): 1})
        assert p**0 == P(1, {(0,): 1})
        assert p**3 == P(1, {(3,): 1, (2,): 3, (1,): 3, (0,): 1})
        with pytest.raises(InputDomainError):
            p**-1

    def test_arity_mismatch_raises(self):
        with pytest.raises(InputDomainError):
            P(1, {(1,): 1}) + P(2, {(1, 0): 1})

    def test_ring_laws_seeded(self):
        rng = random.Random(1234)
        for _ in range(1000):
            arity = rng.randint(1, 3)
            a = random_poly(rng, arity)
            b = random_poly(rng, arity)
            c = random_poly(rng, arity)
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    @given(polys(2), polys(2), polys(2))
    def test_ring_laws_property(self, a, b, c):
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(
        polys(2),
        polys(2),
        st.tuples(
            st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
            st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool),
        ),
    )
    def test_evaluation_is_a_ring_homomorphism(self, a, b, point):
        assert (a + b).evaluate(point) == a.evaluate(point) + b.evaluate(point)
        assert (a * b).evaluate(point) == a.evaluate(point) * b.evaluate(point)


class TestEvaluation:
    def test_inter_dimensional_zero(self):
        body = P(2, {(-1, -2): 1, (-2, -1): -1})
        assert body.evaluate((Fraction(5, 3), Fraction(5, 3))) == 0
        assert abs(body.evaluate((0.7 + 0.2j, 0.7 + 0.2j))) == 0

    def test_constant(self):
        assert P(1, {(0,): 5}).evaluate((3.7,)) == 5

    def test_moment_sum_at_one(self):
        s = P(1, {(-1,): 1, (-2,): 1, (-3,): 1})
        assert s.evaluate((1,)) == 3

    def test_exact_value(self):
        body = P(2, {(-1, -2): 1, (-2, -1): -1})
        assert body.evaluate((2, 1)) == Fraction(1, 4)

    def test_pole_raises(self):
        p = P(1, {(-1,): 1})
        with pytest.raises(EvaluationPoleError):
            p.evaluate((0,))

    @pytest.mark.parametrize("var", [1, 2, 3])
    def test_pole_message_names_the_zero_variable(self, var):
        point = tuple(0 if q == var else 1 for q in (1, 2, 3))
        with pytest.raises(EvaluationPoleError, match=f"^variable {var} is zero "):
            LaurentPoly.variable(3, var, -1).evaluate(point)

    def test_zero_coordinate_with_positive_exponents_ok(self):
        p = P(1, {(2,): 1, (0,): 7})
        assert p.evaluate((0,)) == 7

    def test_arity_mismatch(self):
        with pytest.raises(InputDomainError):
            P(2, {(1, 0): 1}).evaluate((1,))

    def test_canonical_soundness_sampled(self):
        # equal canonical forms <=> equal values at sampled nonzero points
        rng = random.Random(99)
        for _ in range(30):
            a = random_poly(rng, 2)
            rebuilt = LaurentPoly(2, dict(a.terms))
            different = a + P(2, {(0, 1): Fraction(1, 3)})
            points = []
            while len(points) < 20:
                pt = (
                    complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                    complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
                )
                if min(abs(c) for c in pt) > 0.3:
                    points.append(pt)
            same = [
                abs(a.evaluate(pt) - rebuilt.evaluate(pt))
                <= 1e-10 * max(1.0, abs(a.evaluate(pt)))
                for pt in points
            ]
            assert all(same)
            differs = [
                abs(a.evaluate(pt) - different.evaluate(pt))
                > 1e-10 * max(1.0, abs(a.evaluate(pt)))
                for pt in points
            ]
            assert any(differs)


class TestDeterminant:
    def test_two_by_two_moment_matrix(self):
        matrix = [
            [moment_sum_2(0, 1), moment_sum_2(0, 2)],
            [moment_sum_2(1, 1), moment_sum_2(1, 2)],
        ]
        assert det(matrix) == P(2, {(-1, -2): 1, (-2, -1): -1})

    def test_identity_matrix(self):
        one = LaurentPoly(1, {(0,): 1})
        zero = LaurentPoly(1)
        assert det([[one, zero], [zero, one]]) == one

    @pytest.mark.parametrize("side", [2, 3])
    def test_equal_rows_vanish(self, side):
        rng = random.Random(7 * side)
        row = [random_poly(rng, 2) + 1 for _ in range(side)]
        other_rows = [
            [random_poly(rng, 2) for _ in range(side)] for _ in range(side - 2)
        ]
        matrix = [row, *other_rows, row]
        assert not det(matrix)

    def test_non_square_rejected(self):
        one = LaurentPoly(1, {(0,): 1})
        with pytest.raises(InputDomainError):
            det([[one, one]])
        with pytest.raises(InputDomainError):
            det([])

    def test_side_cap(self):
        one = LaurentPoly(1, {(0,): 1})
        size = 9
        with pytest.raises(InputDomainError):
            det([[one] * size for _ in range(size)])

    def test_mixed_arity_rejected(self):
        with pytest.raises(InputDomainError):
            det([
                [LaurentPoly(1, {(0,): 1}), LaurentPoly(1, {(0,): 1})],
                [LaurentPoly(2, {(0, 0): 1}), LaurentPoly(1, {(0,): 1})],
            ])


class TestRationalFn:
    def test_zero_denominator_rejected(self):
        with pytest.raises(DegenerateDenominatorError):
            RationalFn(LaurentPoly(1, {(0,): 1}), LaurentPoly(1))

    def test_equality_is_term_for_term_on_both_parts(self):
        s = LaurentPoly.variable(1, 1)
        two = LaurentPoly(1, {(0,): 2})
        one = LaurentPoly(1, {(0,): 1})
        assert RationalFn(s, one) == RationalFn(LaurentPoly.variable(1, 1), one)
        # equal as functions, but written over different denominators
        assert RationalFn(2 * s, two) != RationalFn(s, one)
        assert RationalFn(s * s, s) != RationalFn(s, one)
        assert RationalFn(s, one) != s

    def test_is_an_immutable_pair(self):
        s = LaurentPoly.variable(1, 1)
        f = RationalFn(s - 1, s + 1)
        assert (f.num, f.den) == (s - 1, s + 1)
        with pytest.raises(AttributeError):
            f.num = s

    def test_rejects_non_polynomial_parts(self):
        s = LaurentPoly.variable(1, 1)
        with pytest.raises(TypeError):
            RationalFn(s)  # the denominator is required
        with pytest.raises(InputDomainError):
            RationalFn(1, s)
        with pytest.raises(InputDomainError, match="denominator must be"):
            RationalFn(s, 1)
        with pytest.raises(InputDomainError):
            RationalFn(s, LaurentPoly.variable(2, 1))

    def test_evaluate(self):
        s = LaurentPoly.variable(1, 1)
        f = RationalFn(s - 1, s + 1)
        assert f.evaluate((3,)) == Fraction(1, 2)
        with pytest.raises(EvaluationPoleError):
            f.evaluate((-1,))


class TestQuoted:
    def test_keeps_a_40_character_repr_whole_and_cuts_a_41_character_one(self):
        forty, forty_one = "x" * 38, "x" * 39  # repr adds the two quotes
        assert quoted(forty) == repr(forty)
        assert quoted(forty_one) == repr(forty_one)[:40] + "..."


class TestSerialization:
    def test_round_trip(self, json_terms):
        rng = random.Random(11)
        for _ in range(25):
            p = random_poly(rng, 3)
            data = json.loads(json.dumps(p.to_json_dict()))
            assert json_terms(data) == p.terms

    def test_deterministic_order(self):
        p = P(2, {(-2, -1): -1, (-1, -2): 1})
        blob_a = json.dumps(p.to_json_dict())
        blob_b = json.dumps(LaurentPoly(2, dict(reversed(list(p.terms.items())))).to_json_dict())
        assert blob_a == blob_b
        # graded-lex descending: (-1,-2) precedes (-2,-1)
        assert p.to_json_dict()["terms"][0]["exp"] == [-1, -2]

    def test_coefficients_are_decimal_strings(self):
        p = P(1, {(0,): Fraction(-7, 3)})
        term = p.to_json_dict()["terms"][0]
        assert term["num"] == "-7" and term["den"] == "3"

    def test_rational_fn_round_trip(self, json_terms):
        z = LaurentPoly.variable(1, 1)
        f = RationalFn(z - 1, (z + 2) ** 2)
        data = json.loads(json.dumps(f.to_json_dict()))
        assert json_terms(data["numerator"]) == f.num.terms
        assert json_terms(data["denominator"]) == f.den.terms

    @pytest.mark.parametrize("sign", [1, -1], ids=["pos", "neg"])
    @pytest.mark.parametrize("digits", [1, 599, 600, 601, 4300, 4301, 12345])
    def test_int_text_matches_str_past_the_digit_cap(self, digits, sign):
        rng = random.Random(5 * digits)
        n = sign * rng.randrange(10 ** (digits - 1), 10**digits)
        assert int_text(n) == uncapped(str, n)

    def test_text_rendering(self):
        p = P(2, {(-1, -2): 1, (-2, -1): -1})
        assert p.to_text(("z1", "z2")) == "z1^-1*z2^-2 - z1^-2*z2^-1"
        assert LaurentPoly(1).to_text() == "0"
        assert P(1, {(0,): Fraction(3, 2)}).to_text() == "3/2"

    def test_latex_rendering(self):
        p = P(2, {(-1, -2): 1, (-2, -1): -1})
        assert p.to_latex(("z_{1}", "z_{2}")) == (
            "z_{1}^{-1} z_{2}^{-2} - z_{1}^{-2} z_{2}^{-1}"
        )


# -- the writers, held to their references ----------------------------------
#
# ``reference_render`` is a literal copy of the renderer the writers
# replaced: terms sorted through ``Fraction`` coefficients, one factor
# list per term.  ``to_text``/``to_latex`` must match it byte for byte,
# and ``to_json`` must match ``json.dumps(to_json_dict(), indent=2)``.
# ``reference_json_terms`` gives the JSON terms from ``terms``, which
# unpacks the keys, so the writers' walk is held to a route of its own.

PAST_CAP = 10**4400  # past Python's 4,300-digit int-to-str cap


def reference_sorted_terms(poly):
    return sorted(poly.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)


def reference_json_terms(poly):
    return [
        {"exp": list(e), "num": int_text(coeff.numerator), "den": int_text(coeff.denominator)}
        for e, coeff in reference_sorted_terms(poly)
    ]


def reference_rational_text(value):
    if value.denominator == 1:
        return int_text(value.numerator)
    return f"{int_text(value.numerator)}/{int_text(value.denominator)}"


def reference_latex_number(value):
    if value.denominator == 1:
        return int_text(value.numerator)
    return f"\\frac{{{int_text(value.numerator)}}}{{{int_text(value.denominator)}}}"


def reference_render(poly, varnames, join, power_fmt, magnitude_fmt):
    if not poly:
        return "0"
    names = tuple(varnames) if varnames else tuple(f"x{i}" for i in range(1, poly.arity + 1))
    pieces = []
    for exponents, coeff in reference_sorted_terms(poly):
        factors = [
            names[i] if e == 1 else power_fmt.format(names[i], e)
            for i, e in enumerate(exponents)
            if e != 0
        ]
        magnitude = abs(coeff)
        if not factors or magnitude != 1:
            factors.insert(0, magnitude_fmt(magnitude))
        pieces.append(f"{'-' if coeff < 0 else '+'} {join.join(factors)}")
    text = " ".join(pieces)
    return text[2:] if text[0] == "+" else "-" + text[2:]


def reference_text(poly, varnames=None):
    return reference_render(poly, varnames, "*", "{}^{}", reference_rational_text)


def reference_latex(poly, varnames=None):
    return reference_render(poly, varnames, " ", "{}^{{{}}}", reference_latex_number)


def uncapped(convert, *args, **kwargs):
    """``convert(*args, **kwargs)`` with Python's int-to-str cap lifted, then restored."""
    cap = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return convert(*args, **kwargs)
    finally:
        sys.set_int_max_str_digits(cap)


def dumped(document):
    """``json.dumps(document.to_json_dict(), indent=2)``, with Python's digit cap lifted."""
    return uncapped(json.dumps, document.to_json_dict(), indent=2)


def assert_same(written, expected):
    """``written == expected``, failing with the first difference only.

    pytest's own diff is quadratic in the length, and these texts run to
    megabytes.
    """
    if written != expected:
        at = len(os.path.commonprefix([written, expected]))
        window = slice(max(at - 60, 0), at + 60)
        pytest.fail(f"first difference at {at}: {written[window]!r} vs {expected[window]!r}")


# Exponents at the balanced bounds of the 16-, 32- and 64-bit digit
# widths, and just past them, where the width doubles
PACKING_EDGES = (2**15 - 1, -(2**15), 2**31 - 1, -(2**31), 2**63)


@st.composite
def wide_polys(draw, arity=None):
    """Arity 1-8, exponents from small to 40-bit and at the packing edges,
    terms that share a degree, integer or rational coefficients over one
    shared denominator, some past the digit cap."""
    if arity is None:
        arity = draw(st.integers(1, 8))
    exponent = st.integers(-4, 4) | st.integers(-(2**40), 2**40) | st.sampled_from(PACKING_EDGES)
    numerator = st.integers(-30, 30)
    dens = (1, 2, 12)
    if draw(st.booleans()):  # long coefficients: slow to print, so not in every example
        numerator = numerator | numerator.map(lambda n: n * PAST_CAP + 7)
        dens += (3**9100,)
    den = draw(st.sampled_from(dens))
    exponents = draw(st.lists(st.tuples(*[exponent] * arity), max_size=6))
    # terms of one degree: term k with e moved from variable i to the next
    moves = st.tuples(st.integers(0, 5), st.integers(0, arity - 1), exponent)
    for k, i, e in draw(st.lists(moves, max_size=4)) if exponents else ():
        moved = list(exponents[k % len(exponents)])
        moved[i] -= e
        moved[(i + 1) % arity] += e
        exponents.append(tuple(moved))
    return LaurentPoly(arity, {e: Fraction(draw(numerator), den) for e in exponents})


@st.composite
def result_documents(draw):
    """A ``TransformResult`` or ``LaplaceResult`` around random polynomials.

    A Laplace document writes its real pole product, (dim + 1)**dim
    terms, so it is drawn at dims 2-3 only; the emitted dims 2-5 are
    covered by ``test_emitted_laplace_forms``.
    """
    scale = draw(st.fractions(min_value=-9, max_value=9, max_denominator=300))
    if draw(st.booleans()):
        dim = draw(st.integers(2, 6))
        return TransformResult(scale, draw(wide_polys(dim)))
    dim = draw(st.integers(2, 3))
    step = st.fractions(min_value=Fraction(1, 99), max_value=99)
    params = TustinParams(dim, tuple(draw(st.lists(step, min_size=dim, max_size=dim))))
    return LaplaceResult(scale, draw(wide_polys(dim)), params)


# Exact numbers past the cap where a document holds plain integers: the
# z result's scale and the Laplace result's steps at 5,001 digits, and the
# pole/zero report's pole -2/T at 4,301 digits (T = 1/<4,300 nines>),
# beside the report at T = 1/2
PAST_CAP_STEP = Fraction(1, 10**5000)
PAST_CAP_RESULTS = (
    TransformResult(PAST_CAP_STEP, factored_ztransform(2).body),
    factored_laplace(TustinParams(2, (PAST_CAP_STEP,) * 2)),
    pole_zero_report_2d(TustinParams.uniform(2, "1/2")),
    pole_zero_report_2d(TustinParams.uniform(2, Fraction(1, 10**4300 - 1))),
)


def check_result_writers(result):
    """``to_json`` is ``json.dumps`` of the tree; a result's ``to_text`` leads with its scale.

    A pole/zero report has no scale.
    """
    assert_same(result.to_json(), dumped(result))
    scale = getattr(result, "scale", 1)
    assert scale == 1 or result.to_text().startswith(f"{reference_rational_text(scale)} * (")


class TestWriters:
    @given(wide_polys(), st.booleans())
    def test_text_and_latex_match_the_reference(self, poly, named):
        names = tuple(f"v{q}" for q in range(1, poly.arity + 1)) if named else None
        assert_same(poly.to_text(names), reference_text(poly, names))
        assert_same(poly.to_latex(names), reference_latex(poly, names))

    @given(wide_polys())
    def test_json_matches_json_dumps(self, poly):
        assert_same(poly.to_json(), dumped(poly))

    @given(wide_polys())
    def test_json_terms_match_the_reference(self, poly):
        # the reference sorts ``terms``, which unpacks the keys, not the walk
        assert poly.to_json_dict()["terms"] == reference_json_terms(poly)

    @pytest.mark.parametrize("edge", PACKING_EDGES)
    @pytest.mark.parametrize("arity", range(1, 9))
    def test_writers_at_the_packing_edges(self, arity, edge):
        # the edge at each variable beside -1s: one degree, ordered digit by
        # digit; -edge beside -2s; and the all -1 term, degree -arity
        terms = {(-1,) * arity: -1}
        for q in range(arity):
            terms[(-1,) * q + (edge,) + (-1,) * (arity - q - 1)] = q + 1
            terms[(-2,) * q + (-edge,) + (-2,) * (arity - q - 1)] = Fraction(1, q + 2)
        poly = P(arity, terms)
        assert_same(poly.to_text(), reference_text(poly))
        assert_same(poly.to_latex(), reference_latex(poly))
        assert_same(poly.to_json(), dumped(poly))
        assert poly.to_json_dict()["terms"] == reference_json_terms(poly)

    @given(result_documents())
    def test_result_json_matches_json_dumps(self, result):
        check_result_writers(result)

    # One id for each past-cap value.  Hypothesis prints every explicit
    # example before running it, through the record's repr, ``exact_repr``,
    # which writes rationals of any length where Fraction's repr refuses.
    @pytest.mark.parametrize(
        "result", PAST_CAP_RESULTS, ids=("z-scale", "s-steps", "report", "report-4300-digit-T")
    )
    def test_result_numbers_past_the_cap(self, result):
        check_result_writers(result)

    @pytest.mark.parametrize("arity", range(1, 7))
    def test_zero_polynomial(self, arity):
        zero = LaurentPoly(arity)
        assert_same(zero.to_json(), dumped(zero))
        assert zero.to_text() == reference_text(zero) == "0"
        assert zero.to_latex() == reference_latex(zero) == "0"

    @pytest.mark.parametrize("level", range(4))
    def test_json_nests_at_any_level(self, level):
        poly = P(2, {(1, -1): Fraction(-3, 4), (0, 0): 5})
        document = poly.to_json_dict()
        written = poly.to_json(level)
        for depth in reversed(range(level)):
            document = {"key": document}
            pad = "  " * depth
            written = f'{{\n{pad}  "key": {written}\n{pad}}}'
        assert_same(written, json.dumps(document, indent=2))

    @pytest.mark.parametrize("dim", range(2, 7))
    def test_emitted_transforms(self, dim):
        result = factored_ztransform(dim)
        assert_same(result.to_json(), dumped(result))
        names, latex_names = result.varnames(), result.latex_names()
        assert_same(result.body.to_text(names), reference_text(result.body, names))
        assert_same(result.body.to_latex(latex_names), reference_latex(result.body, latex_names))

    @pytest.mark.parametrize("dim", range(2, 6))
    def test_emitted_laplace_forms(self, dim):
        steps = ("1/2", "1", "3/2", "2", "5/2")[:dim]
        result = factored_laplace(TustinParams(dim, steps))
        assert_same(result.to_json(), dumped(result))
        for poly in (result.body.num, result.body.den):
            assert_same(poly.to_text(result.varnames()), reference_text(poly, result.varnames()))


class TestRecord:
    """The one immutable record base of the result, parameter and report types."""

    def test_a_record_is_built_by_position_or_keyword(self):
        # the seven types share one base, so one type stands for the rest
        steps = (Fraction(1), Fraction(1, 2))
        assert TustinParams(2, steps) == TustinParams(dim=2, steps=steps)
        assert TustinParams(2, steps=steps) == TustinParams(2, ("1", "1/2"))
        for args, kwargs in [((2,), {}), ((2, steps, 3), {}), ((2,), {"dim": 2}), ((), {"n": 2})]:
            with pytest.raises(TypeError, match="^TustinParams takes the fields dim, steps$"):
                TustinParams(*args, **kwargs)

    def test_a_record_is_equal_and_hashed_by_its_fields_and_cannot_change(self):
        passed = CheckResult("check", ())
        assert passed == CheckResult("check", ()) != CheckResult("check", ("line",))
        assert hash(passed) == hash(CheckResult("check", ()))
        assert {TustinParams.uniform(2), TustinParams(2, (1, 1))} == {TustinParams.uniform(2)}
        for change in (lambda: setattr(passed, "name", "other"), lambda: delattr(passed, "name")):
            with pytest.raises(AttributeError, match="^CheckResult instances are immutable$"):
                change()
        assert passed.name == "check"


class TestDerivedShape:
    """No field restates a dimension or a verdict; each is read off the value it counts."""

    def test_fields(self):
        assert TransformResult._fields == ("scale", "body")
        assert LaplaceResult._fields == ("scale", "numerator", "params")
        assert CheckResult._fields == ("name", "details")
        assert "dim" not in PoleZeroReport._fields

    def test_closed_forms_count_their_variables(self):
        # the built forms are checked beside their oracles in test_factored
        z = compact_form_3d()
        assert z.dim == len(z.varnames()) == z.body.arity == 3
        s = laplace_2d_closed(TustinParams.uniform(2, "1/3"))
        assert s.dim == len(s.varnames()) == s.numerator.arity == 2

    def test_laplace_steps_must_fit_the_numerator(self):
        numerator = factored_laplace(TustinParams.uniform(3)).numerator
        with pytest.raises(InputDomainError, match="for dimension 2, expected 3$"):
            LaplaceResult(Fraction(1), numerator, TustinParams.uniform(2))
