"""Property tests of the packed ``LaurentPoly`` kernel against a naive reference.

The reference keeps terms the obvious way, as a dict from exponent tuple
to ``Fraction``, and shares no code with ``zeps.algebra``.  Exponents
include the edges of each packing width and values of +-10**6 and beyond,
so a key that wrapped or a digit read back wrong shows up as a term
mismatch.  ``det``, which expands each minor on packed integers, is
held to ``old_det``, a verbatim copy of the cofactor expansion that
summed the products one ring operation at a time: on random matrices,
on the moment matrices ``verify`` builds, where its fields are widest,
and on matrices whose fields sit at the edge of their width.
``sum_of_products``, the one accumulation behind the moment builders,
is held to the generic ``sum`` of its products.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeps.algebra import MAX_DET_SIDE, LaurentPoly, det, sum_of_products
from zeps.errors import EvaluationPoleError, InputDomainError
from zeps.sdomain import _tustin_keys
from zeps.ztransform import _z_keys, moment_matrix

WIDE = [
    10**6, -(10**6), 2**15 - 1, -(2**15), 2**15, -(2**15) - 1,
    2**31 - 1, -(2**31), 2**31, 2**63, -(2**64) - 3, 10**30,
]
EXPONENTS = st.one_of(st.integers(-4, 4), st.sampled_from(WIDE))
COEFFS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 6))
PROPERTY = settings(max_examples=60, deadline=None)


def ref_clean(terms):
    return {e: c for e, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return ref_clean(out)


def ref_value(terms, point):
    total = Fraction(0)
    for exponents, coeff in terms.items():
        term = coeff
        for x, e in zip(point, exponents):
            term *= Fraction(x) ** e
        total += term
    return total


@st.composite
def term_maps(draw, arity, exponents=EXPONENTS):
    size = draw(st.integers(0, 5))
    return {
        tuple(draw(exponents) for _ in range(arity)): draw(COEFFS)
        for _ in range(size)
    }


@st.composite
def pairs(draw, exponents=EXPONENTS):
    arity = draw(st.integers(1, 3))
    return arity, draw(term_maps(arity, exponents)), draw(term_maps(arity, exponents))


@PROPERTY
@given(pairs())
def test_terms_read_back_what_the_constructor_was_given(case):
    arity, given_terms, _ = case
    poly = LaurentPoly(arity, given_terms)
    expected = ref_clean(given_terms)
    assert len(poly.terms) == len(expected)
    assert dict(poly.terms) == expected
    assert poly.terms == expected
    for exponents, coeff in poly.terms.items():
        assert type(exponents) is tuple and all(type(e) is int for e in exponents)
        assert type(coeff) is Fraction and coeff == expected[exponents]
    assert LaurentPoly(arity, poly.terms) == poly


@PROPERTY
@given(pairs())
def test_ring_operations_match_the_reference(case):
    arity, ta, tb = case
    a, b = LaurentPoly(arity, ta), LaurentPoly(arity, tb)
    ra, rb = ref_clean(ta), ref_clean(tb)
    assert dict((a + b).terms) == ref_add(ra, rb)
    assert dict((a - b).terms) == ref_add(ra, rb, -1)
    assert dict((-a).terms) == {e: -c for e, c in ra.items()}
    assert dict((a * b).terms) == ref_mul(ra, rb)


@PROPERTY
@given(pairs(), COEFFS, st.integers(-3, 3))
def test_scalar_mixing_matches_the_reference(case, scalar, whole):
    arity, ta, _ = case
    a, ra = LaurentPoly(arity, ta), ref_clean(ta)
    one = {(0,) * arity: Fraction(1)}
    assert dict((scalar * a).terms) == ref_mul(ra, {(0,) * arity: scalar} if scalar else {})
    assert dict((a * whole).terms) == ref_mul(ra, {(0,) * arity: Fraction(whole)} if whole else {})
    assert dict((a + scalar).terms) == ref_add(ra, {k: scalar * c for k, c in one.items()})
    assert dict((whole - a).terms) == ref_add({k: whole * c for k, c in one.items()}, ra, -1)


@PROPERTY
@given(pairs(exponents=st.one_of(st.integers(-3, 3), st.sampled_from([10**6, -(10**6), 2**15]))),
       st.integers(0, 3))
def test_powers_match_repeated_reference_products(case, n):
    arity, ta, _ = case
    expected = {(0,) * arity: Fraction(1)}
    for _ in range(n):
        expected = ref_mul(expected, ref_clean(ta))
    assert dict((LaurentPoly(arity, ta) ** n).terms) == expected


@PROPERTY
@given(pairs())
def test_equality_is_value_equality(case):
    arity, ta, tb = case
    a, b = LaurentPoly(arity, ta), LaurentPoly(arity, tb)
    assert (a == b) == (ref_clean(ta) == ref_clean(tb))
    assert a + b - b == a
    assert (a * b == b * a) and (a + b == b + a)
    # a product that had to widen its digits still equals the narrow original
    wide = LaurentPoly(arity, {(10**6,) * arity: 1})
    narrow_back = LaurentPoly(arity, {(-(10**6),) * arity: 1})
    assert a * wide * narrow_back == a
    assert (a == 0) == (not ref_clean(ta))


@PROPERTY
@given(pairs(), st.data())
def test_mixed_denominator_sums_cancel_to_zero(case, data):
    arity, ta, _ = case
    parts = []
    for exponents, coeff in ref_clean(ta).items():
        cut = data.draw(COEFFS)
        parts.append({exponents: cut})
        parts.append({exponents: coeff - cut})
        parts.append({exponents: -coeff})
    total = LaurentPoly(arity)
    for part in parts:
        total = total + LaurentPoly(arity, part)
    assert not total and not total.terms and total.terms == {}
    assert total == LaurentPoly(arity) and total == 0
    assert total.to_text() == "0"
    a = LaurentPoly(arity, ta)
    scale = data.draw(COEFFS.filter(bool))
    assert (a * scale) * (1 / scale) == a
    assert (a * scale - a * scale).terms == {}


@PROPERTY
@given(pairs(), st.data())
def test_exact_evaluation_matches_the_reference(case, data):
    arity, ta, _ = case
    small = {e: c for e, c in ta.items() if all(abs(x) <= 4 for x in e)}
    point = tuple(data.draw(COEFFS.filter(bool)) for _ in range(arity))
    value = LaurentPoly(arity, small).evaluate(point)
    assert type(value) is Fraction
    assert value == ref_value(small, point)


@PROPERTY
@given(st.integers(1, 3), st.data())
def test_exact_evaluation_with_zero_coordinates(arity, data):
    terms = data.draw(term_maps(arity, st.integers(0, 4)))
    point = tuple(data.draw(st.sampled_from([0, 1, -2, Fraction(1, 3)])) for _ in range(arity))
    assert LaurentPoly(arity, terms).evaluate(point) == ref_value(ref_clean(terms), point)


def test_huge_exponents_evaluate_exactly_at_unit_points():
    poly = LaurentPoly(2, {(10**6, -(10**6)): Fraction(3, 4), (-(2**63), 5): 2})
    assert poly.evaluate((1, -1)) == Fraction(3, 4) - 2
    assert poly.evaluate((-1, 1)) == Fraction(3, 4) + 2


def test_terms_view_is_read_only():
    poly = LaurentPoly(2, {(1, -1): Fraction(1, 2)})
    with pytest.raises(TypeError):
        poly.terms[(0, 0)] = 1
    with pytest.raises(AttributeError):
        poly.terms = {}
    assert poly.terms == {(1, -1): Fraction(1, 2)}


def test_terms_len_builds_no_fraction(monkeypatch):
    # the tracer counts terms on every product through len(poly.terms)
    a = LaurentPoly(2, {(1, -1): Fraction(1, 2), (0, 3): -3})
    b = LaurentPoly(2, {(2, 0): Fraction(5, 3), (-1, -1): 7, (0, 0): 1})

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr("zeps.algebra.Fraction", no_fraction)
    product = a * b
    assert len(product.terms) == 6
    with pytest.raises(AssertionError, match="a Fraction was built"):
        product.terms[(3, -1)]


def test_integer_coefficients_build_no_fraction(monkeypatch):
    # the constructor packs each coefficient as it was given
    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    with monkeypatch.context() as patch:
        patch.setattr("zeps.algebra.Fraction", no_fraction)
        poly = LaurentPoly(2, {(1, -1): 3, (0, 2): -2})
    assert dict(poly.terms) == {(1, -1): 3, (0, 2): -2}


def test_pole_at_zero_with_negative_exponent():
    with pytest.raises(EvaluationPoleError):
        LaurentPoly(2, {(0, -(10**6)): 1}).evaluate((1, 0))


# -- determinant ----------------------------------------------------------


def old_det(matrix):
    """``det`` as it was before each minor became one accumulation, verbatim."""
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise InputDomainError("determinant needs a non-empty square matrix")
    if n > MAX_DET_SIDE:
        raise InputDomainError(f"determinant side capped at {MAX_DET_SIDE}, got {n}")

    memo: dict[tuple[int, ...], object] = {}

    def minor(cols: tuple[int, ...]):
        row = n - len(cols)
        if len(cols) == 1:
            return matrix[row][cols[0]]
        if cols in memo:
            return memo[cols]
        total = None
        for i, c in enumerate(cols):
            term = matrix[row][c] * minor(cols[:i] + cols[i + 1 :])
            if i % 2:
                term = -term
            total = term if total is None else total + term
        memo[cols] = total
        return total

    return minor(tuple(range(n)))


@st.composite
def poly_matrices(draw, min_side=1):
    """Square LaurentPoly matrices of side min_side..4, each entry over its own denominators."""
    side = draw(st.integers(min_side, 4))
    arity = draw(st.integers(1, 3))
    return [
        [LaurentPoly(arity, draw(term_maps(arity))) for _ in range(side)]
        for _ in range(side)
    ]


SCALARS = st.one_of(st.integers(-20, 20), COEFFS)


@PROPERTY
@given(poly_matrices())
def test_det_matches_the_old_cofactor_expansion(matrix):
    new, old = det(matrix), old_det(matrix)
    assert new == old
    assert dict(new.terms) == dict(old.terms)


@PROPERTY
@given(poly_matrices(min_side=2), st.data())
def test_det_with_two_equal_rows_is_zero(matrix, data):
    i, j = data.draw(st.lists(st.integers(0, len(matrix) - 1), min_size=2, max_size=2, unique=True))
    matrix[j] = list(matrix[i])
    assert not det(matrix)
    assert not old_det(matrix)


@PROPERTY
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(SCALARS, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_det_of_scalars_takes_the_generic_sum(matrix):
    new, old = det(matrix), old_det(matrix)
    assert new == old and type(new) is type(old)


def test_det_of_scalars_and_polynomials_lifts_the_scalars():
    # a minor with a polynomial in it lifts its scalars to constants; an
    # all-scalar minor keeps the generic sum
    x = LaurentPoly.variable(2, 1, -3)
    matrix = [[x, 2, Fraction(1, 3)], [1, x * x, x], [Fraction(-5, 2), 7, x + 1]]
    assert det(matrix) == old_det(matrix)


@pytest.mark.parametrize("scalar", [1j, 0.5])
def test_det_refuses_inexact_scalars_beside_polynomials(scalar):
    x = LaurentPoly.variable(1, 1)
    with pytest.raises(TypeError):
        det([[x, scalar], [1, x]])
    with pytest.raises(TypeError):
        old_det([[x, scalar], [1, x]])


@pytest.mark.parametrize("edge", [2**15, 2**31])
def test_det_repacks_at_the_width_edges(edge):
    # every entry fits the narrower width, but x^(edge-1) * x^1 does not
    matrix = [
        [LaurentPoly(2, {(edge - 1, -1): Fraction(1, 3)}), LaurentPoly(2, {(0, 0): Fraction(1, 2)})],
        [LaurentPoly(2, {(0, -1): 1}), LaurentPoly(2, {(1, 1 - edge): Fraction(5, 7)})],
    ]
    new = det(matrix)
    assert new == old_det(matrix)
    assert dict(new.terms) == {(edge, -edge): Fraction(5, 21), (0, -1): Fraction(-1, 2)}


@pytest.mark.parametrize("position", [(0, 1), (2, 2), (1, 0)])
def test_det_rejects_mixed_arity_anywhere(position):
    matrix = [[LaurentPoly(2, {(0, 0): k + 1}) for k in range(3)] for _ in range(3)]
    row, col = position
    matrix[row][col] = LaurentPoly(3, {(0, 0, 0): 1})
    with pytest.raises(InputDomainError):
        det(matrix)


def test_det_rejects_arities_that_agree_within_each_product():
    # x1 * x1 and y2 * y2 are each well formed; their sum is not
    x, y = LaurentPoly.variable(1, 1), LaurentPoly.variable(2, 2)
    with pytest.raises(InputDomainError):
        det([[x, y], [y, x]])
    with pytest.raises(InputDomainError):
        old_det([[x, y], [y, x]])


def test_det_side_cap_still_applies():
    one = LaurentPoly(1, {(0,): 1})
    det([[one] * MAX_DET_SIDE for _ in range(MAX_DET_SIDE)])
    with pytest.raises(InputDomainError):
        det([[one] * (MAX_DET_SIDE + 1) for _ in range(MAX_DET_SIDE + 1)])


MOMENT_STEPS = {
    "1": [1] * 5,
    "uniform 5/2": [Fraction(5, 2)] * 5,
    "1/2,2/3,3/4,4/3,3/2": [
        Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 3), Fraction(3, 2)
    ],
    "5/2,1,2/3,2/3,1/2": [Fraction(5, 2), 1, Fraction(2, 3), Fraction(2, 3), Fraction(1, 2)],
}


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_det_of_the_z_moment_matrix_matches_the_old_expansion(dim):
    # 33-bit fields at dim 6, past anything the random matrices reach
    matrix = moment_matrix(dim, _z_keys(dim))
    assert dict(det(matrix).terms) == dict(old_det(matrix).terms)


@pytest.mark.parametrize("steps", MOMENT_STEPS, ids=list(MOMENT_STEPS))
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_det_of_the_tustin_moment_matrix_matches_the_old_expansion(dim, steps):
    # numerators over (2 + T_q s_q)^dim: fields to 69 bits at dim 5
    matrix = moment_matrix(dim, _tustin_keys(MOMENT_STEPS[steps][:dim]))
    assert dict(det(matrix).terms) == dict(old_det(matrix).terms)


def _width_edges():
    """Matrices whose minors put a field at the edge of its width, each with its determinant."""
    x, y = LaurentPoly.variable(2, 1), LaurentPoly.variable(2, 2)
    t = LaurentPoly.variable(1, 1)
    return {
        # the last minor's bound is 3*5 + 3*5, and its one field reads +30 or -30
        "field at +bound": ([[3 * x, -5 * y], [3 * x, 5 * y]], {(1, 1): 30}),
        "field at -bound": ([[3 * x, 5 * y], [3 * x, -5 * y]], {(1, 1): -30}),
        "field at +bound 1": ([[x, -y], [x, y]], {(1, 1): 2}),
        # every field of the minor cancels
        "column cancels": ([[x, 2 * y - 3], [x, 2 * y - 3]], {}),
        # the first 2x2 minor cancels, the determinant does not
        "zero sub-minor": ([[x, y, 1], [x, y, 0], [1, 0, 0]], {(0, 1): -1}),
        # row fields -7, 0, 0, 3, -1 and 0, 1, -1, 0, 0: a borrow at each sign change
        "mixed signs": (
            [[x, 3 * y**3 - y**4 - 7], [1, y - y**2]],
            {(1, 1): 1, (1, 2): -1, (0, 3): -3, (0, 4): 1, (0, 0): 7},
        ),
        # row denominators 3, 5 and 7: the sub-minors go over 105 and scale
        "coprime denominators": (
            [
                [x * Fraction(1, 3), y * Fraction(2, 3), Fraction(1, 3)],
                [x * Fraction(4, 5), y * Fraction(1, 5), x * y * Fraction(3, 5)],
                [Fraction(1, 7), x * y * Fraction(5, 7), y * Fraction(6, 7)],
            ],
            None,
        ),
        # one variable everywhere: x^4 arrives from two fields and cancels
        "shared variable": ([[t, t**2], [t**2, t**3 + 1]], {(1,): 1}),
        "shared variables 3x3": (
            [[t, t**2, t**3 - 2], [t**2 + 1, t, 3], [2, t**3, t - t**2]],
            None,
        ),
    }


@pytest.mark.parametrize("edge", list(_width_edges()))
def test_det_fields_are_exact_at_the_edge_of_their_width(edge):
    matrix, expected = _width_edges()[edge]
    new = det(matrix)
    assert dict(new.terms) == dict(old_det(matrix).terms)
    if expected is not None:
        assert dict(new.terms) == expected


# -- sum of products ------------------------------------------------------


@st.composite
def weighted_products(draw, scalars_only=False):
    """``(w, a, b)`` triples over one arity, each factor an int, a Fraction or a polynomial."""
    arity = draw(st.integers(1, 3))
    factor = SCALARS if scalars_only else st.one_of(
        SCALARS, term_maps(arity).map(lambda terms: LaurentPoly(arity, terms))
    )
    triples = st.tuples(st.integers(-40, 40), factor, factor)
    return arity, draw(st.lists(triples, min_size=1, max_size=5))


@PROPERTY
@given(weighted_products())
def test_sum_of_products_equals_the_generic_sum(case):
    _, weighted = case
    assert sum_of_products(weighted) == sum(w * a * b for w, a, b in weighted)


@PROPERTY
@given(weighted_products(scalars_only=True))
def test_sum_of_products_of_scalars_keeps_their_type(case):
    _, weighted = case
    expected = sum(w * a * b for w, a, b in weighted)
    total = sum_of_products(weighted)
    assert total == expected and type(total) is type(expected)


@PROPERTY
@given(weighted_products(), st.data())
def test_sum_of_products_rejects_a_mismatched_arity_anywhere(case, data):
    arity, weighted = case
    anchor = LaurentPoly.variable(arity, arity)
    weighted.insert(data.draw(st.integers(0, len(weighted))), (1, anchor, anchor))
    stranger = LaurentPoly.variable(arity + 1, 1, data.draw(EXPONENTS))
    row = data.draw(st.integers(0, len(weighted) - 1))
    side = data.draw(st.sampled_from([1, 2]))
    triple = list(weighted[row])
    triple[side] = stranger
    weighted[row] = tuple(triple)
    with pytest.raises(InputDomainError):
        sum_of_products(weighted)
