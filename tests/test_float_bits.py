"""The exact bits of the float routes, held to a literal copy of their arithmetic.

The s-side evaluators map each coordinate to w_q = (2 - T_q s_q)/(2 + T_q s_q)
and results are scaled by an exact rational.  ``reference_images`` and
``reference_scale`` below spell that arithmetic out in its plainest form:
the step taken to ``float`` and multiplied into ``complex(s)``, and the
scale taken to ``float`` and multiplied into the value.  Every complex
result must match it in every bit of its real and imaginary parts, not
just to a tolerance, and every exact result must match it exactly.
``reference_evaluate`` does the same for ``LaurentPoly.evaluate`` at
inexact points, and ``reference_tustin`` for the bilinear map itself.
"""

import random
import struct
from fractions import Fraction

import pytest

from zeps.algebra import LaurentPoly, vandermonde
from zeps.errors import EvaluationPoleError
from zeps.sdomain import (
    TustinParams, factored_laplace, factored_laplace_value, laplace_compact_3d,
    laplace_determinant, tustin_map,
)
from zeps.ztransform import compact_sum_3d, factored_ztransform, moment_matrix

STEPS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))

# Magnitudes reaching from subnormal to 1e150, so that no product overflows.
EXTREMES = (5e-324, -2.5e-310, 1e-150, -3e150, 1e150, 0.0, -0.0)


def reference_images(coords, steps):
    images = []
    for s, step in zip(coords, steps):
        if isinstance(s, (int, Fraction)):
            ts = Fraction(s) * step
        else:
            ts = complex(s) * float(step)
        images.append((2 - ts) / (2 + ts))
    return images


def reference_tustin(s, step):
    if isinstance(s, (int, Fraction)):
        ts = Fraction(s) * step
    else:
        ts = complex(s) * float(step)
    return (2 + ts) / (2 - ts)


def reference_scale(scale, value):
    if isinstance(value, (int, Fraction)):
        return scale * value
    return float(scale) * value


def reference_evaluate(poly, point):
    """The complex route of ``LaurentPoly.evaluate``: each term is
    ``complex(coeff)`` times the cached ``complex(x) ** e`` over its nonzero
    exponents, and the terms are summed in term order."""
    for i, x in enumerate(point):
        if x == 0 and any(exponents[i] < 0 for exponents in poly.terms):
            raise EvaluationPoleError(f"variable {i + 1} is zero under a negative exponent")
    bases = [complex(x) for x in point]
    power_cache = [{} for _ in bases]
    total = complex(0)
    for exponents, coeff in poly.terms.items():
        term = complex(coeff)
        for i, e in enumerate(exponents):
            if e == 0:
                continue
            if e not in power_cache[i]:
                power_cache[i][e] = bases[i] ** e
            term = term * power_cache[i][e]
        total = total + term
    return total


def bits(value) -> bytes:
    return struct.pack("dd", value.real, value.imag)


def assert_same(actual, expected):
    if isinstance(expected, Fraction):
        assert isinstance(actual, Fraction) and actual == expected
    else:
        assert isinstance(actual, complex)
        assert bits(actual) == bits(expected)


def complex_point(rng, dim):
    return tuple(complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(dim))


def extreme_point(rng, dim):
    return tuple(complex(rng.choice(EXTREMES), rng.choice(EXTREMES)) for _ in range(dim))


def float_point(rng, dim):
    return tuple(rng.uniform(-4, 4) for _ in range(dim))


def exact_point(rng, dim):
    return tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(dim))


SAMPLERS = (complex_point, extreme_point, float_point, exact_point)


def points(sampler, dim, steps, count, seed):
    """Seeded points off every pole hyperplane T_q s_q = -2."""
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        point = sampler(rng, dim)
        if all(step * s != -2 for s, step in zip(point, steps)):
            found.append(point)
    return found


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_factored_laplace_value(dim, sampler):
    params = TustinParams(dim, STEPS[:dim])
    for point in points(sampler, dim, params.steps, 200, seed=dim):
        expected = vandermonde(reference_images(point, params.steps))
        assert_same(factored_laplace_value(point, params), expected)


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda f: f.__name__)
def test_laplace_compact_3d(sampler):
    params = TustinParams(3, (Fraction(1, 3), Fraction(2), Fraction(5, 4)))
    evaluate = laplace_compact_3d(params)
    for point in points(sampler, 3, params.steps, 200, seed=7):
        moments = moment_matrix(3, [(w, 1) for w in reference_images(point, params.steps)])
        expected = reference_scale(Fraction(1, 2), compact_sum_3d(moments))
        assert_same(evaluate(point), expected)


@pytest.mark.parametrize(
    "form",
    [
        factored_ztransform(3),
        factored_ztransform(4),
        laplace_determinant(TustinParams(3, STEPS[:3])),
        factored_laplace(TustinParams(4, STEPS[:4])),
    ],
    ids=["z3", "z4", "s3", "s4"],
)
def test_scaled_form_evaluate(form):
    assert form.scale != 1
    rng = random.Random(form.dim)
    for point in (complex_point(rng, form.dim) for _ in range(50)):
        expected = reference_scale(form.scale, form.body.evaluate(point))
        assert_same(form.evaluate(point), expected)


S3 = laplace_determinant(TustinParams(3, STEPS[:3]))
S4 = factored_laplace(TustinParams(4, STEPS[:4]))


@pytest.mark.parametrize("sampler", [complex_point, extreme_point, float_point],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize(
    "poly",
    [
        factored_ztransform(3).body,
        factored_ztransform(4).body,
        S3.body.num,
        S3.body.den,
        S4.body.num,
        S4.body.den,
        # the second variable occurs in no term
        LaurentPoly(3, {(2, 0, -1): Fraction(3, 7), (-3, 0, 0): -2, (0, 0, 4): 5}),
        # numerators and their shared denominator past the float range, values near 1/3
        LaurentPoly(2, {
            (1, -2): Fraction(10**400 + 1, 3 * 10**400),
            (0, 3): Fraction(-(10**400) + 7, 3 * 10**400),
            (-1, 0): Fraction(10**400, 3 * 10**400 + 1),
        }),
        # a coefficient past the float range raises as its float conversion does
        LaurentPoly(2, {(1, 1): Fraction(10**400, 3), (0, -1): 1}),
    ],
    ids=[
        "z3", "z4", "s3-num", "s3-den", "s4-num", "s4-den", "unused-variable",
        "huge-denominator", "huge-coefficient",
    ],
)
def test_laurent_poly_evaluate(poly, sampler):
    rng = random.Random(poly.arity)
    for point in (sampler(rng, poly.arity) for _ in range(50)):
        try:
            expected = reference_evaluate(poly, point)
        except (ArithmeticError, ValueError) as exc:
            with pytest.raises(type(exc)):
                poly.evaluate(point)
        else:
            assert_same(poly.evaluate(point), expected)


@pytest.mark.parametrize("sampler", SAMPLERS, ids=lambda f: f.__name__)
def test_tustin_map(sampler):
    rng = random.Random(5)
    for _ in range(1000):
        (s,) = sampler(rng, 1)
        step = rng.choice(STEPS)
        if step * s != 2:  # off the map's singularity
            assert_same(tustin_map(s, step), reference_tustin(s, step))


# Where halving T*s first, as (1 + s*T/2)/(1 - s*T/2) reads, would round a
# subnormal part: to a point on s = 2/T, to a value a few bits off, or to a
# zero of the other sign.
SUBNORMAL_PARTS = (
    (2 + 5e-324j, Fraction(1)),  # -1+infj; halving first raised MapSingularityError
    (2 - 5e-324j, Fraction(1)),
    (2 + 1e-308j, Fraction(1, 2)),
    (2 + 1e-308j, Fraction(3, 2)),
    (-2 + 2.5e-310j, Fraction(1, 3)),
    (-5e-324j, Fraction(1)),
)


@pytest.mark.parametrize("s,step", SUBNORMAL_PARTS, ids=str)
def test_tustin_map_at_subnormal_parts(s, step):
    assert_same(tustin_map(s, step), reference_tustin(s, step))
