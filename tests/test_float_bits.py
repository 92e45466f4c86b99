"""The exact bits of the float routes, held to a literal copy of their arithmetic.

The s-side evaluators map each coordinate to w_q = (2 - T_q s_q)/(2 + T_q s_q)
and results are scaled by an exact rational.  ``reference_images`` and
``reference_scale`` below spell that arithmetic out in its plainest form:
the step taken to ``float`` and multiplied into ``complex(s)``, and the
scale taken to ``float`` and multiplied into the value.  Every complex
result must match it in every bit of its real and imaginary parts, not
just to a tolerance, and every exact result must match it exactly.
"""

import random
import struct
from fractions import Fraction

import pytest

from zeps.algebra import vandermonde
from zeps.sdomain import (
    TustinParams, factored_laplace, factored_laplace_value, laplace_compact_3d,
    laplace_determinant,
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


def reference_scale(scale, value):
    if isinstance(value, (int, Fraction)):
        return scale * value
    return float(scale) * value


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
        laplace_determinant(3, TustinParams(3, STEPS[:3])),
        factored_laplace(4, TustinParams(4, STEPS[:4])),
    ],
    ids=["z3", "z4", "s3", "s4"],
)
def test_scaled_form_evaluate(form):
    assert form.scale != 1
    rng = random.Random(form.dim)
    for point in (complex_point(rng, form.dim) for _ in range(50)):
        expected = reference_scale(form.scale, form.body.evaluate(point))
        assert_same(form.evaluate(point), expected)
