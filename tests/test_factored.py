"""The factored Vandermonde routes that ``emit`` and ``eval`` take.

``factored_ztransform`` and ``factored_laplace`` must equal the
determinant builders term for term.  ``factored_value`` and
``factored_laplace_value`` must equal the expanded determinants exactly
at rational points, and the complex values ``eval`` prints must stay
within ACCURACY of an exact Gaussian-rational reference.
"""

import cmath
import contextlib
import functools
import hashlib
import io
import math
import random
from fractions import Fraction

import pytest

from zeps.algebra import LaurentPoly, det, difference_product, vandermonde
from zeps.cli import main
from zeps.errors import EvaluationPoleError, InputDomainError, UnsupportedDimensionError
from zeps.sdomain import (
    TustinParams, factored_laplace, factored_laplace_value, laplace_2d_closed,
    laplace_determinant, r_sum,
)
from zeps.ztransform import (
    brute_force_ztransform, determinant_ztransform, factored_moment_det, factored_value,
    factored_ztransform, moment_matrix,
)

from test_golden import GOLDEN

ACCURACY = 1e-12  # relative error of complex eval, as README states

# The cofactor builders are the slow oracles here; build each once.
z_determinant = functools.cache(determinant_ztransform)
s_determinant = functools.cache(laplace_determinant)


def steps(dim: int) -> TustinParams:
    """Non-uniform steps 1/3, 1, 5/3, ..."""
    return TustinParams(dim, tuple(Fraction(2 * q + 1, 3) for q in range(dim)))


def rational_point(rng: random.Random, dim: int, avoid=lambda q, c: False) -> tuple:
    point = []
    while len(point) < dim:
        c = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        if not avoid(len(point), c):
            point.append(c)
    return tuple(point)


class Gaussian:
    """Exact complex rational ``re + im*i``: the reference for complex eval."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, value) -> "Gaussian":
        if isinstance(value, Gaussian):
            return value
        if isinstance(value, complex):
            return cls(value.real, value.imag)
        return cls(value)

    def __add__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = Gaussian.of(other)
        return Gaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return Gaussian.of(other) - self

    def __mul__(self, other):
        other = Gaussian.of(other)
        return Gaussian(
            self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = Gaussian.of(other)
        norm = other.re**2 + other.im**2
        conjugate = Gaussian(other.re / norm, -other.im / norm)
        return self * conjugate

    def __rtruediv__(self, other):
        return Gaussian.of(other) / self

    def __abs__(self) -> float:
        return abs(complex(float(self.re), float(self.im)))


def exact_product(xs) -> Gaussian:
    """prod_q x_q prod_{i<j} (x_j - x_i) in exact Gaussian rationals."""
    total = Gaussian(1)
    for j, x in enumerate(xs):
        total = total * x
        for earlier in xs[:j]:
            total = total * (x - earlier)
    return total


def complex_point(rng: random.Random, dim: int, key) -> tuple:
    """Seeded complex point whose keys ``key(q, c)`` stay 0.3 apart."""
    while True:
        point = tuple(
            complex(round(rng.uniform(-2.5, 2.5), 3), round(rng.uniform(-2.5, 2.5), 3))
            for _ in range(dim)
        )
        if any(abs(c) < 0.3 for c in point):
            continue
        keys = [key(q, c) for q, c in enumerate(point)]
        if all(abs(a - b) >= 0.3 for j, a in enumerate(keys) for b in keys[j + 1:]):
            return point


def eval_stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().strip()


def point_arg(point) -> str:
    return "--point=" + ",".join(f"{c.real!r}{c.imag:+}j" for c in point)


class TestFactoredForms:
    @pytest.mark.parametrize("dim", range(2, 7))
    def test_z_equals_determinant_term_for_term(self, dim):
        factored, oracle = factored_ztransform(dim), z_determinant(dim)
        brute_force = brute_force_ztransform(dim)
        for result in (factored, oracle, brute_force):
            assert result.dim == len(result.varnames()) == result.body.arity == dim
        assert factored.scale == oracle.scale
        assert factored.body.terms == oracle.body.terms
        assert factored.expanded() == brute_force.expanded()

    @pytest.mark.parametrize("uniform", [True, False], ids=["T=1", "T=1/3,1,5/3"])
    @pytest.mark.parametrize("dim", range(2, 6))
    def test_s_equals_determinant_term_for_term(self, dim, uniform):
        params = TustinParams.uniform(dim) if uniform else steps(dim)
        factored, oracle = factored_laplace(params), s_determinant(params)
        for result in (factored, oracle):
            assert result.dim == len(result.varnames()) == result.numerator.arity == dim
        assert "body" not in vars(factored)  # the pole product is not expanded for dim
        assert factored.scale == oracle.scale and factored.params == oracle.params
        assert factored.body.num.terms == oracle.body.num.terms
        assert factored.body.den.terms == oracle.body.den.terms

    @pytest.mark.parametrize("uniform", [True, False], ids=["T=1", "T=1/3,1,5/3"])
    @pytest.mark.parametrize("dim", range(2, 6))
    def test_s_bodies_have_no_monomial_factor_to_cancel(self, dim, uniform):
        # RationalFn keeps both parts as built.  Dividing out the largest
        # monomial common to them would change nothing here: no exponent
        # is negative, and every denominator has a nonzero constant term.
        params = TustinParams.uniform(dim) if uniform else steps(dim)
        bodies = [factored_laplace(params).body, s_determinant(params).body]
        bodies += [r_sum(p, q, params) for p in range(dim) for q in range(1, dim + 1)]
        if dim == 2 and uniform:
            bodies += [
                laplace_2d_closed(TustinParams.uniform(2, t)).body for t in (1, Fraction(2, 3))
            ]
        for body in bodies:
            exponents = [*body.num.terms, *body.den.terms]
            assert min(e for exps in exponents for e in exps) == 0
            assert body.den.terms.get((0,) * dim, 0) != 0

    def test_dimension_windows(self):
        with pytest.raises(UnsupportedDimensionError):
            factored_ztransform(7)
        with pytest.raises(UnsupportedDimensionError):
            factored_laplace(TustinParams.uniform(6))


def test_emit_builds_no_determinant(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("emit built a determinant")

    for name in (
        "zeps.cli.determinant_ztransform", "zeps.cli.laplace_determinant",
        "zeps.algebra.det", "zeps.ztransform.det", "zeps.sdomain.det",
    ):
        monkeypatch.setattr(name, refuse)
    digests = {command: digest for command, _, digest in GOLDEN}
    checked = 0
    for head in ("emit --domain z --dim 6", "emit --domain s --dim 5 --T 1"):
        for fmt in ("json", "text", "latex"):
            command = f"{head} --format {fmt}"
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(command.split()) == 0
            assert out.getvalue()
            if command in digests:
                assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digests[command]
                checked += 1
    assert checked == 5


class TestExactEquality:
    @pytest.mark.parametrize("dim", range(2, 7))
    def test_z_matches_determinant(self, dim):
        form = z_determinant(dim)
        rng = random.Random(dim)
        for _ in range(4):
            point = rational_point(rng, dim, avoid=lambda q, c: c == 0)
            assert factored_value(point) == form.evaluate(point)

    @pytest.mark.parametrize("dim", range(2, 6))
    def test_s_matches_determinant(self, dim):
        params = steps(dim)
        form = s_determinant(params)
        rng = random.Random(dim)
        for _ in range(3):
            point = rational_point(rng, dim, avoid=lambda q, c: params.steps[q] * c == -2)
            value = factored_laplace_value(point, params)
            assert isinstance(value, Fraction)
            assert value == form.evaluate(point)

    def test_coincident_keys_give_zero(self):
        assert factored_value((Fraction(1, 2), 3, Fraction(1, 2))) == 0
        params = TustinParams(2, (1, 2))
        assert factored_laplace_value((1, Fraction(1, 2)), params) == 0


class TestComplexAccuracy:
    @pytest.mark.parametrize("dim", range(2, 7))
    def test_z_eval_within_bound(self, dim):
        rng = random.Random(100 + dim)
        for _ in range(6):
            point = complex_point(rng, dim, key=lambda q, c: 1 / c)
            argv = ["eval", "--domain", "z", "--dim", str(dim), point_arg(point)]
            got = complex(eval_stdout(argv))
            want = exact_product([1 / Gaussian.of(c) for c in point])
            assert abs(Gaussian.of(got) - want) <= ACCURACY * abs(want)

    @pytest.mark.parametrize("dim", range(2, 6))
    def test_s_eval_within_bound(self, dim):
        params = steps(dim)
        rng = random.Random(200 + dim)
        for _ in range(6):
            point = complex_point(rng, dim, key=lambda q, c: float(params.steps[q]) * c)
            argv = ["eval", "--domain", "s", "--dim", str(dim), point_arg(point)]
            got = complex(eval_stdout(argv + ["--T", ",".join(map(str, params.steps))]))
            ts = [Gaussian.of(c) * t for c, t in zip(point, params.steps)]
            want = exact_product([(2 - x) / (2 + x) for x in ts])
            assert abs(Gaussian.of(got) - want) <= ACCURACY * abs(want)


class TestFactoredFunctions:
    def test_vandermonde_exact_and_complex(self):
        assert vandermonde((1, 2, 3)) == 1 * 2 * 3 * (2 - 1) * (3 - 1) * (3 - 2)
        assert isinstance(vandermonde((1, Fraction(1, 2))), Fraction)
        assert isinstance(vandermonde((1, 2j)), complex)

    def test_complex_zero_factor_times_infinity_is_not_finite(self):
        # 0 * inf is nan in floating point: a repeated coordinate must not
        # short-circuit the complex product to 0
        assert not cmath.isfinite(vandermonde([1, 1, complex(math.inf)]))

    def test_z_pole(self):
        with pytest.raises(EvaluationPoleError):
            factored_value((1, 0))
        with pytest.raises(EvaluationPoleError):
            factored_value((1 + 1j, 0j))

    def test_s_pole(self):
        params = TustinParams(2, (Fraction(1, 2), 1))
        with pytest.raises(EvaluationPoleError):
            factored_laplace_value((-4, 1), params)
        with pytest.raises(EvaluationPoleError):
            factored_laplace_value((1, -2 + 0j), params)

    @pytest.mark.parametrize("dim", [1, 7])
    def test_z_dimension_window(self, dim):
        with pytest.raises(UnsupportedDimensionError):
            factored_value((1,) * dim)

    @pytest.mark.parametrize("dim", [1, 6])
    def test_s_dimension_window(self, dim):
        with pytest.raises(UnsupportedDimensionError):
            factored_laplace_value((1,) * dim, TustinParams.uniform(dim))

    def test_s_steps_must_match_point(self):
        with pytest.raises(InputDomainError):
            factored_laplace_value((1, 2, 3), TustinParams.uniform(2))


def test_eval_builds_no_expanded_form(monkeypatch):
    # every LaurentPoly is filled through algebra._fill, so eval builds no
    # polynomial at all: no transform, factored or expanded, and no pole product
    def refuse(*args, **kwargs):
        raise AssertionError("eval built a polynomial")

    monkeypatch.setattr("zeps.algebra._fill", refuse)
    assert eval_stdout(["eval", "--domain", "z", "--dim", "6", "--point", "1,2,3,4,5,6"])
    for point in ("--point=1/3,1,2,-1,5/2", "--point=0.5+1j,1,2,-1,5/2"):
        assert eval_stdout(["eval", "--domain", "s", "--dim", "5", "--T", "1/2", point])


def key_part(rng: random.Random, kind: type):
    """One half of a moment key: an int, a Fraction or a LaurentPoly in two variables."""
    if kind is int:
        return rng.randint(-6, 6)
    if kind is Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return LaurentPoly(2, {
        (rng.randint(-2, 1), rng.randint(-2, 1)): key_part(rng, Fraction)
        for _ in range(rng.randint(1, 3))
    })


class TestFactoredMomentDet:
    @pytest.mark.parametrize("kind", [LaurentPoly, Fraction, int], ids=lambda kind: kind.__name__)
    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_equals_the_moment_determinant(self, dim, kind):
        # det(moment_matrix(dim, keys)) for keys (a_q, b_q) of each ring type,
        # negative exponents and rational coefficients included
        rng = random.Random(f"{kind.__name__}-{dim}")
        for _ in range(4):
            keys = [(key_part(rng, kind), key_part(rng, kind)) for _ in range(dim)]
            factored = factored_moment_det(keys)
            assert factored == det(moment_matrix(len(keys), keys))
            assert type(factored) is kind


def loop_vandermonde(xs) -> complex:
    """The interleaved loop ``vandermonde`` ran before the difference-product kernel."""
    values = [complex(x) for x in xs]
    product = complex(1)
    for j, x in enumerate(values):
        product *= x
        for earlier in values[:j]:
            product *= x - earlier
    return product


class TestDifferenceProduct:
    def test_integers_stay_integers(self):
        value = difference_product(range(1, 6))
        assert type(value) is int and value == 1 * 2 * 6 * 24

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_matches_power_determinant(self, dim):
        # det[x_q^r] over r = 1..N is prod x_q times the difference product
        rng = random.Random(dim)
        for _ in range(5):
            xs = rational_point(rng, dim)
            matrix = [[x**r for x in xs] for r in range(1, dim + 1)]
            assert difference_product(xs) * math.prod(xs) == det(matrix)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_complex_vandermonde_is_bit_identical_to_the_loop(self, dim):
        rng = random.Random(100 + dim)
        specials = (0.0, -0.0, 1e150, -1e-150, 1e-150)

        def part() -> float:
            return rng.choice(specials) if rng.random() < 0.2 else rng.uniform(-3, 3)

        for _ in range(500):
            xs = [complex(part(), part()) for _ in range(dim)]
            got, want = vandermonde(xs), loop_vandermonde(xs)
            assert repr(got) == repr(want), xs
