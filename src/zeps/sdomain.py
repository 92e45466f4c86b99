"""Laplace-domain forms obtained through Tustin's bilinear map.

Substituting z_q = (1 + s_q*T_q/2)/(1 - s_q*T_q/2) into the Z-domain
moment sums turns each S(p, q) into the rational function
R(p, q) = sum_{r=1}^{N} ((2 - T_q*s_q)/(2 + T_q*s_q))^r * r^p,
and the transform determinant into a determinant over these entries.
Over the common denominator (2 + T_q*s_q)^N, R(p, q) is the Z-domain
moment sum with the key (2 - T_q*s_q, 2 + T_q*s_q) in place of
(z_q^{-1}, 1), so ``ztransform.moment_matrix`` builds both, and
``ztransform.factored_moment_det`` expands both determinants from their
Vandermonde factors.
Every denominator is a power of (2 + T_q*s_q), so the poles sit on the
hyperplanes s_q = -2/T_q; the unit-circle/imaginary-axis geometry of
the bilinear map carries intra-dimensional stability across unchanged.

Step constants are exact rationals throughout.  ``float`` steps are
accepted and converted to their exact binary value, so the symbolic
path never leaves rational arithmetic.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property

from .algebra import (
    EXACT_SCALARS,
    LATEX_FRACTION,
    LaurentPoly,
    RationalFn,
    Record,
    ScaledForm,
    det,
    json_number,
    json_pieces,
    laid_out,
    quoted,
    quotient,
    rational_text,
    read_rational,
    vandermonde,
)
from .errors import EvaluationPoleError, InputDomainError, MapSingularityError
from .ztransform import (
    compact_sum_3d, factored_moment_det, moment_matrix, require_dim, require_moment, scale_constant,
)

MAX_LAPLACE_DIM = 5


def _as_step(value) -> Fraction:
    if isinstance(value, str):
        step = read_rational(value)
    elif isinstance(value, float) and not math.isfinite(value):
        step = None
    elif isinstance(value, (int, float, Fraction)):
        step = Fraction(value)
    else:
        raise InputDomainError(
            f"step constants must be rational numbers, got {type(value).__name__}"
        )
    if step is None:
        raise InputDomainError(f"cannot read step constant from {quoted(value)}")
    if step <= 0:
        raise InputDomainError(f"step constants must be positive, got {rational_text(step)}")
    return step


class TustinParams(Record):
    """Per-dimension positive step constants T_q for the bilinear map."""

    dim: int
    steps: tuple[Fraction, ...]

    def __post_init__(self):
        if not isinstance(self.dim, int) or self.dim < 1:
            raise InputDomainError(f"dimension must be a positive integer, got {self.dim!r}")
        steps = tuple(_as_step(t) for t in self.steps)
        if len(steps) != self.dim:
            raise InputDomainError(
                f"need one step constant per dimension ({self.dim}), got {len(steps)}"
            )
        object.__setattr__(self, "steps", steps)

    @classmethod
    def uniform(cls, dim: int, step=1) -> "TustinParams":
        return cls(dim, (step,) * dim)

    @property
    def is_uniform(self) -> bool:
        return len(set(self.steps)) == 1


def tustin_map(s, T):
    """Bilinear map z = (1 + s*T/2)/(1 - s*T/2) = v / u of Tustin's pair.

    Approximates z = exp(s*T): the imaginary axis lands on the unit
    circle, the left half-plane inside it, the right half-plane
    outside.  Exact inputs stay exact, others become ``complex``, and a
    complex T*s past the float range maps to the limit -1.  The map is
    singular where u = 2 - T*s vanishes, at s = 2/T.
    """
    step = _as_step(T)
    ((u, v),) = _tustin_keys((step,), (s,))
    if u == 0:
        raise MapSingularityError(
            f"bilinear map is singular at s = 2/T = {rational_text(2 / step)}"
        )
    return _pair_ratio(v, u)


def _tustin_keys(steps: Sequence[Fraction], xs: Sequence | None = None) -> list[tuple]:
    """Tustin's pair (u_q, v_q) = (2 - T_q s_q, 2 + T_q s_q) for q = 1..len(steps).

    With no ``xs`` the pair is polynomial in s_1..s_N, N = len(steps): the
    moment keys and pole factors.  Given a point ``xs`` it is the pair's
    values there: an exact coordinate stays exact, any other becomes
    ``complex``.
    """
    if xs is None:
        xs = [LaurentPoly.variable(len(steps), q) for q in range(1, len(steps) + 1)]
    else:
        xs = [x if isinstance(x, EXACT_SCALARS) else complex(x) for x in xs]
    return [(2 - step * x, 2 + step * x) for step, x in zip(steps, xs)]


def _pair_ratio(top, bottom):
    """``top / bottom`` of one Tustin pair, either way up.

    The pair sums to 4, so the ratio tends to -1 as T s grows.  Where a
    complex T s overflowed, both parts are infinite and the ratio is
    that limit; finite complex parts near the float maximum are divided
    by ``quotient``, and exact values never overflow.
    """
    if isinstance(top, complex) and cmath.isinf(top) and cmath.isinf(bottom):
        return complex(-1)
    return quotient(top, bottom)


def _denominator_product(params: TustinParams) -> LaurentPoly:
    """prod_q (2 + T_q s_q)^dim, expanded: the pole product of every Laplace form.

    Each ``LaplaceResult`` expands it once, on the first read of its
    ``body``; nothing shares it between results.  At dim 5 it has 7,776
    terms.
    """
    return math.prod(v**params.dim for _, v in _tustin_keys(params.steps))


def r_sum(p: int, q: int, params: TustinParams) -> RationalFn:
    """Bilinear image of the power-moment sum:
    R(p, q) = sum_{r=1}^{dim} ((2 - T_q s_q)/(2 + T_q s_q))^r r^p, dim = params.dim.

    Assembled over the common denominator (2 + T_q s_q)^dim, so the
    numerator is sum_r r^p (2 - T_q s_q)^r (2 + T_q s_q)^(dim - r), the
    ``moment_matrix`` entry for Tustin's key.
    """
    dim = _laplace_dim(params)
    require_moment(dim, p, q)
    key = _tustin_keys(params.steps)[q - 1]
    return RationalFn(moment_matrix(dim, [key])[p][0], key[1] ** dim)


class LaplaceResult(ScaledForm):
    """One Laplace-domain closed form: ``scale * numerator / pole product``.

    Every Laplace form divides by the pole product
    prod_q (2 + T_q s_q)^dim, which the steps alone determine, so a
    result stores only its numerator and ``params``, whose dimension must
    be the numerator's arity and lie in the Laplace window.  ``body`` is the
    :class:`RationalFn` over the expanded pole product, built on its
    first read; its denominator vanishes only on the hyperplanes
    T_q s_q = -2.
    """

    numerator: LaurentPoly
    params: TustinParams

    prefix = "s"

    def __post_init__(self):
        _steps_for(self.numerator.arity, self.params)

    @property
    def dim(self) -> int:
        """The numerator's arity; read without expanding the pole product."""
        return self.numerator.arity

    @cached_property
    def body(self) -> RationalFn:
        return RationalFn(self.numerator, _denominator_product(self.params))

    def latex_pieces(self) -> Iterator[str]:
        """LaTeX with the denominator as Tustin's pole factors, each (2 + T_q s_q)^dim."""
        names = self.latex_names()
        denominator = " ".join(
            f"\\left({v.to_latex(names)}\\right)^{{{self.dim}}}"
            for _, v in _tustin_keys(self.params.steps)
        )
        fraction = laid_out(LATEX_FRACTION, self.numerator.latex_pieces(names), denominator)
        return self._scaled(fraction, "{} \\, {}")

    def _json_fields(self) -> dict:
        return {
            "dim": self.dim,
            "T": [json_number(t) for t in self.params.steps],
            "scale": json_number(self.scale),
            "numerator": self.numerator,
            "denominator": self.body.den,
        }


def _laplace_dim(params: TustinParams) -> int:
    """The dimension of the Laplace forms over ``params``, after checking its window."""
    require_dim(params.dim, MAX_LAPLACE_DIM)
    return params.dim


def _steps_for(dim: int, params: TustinParams) -> TustinParams:
    """``params``, checked to hold one step for each of ``dim`` coordinates."""
    if _laplace_dim(params) != dim:
        raise InputDomainError(f"step constants are for dimension {params.dim}, expected {dim}")
    return params


def laplace_determinant(params: TustinParams) -> LaplaceResult:
    """Laplace-domain transform as the scaled determinant over R(p, q) entries.

    Exactly the Z-domain determinant with every moment sum replaced by
    its bilinear image; agrees with evaluating the Z-domain form at
    z_q = tustin_map(s_q, T_q).  Column q of the matrix shares the
    denominator (2 + T_q s_q)^dim, so the determinant is taken over the
    ``moment_matrix`` numerators for Tustin's keys and divided once by
    the pole product.
    """
    dim = _laplace_dim(params)
    numerators = moment_matrix(dim, _tustin_keys(params.steps))
    return LaplaceResult(Fraction(1, scale_constant(dim)), det(numerators), params)


def factored_laplace(params: TustinParams) -> LaplaceResult:
    """The Laplace determinant's closed form: ``factored_moment_det`` over its keys.

    The numerator determinant of ``laplace_determinant`` is taken over
    ``moment_matrix`` for Tustin's keys (2 - T_q s_q, 2 + T_q s_q), so its
    Vandermonde factors come from the same keys.  The result equals
    ``laplace_determinant(params)`` term for term: same scale, same
    numerator, same pole product.
    """
    scale = Fraction(1, scale_constant(_laplace_dim(params)))
    return LaplaceResult(scale, factored_moment_det(_tustin_keys(params.steps)), params)


def _bilinear_images(coords: Sequence, params: TustinParams) -> list:
    """w_q = u_q / v_q at ``coords``, the bilinear image of z_q^{-1}.

    Exact coordinates give exact images, others complex ones.  A
    coordinate on its pole hyperplane T_q s_q = -2 raises
    :class:`EvaluationPoleError`.
    """
    images = []
    for q, (u, v) in enumerate(_tustin_keys(params.steps, coords), start=1):
        if v == 0:
            raise EvaluationPoleError(f"point sits on the pole hyperplane T_{q} s_{q} = -2")
        images.append(_pair_ratio(u, v))
    return images


def factored_laplace_value(point: Sequence, params: TustinParams) -> "Fraction | complex":
    """The Laplace image at ``point`` from its factors, building nothing.

    Tustin's map sends z_q^{-1} to w_q = (2 - T_q s_q)/(2 + T_q s_q),
    so the image is the Z-domain product prod_q w_q prod_{i<j} (w_j - w_i)
    in O(N^2) operations.  It equals
    ``laplace_determinant(params).evaluate(point)`` exactly at exact
    points, and avoids the cancellation between the expanded terms at
    complex ones.
    """
    coords = tuple(point)
    return vandermonde(_bilinear_images(coords, _steps_for(len(coords), params)))


def _single_2d_step(params: TustinParams, form: str) -> Fraction:
    """The one step T of a 2-D ``form`` that is stated for a single uniform T."""
    if params.dim != 2:
        raise InputDomainError(f"{form} needs dimension 2, got {params.dim}")
    if not params.is_uniform:
        raise InputDomainError(f"{form} is stated for a single uniform T")
    return params.steps[0]


def laplace_2d_closed(params: TustinParams) -> LaplaceResult:
    """Direct two-dimensional closed form (uniform step T):

        4T (s1 - s2) (T s1 - 2)(T s2 - 2) / ((T s1 + 2)^2 (T s2 + 2)^2)

    Equal to the body of ``laplace_determinant(params)`` term for term.
    """
    step = _single_2d_step(params, "closed 2-D form")
    s1 = LaurentPoly.variable(2, 1)
    s2 = LaurentPoly.variable(2, 2)
    numerator = (
        (4 * step)
        * (s1 - s2)
        * (step * s1 - 2)
        * (step * s2 - 2)
    )
    return LaplaceResult(Fraction(1), numerator, params)


def laplace_compact_3d(params: TustinParams) -> Callable:
    """Numeric evaluator for the gamma-indexed three-dimensional form.

    Returns a function of one s-point computing the paper's quintuple sum
        (1/2) sum_{m=1}^{3} sum_{k=1}^{2} sum_{r1,r2,r3=1}^{3}
            w_1^{r1} w_{k+1}^{r2} w_{4-k}^{r3}
            (-1)^{k+m} r1^{m-1} r2^{G(m)-m+1} r3^{3-G(m)}
    with w_q = (2 - T_q s_q)/(2 + T_q s_q).  The sums over r1, r2, r3
    are the moment sums of the keys (w_q, 1), so it is evaluated as
    ``compact_sum_3d`` over those numeric moments; it agrees with
    ``laplace_determinant(params)`` at every nonsingular point.
    """
    params = _steps_for(3, params)

    def evaluate(point: Sequence) -> "Fraction | complex":
        coords = tuple(point)
        if len(coords) != 3:
            raise InputDomainError(f"point must have 3 coordinates, got {len(coords)}")
        moments = moment_matrix(3, [(w, 1) for w in _bilinear_images(coords, params)])
        return Fraction(1, 2) * compact_sum_3d(moments)

    return evaluate


class PoleZeroReport(Record):
    """Pole/zero structure of the two-dimensional Laplace transform.

    ``poles`` and ``intra_zeros`` hold one (location, multiplicity)
    pair per dimension, with exact rational locations; ``inter_zeros``
    describes zeros living on relations between variables.
    """

    step: Fraction
    poles: tuple[tuple[Fraction, int], ...]
    intra_zeros: tuple[tuple[Fraction, int], ...]
    inter_zeros: tuple[str, ...]

    def to_text(self) -> str:
        lines = [f"pole/zero report (dim={len(self.poles)}, T={rational_text(self.step)})"]
        for q, ((pole, pole_mult), (zero, zero_mult)) in enumerate(
            zip(self.poles, self.intra_zeros), start=1
        ):
            lines.append(
                f"  dimension {q}: pole at {rational_text(pole)} (multiplicity {pole_mult}); "
                f"zero at {rational_text(zero)} (multiplicity {zero_mult})"
            )
        for description in self.inter_zeros:
            lines.append(f"  inter-dimensional zero: {description}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        def sites(pairs):
            return [
                {"dimension": q + 1, "location": json_number(loc), "multiplicity": mult}
                for q, (loc, mult) in enumerate(pairs)
            ]

        return {
            "dim": len(self.poles),
            "T": json_number(self.step),
            "poles": sites(self.poles),
            "intra_zeros": sites(self.intra_zeros),
            "inter_zeros": list(self.inter_zeros),
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2)``, byte for byte."""
        return "".join(json_pieces(self.to_json_dict()))


def pole_zero_report_2d(params: TustinParams) -> PoleZeroReport:
    """Pole/zero structure of the 2-D transform for a uniform step T.

    The Z-domain poles at the origin land at s_q = -2/T with their
    multiplicity (2) intact; new intra-dimensional zeros appear at
    s_q = +2/T, and the inter-dimensional zero on s_1 = s_2 survives
    the map.
    """
    step = _single_2d_step(params, "pole/zero report")
    pole = Fraction(-2) / step
    zero = Fraction(2) / step
    return PoleZeroReport(
        step=step,
        poles=((pole, 2), (pole, 2)),
        intra_zeros=((zero, 1), (zero, 1)),
        inter_zeros=("s1 = s2",),
    )
