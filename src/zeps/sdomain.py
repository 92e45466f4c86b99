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

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, ClassVar, Sequence

from .algebra import (
    EXACT_SCALARS,
    LATEX_FRACTION,
    LaurentPoly,
    RationalFn,
    ScaledForm,
    det,
    exact_repr,
    json_number,
    quoted,
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


@dataclass(frozen=True)
class TustinParams:
    """Per-dimension positive step constants T_q for the bilinear map."""

    dim: int
    steps: tuple[Fraction, ...]

    __repr__ = exact_repr

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
    outside.  Exact inputs stay exact, others become ``complex``; the
    map is singular where u = 2 - T*s vanishes, at s = 2/T.
    """
    params = TustinParams(1, (T,))
    ((u, v),) = _tustin_keys(params, (s,))
    if u == 0:
        raise MapSingularityError(
            f"bilinear map is singular at s = 2/T = {rational_text(2 / params.steps[0])}"
        )
    return v / u


def _tustin_keys(params: TustinParams, xs: Sequence | None = None) -> list[tuple]:
    """Tustin's pair (u_q, v_q) = (2 - T_q s_q, 2 + T_q s_q) for q = 1..dim.

    With no ``xs`` the pair is polynomial in s_1..s_dim: the moment keys
    and pole factors.  Given a point ``xs`` it is the pair's values
    there: an exact coordinate stays exact, any other becomes ``complex``.
    """
    if xs is None:
        xs = [LaurentPoly.variable(params.dim, q) for q in range(1, params.dim + 1)]
    else:
        xs = [x if isinstance(x, EXACT_SCALARS) else complex(x) for x in xs]
    return [(2 - step * x, 2 + step * x) for step, x in zip(params.steps, xs)]


def _denominator_product(params: TustinParams) -> LaurentPoly:
    """prod_q (2 + T_q s_q)^dim, expanded: the pole product of every Laplace form.

    Each ``LaplaceResult`` expands it once, on the first read of its
    ``body``; nothing shares it between results.  At dim 5 it has 7,776
    terms.
    """
    return math.prod(v**params.dim for _, v in _tustin_keys(params))


def r_sum(dim: int, p: int, q: int, params: TustinParams) -> RationalFn:
    """Bilinear image of the power-moment sum:
    R(p, q) = sum_{r=1}^{dim} ((2 - T_q s_q)/(2 + T_q s_q))^r r^p.

    Assembled over the common denominator (2 + T_q s_q)^dim, so the
    numerator is sum_r r^p (2 - T_q s_q)^r (2 + T_q s_q)^(dim - r), the
    ``moment_matrix`` entry for Tustin's key.
    """
    params = _laplace_params(dim, params)
    require_moment(dim, p, q)
    key = _tustin_keys(params)[q - 1]
    return RationalFn(moment_matrix(dim, [key])[p][0], key[1] ** dim)


@dataclass(frozen=True, repr=False)
class LaplaceResult(ScaledForm):
    """One Laplace-domain closed form: ``scale * numerator / pole product``.

    Every Laplace form divides by the pole product
    prod_q (2 + T_q s_q)^dim, which the steps alone determine, so a
    result stores only its numerator and ``params``.  ``body`` is the
    :class:`RationalFn` over the expanded pole product, built on its
    first read; its denominator vanishes only on the hyperplanes
    T_q s_q = -2.
    """

    numerator: LaurentPoly
    params: TustinParams

    prefix: ClassVar[str] = "s"

    @cached_property
    def body(self) -> RationalFn:
        return RationalFn(self.numerator, _denominator_product(self.params))

    def to_latex(self) -> str:
        """LaTeX with the denominator as Tustin's pole factors, each (2 + T_q s_q)^dim."""
        names = self.latex_names()
        numerator = self.numerator.to_latex(names)
        denominator = " ".join(
            f"\\left({v.to_latex(names)}\\right)^{{{self.dim}}}"
            for _, v in _tustin_keys(self.params)
        )
        return self._scaled(LATEX_FRACTION.format(numerator, denominator), "{} \\, {}")

    def _json_fields(self) -> dict:
        return {
            "dim": self.dim,
            "T": [json_number(t) for t in self.params.steps],
            "scale": json_number(self.scale),
            "numerator": self.numerator,
            "denominator": self.body.den,
        }


def _laplace_params(dim: int, params: TustinParams | None) -> TustinParams:
    """The steps for a Laplace form of ``dim``, after checking its window.

    No ``params`` means T_q = 1 in every dimension.
    """
    require_dim(dim, MAX_LAPLACE_DIM)
    if params is None:
        return TustinParams.uniform(dim)
    if params.dim != dim:
        raise InputDomainError(
            f"step constants are for dimension {params.dim}, expected {dim}"
        )
    return params


def laplace_determinant(dim: int, params: TustinParams | None = None) -> LaplaceResult:
    """Laplace-domain transform as the scaled determinant over R(p, q) entries.

    Exactly the Z-domain determinant with every moment sum replaced by
    its bilinear image; agrees with evaluating the Z-domain form at
    z_q = tustin_map(s_q, T_q).  Column q of the matrix shares the
    denominator (2 + T_q s_q)^dim, so the determinant is taken over the
    ``moment_matrix`` numerators for Tustin's keys and divided once by
    the pole product.
    """
    params = _laplace_params(dim, params)
    numerators = moment_matrix(dim, _tustin_keys(params))
    return LaplaceResult(dim, Fraction(1, scale_constant(dim)), det(numerators), params)


def factored_laplace(dim: int, params: TustinParams | None = None) -> LaplaceResult:
    """The Laplace determinant's closed form: ``factored_moment_det`` over its keys.

    The numerator determinant of ``laplace_determinant`` is taken over
    ``moment_matrix`` for Tustin's keys (2 - T_q s_q, 2 + T_q s_q), so its
    Vandermonde factors come from the same keys.  The result equals
    ``laplace_determinant(dim, params)`` term for term: same scale, same
    numerator, same pole product.
    """
    params = _laplace_params(dim, params)
    numerator = factored_moment_det(dim, _tustin_keys(params))
    return LaplaceResult(dim, Fraction(1, scale_constant(dim)), numerator, params)


def _bilinear_images(coords: Sequence, params: TustinParams) -> list:
    """w_q = u_q / v_q at ``coords``, the bilinear image of z_q^{-1}.

    Exact coordinates give exact images, others complex ones.  A
    coordinate on its pole hyperplane T_q s_q = -2 raises
    :class:`EvaluationPoleError`.
    """
    images = []
    for q, (u, v) in enumerate(_tustin_keys(params, coords), start=1):
        if v == 0:
            raise EvaluationPoleError(f"point sits on the pole hyperplane T_{q} s_{q} = -2")
        images.append(u / v)
    return images


def factored_laplace_value(
    point: Sequence, params: TustinParams | None = None
) -> "Fraction | complex":
    """The Laplace image at ``point`` from its factors, building nothing.

    Tustin's map sends z_q^{-1} to w_q = (2 - T_q s_q)/(2 + T_q s_q),
    so the image is the Z-domain product prod_q w_q prod_{i<j} (w_j - w_i)
    in O(N^2) operations.  It equals
    ``laplace_determinant(N, params).evaluate(point)`` exactly at exact
    points, and avoids the cancellation between the expanded terms at
    complex ones.
    """
    coords = tuple(point)
    return vandermonde(_bilinear_images(coords, _laplace_params(len(coords), params)))


def laplace_2d_closed(params: TustinParams) -> LaplaceResult:
    """Direct two-dimensional closed form (uniform step T):

        4T (s1 - s2) (T s1 - 2)(T s2 - 2) / ((T s1 + 2)^2 (T s2 + 2)^2)

    Equal to the body of ``laplace_determinant(2, params)`` term for term.
    """
    if params.dim != 2:
        raise InputDomainError(f"closed 2-D form needs dimension 2, got {params.dim}")
    if not params.is_uniform:
        raise InputDomainError("closed 2-D form is stated for a single uniform T")
    step = params.steps[0]
    s1 = LaurentPoly.variable(2, 1)
    s2 = LaurentPoly.variable(2, 2)
    numerator = (
        (4 * step)
        * (s1 - s2)
        * (step * s1 - 2)
        * (step * s2 - 2)
    )
    return LaplaceResult(2, Fraction(1), numerator, params)


def laplace_compact_3d(params: TustinParams | None = None) -> Callable:
    """Numeric evaluator for the gamma-indexed three-dimensional form.

    Returns a function of one s-point computing the paper's quintuple sum
        (1/2) sum_{m=1}^{3} sum_{k=1}^{2} sum_{r1,r2,r3=1}^{3}
            w_1^{r1} w_{k+1}^{r2} w_{4-k}^{r3}
            (-1)^{k+m} r1^{m-1} r2^{G(m)-m+1} r3^{3-G(m)}
    with w_q = (2 - T_q s_q)/(2 + T_q s_q).  The sums over r1, r2, r3
    are the moment sums of the keys (w_q, 1), so it is evaluated as
    ``compact_sum_3d`` over those numeric moments; it agrees with
    ``laplace_determinant(3, params)`` at every nonsingular point.
    """
    params = _laplace_params(3, params)

    def evaluate(point: Sequence) -> "Fraction | complex":
        coords = tuple(point)
        if len(coords) != 3:
            raise InputDomainError(f"point must have 3 coordinates, got {len(coords)}")
        moments = moment_matrix(3, [(w, 1) for w in _bilinear_images(coords, params)])
        return Fraction(1, 2) * compact_sum_3d(moments)

    return evaluate


@dataclass(frozen=True)
class PoleZeroReport:
    """Pole/zero structure of the two-dimensional Laplace transform.

    ``poles`` and ``intra_zeros`` hold one (location, multiplicity)
    pair per dimension, with exact rational locations; ``inter_zeros``
    describes zeros living on relations between variables.
    """

    dim: int
    step: Fraction
    poles: tuple[tuple[Fraction, int], ...]
    intra_zeros: tuple[tuple[Fraction, int], ...]
    inter_zeros: tuple[str, ...]

    def to_text(self) -> str:
        lines = [f"pole/zero report (dim={self.dim}, T={rational_text(self.step)})"]
        for q in range(self.dim):
            pole, pole_mult = self.poles[q]
            zero, zero_mult = self.intra_zeros[q]
            lines.append(
                f"  dimension {q + 1}: pole at {rational_text(pole)} (multiplicity {pole_mult}); "
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
            "dim": self.dim,
            "T": json_number(self.step),
            "poles": sites(self.poles),
            "intra_zeros": sites(self.intra_zeros),
            "inter_zeros": list(self.inter_zeros),
        }


def pole_zero_report_2d(params: TustinParams) -> PoleZeroReport:
    """Pole/zero structure of the 2-D transform for a uniform step T.

    The Z-domain poles at the origin land at s_q = -2/T with their
    multiplicity (2) intact; new intra-dimensional zeros appear at
    s_q = +2/T, and the inter-dimensional zero on s_1 = s_2 survives
    the map.
    """
    if params.dim != 2:
        raise InputDomainError(f"pole/zero report covers dimension 2, got {params.dim}")
    if not params.is_uniform:
        raise InputDomainError("pole/zero report is stated for a single uniform T")
    step = params.steps[0]
    pole = Fraction(-2) / step
    zero = Fraction(2) / step
    return PoleZeroReport(
        dim=2,
        step=step,
        poles=((pole, 2), (pole, 2)),
        intra_zeros=((zero, 1), (zero, 1)),
        inter_zeros=("s1 = s2",),
    )
