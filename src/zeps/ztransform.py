"""Z-domain closed forms for the Levi-Civita symbol.

The N-dimensional transform attaches one complex variable z_q to each
tensor slot and sums the symbol over all N**N index tuples against
z_1^{-n_1} ... z_N^{-n_N}.  Because the symbol is a scaled Vandermonde
product in its indices, that full sum collapses, by multilinearity in
the columns, to a scaled determinant of power-moment sums
S(p, q) = sum_{r=1}^{N} r^p z_q^{-r}.  Both routes are built here --
the brute-force summation as the oracle and the determinant as the
canonical closed form -- together with a gamma-indexed double-sum
variant special to three dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence

from .algebra import (
    LaurentPoly, ScaledForm, det, difference_product, json_number, latex_number, vandermonde,
)
from .epsilon import enumerate_indices, gamma_int, sign_oracle
from .errors import EvaluationPoleError, InputDomainError, UnsupportedDimensionError

MIN_DIM = 2
MAX_DIM = 6


def require_dim(dim: int, high: int | None = None) -> None:
    """Reject any dimension that is not an integer in [MIN_DIM, high]."""
    if not isinstance(dim, int) or dim < MIN_DIM or (high is not None and dim > high):
        window = f"in [{MIN_DIM}, {high}]" if high is not None else f">= {MIN_DIM}"
        raise UnsupportedDimensionError(
            f"dimension must be an integer {window}, got {dim!r}"
        )


def require_moment(dim: int, p: int, q: int) -> None:
    """Reject a moment order p outside [0, dim-1] or a variable q outside [1, dim]."""
    if not isinstance(p, int) or not 0 <= p <= dim - 1:
        raise InputDomainError(f"moment order p must lie in [0, {dim - 1}], got {p!r}")
    if not isinstance(q, int) or not 1 <= q <= dim:
        raise InputDomainError(f"variable index q must lie in [1, {dim}], got {q!r}")


@dataclass(frozen=True)
class ROCSpec:
    """Region-of-convergence metadata: one nonzero-modulus constraint per variable.

    All transforms here are finite Laurent polynomials, so the only
    genuine singularities sit at z_q = 0; the constraints record that
    and nothing more.
    """

    dim: int
    constraints: tuple[str, ...]


def roc(dim: int) -> ROCSpec:
    """Per-dimension constraint set ``z_q != 0`` for q = 1..dim."""
    require_dim(dim)
    return ROCSpec(dim, tuple(f"z{q} != 0" for q in range(1, dim + 1)))


@dataclass(frozen=True)
class TransformResult(ScaledForm):
    """One closed-form Z-domain transform: ``scale * body`` plus ROC metadata.

    ``body`` is a Laurent polynomial in z_1..z_dim whose exponents all
    lie in [-dim, -1] per variable (the summation window is 1..dim).
    """

    roc: ROCSpec

    prefix: ClassVar[str] = "z"

    def expanded(self) -> LaurentPoly:
        """The transform as a single canonical polynomial, scale folded in."""
        return self.scale * self.body

    def to_latex(self) -> str:
        body = self.body.to_latex(self.latex_names())
        if self.scale == 1:
            return body
        return f"{latex_number(self.scale)} \\left( {body} \\right)"

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "scale": json_number(self.scale),
            "body": self.body.to_json_dict(),
            "roc": list(self.roc.constraints),
        }


def heaviside(n: int, n0: int) -> int:
    """Discrete unit step: 0 while n < n0, 1 from n0 on."""
    return 0 if n < n0 else 1


def s_sum(dim: int, p: int, q: int) -> LaurentPoly:
    """Power-moment sum S(p, q) = sum_{r=1}^{dim} r^p z_q^{-r}.

    This is the single-variable transform of n^p gated to the window
    1..dim by a pair of step functions; it lives in the full
    dim-variable ring so matrix entries for different q multiply
    directly.
    """
    require_dim(dim, MAX_DIM)
    require_moment(dim, p, q)
    terms = {}
    for r in range(1, dim + 1):
        exponents = [0] * dim
        exponents[q - 1] = -r
        terms[tuple(exponents)] = Fraction(r**p)
    return LaurentPoly(dim, terms)


def scale_constant(dim: int) -> int:
    """Denominator of the symbol's product form at the identity tuple.

    The difference product prod_{i<j} (j - i) over 1..dim, which equals
    the factorial product 1! * 2! * ... * (dim-1)!.
    """
    require_dim(dim)
    return difference_product(range(1, dim + 1))


def brute_force_ztransform(dim: int) -> TransformResult:
    """Oracle transform: direct summation over all dim**dim index tuples.

    Exactly dim! tuples survive (the permutations), each contributing a
    distinct monomial with coefficient +/-1.
    """
    require_dim(dim, MAX_DIM)
    terms = {}
    for idx in enumerate_indices(dim):
        sign = sign_oracle(idx)
        if sign:
            terms[tuple(-n for n in idx)] = Fraction(sign)
    return TransformResult(dim, Fraction(1), LaurentPoly(dim, terms), roc(dim))


def determinant_ztransform(dim: int) -> TransformResult:
    """Canonical closed form: scaled determinant of the moment-sum matrix.

    Entry (row p, column q) of the dim x dim matrix is s_sum(dim, p, q)
    with p = 0..dim-1 down the rows and q = 1..dim across the columns;
    the determinant divided by ``scale_constant(dim)`` reproduces the
    brute-force transform exactly.
    """
    require_dim(dim, MAX_DIM)
    matrix = [[s_sum(dim, p, q) for q in range(1, dim + 1)] for p in range(dim)]
    body = det(matrix)
    return TransformResult(dim, Fraction(1, scale_constant(dim)), body, roc(dim))


def factored_value(point: Sequence) -> "Fraction | complex":
    """The transform at ``point`` from its factors, building nothing.

    The determinant is a Vandermonde determinant in x_q = 1/z_q, so
    E(z) = prod_q x_q prod_{i<j} (x_j - x_i) in O(N^2) operations.  It
    equals ``determinant_ztransform(N).evaluate(point)`` exactly at exact
    points, and avoids the cancellation between the expanded terms at
    complex ones.  A zero coordinate raises :class:`EvaluationPoleError`.
    """
    coords = tuple(point)
    require_dim(len(coords), MAX_DIM)
    for q, z in enumerate(coords, start=1):
        if z == 0:
            raise EvaluationPoleError(f"z{q} = 0 is a pole of the transform")
    return vandermonde([Fraction(1) / z for z in coords])


def compact_form_3d() -> TransformResult:
    """Gamma-indexed double-sum form of the three-dimensional transform.

    Expands the 3x3 determinant down its first column as
    (1/2) * sum_{m=1}^{3} sum_{k=1}^{2} (-1)^{m+k}
        S(m-1, 1) * S(G(m)-m+1, k+1) * S(3-G(m), 4-k)
    with G the integer gamma function; the result equals
    ``determinant_ztransform(3)`` term for term.
    """
    total = LaurentPoly.zero(3)
    for m in (1, 2, 3):
        g = gamma_int(m)
        for k in (1, 2):
            sign = (-1) ** (m + k)
            product = (
                s_sum(3, m - 1, 1)
                * s_sum(3, g - m + 1, k + 1)
                * s_sum(3, 3 - g, 4 - k)
            )
            total = total + sign * product
    return TransformResult(3, Fraction(1, 2), total, roc(3))
