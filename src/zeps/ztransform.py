"""Z-domain closed forms for the Levi-Civita symbol.

The N-dimensional transform attaches one complex variable z_q to each
tensor slot and sums the symbol over all N**N index tuples against
z_1^{-n_1} ... z_N^{-n_N}.  Because the symbol is a scaled Vandermonde
product in its indices, that full sum collapses, by multilinearity in
the columns, to a scaled determinant of power-moment sums
S(p, q) = sum_{r=1}^{N} r^p z_q^{-r}, and that determinant is itself a
Vandermonde product in x_q = 1/z_q.  The factored product is expanded
for output; the brute-force summation, the determinant and a
gamma-indexed double-sum variant special to three dimensions are the
paper's routes, kept as independent oracles for it.  Every moment sum,
here and in the Laplace domain, comes from one builder,
``moment_matrix``, and every factored form from its determinant's
closed form, ``factored_moment_det``, over the same keys.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from fractions import Fraction

from .algebra import (
    LaurentPoly, ScaledForm, det, json_number, quotient, sum_of_products, vandermonde)
from .epsilon import _identity_product, _parity, enumerate_indices, gamma_int
from .errors import EvaluationPoleError, InputDomainError, UnsupportedDimensionError

# Unused here; perfbench/tracing.py wraps this name on this module.
from .epsilon import sign_oracle  # noqa: F401

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


class TransformResult(ScaledForm):
    """One closed-form Z-domain transform: ``scale * body``.

    ``body`` is a Laurent polynomial in z_1..z_dim whose exponents all
    lie in [-dim, -1] per variable (the summation window is 1..dim).
    """

    body: LaurentPoly

    prefix = "z"

    @property
    def roc(self) -> tuple[str, ...]:
        """Region of convergence: ``z_q != 0`` for each variable.

        Every transform here is a finite Laurent polynomial, so its only
        singularities sit at z_q = 0.
        """
        return tuple(f"{name} != 0" for name in self.varnames())

    def expanded(self) -> LaurentPoly:
        """The transform as a single canonical polynomial, scale folded in."""
        return self.scale * self.body

    def latex_pieces(self) -> Iterator[str]:
        return self._scaled(self.body.latex_pieces(self.latex_names()), "{} \\left( {} \\right)")

    def _json_fields(self) -> dict:
        return {
            "dim": self.dim,
            "scale": json_number(self.scale),
            "body": self.body,
            "roc": list(self.roc),
        }


def moment_matrix(dim: int, keys: Sequence[tuple]) -> list[list]:
    """Rows p = 0..dim-1 of sum_{r=1}^{dim} r^p a_q^r b_q^(dim-r), one column per key.

    Every paper route reads its moment sums here.  The Z-domain key
    (z_q^{-1}, 1) gives S(p, q); Tustin's key (2 - T_q s_q, 2 + T_q s_q)
    gives the numerator of R(p, q) over (2 + T_q s_q)^dim; a numeric key
    (w, 1) gives the moment sums at one point.  Each column's powers are
    built once, with ``*`` only, and each entry is one ``sum_of_products``
    over them, so polynomial keys build no per-term polynomial and scalar
    keys keep their type.
    """
    columns = []
    for a, b in keys:
        a_powers, b_powers = [a], [1]
        for _ in range(dim - 1):
            a_powers.append(a_powers[-1] * a)
            b_powers.append(b_powers[-1] * b)
        factors = [(r, a_powers[r - 1], b_powers[dim - r]) for r in range(1, dim + 1)]
        columns.append([sum_of_products((r**p, x, y) for r, x, y in factors) for p in range(dim)])
    return [list(row) for row in zip(*columns)]


def factored_moment_det(keys: Sequence[tuple]):
    """det(moment_matrix(N, keys)) from its Vandermonde factors, N = len(keys), in O(N^2) products.

    The moment matrix factors as [r^p] times [a_q^r b_q^(N-r)], with
    r = 1..N.  The first factor's determinant is ``scale_constant(N)``;
    taking a_q out of column q leaves a homogeneous Vandermonde matrix, so
    the determinant is
    scale_constant(N) * prod_q a_q * prod_{i<j} (a_j b_i - a_i b_j).
    Each cross factor is one ``sum_of_products``, so polynomial keys build
    no separate product a_j b_i, and scalar keys keep their type: ``int``
    keys give an ``int``.
    """
    pairs = [(a, b, a_i, b_i) for j, (a, b) in enumerate(keys) for a_i, b_i in keys[:j]]
    cross = [sum_of_products([(1, a, b_i), (-1, a_i, b)]) for a, b, a_i, b_i in pairs]
    return scale_constant(len(keys)) * math.prod([a for a, _ in keys] + cross)


def _z_keys(dim: int) -> list[tuple]:
    """The moment keys (z_q^{-1}, 1) for q = 1..dim, after checking dim's window."""
    require_dim(dim, MAX_DIM)
    return [(LaurentPoly.variable(dim, q, -1), 1) for q in range(1, dim + 1)]


def s_sum(dim: int, p: int, q: int) -> LaurentPoly:
    """Power-moment sum S(p, q) = sum_{r=1}^{dim} r^p z_q^{-r}.

    This is the single-variable transform of n^p gated to the window
    1..dim by a pair of step functions; it lives in the full
    dim-variable ring so matrix entries for different q multiply
    directly.
    """
    keys = _z_keys(dim)
    require_moment(dim, p, q)
    return moment_matrix(dim, keys[q - 1 : q])[p][0]


def scale_constant(dim: int) -> int:
    """Denominator of the symbol's product form at the identity tuple.

    The difference product prod_{i<j} (j - i) over 1..dim, which equals
    the factorial product 1! * 2! * ... * (dim-1)!: the divisor that
    ``epsilon_product`` computes once per dim.
    """
    require_dim(dim)
    return _identity_product(dim)


def brute_force_ztransform(dim: int) -> TransformResult:
    """Oracle transform: direct summation over all dim**dim index tuples.

    Exactly dim! tuples survive (the permutations), each contributing a
    distinct monomial with coefficient +/-1.  Every tuple lies in the
    window by construction, so each goes straight to the parity kernel.
    """
    require_dim(dim, MAX_DIM)
    terms = {}
    for idx in enumerate_indices(dim):
        sign = _parity(idx)
        if sign:
            terms[tuple(-n for n in idx)] = sign
    return TransformResult(Fraction(1), LaurentPoly(dim, terms))


def determinant_ztransform(dim: int) -> TransformResult:
    """The paper's closed form: scaled determinant of the moment-sum matrix.

    Entry (row p, column q) of the dim x dim matrix is S(p, q) from
    ``moment_matrix``, p = 0..dim-1 down and q = 1..dim across; the
    determinant divided by ``scale_constant(dim)`` reproduces the
    brute-force transform exactly.  Built by cofactor expansion on every
    call, it is the oracle that ``factored_ztransform`` is checked
    against; ``verify`` builds it once, in the oracle check.
    """
    body = det(moment_matrix(dim, _z_keys(dim)))
    return TransformResult(Fraction(1, scale_constant(dim)), body)


def factored_ztransform(dim: int) -> TransformResult:
    """The determinant's closed form: ``factored_moment_det`` over its keys.

    With the keys (x_q, 1), x_q = 1/z_q, the determinant is
    ``scale_constant(dim)`` times prod_q x_q prod_{i<j} (x_j - x_i).  The
    result equals ``determinant_ztransform(dim)`` term for term, scale
    included, in O(dim^2) polynomial products instead of a cofactor
    expansion.
    """
    body = factored_moment_det(_z_keys(dim))
    return TransformResult(Fraction(1, scale_constant(dim)), body)


def factored_value(point: Sequence) -> "Fraction | complex":
    """The transform at ``point`` from its factors, building nothing.

    The determinant is a Vandermonde determinant in x_q = 1/z_q, so
    E(z) = prod_q x_q prod_{i<j} (x_j - x_i) in O(N^2) operations.  It
    equals ``determinant_ztransform(N).evaluate(point)`` exactly at exact
    points, and avoids the cancellation between the expanded terms at
    complex ones, whose reciprocals ``quotient`` takes without overflow.
    A zero coordinate raises :class:`EvaluationPoleError`.
    """
    coords = tuple(point)
    require_dim(len(coords), MAX_DIM)
    for q, z in enumerate(coords, start=1):
        if z == 0:
            raise EvaluationPoleError(f"z{q} = 0 is a pole of the transform")
    return vandermonde([quotient(Fraction(1), z) for z in coords])


def compact_sum_3d(moments: Sequence[Sequence]):
    """The paper's gamma-indexed double sum over a 3x3 moment matrix M:

        sum_{m=1}^{3} sum_{k=1}^{2} (-1)^{m+k}
            M(m-1, 1) * M(G(m)-m+1, k+1) * M(3-G(m), 4-k)

    with G the integer gamma function and M(p, q) = ``moments[p][q-1]``.
    It is the determinant of M, expanded down its first column.
    """
    return sum(
        (-1) ** (m + k) * moments[m - 1][0] * moments[g - m + 1][k] * moments[3 - g][3 - k]
        for m in (1, 2, 3)
        for g in (gamma_int(m),)
        for k in (1, 2)
    )


def compact_form_3d() -> TransformResult:
    """Gamma-indexed double-sum form of the three-dimensional transform.

    ``compact_sum_3d`` over the S(p, q) moments, times 1/2; the result
    equals ``determinant_ztransform(3)`` term for term.
    """
    body = compact_sum_3d(moment_matrix(3, _z_keys(3)))
    return TransformResult(Fraction(1, 2), body)
