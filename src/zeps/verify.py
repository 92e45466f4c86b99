"""Cross-verification sweeps tying each closed form back to its oracle.

Three checks are exposed: the product closed form against inversion
parity (exhaustive); the factored Z-domain form that ``emit`` prints
against the determinant and brute-force summation (exact polynomial
equality); and the factored Laplace form against the Laplace
determinant and the expanded pole product against its binomial
expansion (exact polynomial equality), with that determinant against
the factored Z-domain form composed with the bilinear map and against
both factored routes that ``eval`` takes (exact equality at seeded
random rational points).  All sampling uses an explicit
``random.Random`` instance so identical seeds reproduce identical
sweeps everywhere.
"""

from __future__ import annotations

import math
import random
from collections.abc import Sequence
from fractions import Fraction

from . import sdomain
from .algebra import LaurentPoly, Record, rational_text
from .epsilon import _parity, _product_value, enumerate_indices
from .sdomain import (
    TustinParams,
    _laplace_dim,
    factored_laplace,
    factored_laplace_value,
    laplace_determinant,
)
from .ztransform import (
    MAX_DIM,
    brute_force_ztransform,
    determinant_ztransform,
    factored_value,
    factored_ztransform,
    require_dim,
)

# Unused here; perfbench/tracing.py wraps these two names on this module.
from .epsilon import epsilon_product, sign_oracle  # noqa: F401

POINT_DENOMINATOR = 8


class CheckResult(Record):
    """A check's name and the lines saying what failed; it passes with none."""

    name: str
    details: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.details


def _result(name: str, details: list[str]) -> CheckResult:
    """A check's result, keeping the first 20 of its detail lines."""
    return CheckResult(name, tuple(details[:20]))


def _mismatches(routes: Sequence[tuple[str, LaurentPoly]]) -> list[str]:
    """One line for each neighbouring pair of ``(name, polynomial)`` routes that differ.

    Two expanded forms agree term for term, or else the line counts the
    monomials of their difference.
    """
    return [
        f"{name_a} differs from {name_b} in {len((form_a - form_b).terms)} monomials"
        for (name_a, form_a), (name_b, form_b) in zip(routes, routes[1:])
        if form_a != form_b
    ]


def rel_close(a, b, tol: float) -> bool:
    """Relative closeness with an absolute floor of 1."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# How far each random complex T_q s_q stays from the singular values -+2.
_S_MARGIN = 0.25


def random_s_point(rng: random.Random, params: TustinParams) -> tuple:
    """Random complex point keeping |T_q s_q -+ 2| at least ``_S_MARGIN``.

    Staying away from T_q s_q = -2 avoids the transform's poles;
    staying away from T_q s_q = +2 keeps the bilinear map itself
    regular.
    """
    point = []
    for q in range(params.dim):
        t = float(params.steps[q])
        while True:
            s = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            if abs(t * s - 2) >= _S_MARGIN and abs(t * s + 2) >= _S_MARGIN:
                point.append(s)
                break
    return tuple(point)


def random_rational_s_point(rng: random.Random, params: TustinParams) -> tuple:
    """Random exact rational point off the hyperplanes T_q s_q = -+2.

    Coordinates are multiples of 1/POINT_DENOMINATOR in [-3, 3].  Exact
    coordinates let both transform routes evaluate in rational
    arithmetic, so cross-checks at these points are free of the
    cancellation noise that the expanded numerators pick up in floating
    point at higher dimensions.
    """
    point = []
    for step in params.steps:
        while True:
            s = Fraction(rng.randint(-3 * POINT_DENOMINATOR, 3 * POINT_DENOMINATOR),
                         POINT_DENOMINATOR)
            if step * s not in (2, -2):
                point.append(s)
                break
    return tuple(point)


def check_epsilon_formulas(dim: int) -> CheckResult:
    """Product closed form vs inversion parity over all dim**dim tuples.

    Every tuple lies in the window by construction, so each goes straight
    to the two kernels that ``epsilon_product`` and ``sign_oracle`` wrap.
    The product kernel stops at its first zero factor, so of the 46,656
    dim-6 tuples only the 720 with distinct indices reach its division
    and remainder check.
    """
    require_dim(dim, MAX_DIM)
    mismatches = [
        f"mismatch at {idx}"
        for idx in enumerate_indices(dim)
        if _product_value(idx) != _parity(idx)
    ]
    return _result(
        f"product closed form vs permutation parity, all {dim}**{dim} tuples", mismatches
    )


def check_determinant_oracle(dim: int) -> CheckResult:
    """Factored form = determinant = brute-force summation, as exact term maps.

    The factored form is the one ``emit`` prints; each form is expanded
    with its scale folded in before the comparison.
    """
    routes = (
        ("factored", factored_ztransform(dim).expanded()),
        ("determinant", determinant_ztransform(dim).expanded()),
        ("brute force", brute_force_ztransform(dim).expanded()),
    )
    return _result(
        f"factored closed form vs determinant vs brute-force transform, dim={dim}",
        _mismatches(routes),
    )


def _binomial_pole_product(params: TustinParams) -> LaurentPoly:
    """prod_q sum_k C(N, k) 2^(N-k) T_q^k s_q^k: the pole product by the binomial theorem.

    Each row is written term by term with ``math.comb``, with no
    polynomial power, and the N rows are multiplied across the variables.
    """
    dim = params.dim
    rows = [
        LaurentPoly(dim, {
            tuple(k if i == q else 0 for i in range(dim)):
                math.comb(dim, k) * 2 ** (dim - k) * step**k
            for k in range(dim + 1)
        })
        for q, step in enumerate(params.steps)
    ]
    return math.prod(rows)


def check_tustin_consistency(
    params: TustinParams, samples: int = 100, seed: int = 0
) -> CheckResult:
    """Factored Laplace form vs the Laplace determinant, then the bilinear map.

    The factored form, the one ``emit`` prints, must equal the Laplace
    determinant term for term: scale, numerator and steps, which fix the
    pole product both divide by.  That pole product, expanded as ``emit``
    writes it, must equal its binomial expansion term for term; it is
    compared once, and a mismatch gives one detail line.  The
    determinant is then checked against the factored Z-domain form
    composed with the bilinear map at exact rational s-points.  That
    z-route is the form ``emit`` prints, which the oracle check holds
    equal to the Z-domain determinant and to brute force; the s-route
    divides the determinant's numerator by the pole factors,
    prod_q (2 + T_q s_q)^dim.  The map to the z-point,
    z_q = (1 + s_q T_q/2)/(1 - s_q T_q/2), and the pole factors are
    written here from the paper, apart from the Tustin pair the builders
    and ``eval`` share, so a wrong pair cannot bend both routes alike.
    Both routes evaluate with no rounding and are compared for
    equality: any difference is a true algebraic mismatch.  At each
    point the two values ``eval`` prints, ``factored_value`` at the
    mapped z-point and ``factored_laplace_value`` at the s-point, must
    equal them too; a failing point gives one detail line with all four
    values.  (The expanded higher-dimensional numerators cancel
    catastrophically under floating point, which is why no float point
    is sampled.)
    """
    dim = _laplace_dim(params)
    z_form = factored_ztransform(dim)
    # compared before the Laplace forms are built, so less is live beside its two
    # expansions; the expansion is looked up on ``sdomain``, the one ``emit`` writes
    pole_mismatch = _mismatches((
        ("pole product", sdomain._denominator_product(params)),
        ("its binomial expansion", _binomial_pole_product(params)),
    ))
    s_form = laplace_determinant(params)
    factored = factored_laplace(params)
    rng = random.Random(seed)
    failures = []
    if factored != s_form:
        failures.append("factored Laplace form differs from the Laplace determinant")
    failures += pole_mismatch
    for _ in range(samples):
        s_point = random_rational_s_point(rng, params)
        # the paper's map; the sampler never draws T_q s_q = 2, where it is singular
        z_point = tuple((1 + t * s / 2) / (1 - t * s / 2) for t, s in zip(params.steps, s_point))
        via_z = z_form.evaluate(z_point)
        poles = math.prod((2 + t * s) ** dim for t, s in zip(params.steps, s_point))
        via_s = s_form.scale * s_form.numerator.evaluate(s_point) / poles
        eval_z = factored_value(z_point)
        eval_s = factored_laplace_value(s_point, params)
        if not via_z == via_s == eval_z == eval_s:
            failures.append(
                f"at s=({', '.join(map(rational_text, s_point))}): z-route {rational_text(via_z)} "
                f"vs s-route {rational_text(via_s)}; eval's z-route "
                f"{rational_text(eval_z)}, s-route {rational_text(eval_s)}"
            )
    return _result(
        f"factored Laplace form vs Laplace determinant term for term, and "
        f"bilinear substitution consistency, dim={dim}, "
        f"{samples} seeded rational points, exact",
        failures,
    )
