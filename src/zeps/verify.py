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
from dataclasses import dataclass, field
from fractions import Fraction

from . import sdomain
from .algebra import LaurentPoly, rational_text
from .epsilon import _parity, _product_value, enumerate_indices
from .sdomain import (
    TustinParams,
    _laplace_params,
    _tustin_keys,
    factored_laplace,
    factored_laplace_value,
    laplace_determinant,
    tustin_map,
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: tuple[str, ...] = field(default_factory=tuple)


def rel_close(a, b, tol: float) -> bool:
    """Relative closeness with an absolute floor of 1."""
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def random_z_point(rng: random.Random, dim: int, min_modulus: float = 0.2) -> tuple:
    """Random complex point with every coordinate off the origin."""
    point = []
    while len(point) < dim:
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        if abs(z) >= min_modulus:
            point.append(z)
    return tuple(point)


def random_s_point(rng: random.Random, params: TustinParams, margin: float = 0.25) -> tuple:
    """Random complex point keeping |T_q s_q -+ 2| clear of zero.

    Staying away from T_q s_q = -2 avoids the transform's poles;
    staying away from T_q s_q = +2 keeps the bilinear map itself
    regular.
    """
    point = []
    for q in range(params.dim):
        t = float(params.steps[q])
        while True:
            s = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
            if abs(t * s - 2) >= margin and abs(t * s + 2) >= margin:
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
    """
    require_dim(dim, MAX_DIM)
    mismatches = [
        idx
        for idx in enumerate_indices(dim)
        if _product_value(idx) != _parity(idx)
    ]
    details = tuple(f"mismatch at {idx}" for idx in mismatches[:20])
    return CheckResult(
        name=f"product closed form vs permutation parity, all {dim}**{dim} tuples",
        passed=not mismatches,
        details=details,
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
    details = tuple(
        f"{name_a} and {name_b} differ in {len((form_a - form_b).terms)} monomials"
        for (name_a, form_a), (name_b, form_b) in zip(routes, routes[1:])
        if form_a != form_b
    )
    return CheckResult(
        name=f"factored closed form vs determinant vs brute-force transform, dim={dim}",
        passed=not details,
        details=details,
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


def _pole_product_mismatch(params: TustinParams) -> int:
    """Monomials in which the expanded pole product and its binomial oracle differ.

    The expansion is looked up on ``sdomain``, so it is the one ``emit``
    writes; both sides are freed when this returns.
    """
    expansion, oracle = sdomain._denominator_product(params), _binomial_pole_product(params)
    return 0 if expansion == oracle else len((expansion - oracle).terms)


def check_tustin_consistency(
    dim: int,
    params: TustinParams | None = None,
    samples: int = 100,
    seed: int = 0,
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
    prod_q (2 + T_q s_q)^dim.  Both routes evaluate with no rounding and
    are compared for equality: any difference is a true algebraic
    mismatch.  At each point the two values ``eval`` prints,
    ``factored_value`` at the mapped z-point and
    ``factored_laplace_value`` at the s-point, must equal them too; a
    failing point gives one detail line with all four values.  (The
    expanded higher-dimensional numerators cancel catastrophically
    under floating point, which is why no float point is sampled.)
    """
    z_form = factored_ztransform(dim)
    params = _laplace_params(dim, params)
    # compared before the Laplace forms are built, so less is live beside its two expansions
    pole_mismatch = _pole_product_mismatch(params)
    s_form = laplace_determinant(dim, params)
    factored = factored_laplace(dim, params)
    rng = random.Random(seed)
    failures = []
    if factored != s_form:
        failures.append("factored Laplace form differs from the Laplace determinant")
    if pole_mismatch:
        failures.append(
            f"pole product differs from its binomial expansion in {pole_mismatch} monomials"
        )
    for _ in range(samples):
        s_point = random_rational_s_point(rng, params)
        z_point = tuple(map(tustin_map, s_point, params.steps))
        via_z = z_form.evaluate(z_point)
        poles = math.prod(v**dim for _, v in _tustin_keys(params, s_point))
        via_s = s_form.scale * s_form.numerator.evaluate(s_point) / poles
        eval_z = factored_value(z_point)
        eval_s = factored_laplace_value(s_point, params)
        if not via_z == via_s == eval_z == eval_s:
            failures.append(
                f"at s=({', '.join(map(rational_text, s_point))}): z-route {rational_text(via_z)} "
                f"vs s-route {rational_text(via_s)}; eval's z-route "
                f"{rational_text(eval_z)}, s-route {rational_text(eval_s)}"
            )
    return CheckResult(
        name=(
            f"factored Laplace form vs Laplace determinant term for term, and "
            f"bilinear substitution consistency, dim={dim}, "
            f"{samples} seeded rational points, exact"
        ),
        passed=not failures,
        details=tuple(failures[:20]),
    )
