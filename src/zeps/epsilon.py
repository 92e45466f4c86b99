"""Levi-Civita symbol: permutation parity and its closed-form relatives.

The symbol on an N-tuple drawn from {1..N} is +1 on even permutations,
-1 on odd permutations, and 0 whenever an index repeats.  This module
provides three independent routes to those values:

* ``sign_oracle`` counts inversions -- the ground truth everything else
  is checked against;
* ``epsilon_product`` evaluates the exact double-product closed form
  (a Vandermonde product over the indices divided by the same product
  at the identity tuple) in integer arithmetic, stopping at the first
  zero factor, so only distinct indices reach the division;
* ``epsilon_generalized`` drives that ratio, factor by factor, through
  an arbitrary injective value table instead of the identity map.

A gamma-function expression for the Kronecker delta on {1,2,3} lives
here too, since the compact three-dimensional transform is indexed
through it.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .algebra import EXACT_SCALARS, difference_product, differences
from .errors import (
    DegenerateDenominatorError,
    IdentityViolationError,
    InputDomainError,
    UnsupportedDimensionError,
)

MultiIndex = tuple[int, ...]


def check_index(indices: Sequence[int]) -> MultiIndex:
    """Validate and normalize an index tuple.

    The dimension is the tuple length N and every entry must lie in
    [1, N].  Raises :class:`InputDomainError` otherwise.
    """
    idx = tuple(indices)
    dim = len(idx)
    if dim == 0:
        raise InputDomainError("index tuple must be non-empty")
    for n in idx:
        if not isinstance(n, int):
            raise InputDomainError(f"indices must be integers, got {n!r}")
        if not 1 <= n <= dim:
            raise InputDomainError(f"index {n} outside [1, {dim}]")
    return idx


def sign_oracle(indices: Sequence[int]) -> int:
    """Symbol value by inversion counting: 0 on repeats, else parity sign."""
    return _parity(check_index(indices))


def _parity(idx: MultiIndex) -> int:
    """``sign_oracle`` on a tuple that ``check_index`` would return unchanged."""
    n = len(idx)
    if len(set(idx)) != n:
        return 0
    inversions = sum(
        1 for a in range(n) for b in range(a + 1, n) if idx[a] > idx[b]
    )
    return -1 if inversions % 2 else 1


def _closed_form_index(indices: Sequence[int], form: str) -> MultiIndex:
    """``check_index``, then the dimension >= 2 that both closed forms need."""
    idx = check_index(indices)
    if len(idx) < 2:
        raise UnsupportedDimensionError(f"the {form} closed form needs dimension >= 2")
    return idx


def epsilon_product(indices: Sequence[int]) -> int:
    """Closed-form symbol value: an integer Vandermonde product, divided exactly.

    The symbol is eps(n) = D(n) / D(1..N) with the difference product
    D(x) = prod_{i<j} (x_j - x_i).  The paper's double loop
    prod_{p=1}^{N-1} prod_{q=1}^{N-p} (n_{N+1-p} - n_q) / (N+1-p-q)
    is the same ratio reindexed by j = N+1-p, i = q.  Both products are
    integers and the division is exact; its quotient is always 0 or
    +/-1 and equals ``sign_oracle``.  A repeated index makes one factor
    of D(n) zero, and the product stops there with 0; the division and
    its remainder check run only on tuples of distinct indices.
    """
    return _product_value(_closed_form_index(indices, "product"))


def _product_value(idx: MultiIndex) -> int:
    """``epsilon_product`` on a tuple that ``_closed_form_index`` would return unchanged.

    Multiplies the factors x_j - x_i over the pairs i < j that
    ``itertools.combinations`` yields (by i, then by j), slicing nothing,
    and returns 0 at the first zero factor, since it zeroes the product.
    Only a tuple of distinct indices reaches the division by D(1..N) and
    its remainder check.
    """
    product = 1
    for earlier, x in itertools.combinations(idx, 2):
        factor = x - earlier
        if not factor:
            return 0
        product *= factor
    value, remainder = divmod(product, _identity_product(len(idx)))
    if remainder:
        raise IdentityViolationError(f"product form left remainder {remainder} at {idx}")
    return value


@lru_cache(maxsize=16)
def _identity_product(dim: int) -> int:
    """D(1..dim) = 1! 2! ... (dim-1)!, the divisor of every ``epsilon_product`` call."""
    return difference_product(range(1, dim + 1))


def epsilon_generalized(indices: Sequence[int], values: Sequence) -> "Fraction | complex":
    """Symbol value with index differences replaced by table differences.

    ``values`` supplies an injective map g on {1..N} (entry k-1 holds
    g(k)); the result is the product over pairs i < j of
    (g(n_j) - g(n_i)) / (g(j) - g(i)), taken ratio by ratio so that a
    table of huge or tiny floats neither overflows nor underflows.  It
    equals ``sign_oracle`` exactly for rational tables and up to
    rounding for float/complex ones.  A table with two equal entries
    makes a denominator vanish and raises
    :class:`DegenerateDenominatorError`.
    """
    idx = _closed_form_index(indices, "generalized")
    dim = len(idx)
    table = tuple(values)
    if len(table) != dim:
        raise InputDomainError(
            f"value table must have one entry per index ({dim}), got {len(table)}"
        )
    kind = Fraction if all(isinstance(v, EXACT_SCALARS) for v in table) else complex
    value = kind(1)
    for num, den in zip(differences(table[n - 1] for n in idx), differences(table)):
        if den == 0:
            raise DegenerateDenominatorError("table is not injective: two entries coincide")
        value *= kind(num) / kind(den)
    return value


def gamma_int(k: int) -> int:
    """Gamma function on positive integers: (k-1)!."""
    if not isinstance(k, int) or k < 1:
        raise InputDomainError(f"gamma_int needs a positive integer, got {k!r}")
    return factorial(k - 1)


def kron_delta(m: int, p: int) -> int:
    """Kronecker delta on {1,2,3} through a gamma/cosine identity.

    Computes, entirely in integers,
        [2*G(m)*cos(p*pi) + m - 2]*(G(p) - 1) - (p*G(m) - m)*cos(p*pi) + 1
    with G(k) = (k-1)! and cos(p*pi) = (-1)**p, which collapses to
    1 when m == p and 0 otherwise.
    """
    if m not in (1, 2, 3) or p not in (1, 2, 3):
        raise InputDomainError(
            f"kron_delta is defined for arguments in {{1, 2, 3}}, got ({m}, {p})"
        )
    gm = gamma_int(m)
    gp = gamma_int(p)
    cos_p = (-1) ** p
    return (2 * gm * cos_p + m - 2) * (gp - 1) - (p * gm - m) * cos_p + 1


def enumerate_indices(dim: int) -> Iterator[MultiIndex]:
    """All dim**dim index tuples over {1..dim}, in lexicographic order."""
    if not isinstance(dim, int) or dim < 1:
        raise InputDomainError(f"dimension must be a positive integer, got {dim!r}")
    return itertools.product(range(1, dim + 1), repeat=dim)
