"""Reference values for the Levi-Civita transforms, built without zeps.

The N-dimensional Z-transform of the symbol is the Vandermonde product

    E(z) = prod_q x_q * prod_{i<j} (x_j - x_i),   x_q = 1 / z_q,

and Tustin's map sends x_q to w_q = (2 - T_q s_q) / (2 + T_q s_q), so the
Laplace image is

    4^{N(N-1)/2} prod_q (2 - T_q s_q) prod_{i<j} (T_i s_i - T_j s_j)
        / prod_q (2 + T_q s_q)^N.

Both run in O(N^2) on exact ``Fraction`` or ``complex`` coordinates.  The
brute-force epsilon summations below are a second, independent route
that the benchmark checks these products against at start-up.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction


class ReferenceMismatch(Exception):
    """The reference disagrees with its own brute-force oracle."""


def z_reference(point):
    """E(z) by the Vandermonde product, exact or complex like ``point``."""
    xs = [1 / Fraction(z) if isinstance(z, (int, Fraction)) else 1 / z for z in point]
    value = 1
    for x in xs:
        value *= x
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            value *= xs[j] - xs[i]
    return value


def s_reference(point, steps):
    """Laplace image at ``point`` for per-dimension steps ``steps``."""
    dim = len(point)
    ts = [Fraction(t) * s if isinstance(s, (int, Fraction)) else float(t) * s
          for t, s in zip(steps, point)]
    numerator = 4 ** (dim * (dim - 1) // 2)
    denominator = 1
    for x in ts:
        numerator *= 2 - x
        denominator *= (2 + x) ** dim
    for i in range(dim):
        for j in range(i + 1, dim):
            numerator *= ts[i] - ts[j]
    return numerator / denominator


def parity(indices) -> int:
    """Levi-Civita symbol by inversion counting: 0 on a repeated index."""
    if len(set(indices)) != len(indices):
        return 0
    inversions = sum(
        1
        for a in range(len(indices))
        for b in range(a + 1, len(indices))
        if indices[a] > indices[b]
    )
    return -1 if inversions % 2 else 1


def brute_force(xs):
    """sum over all N**N index tuples of eps(n) * prod_q xs[q]**n_q."""
    dim = len(xs)
    total = 0
    for idx in itertools.product(range(1, dim + 1), repeat=dim):
        sign = parity(idx)
        if sign:
            term = sign
            for x, n in zip(xs, idx):
                term *= x**n
            total += term
    return total


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))


def self_check(dims=(2, 3, 4), points: int = 3) -> None:
    """Check both products against brute-force summation at N = 2..4.

    Exact points must agree exactly and complex points to 1e-12
    relative.  Raises :class:`ReferenceMismatch` on any disagreement.
    """
    rng = random.Random(20211007)
    for dim in dims:
        for _ in range(points):
            z = [_rational(rng) for _ in range(dim)]
            if z_reference(z) != brute_force([1 / c for c in z]):
                raise ReferenceMismatch(f"z product != brute force at {z}")
            zc = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(dim)]
            _close(z_reference(zc), brute_force([1 / c for c in zc]), f"z at {zc}")

            steps = [Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(dim)]
            s = [_rational(rng) for _ in range(dim)]
            while any(t * c in (2, -2) for t, c in zip(steps, s)):
                s = [_rational(rng) for _ in range(dim)]
            ws = [(2 - t * c) / (2 + t * c) for t, c in zip(steps, s)]
            if s_reference(s, steps) != brute_force(ws):
                raise ReferenceMismatch(f"s product != brute force at {s}, T={steps}")
            sc = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(dim)]
            wc = [(2 - float(t) * c) / (2 + float(t) * c) for t, c in zip(steps, sc)]
            _close(s_reference(sc, steps), brute_force(wc), f"s at {sc}, T={steps}")


def _close(a: complex, b: complex, where: str) -> None:
    if abs(a - b) > 1e-12 * max(abs(a), abs(b)):
        raise ReferenceMismatch(f"complex product != brute force {where}: {a} vs {b}")
