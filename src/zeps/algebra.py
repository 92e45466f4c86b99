"""Exact multivariate Laurent polynomials and rational functions.

Coefficients are arbitrary-precision :class:`fractions.Fraction`
values; exponent vectors are plain integer tuples and may carry
negative entries.  Floating point enters only at evaluation time, and
only when the evaluation point itself is inexact.

Variables are positional: a polynomial of arity N has variables
numbered 1..N, and entry i-1 of each exponent tuple belongs to
variable i.  Terms are kept in a canonical map (no zero coefficients),
so two equal polynomials always carry identical term maps; the
serialization order is graded-lexicographic, highest first.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Mapping, Sequence

from .errors import (
    DegenerateDenominatorError,
    EvaluationPoleError,
    InputDomainError,
)

EXACT_SCALARS = (int, Fraction)

MAX_DET_SIDE = 8


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InputDomainError(
        f"coefficients must be integers or Fractions, got {type(value).__name__}"
    )


# Below the smallest digit cap Python allows on int-to-str conversion (640).
_SHORT_INT = 10**600


def int_text(n: int) -> str:
    """``str(n)`` for an integer of any length.

    Python caps int-to-str conversion at a digit count to guard the
    parsing of untrusted text (CVE-2020-10735).  The integers printed
    here were built by this package, so a long one is split at a power
    of ten into halves that each convert under the cap.
    """
    if -_SHORT_INT < n < _SHORT_INT:
        return str(n)
    if n < 0:
        return "-" + int_text(-n)
    half = n.bit_length() * 3 // 20  # just under half the decimal digits
    high, low = divmod(n, 10**half)
    return int_text(high) + int_text(low).zfill(half)


def rational_text(value: Fraction) -> str:
    """``str(value)`` for a rational of any length: ``3`` or ``1/2``."""
    if value.denominator == 1:
        return int_text(value.numerator)
    return f"{int_text(value.numerator)}/{int_text(value.denominator)}"


_EXPONENT = re.compile(r"\s*[-+]?[\d_.]*[eE][-+]?([\d_]+)\s*")


def read_rational(text: str) -> "Fraction | None":
    """``Fraction(text)`` under Python's int-to-str digit cap; None if no rational.

    ``int`` applies the cap only to the digits written out, so exponent
    notation would slip past it.  A value whose numerator or denominator
    has more digits than the cap raises :class:`InputDomainError`, and
    so does an exponent with more digits than the cap itself, before
    ``Fraction`` expands it (``1e10000000`` alone takes seconds).
    """
    cap = sys.get_int_max_str_digits()
    too_long = InputDomainError(f"{text!r} exceeds Python's int-to-str cap of {cap} digits")
    match = _EXPONENT.fullmatch(text)
    if cap and match and len(match.group(1).replace("_", "").lstrip("0")) > len(str(cap)):
        raise too_long
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None
    longest = max(abs(value.numerator), value.denominator)
    # 2**(3 cap) < 10**cap, so the power is built only for long values
    if cap and longest.bit_length() > 3 * cap and longest >= 10**cap:
        raise too_long
    return value


def latex_number(value: Fraction) -> str:
    """An exact rational in LaTeX: ``3`` or ``\\frac{1}{2}``."""
    if value.denominator == 1:
        return int_text(value.numerator)
    return f"\\frac{{{int_text(value.numerator)}}}{{{int_text(value.denominator)}}}"


def json_number(value: Fraction) -> dict:
    """An exact rational as ``{"num": n, "den": d}`` with integer parts."""
    return {"num": value.numerator, "den": value.denominator}


def _grlex_key(exponents: tuple[int, ...]) -> tuple:
    return (sum(exponents), exponents)


def _default_names(arity: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, arity + 1))


class LaurentPoly:
    """Canonical multivariate Laurent polynomial over the rationals.

    Instances are immutable values; every operation returns a fresh
    polynomial.  Scalars (``int``/``Fraction``) mix freely on either
    side of ``+``, ``-``, ``*`` and ``==``.
    """

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Mapping[Sequence[int], object] | None = None):
        if not isinstance(arity, int) or arity < 1:
            raise InputDomainError(f"arity must be a positive integer, got {arity!r}")
        canonical: dict[tuple[int, ...], Fraction] = {}
        for exponents, coeff in (terms or {}).items():
            key = tuple(exponents)
            if len(key) != arity:
                raise InputDomainError(
                    f"exponent tuple {key} does not match arity {arity}"
                )
            if not all(isinstance(e, int) for e in key):
                raise InputDomainError(f"exponents must be integers: {key}")
            value = _as_fraction(coeff)
            if value:
                canonical[key] = value
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "terms", canonical)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly instances are immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "LaurentPoly":
        return cls(arity, {})

    @classmethod
    def constant(cls, arity: int, value) -> "LaurentPoly":
        return cls(arity, {(0,) * arity: value})

    @classmethod
    def variable(cls, arity: int, var: int, power: int = 1) -> "LaurentPoly":
        """Monomial ``x_var ** power``; ``var`` is 1-based."""
        if not 1 <= var <= arity:
            raise InputDomainError(f"variable {var} outside [1, {arity}]")
        exponents = [0] * arity
        exponents[var - 1] = power
        return cls(arity, {tuple(exponents): 1})

    @classmethod
    def monomial(cls, arity: int, exponents: Sequence[int], coeff=1) -> "LaurentPoly":
        return cls(arity, {tuple(exponents): coeff})

    # -- structure -------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lexicographic order, highest first."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    # -- ring operations -------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            if other.arity != self.arity:
                raise InputDomainError(
                    f"arity mismatch: {self.arity} vs {other.arity}"
                )
            return other
        if isinstance(other, EXACT_SCALARS):
            return LaurentPoly.constant(self.arity, other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        merged = dict(self.terms)
        for exponents, coeff in rhs.terms.items():
            total = merged.get(exponents, 0) + coeff
            if total:
                merged[exponents] = total
            elif exponents in merged:
                del merged[exponents]
        return LaurentPoly(self.arity, merged)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly(self.arity, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        product: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in self.terms.items():
            for eb, cb in rhs.terms.items():
                key = tuple(x + y for x, y in zip(ea, eb))
                total = product.get(key, 0) + ca * cb
                if total:
                    product[key] = total
                elif key in product:
                    del product[key]
        return LaurentPoly(self.arity, product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise InputDomainError(
                f"polynomial powers must be non-negative integers, got {exponent!r}"
            )
        result = LaurentPoly.constant(self.arity, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        rhs = self._coerce(other) if not isinstance(other, LaurentPoly) else other
        if rhs is None:
            return NotImplemented
        if isinstance(other, LaurentPoly) and other.arity != self.arity:
            return False
        return self.terms == rhs.terms

    __hash__ = None

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point: Sequence) -> "Fraction | complex":
        """Value at ``point`` (one coordinate per variable).

        With all-exact coordinates (``int``/``Fraction``) the result is
        an exact ``Fraction``; otherwise coefficients and coordinates
        are taken to machine-precision ``complex``.  A zero coordinate
        under a negative exponent raises :class:`EvaluationPoleError`.
        """
        coords = tuple(point)
        if len(coords) != self.arity:
            raise InputDomainError(
                f"point has {len(coords)} coordinates, expected {self.arity}"
            )
        exact = all(isinstance(c, EXACT_SCALARS) for c in coords)
        for i in range(self.arity):
            if coords[i] == 0 and any(e[i] < 0 for e in self.terms):
                raise EvaluationPoleError(
                    f"variable {i + 1} is zero but occurs with a negative exponent"
                )
        bases = [Fraction(c) if exact else complex(c) for c in coords]
        power_cache: list[dict[int, object]] = [{} for _ in range(self.arity)]
        total = Fraction(0) if exact else complex(0)
        for exponents, coeff in self.terms.items():
            term = coeff if exact else complex(coeff)
            for i, e in enumerate(exponents):
                if e == 0:
                    continue
                cache = power_cache[i]
                if e not in cache:
                    cache[e] = bases[i] ** e
                term = term * cache[e]
            total = total + term
        return total

    # -- rendering and serialization --------------------------------------

    def to_text(self, varnames: Sequence[str] | None = None) -> str:
        """Deterministic plain-text form, e.g. ``z1^-1*z2^-2 - z1^-2*z2^-1``."""
        return self._render(varnames, "*", "{}^{}", rational_text)

    def to_latex(self, varnames: Sequence[str] | None = None) -> str:
        """LaTeX form with explicit negative exponents, e.g. ``z_{1}^{-1}``."""
        return self._render(varnames, " ", "{}^{{{}}}", latex_number)

    def _render(self, varnames, join: str, power_fmt: str, magnitude_fmt) -> str:
        """Signed terms in grlex order; a unit magnitude is shown only on constants."""
        if self.is_zero:
            return "0"
        names = tuple(varnames) if varnames else _default_names(self.arity)
        pieces: list[str] = []
        for exponents, coeff in self.sorted_terms():
            factors = [
                names[i] if e == 1 else power_fmt.format(names[i], e)
                for i, e in enumerate(exponents)
                if e != 0
            ]
            magnitude = abs(coeff)
            if not factors or magnitude != 1:
                factors.insert(0, magnitude_fmt(magnitude))
            pieces.append(f"{'-' if coeff < 0 else '+'} {join.join(factors)}")
        text = " ".join(pieces)
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def to_json_dict(self) -> dict:
        """JSON-ready dict: ``{arity, terms: [{exp, num, den}, ...]}``.

        Coefficients are decimal strings of exact integers and terms
        follow the graded-lexicographic order, so the output is
        bit-stable for equal polynomials.
        """
        return {
            "arity": self.arity,
            "terms": [
                {
                    "exp": list(exponents),
                    "num": int_text(coeff.numerator),
                    "den": int_text(coeff.denominator),
                }
                for exponents, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LaurentPoly":
        try:
            arity = data["arity"]
            terms = {
                tuple(entry["exp"]): Fraction(int(entry["num"]), int(entry["den"]))
                for entry in data["terms"]
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise InputDomainError(f"malformed polynomial JSON: {exc}") from exc
        return cls(arity, terms)

    def __repr__(self):
        return f"LaurentPoly({self.arity}, {self.to_text()})"

    __str__ = to_text


class RationalFn:
    """Quotient of two Laurent polynomials, kept unreduced.

    There is no gcd normal form; equality is decided by
    cross-multiplication.  The only simplification applied is the
    cancellation of a common monomial factor (a unit of the Laurent
    ring), which keeps repeated arithmetic from drifting into deep
    exponents.  Addition recognizes operands with identical
    denominators and sums numerators directly, so determinant
    accumulation over a column-structured matrix keeps one shared
    denominator instead of squaring it at every step.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        if not isinstance(num, LaurentPoly):
            raise InputDomainError("numerator must be a LaurentPoly")
        if den is None:
            den = LaurentPoly.constant(num.arity, 1)
        if not isinstance(den, LaurentPoly):
            raise InputDomainError("denominator must be a LaurentPoly")
        if num.arity != den.arity:
            raise InputDomainError(
                f"arity mismatch: {num.arity} vs {den.arity}"
            )
        if den.is_zero:
            raise DegenerateDenominatorError("denominator is identically zero")
        if num.is_zero:
            den = LaurentPoly.constant(num.arity, 1)
        else:
            shift = _common_monomial_shift(num, den)
            if any(shift):
                num = _shift_exponents(num, shift)
                den = _shift_exponents(den, shift)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFn instances are immutable")

    @property
    def arity(self) -> int:
        return self.num.arity

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "RationalFn":
        return cls(LaurentPoly.zero(arity))

    @classmethod
    def constant(cls, arity: int, value) -> "RationalFn":
        return cls(LaurentPoly.constant(arity, value))

    # -- field operations -------------------------------------------------

    def _coerce(self, other) -> "RationalFn | None":
        if isinstance(other, RationalFn):
            if other.arity != self.arity:
                raise InputDomainError(
                    f"arity mismatch: {self.arity} vs {other.arity}"
                )
            return other
        if isinstance(other, LaurentPoly):
            return RationalFn(other)
        if isinstance(other, EXACT_SCALARS):
            return RationalFn.constant(self.arity, other)
        return None

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if self.den == rhs.den:
            return RationalFn(self.num + rhs.num, self.den)
        return RationalFn(
            self.num * rhs.den + rhs.num * self.den, self.den * rhs.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFn(-self.num, self.den)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return RationalFn(self.num * rhs.num, self.den * rhs.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs.num.is_zero:
            raise DegenerateDenominatorError("division by the zero rational function")
        return RationalFn(self.num * rhs.den, self.den * rhs.num)

    def __eq__(self, other):
        if isinstance(other, (RationalFn, LaurentPoly)) and other.arity != self.arity:
            return False
        rhs = self._coerce(other) if not isinstance(other, RationalFn) else other
        if rhs is None:
            return NotImplemented
        return (self.num * rhs.den - rhs.num * self.den).is_zero

    __hash__ = None

    # -- evaluation ------------------------------------------------------

    def evaluate(self, point: Sequence) -> "Fraction | complex":
        """Exact or complex value of num/den at ``point``."""
        den_value = self.den.evaluate(point)
        if den_value == 0:
            raise EvaluationPoleError("denominator vanishes at the evaluation point")
        return self.num.evaluate(point) / den_value

    # -- rendering and serialization --------------------------------------

    def to_text(self, varnames: Sequence[str] | None = None) -> str:
        if self.den == 1:
            return self.num.to_text(varnames)
        return f"({self.num.to_text(varnames)}) / ({self.den.to_text(varnames)})"

    def to_latex(self, varnames: Sequence[str] | None = None) -> str:
        if self.den == 1:
            return self.num.to_latex(varnames)
        return (
            f"\\frac{{{self.num.to_latex(varnames)}}}"
            f"{{{self.den.to_latex(varnames)}}}"
        )

    def to_json_dict(self) -> dict:
        return {
            "arity": self.arity,
            "numerator": self.num.to_json_dict(),
            "denominator": self.den.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RationalFn":
        try:
            num = LaurentPoly.from_json_dict(data["numerator"])
            den = LaurentPoly.from_json_dict(data["denominator"])
        except (KeyError, TypeError) as exc:
            raise InputDomainError(f"malformed rational-function JSON: {exc}") from exc
        return cls(num, den)

    def __repr__(self):
        return f"RationalFn({self.to_text()})"

    __str__ = to_text


def _common_monomial_shift(num: LaurentPoly, den: LaurentPoly) -> tuple[int, ...]:
    """Per-variable exponent of the largest monomial dividing both parts."""
    arity = num.arity
    shift = []
    for i in range(arity):
        low_num = min(e[i] for e in num.terms)
        low_den = min(e[i] for e in den.terms)
        shift.append(min(low_num, low_den))
    return tuple(shift)


def _shift_exponents(poly: LaurentPoly, shift: Sequence[int]) -> LaurentPoly:
    return LaurentPoly(
        poly.arity,
        {
            tuple(e - s for e, s in zip(exponents, shift)): coeff
            for exponents, coeff in poly.terms.items()
        },
    )


def det(matrix: Sequence[Sequence]):
    """Determinant of a small square matrix of ring elements.

    Works for any elements supporting ``+``, unary ``-`` and ``*``
    (here: :class:`LaurentPoly` or :class:`RationalFn`).  Uses cofactor
    expansion with memoization over column subsets, so each minor is
    computed once.  The side is capped at ``MAX_DET_SIDE``.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise InputDomainError("determinant needs a non-empty square matrix")
    if n > MAX_DET_SIDE:
        raise InputDomainError(f"determinant side capped at {MAX_DET_SIDE}, got {n}")
    arities = {
        element.arity
        for row in matrix
        for element in row
        if hasattr(element, "arity")
    }
    if len(arities) > 1:
        raise InputDomainError(f"matrix entries mix arities: {sorted(arities)}")

    memo: dict[tuple[int, ...], object] = {}

    def minor(cols: tuple[int, ...]):
        row = n - len(cols)
        if len(cols) == 1:
            return matrix[row][cols[0]]
        if cols in memo:
            return memo[cols]
        total = None
        for i, c in enumerate(cols):
            term = matrix[row][c] * minor(cols[:i] + cols[i + 1 :])
            if i % 2:
                term = -term
            total = term if total is None else total + term
        memo[cols] = total
        return total

    return minor(tuple(range(n)))


def difference_product(xs: Iterable):
    """prod_{i<j} (x_j - x_i), the Vandermonde product, in O(N^2) operations.

    Only ``-`` and ``*`` are applied, so integers stay integers and
    rationals or complex values keep their type.  Over the identity
    tuple 1..N it is the Levi-Civita scale 1! 2! ... (N-1)!; over an
    index tuple it is that scale times the symbol.
    """
    values = tuple(xs)
    return math.prod(x - earlier for j, x in enumerate(values) for earlier in values[:j])


def vandermonde(xs: Sequence) -> "Fraction | complex":
    """prod_q x_q * prod_{i<j} (x_j - x_i), in O(N^2) operations.

    This is det[x_q^r] over r = 1..N and q = 1..N, the factored form of
    every transform here: the difference product over (0, x_1, ..., x_N).
    Exact inputs (``int``/``Fraction``) give an exact ``Fraction``; any
    other input makes the product ``complex``.
    """
    exact = all(isinstance(x, EXACT_SCALARS) for x in xs)
    values = [Fraction(x) if exact else complex(x) for x in xs]
    return difference_product([0, *values])


def scale_value(scale: Fraction, value):
    """Multiply an evaluation result by an exact rational scale."""
    if isinstance(value, EXACT_SCALARS):
        return scale * value
    return float(scale) * value


@dataclass(frozen=True)
class ScaledForm:
    """A closed form ``scale * body`` in the variables ``<prefix>1..<prefix>dim``.

    ``body`` is a :class:`LaurentPoly` or a :class:`RationalFn`.  Each
    domain subclasses this with its variable prefix, its metadata, its
    JSON shape and its LaTeX layout.
    """

    dim: int
    scale: Fraction
    body: "LaurentPoly | RationalFn"

    prefix: ClassVar[str] = "x"

    def evaluate(self, point: Sequence) -> "Fraction | complex":
        return scale_value(self.scale, self.body.evaluate(point))

    def varnames(self) -> tuple[str, ...]:
        return tuple(f"{self.prefix}{q}" for q in range(1, self.dim + 1))

    def latex_names(self) -> tuple[str, ...]:
        return tuple(f"{self.prefix}_{{{q}}}" for q in range(1, self.dim + 1))

    def to_text(self) -> str:
        body = self.body.to_text(self.varnames())
        if self.scale == 1:
            return body
        return f"{self.scale} * ({body})"
