"""Exact multivariate Laurent polynomials, and the numerator/denominator
pair that carries a Laplace-domain body.

Variables are positional: a polynomial of arity N has variables
numbered 1..N, and entry i-1 of each exponent tuple belongs to
variable i.  Floating point enters only at evaluation time, and only
when the evaluation point itself is inexact.

A :class:`LaurentPoly` is a packed integer kernel: a map from packed
monomials to integer numerators over one shared positive denominator.
A monomial's key is its exponent vector read as the balanced digits of
one integer, sum_i e_i * B^(i-1) with B = 2^bits and every digit in
[-B/2, B/2), so a monomial product is one integer addition and negative
exponents need no offset.  The digit width widens with the exponents,
so any integer exponent packs without wrapping.  The denominator is kept
coprime to the numerators, so equal polynomials carry identical maps.

The public view is unchanged: ``terms`` reads as a map from exponent
tuples to nonzero :class:`fractions.Fraction` coefficients, unpacked on
first use, and the serialization order is graded-lexicographic,
highest first.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from collections.abc import Iterable, Mapping, Sequence
from typing import ClassVar

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
_SHORT_DIGITS = 600
_SHORT_INT = 10**_SHORT_DIGITS


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


_DECIMAL = re.compile(r"-?[0-9]+")


def read_int(text: str) -> int:
    """The integer that ``int_text`` wrote, of any length.

    Accepts only an optional ``-`` followed by ASCII digits; any other
    string raises ``ValueError``.  A long digit string is split at a power
    of ten into pieces that each convert under Python's int-to-str cap.
    """
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"not a decimal integer: {text!r}")
    if len(text) <= _SHORT_DIGITS:
        return int(text)
    if text[0] == "-":
        return -read_int(text[1:])
    low = len(text) // 2
    return read_int(text[:-low]) * 10**low + read_int(text[-low:])


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


# A monomial x_1^e_1 ... x_N^e_N is packed into the integer
# sum_i e_i * 2**(bits*(i-1)): its exponents are the balanced base-2**bits
# digits, each in [-2**(bits-1), 2**(bits-1)).  Multiplying two monomials
# adds their keys.  The width starts at 16 bits and doubles as far as the
# exponents a polynomial can reach require, so no exponent ever wraps.
_MIN_BITS = 16


def _bits_for(reach: int) -> int:
    """The narrowest digit width whose balanced digits hold every |e| <= reach."""
    bits = _MIN_BITS
    while reach >> (bits - 1):
        bits *= 2
    return bits


def _pack(exponents: Sequence[int], bits: int) -> int:
    key = 0
    for e in reversed(exponents):
        key = (key << bits) + e
    return key


def _digit_columns(keys: Iterable[int], arity: int, bits: int) -> list[list[int]]:
    """Per variable, its exponent in every key, in the keys' order.

    Adding ``half`` to every digit makes each one an ordinary base-2**bits
    digit in [0, 2**bits), so all of them are read off with shifts and masks.
    """
    half = 1 << (bits - 1)
    mask = (1 << bits) - 1
    bias = _pack([half] * arity, bits)
    biased = [k + bias for k in keys]
    return [[(t >> shift & mask) - half for t in biased] for shift in range(0, bits * arity, bits)]


def _reduce(terms: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Divide out the factor the numerators share with the denominator."""
    if den != 1:
        common = math.gcd(den, *terms.values())
        if common != 1:
            return {k: c // common for k, c in terms.items()}, den // common
    return terms, den


def _fill(poly, arity: int, terms: dict[int, int], den: int, bits: int, reach: int):
    for name, value in (
        ("arity", arity), ("_terms", terms), ("_den", den),
        ("_bits", bits), ("_reach", reach), ("_view", None),
    ):
        object.__setattr__(poly, name, value)
    return poly


def _made(arity: int, terms: dict[int, int], den: int, bits: int, reach: int) -> "LaurentPoly":
    """A polynomial from a packed map the caller vouches for; nothing is checked."""
    return _fill(object.__new__(LaurentPoly), arity, terms, den, bits, reach)


def _constant(arity: int, value) -> "LaurentPoly":
    """The constant polynomial for an ``int`` or ``Fraction``."""
    terms = {0: value.numerator} if value else {}
    return _made(arity, terms, value.denominator, _MIN_BITS, 0)


class TermView(Mapping):
    """``LaurentPoly.terms``: a read-only map from exponent tuple to ``Fraction``.

    ``len`` reads the packed map.  Anything else unpacks the keys once,
    and the view keeps what it unpacked for the polynomial's lifetime.
    """

    __slots__ = ("_poly", "_exponents", "_fractions", "_spans")

    def __init__(self, poly: "LaurentPoly"):
        self._poly = poly
        self._exponents = None
        self._fractions = None
        self._spans = None

    def _unpack(self) -> None:
        poly = self._poly
        columns = _digit_columns(poly._terms, poly.arity, poly._bits)
        self._exponents = list(zip(*columns))
        self._spans = [
            (min(column), max(column), frozenset(column)) if column else (0, 0, frozenset())
            for column in columns
        ]

    def exponents(self) -> list[tuple[int, ...]]:
        """The exponent tuples, in the packed map's order."""
        if self._exponents is None:
            self._unpack()
        return self._exponents

    def spans(self) -> list[tuple[int, int, frozenset]]:
        """Per variable: lowest exponent, highest exponent, and every exponent seen.

        A variable with no terms reads (0, 0, {}).
        """
        if self._spans is None:
            self._unpack()
        return self._spans

    def _dict(self) -> dict[tuple[int, ...], Fraction]:
        if self._fractions is None:
            den = self._poly._den
            numerators = self._poly._terms.values()
            if den == 1:
                values = map(Fraction, numerators)
            else:
                values = (Fraction(c, den) for c in numerators)
            self._fractions = dict(zip(self.exponents(), values))
        return self._fractions

    def __len__(self) -> int:
        return len(self._poly._terms)

    def __getitem__(self, exponents):
        return self._dict()[exponents]

    def __iter__(self):
        return iter(self._dict())

    def items(self):
        return self._dict().items()

    def values(self):
        return self._dict().values()

    def __repr__(self):
        return repr(self._dict())


class LaurentPoly:
    """Canonical multivariate Laurent polynomial over the rationals.

    Instances are immutable values; every operation returns a fresh
    polynomial.  Scalars (``int``/``Fraction``) mix freely on either
    side of ``+``, ``-``, ``*`` and ``==``.

    The value is ``(1/_den) * sum c * x**e`` over ``_terms``, a dict from
    packed monomials (see ``_pack``, digit width ``_bits``) to nonzero
    integers ``c``.  ``_den`` is positive and coprime to the ``c``s, so
    equal polynomials have equal ``(_den, _terms)``.  ``_reach`` bounds
    every ``|e_i|`` from above, so a product knows before it starts
    whether its keys fit the width.  The public ``terms`` is a read-only
    map from exponent tuples to ``Fraction``s, unpacked on first use;
    ring operations build their results without revalidating them.
    """

    __slots__ = ("arity", "_terms", "_den", "_bits", "_reach", "_view")

    def __init__(self, arity: int, terms: Mapping[Sequence[int], object] | None = None):
        if not isinstance(arity, int) or arity < 1:
            raise InputDomainError(f"arity must be a positive integer, got {arity!r}")
        exact: dict[tuple[int, ...], Fraction] = {}
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
                exact[key] = value
        den = math.lcm(*(value.denominator for value in exact.values()))
        reach = max((abs(e) for key in exact for e in key), default=0)
        bits = _bits_for(reach)
        packed = {
            _pack(key, bits): value.numerator * (den // value.denominator)
            for key, value in exact.items()
        }
        _fill(self, arity, packed, den, bits, reach)

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
    def terms(self) -> TermView:
        """Read-only map from exponent tuple to nonzero ``Fraction`` coefficient."""
        view = self._view
        if view is None:
            view = TermView(self)
            object.__setattr__(self, "_view", view)
        return view

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in graded-lexicographic order, highest first."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def _at(self, bits: int) -> dict[int, int]:
        """The packed map with keys at digit width ``bits`` (never narrower)."""
        if bits == self._bits:
            return self._terms
        return {
            _pack(exponents, bits): c
            for exponents, c in zip(self.terms.exponents(), self._terms.values())
        }

    # -- ring operations -------------------------------------------------

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            if other.arity != self.arity:
                raise InputDomainError(
                    f"arity mismatch: {self.arity} vs {other.arity}"
                )
            return other
        if isinstance(other, EXACT_SCALARS):
            return _constant(self.arity, other)
        return None

    def _plus(self, rhs: "LaurentPoly", sign: int) -> "LaurentPoly":
        """``self + sign * rhs`` over the least common denominator."""
        bits = max(self._bits, rhs._bits)
        lhs_terms, rhs_terms = self._at(bits), rhs._at(bits)
        lhs_den, rhs_den = self._den, rhs._den
        if lhs_den == rhs_den:
            merged, factor, den = dict(lhs_terms), sign, lhs_den
        else:
            common = math.gcd(lhs_den, rhs_den)
            merged = {k: c * (rhs_den // common) for k, c in lhs_terms.items()}
            factor, den = sign * (lhs_den // common), lhs_den // common * rhs_den
        for k, c in rhs_terms.items():
            total = merged.get(k, 0) + factor * c
            if total:
                merged[k] = total
            else:
                del merged[k]
        merged, den = _reduce(merged, den)
        return _made(self.arity, merged, den, bits, max(self._reach, rhs._reach))

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs, 1)

    __radd__ = __add__

    def __neg__(self):
        negated = {k: -c for k, c in self._terms.items()}
        return _made(self.arity, negated, self._den, self._bits, self._reach)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self._plus(rhs, -1)

    def __rsub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs._plus(self, -1)

    def __mul__(self, other):
        if not isinstance(other, LaurentPoly):
            if not isinstance(other, EXACT_SCALARS):
                return NotImplemented
            if not other:
                return _constant(self.arity, 0)
            scaled = {k: c * other.numerator for k, c in self._terms.items()}
            scaled, den = _reduce(scaled, self._den * other.denominator)
            return _made(self.arity, scaled, den, self._bits, self._reach)
        rhs = self._coerce(other)
        reach = self._reach + rhs._reach
        bits = max(self._bits, rhs._bits)
        if reach >> (bits - 1):
            bits = _bits_for(reach)
        rhs_items = list(rhs._at(bits).items())
        product: dict[int, int] = {}
        get = product.get
        for ka, ca in self._at(bits).items():
            for kb, cb in rhs_items:
                key = ka + kb
                total = get(key, 0) + ca * cb
                if total:
                    product[key] = total
                else:
                    del product[key]
        product, den = _reduce(product, self._den * rhs._den)
        return _made(self.arity, product, den, bits, reach)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise InputDomainError(
                f"polynomial powers must be non-negative integers, got {exponent!r}"
            )
        result = _constant(self.arity, 1)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            if other.arity != self.arity:
                return False
        elif isinstance(other, EXACT_SCALARS):
            other = _constant(self.arity, other)
        else:
            return NotImplemented
        if self._den != other._den or len(self._terms) != len(other._terms):
            return False
        bits = max(self._bits, other._bits)
        return self._at(bits) == other._at(bits)

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
        spans = self.terms.spans()
        for i, (low, _, _) in enumerate(spans):
            if coords[i] == 0 and low < 0:
                raise EvaluationPoleError(
                    f"variable {i + 1} is zero but occurs with a negative exponent"
                )
        if all(isinstance(c, EXACT_SCALARS) for c in coords):
            return self._exact_value(coords, spans)
        bases = [complex(c) for c in coords]
        power_cache: list[dict[int, complex]] = [{} for _ in range(self.arity)]
        total = complex(0)
        for exponents, coeff in self.terms.items():
            term = complex(coeff)
            for i, e in enumerate(exponents):
                if e == 0:
                    continue
                cache = power_cache[i]
                if e not in cache:
                    cache[e] = bases[i] ** e
                term = term * cache[e]
            total = total + term
        return total

    def _exact_value(self, coords: Sequence, spans) -> Fraction:
        """Exact value with denominators cleared: one ``Fraction`` at the end.

        With x_i = a_i/b_i and exponents of x_i in [lo_i, hi_i],
        x_i^e = a_i^(e-lo_i) b_i^(hi_i-e) * a_i^lo_i / b_i^hi_i, so the
        sum over terms runs on integers only.
        """
        numerator, denominator = 1, self._den
        weights = []
        for x, (low, high, seen) in zip(coords, spans):
            a, b = x.numerator, x.denominator
            weights.append({e: a ** (e - low) * b ** (high - e) for e in seen})
            if low < 0:
                denominator *= a**-low
            else:
                numerator *= a**low
            if high < 0:
                numerator *= b**-high
            else:
                denominator *= b**high
        total = 0
        for exponents, c in zip(self.terms.exponents(), self._terms.values()):
            for weight, e in zip(weights, exponents):
                c *= weight[e]
            total += c
        return Fraction(total * numerator, denominator)

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
                tuple(entry["exp"]): Fraction(read_int(entry["num"]), read_int(entry["den"]))
                for entry in data["terms"]
            }
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputDomainError(f"malformed polynomial JSON: {exc}") from exc
        return cls(arity, terms)

    def __repr__(self):
        return f"LaurentPoly({self.arity}, {self.to_text()})"

    __str__ = to_text


@dataclass(frozen=True)
class RationalFn:
    """A Laplace-domain body: numerator ``num`` over denominator ``den``.

    An immutable pair, kept as built: no arithmetic, no normal form.
    Equality compares numerator and denominator term for term, so two
    quotients equal as functions but written over different
    denominators compare unequal.
    """

    num: LaurentPoly
    den: LaurentPoly

    def __post_init__(self):
        if not isinstance(self.num, LaurentPoly):
            raise InputDomainError("numerator must be a LaurentPoly")
        if not isinstance(self.den, LaurentPoly):
            raise InputDomainError("denominator must be a LaurentPoly")
        if self.num.arity != self.den.arity:
            raise InputDomainError(
                f"arity mismatch: {self.num.arity} vs {self.den.arity}"
            )
        if self.den.is_zero:
            raise DegenerateDenominatorError("denominator is identically zero")

    @property
    def arity(self) -> int:
        return self.num.arity

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

    __str__ = to_text


def det(matrix: Sequence[Sequence]):
    """Determinant of a small square matrix of ring elements.

    Works for any elements supporting ``+``, unary ``-`` and ``*``
    (here: :class:`LaurentPoly`).  Uses cofactor expansion with
    memoization over column subsets, so each minor is computed once.
    The side is capped at ``MAX_DET_SIDE``.  Entries of different arities
    raise :class:`InputDomainError` at the first ``*`` or ``+`` mixing them.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise InputDomainError("determinant needs a non-empty square matrix")
    if n > MAX_DET_SIDE:
        raise InputDomainError(f"determinant side capped at {MAX_DET_SIDE}, got {n}")

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


def differences(xs: Iterable) -> list:
    """The factors x_j - x_i of the difference product, pairs i < j ordered by j then i.

    Only ``-`` is applied, so every factor keeps its inputs' type.  Two
    tuples of the same length give their factors pair for pair.
    """
    values = tuple(xs)
    return [x - earlier for j, x in enumerate(values) for earlier in values[:j]]


def difference_product(xs: Iterable):
    """prod_{i<j} (x_j - x_i), the Vandermonde product, in O(N^2) operations.

    Only ``-`` and ``*`` are applied, so integers stay integers and
    rationals, complex values or polynomials keep their type.  Over the
    identity tuple 1..N it is the Levi-Civita scale 1! 2! ... (N-1)!;
    over an index tuple it is that scale times the symbol.
    """
    return math.prod(differences(xs))


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
        return self.scale * self.body.evaluate(point)

    def varnames(self) -> tuple[str, ...]:
        return tuple(f"{self.prefix}{q}" for q in range(1, self.dim + 1))

    def latex_names(self) -> tuple[str, ...]:
        return tuple(f"{self.prefix}_{{{q}}}" for q in range(1, self.dim + 1))

    def to_text(self) -> str:
        body = self.body.to_text(self.varnames())
        if self.scale == 1:
            return body
        return f"{self.scale} * ({body})"
