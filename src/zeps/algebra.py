"""Exact multivariate Laurent polynomials, and the numerator/denominator
pair that carries a Laplace-domain body.

Variables are positional: a polynomial of arity N has variables
numbered 1..N, and entry i-1 of each exponent tuple belongs to
variable i.  Floating point enters only at evaluation time, and only
when the evaluation point itself is inexact.

A :class:`LaurentPoly` is a packed integer kernel: a map from packed
monomials to integer numerators over one shared positive denominator.
A monomial's key is one integer, deg * B^N + sum_i e_i * B^(N-i) with
B = 2^bits: its total degree above its exponents, read as balanced
digits in [-B/2, B/2), variable 1 the most significant.  Degree and
digits both add, so a monomial product is one integer addition and
negative exponents need no offset.  The digits span less than B^N, so
integer order on keys is graded-lexicographic order on monomials.  The
digit width widens with the exponents, so any integer exponent packs
without wrapping.  The denominator is kept coprime to the numerators,
so equal polynomials carry identical maps.

The polynomial's own methods read only the packed map.  Evaluation
unpacks its exponent columns once, on first need; the writers sort the
keys as integers and read each monomial's text from two tables, one per
half of the key's digits, so no exponent tuple is built.  ``terms``
serves outside readers: a read-only map from exponent tuples to nonzero
:class:`fractions.Fraction` coefficients, built on first use.  The
serialization order is graded-lexicographic, highest first.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import sys
from fractions import Fraction
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import (
    DegenerateDenominatorError,
    EvaluationPoleError,
    InputDomainError,
)

EXACT_SCALARS = (int, Fraction)

MAX_DET_SIDE = 8


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


# How LaTeX writes a fraction from the texts of its numerator and denominator.
LATEX_FRACTION = "\\frac{{{}}}{{{}}}"


def rational_text(value: Fraction, fraction: str = "{}/{}") -> str:
    """``str(value)`` for a rational of any length: ``3`` or ``1/2``.

    ``fraction`` lays out a value that is not an integer from the texts
    of its numerator and denominator.
    """
    if value.denominator == 1:
        return int_text(value.numerator)
    return fraction.format(int_text(value.numerator), int_text(value.denominator))


def quoted(value) -> str:
    """``repr(value)`` for a message, cut to its first 40 characters."""
    text = repr(value)
    return text if len(text) <= 40 else text[:40] + "..."


def exact_repr(self) -> str:
    """``Type(field=value, ...)`` over a record's fields, each rational's digits written by
    ``int_text``: ``repr``'s text for short values, and no digit cap on long ones."""

    def shown(value) -> str:
        if isinstance(value, tuple):
            return f"({', '.join(map(shown, value))}{',' * (len(value) == 1)})"
        if isinstance(value, Fraction):
            return f"Fraction({int_text(value.numerator)}, {int_text(value.denominator)})"
        return repr(value)

    items = (f"{name}={shown(getattr(self, name))}" for name in self._fields)
    return f"{type(self).__qualname__}({', '.join(items)})"


class Record:
    """An immutable record over the fields its class annotates, after its bases' fields.

    It is built from the fields' values, by position or by keyword, and
    then checked by ``__post_init__``.  Two records are equal when their
    types are the same and their fields equal; the hash is the fields'.
    Assigning an attribute raises :class:`AttributeError`.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields += tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) + len(kwargs) != len(names) or not set(kwargs) <= set(names[len(args):]):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(names)}")
        self.__dict__.update(zip(names, args), **kwargs)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} instances are immutable")

    __delattr__ = __setattr__
    __repr__ = exact_repr


_EXPONENT = re.compile(r"\s*[-+]?[\d_.]*[eE][-+]?([\d_]+)\s*")
_DIGIT_RUN = re.compile(r"\d+")


def _past_cap(text: str, cap: int) -> InputDomainError:
    return InputDomainError(f"{quoted(text)} exceeds Python's int-to-str cap of {cap} digits")


def read_rational(text: str) -> "Fraction | None":
    """``Fraction(text)`` under Python's int-to-str digit cap; None if no rational.

    A value whose numerator or denominator has more digits than the cap
    raises :class:`InputDomainError`, whether they are written out or
    reached through exponent notation, which ``int``'s own cap would let
    pass.  So does an exponent with more digits than the cap itself,
    before ``Fraction`` expands it (``1e10000000`` alone takes seconds).
    """
    cap = sys.get_int_max_str_digits()
    match = _EXPONENT.fullmatch(text)
    if cap and match and len(match.group(1).replace("_", "").lstrip("0")) > len(str(cap)):
        raise _past_cap(text, cap)
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        # int refuses a run of written-out digits past the cap
        if cap and any(len(run) > cap for run in _DIGIT_RUN.findall(text.replace("_", ""))):
            raise _past_cap(text, cap) from None
        return None
    longest = max(abs(value.numerator), value.denominator)
    # 2**(3 cap) < 10**cap, so the power is built only for long values
    if cap and longest.bit_length() > 3 * cap and longest >= 10**cap:
        raise _past_cap(text, cap)
    return value


def json_number(value: Fraction) -> dict:
    """An exact rational as ``{"num": n, "den": d}`` with integer parts."""
    return {"num": value.numerator, "den": value.denominator}


# The writers yield their text in pieces of at most ``PIECE_TERMS``
# polynomial terms, so a long document is written as it is rendered and is
# never held whole.  Each ``to_*`` method is the join of its writer's pieces.
PIECE_TERMS = 256


def _batched(pieces: Iterable[str], sep: str = "") -> Iterator[str]:
    """``sep.join(pieces)`` in pieces of ``PIECE_TERMS`` at a time."""
    pieces, lead = iter(pieces), ""
    while batch := list(itertools.islice(pieces, PIECE_TERMS)):
        yield lead + sep.join(batch)
        lead = sep


def laid_out(layout: str, *parts) -> Iterator[str]:
    """``layout.format(*parts)`` in pieces; each part is a string or an iterable of pieces."""
    literals = layout.format(*["\0"] * len(parts)).split("\0")
    for literal, part in zip(literals, parts):
        yield literal
        yield from (part,) if isinstance(part, str) else part
    yield literals[-1]


# A JSON document is a dict of strings, integers, lists and dicts with
# plain-name keys (no floats, bools or nulls), whose values may also be
# polynomials.  ``json_pieces`` writes it, and ``_json_tree`` gives the
# dict that ``json.dumps`` would write the same.  zeps reads no JSON back.


def _json_tree(fields: Mapping) -> dict:
    """The document as a dict, each polynomial as its ``to_json_dict``."""
    return {
        key: value.to_json_dict() if isinstance(value, LaurentPoly) else value
        for key, value in fields.items()
    }


def json_pieces(value, level: int = 0) -> Iterator[str]:
    """``json.dumps(value, indent=2)`` in pieces, byte for byte, at any integer length.

    Each polynomial writes itself with ``json_pieces``, the bytes of
    ``json.dumps`` on its ``to_json_dict``.  Every integer goes through
    ``int_text`` and only strings reach ``json.dumps``.  ``level``
    indents every line after the first as the value of a key ``level``
    objects deep.
    """
    if isinstance(value, (int, str)):
        yield int_text(value) if isinstance(value, int) else json.dumps(value)
    elif isinstance(value, LaurentPoly):
        yield from value.json_pieces(level)
    else:
        pad, ends = "\n" + "  " * (level + 1), "{}" if isinstance(value, dict) else "[]"
        items = value.items() if isinstance(value, dict) else ((None, v) for v in value)
        for i, (key, item) in enumerate(items):
            yield f"{',' if i else ends[0]}{pad}" + (f'"{key}": ' if key is not None else "")
            yield from json_pieces(item, level + 1)
        yield pad[:-2] + ends[1] if value else ends


def _default_names(arity: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(1, arity + 1))


# A monomial x_1^e_1 ... x_N^e_N is packed into the integer
# deg * 2**(bits*N) + sum_i e_i * 2**(bits*(N-i)), deg = sum_i e_i: its
# exponents are the balanced base-2**bits digits, each in
# [-2**(bits-1), 2**(bits-1)), variable 1 the highest, and its degree sits
# above them.  Multiplying two monomials adds their keys.  The width starts
# at 16 bits and doubles as far as the exponents a polynomial can reach
# require, so no exponent ever wraps.
_MIN_BITS = 16


def _bits_for(reach: int) -> int:
    """The narrowest digit width whose balanced digits hold every |e| <= reach."""
    bits = _MIN_BITS
    while reach >> (bits - 1):
        bits *= 2
    return bits


def _pack(exponents: Sequence[int], bits: int) -> int:
    """The key of x_1^e_1 ... x_N^e_N: its degree, then e_1 down to e_N.

    The N digits span B**N - 1 at most (B = 2**bits), less than one unit
    of degree, so keys compare by degree first and then digit by digit,
    variable 1 first: integer order is graded-lexicographic order.
    """
    key = sum(exponents)
    for e in exponents:
        key = (key << bits) + e
    return key


def _digit_bias(bits: int, arity: int) -> int:
    """Half a digit's range in each of the ``arity`` digits, degree 0: added to a
    key, it makes every balanced digit an ordinary one in [0, 2**bits)."""
    return ((1 << bits * arity) - 1) // ((1 << bits) - 1) << (bits - 1)


def _reduce(terms: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """Divide out the factor the numerators share with the denominator."""
    if den != 1:
        common = math.gcd(den, *terms.values())
        if common != 1:
            return {k: c // common for k, c in terms.items()}, den // common
    return terms, den


def _fill(poly, arity: int, terms: dict[int, int], den: int, bits: int, reach: int):
    object.__setattr__(poly, "arity", arity)
    object.__setattr__(poly, "_terms", terms)
    object.__setattr__(poly, "_den", den)
    object.__setattr__(poly, "_bits", bits)
    object.__setattr__(poly, "_reach", reach)
    object.__setattr__(poly, "_view", None)
    object.__setattr__(poly, "_columns", None)
    return poly


def _made(arity: int, terms: dict[int, int], den: int, bits: int, reach: int) -> "LaurentPoly":
    """A polynomial from a packed map the caller vouches for; nothing is checked."""
    return _fill(object.__new__(LaurentPoly), arity, terms, den, bits, reach)


def _constant(arity: int, value) -> "LaurentPoly":
    """The constant polynomial for an ``int`` or ``Fraction``."""
    terms = {0: value.numerator} if value else {}
    return _made(arity, terms, value.denominator, _MIN_BITS, 0)


def _sum_of_products(arity: int, weighted: Sequence[tuple]) -> "LaurentPoly":
    """``sum(w * a * b)`` over the ``(w, a, b)`` in ``weighted``, ``a`` and ``b`` polynomials.

    The products' numerator maps go over the least common denominator
    of their denominators ``a._den * b._den``, each scaled by its share
    of it.  The largest ``a._reach + b._reach`` bounds every product's
    exponents and sets the one digit width.  All products accumulate in
    one map; cancelled terms are dropped and the map is reduced once, at
    the end.  ``a * b`` is the one-product case.
    """
    den = math.lcm(*(a._den * b._den for _, a, b in weighted))
    reach = max(a._reach + b._reach for _, a, b in weighted)
    bits = _bits_for(reach)
    total: dict[int, int] = {}
    get = total.get
    for w, a, b in weighted:
        factor = w * (den // (a._den * b._den))
        b_items = list(b._at(bits).items())
        for ka, ca in a._at(bits).items():
            ca *= factor
            for kb, cb in b_items:
                key = ka + kb
                total[key] = get(key, 0) + ca * cb
    if 0 in total.values():
        total = {k: c for k, c in total.items() if c}
    total, den = _reduce(total, den)
    return _made(arity, total, den, bits, reach)


class TermView(Mapping):
    """``LaurentPoly.terms``: a read-only map from exponent tuple to ``Fraction``.

    It serves readers outside the polynomial.  ``len`` reads the packed
    map; anything else builds the ``Fraction`` dict once, and the view
    keeps it for the polynomial's lifetime.
    """

    __slots__ = ("_poly", "_fractions")

    def __init__(self, poly: "LaurentPoly"):
        self._poly = poly
        self._fractions = None

    def _dict(self) -> dict[tuple[int, ...], Fraction]:
        if self._fractions is None:
            poly = self._poly
            numerators = poly._terms.values()
            if poly._den == 1:
                values = map(Fraction, numerators)
            else:
                values = (Fraction(c, poly._den) for c in numerators)
            self._fractions = dict(zip(poly._unpacked()[0], values))
        return self._fractions

    def __len__(self) -> int:
        return len(self._poly._terms)

    def __getitem__(self, exponents):
        return self._dict()[exponents]

    def __iter__(self):
        return iter(self._dict())

    def __repr__(self):
        return repr(self._dict())


class LaurentPoly:
    """Canonical multivariate Laurent polynomial over the rationals.

    Instances are immutable values; every operation returns a fresh
    polynomial.  Scalars (``int``/``Fraction``) mix freely on either
    side of ``+``, ``-``, ``*`` and ``==``.

    The value is ``(1/_den) * sum c * x**e`` over ``_terms``, a dict from
    packed monomials (see ``_pack``, digit width ``_bits``; integer order
    on keys is grlex) to nonzero integers ``c``.  ``_den`` is positive and
    coprime to the ``c``s, so equal polynomials have equal ``(_den,
    _terms)``.  ``_reach`` bounds every ``|e_i|`` from above, so a product
    knows before it starts whether its keys fit the width.  The methods
    here read only this map.  Evaluation and repacking read its exponent
    columns, unpacked once (``_unpacked``); the writers walk the sorted
    keys (``_walk``) and unpack nothing.  The public ``terms`` is a
    read-only map from exponent tuples to ``Fraction``s for outside
    readers, built on first use.  Ring operations build their results
    without revalidating them.
    """

    __slots__ = ("arity", "_terms", "_den", "_bits", "_reach", "_view", "_columns")

    def __init__(self, arity: int, terms: Mapping[Sequence[int], object] | None = None):
        if not isinstance(arity, int) or arity < 1:
            raise InputDomainError(f"arity must be a positive integer, got {arity!r}")
        exact: dict[tuple[int, ...], int | Fraction] = {}
        for exponents, coeff in (terms or {}).items():
            key = tuple(exponents)
            if len(key) != arity:
                raise InputDomainError(
                    f"exponent tuple {key} does not match arity {arity}"
                )
            if not all(isinstance(e, int) for e in key):
                raise InputDomainError(f"exponents must be integers: {key}")
            if not isinstance(coeff, EXACT_SCALARS):
                raise InputDomainError(
                    f"coefficients must be integers or Fractions, got {type(coeff).__name__}"
                )
            if coeff:
                exact[key] = coeff
        den = math.lcm(*(coeff.denominator for coeff in exact.values()))
        reach = max((abs(e) for key in exact for e in key), default=0)
        bits = _bits_for(reach)
        packed = {
            _pack(key, bits): coeff.numerator * (den // coeff.denominator)
            for key, coeff in exact.items()
        }
        _fill(self, arity, packed, den, bits, reach)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly instances are immutable")

    # -- named builder ---------------------------------------------------

    @classmethod
    def variable(cls, arity: int, var: int, power: int = 1) -> "LaurentPoly":
        """Monomial ``x_var ** power``; ``var`` is 1-based."""
        if not 1 <= var <= arity:
            raise InputDomainError(f"variable {var} outside [1, {arity}]")
        exponents = [0] * arity
        exponents[var - 1] = power
        return cls(arity, {tuple(exponents): 1})

    # -- structure -------------------------------------------------------

    @property
    def terms(self) -> TermView:
        """Read-only map from exponent tuple to nonzero ``Fraction`` coefficient."""
        view = self._view
        if view is None:
            view = TermView(self)
            object.__setattr__(self, "_view", view)
        return view

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _unpacked(self) -> tuple[list[tuple[int, ...]], list[tuple[int, int, frozenset]]]:
        """The exponent tuples in the packed map's order, and per variable its
        lowest exponent, highest exponent and every exponent seen; built once.

        Adding ``_digit_bias`` makes each digit an ordinary base-2**bits
        digit in [0, 2**bits), so all of them are read off with shifts and
        masks, variable 1 the highest; the degree above them is not read.
        A variable with no terms reads (0, 0, {}).
        """
        if self._columns is None:
            bits, arity = self._bits, self.arity
            half = 1 << (bits - 1)
            mask = (1 << bits) - 1
            bias = _digit_bias(bits, arity)
            biased = [k + bias for k in self._terms]
            columns = [
                [(t >> shift & mask) - half for t in biased]
                for shift in range(bits * (arity - 1), -1, -bits)
            ]
            spans = [
                (min(column), max(column), frozenset(column)) if column else (0, 0, frozenset())
                for column in columns
            ]
            object.__setattr__(self, "_columns", (list(zip(*columns)), spans))
        return self._columns

    def _at(self, bits: int) -> dict[int, int]:
        """The packed map with keys at digit width ``bits`` (never narrower)."""
        if bits == self._bits:
            return self._terms
        return {
            _pack(exponents, bits): c
            for exponents, c in zip(self._unpacked()[0], self._terms.values())
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
        return _sum_of_products(self.arity, ((1, self, self._coerce(other)),))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise InputDomainError(
                f"polynomial powers must be non-negative integers, got {exponent!r}"
            )
        return math.prod([self] * exponent, start=_constant(self.arity, 1))

    def __eq__(self, other):
        if isinstance(other, LaurentPoly) and other.arity != self.arity:
            return False
        other = self._coerce(other)
        if other is None:
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
        keys, spans = self._unpacked()
        for i, (low, _, _) in enumerate(spans):
            if coords[i] == 0 and low < 0:
                raise EvaluationPoleError(
                    f"variable {i + 1} is zero but occurs with a negative exponent"
                )
        if all(isinstance(c, EXACT_SCALARS) for c in coords):
            return self._exact_value(coords)
        # c / den is correctly rounded, bit for bit float(Fraction(c, den))
        den = self._den
        bases = [complex(c) for c in coords]
        power_cache: list[dict[int, complex]] = [{} for _ in range(self.arity)]
        total = complex(0)
        for exponents, c in zip(keys, self._terms.values()):
            term = complex(c / den)
            for i, e in enumerate(exponents):
                if e == 0:
                    continue
                cache = power_cache[i]
                if e not in cache:
                    cache[e] = bases[i] ** e
                term = term * cache[e]
            total = total + term
        return total

    def _exact_value(self, coords: Sequence) -> Fraction:
        """Exact value with denominators cleared: one ``Fraction`` at the end.

        With x_i = a_i/b_i and exponents of x_i in [lo_i, hi_i],
        x_i^e = a_i^(e-lo_i) b_i^(hi_i-e) * a_i^lo_i / b_i^hi_i, so the
        sum over terms runs on integers only.
        """
        keys, spans = self._unpacked()
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
        for exponents, c in zip(keys, self._terms.values()):
            for weight, e in zip(weights, exponents):
                c *= weight[e]
            total += c
        return Fraction(total * numerator, denominator)

    # -- rendering and serialization --------------------------------------

    def _walk(
        self, piece: Callable[[int, int], object], empty
    ) -> Iterator[tuple[object, int, int]]:
        """Each term as ``(monomial, num, den)``, graded-lexicographic, highest first.

        Integer order on keys is grlex (``_pack``), so the walk sorts the
        keys themselves.  ``monomial`` is ``empty`` followed by
        ``piece(i, e_i)`` for each variable, i from 0: the text of the
        biased key's high digits (variables 1..ceil(N/2)) joined to that
        of its low digits, each half's text built once per distinct half.
        ``num/den`` is the coefficient in lowest terms, reduced against
        the shared denominator with one gcd, or with none when that
        denominator is 1; no ``Fraction`` is built.
        Every writer reads the terms through this walk.
        """
        bits, arity, terms, den = self._bits, self.arity, self._terms, self._den
        half, mask = 1 << (bits - 1), (1 << bits) - 1
        split = arity - arity // 2  # variables 1..split are the high half
        low = (1 << bits * (arity - split)) - 1
        high = (1 << bits * arity) - 1 ^ low
        keys, bias = sorted(terms, reverse=True), _digit_bias(bits, arity)
        biased = [k + bias for k in keys]

        def texts(halves: set[int], variables: range) -> dict:
            table = {}
            for digits in halves:
                text = empty
                for i in variables:
                    text += piece(i, (digits >> bits * (arity - 1 - i) & mask) - half)
                table[digits] = text
            return table

        highs = texts({b & high for b in biased}, range(split))
        lows = texts({b & low for b in biased}, range(split, arity))
        for k, b in zip(keys, biased):
            c = terms[k]
            common = math.gcd(c, den) if den != 1 else 1
            yield highs[b & high] + lows[b & low], c // common, den // common

    def text_pieces(self, varnames: Sequence[str] | None = None) -> Iterator[str]:
        """Deterministic plain-text form, e.g. ``z1^-1*z2^-2 - z1^-2*z2^-1``."""
        return _batched(self._render(varnames, "*", "{}^{}", "{}/{}"))

    def latex_pieces(self, varnames: Sequence[str] | None = None) -> Iterator[str]:
        """LaTeX form with explicit negative exponents, e.g. ``z_{1}^{-1}``."""
        return _batched(self._render(varnames, " ", "{}^{{{}}}", LATEX_FRACTION))

    def to_text(self, varnames: Sequence[str] | None = None) -> str:
        return "".join(self.text_pieces(varnames))

    def to_latex(self, varnames: Sequence[str] | None = None) -> str:
        return "".join(self.latex_pieces(varnames))

    def _render(self, varnames, join: str, power_fmt: str, fraction_fmt: str) -> Iterator[str]:
        """Each signed term in grlex order; a unit magnitude is shown only on constants."""
        if not self:
            yield "0"
            return
        names = tuple(varnames) if varnames else _default_names(self.arity)

        def power(i: int, e: int) -> str:
            if e == 0:
                return ""
            return join + (names[i] if e == 1 else power_fmt.format(names[i], e))

        signs = ("", "-")  # the first term's; every later sign is spaced
        for monomial, num, den in self._walk(power, ""):
            magnitude = abs(num)
            if den != 1:
                shown = fraction_fmt.format(int_text(magnitude), int_text(den))
            elif magnitude == 1 and monomial:
                shown, monomial = "", monomial[len(join):]
            else:
                shown = int_text(magnitude)
            yield f"{signs[num < 0]}{shown}{monomial}"
            signs = (" + ", " - ")

    def to_json_dict(self) -> dict:
        """JSON-ready dict: ``{arity, terms: [{exp, num, den}, ...]}``.

        Coefficients are decimal strings of exact integers and terms
        follow the graded-lexicographic order, so the output is
        bit-stable for equal polynomials.
        """
        return {
            "arity": self.arity,
            "terms": [
                {"exp": list(exponents), "num": int_text(num), "den": int_text(den)}
                for exponents, num, den in self._walk(lambda i, e: (e,), ())
            ],
        }

    def json_pieces(self, level: int = 0) -> Iterator[str]:
        """``json.dumps(self.to_json_dict(), indent=2)`` in pieces, byte for byte.

        Written term by term from fixed templates, with no dict built.
        ``level`` indents every line after the first as the value of a
        key ``level`` objects deep.
        """
        pad = "\n" + "  " * level
        fields, entries, term_fields, exp_items = (pad + "  " * n for n in (1, 2, 3, 4))

        def exp(i: int, e: int) -> str:
            return f"{',' if i else ''}{exp_items}{e}"

        yield f'{{{fields}"arity": {self.arity},{fields}"terms": ['
        if self:
            head = f'{entries}{{{term_fields}"exp": ['
            num_open = f'{term_fields}],{term_fields}"num": "'
            den_open = f'",{term_fields}"den": "'
            close = f'"{entries}}}'
            yield from _batched((
                f"{head}{exps}{num_open}{int_text(num)}{den_open}{int_text(den)}{close}"
                for exps, num, den in self._walk(exp, "")
            ), ",")
            yield fields
        yield f"]{pad}}}"

    def to_json(self, level: int = 0) -> str:
        return "".join(self.json_pieces(level))

    def __repr__(self):
        return f"LaurentPoly({self.arity}, {self.to_text()})"

    __str__ = to_text


class RationalFn(Record):
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
        if not self.den:
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

    def text_pieces(self, varnames: Sequence[str] | None = None) -> Iterator[str]:
        num, den = self.num.text_pieces(varnames), self.den.text_pieces(varnames)
        return num if self.den == 1 else laid_out("({}) / ({})", num, den)

    def latex_pieces(self, varnames: Sequence[str] | None = None) -> Iterator[str]:
        num, den = self.num.latex_pieces(varnames), self.den.latex_pieces(varnames)
        return num if self.den == 1 else laid_out(LATEX_FRACTION, num, den)

    def to_text(self, varnames: Sequence[str] | None = None) -> str:
        return "".join(self.text_pieces(varnames))

    def to_latex(self, varnames: Sequence[str] | None = None) -> str:
        return "".join(self.latex_pieces(varnames))

    def _json_fields(self) -> dict:
        return {"arity": self.arity, "numerator": self.num, "denominator": self.den}

    def to_json_dict(self) -> dict:
        return _json_tree(self._json_fields())

    __str__ = to_text


def sum_of_products(weighted: Iterable[tuple]):
    """``sum(w * (a * b))`` over the ``(w, a, b)`` in ``weighted``, each ``w`` an ``int``.

    With a :class:`LaurentPoly` among the factors the sum is one
    accumulation in one packed map (``_sum_of_products``): each distinct
    ``int`` or ``Fraction`` factor becomes the constant polynomial once,
    any other scalar raises :class:`TypeError`, and polynomial factors of
    different arities raise :class:`InputDomainError`.  All-scalar input
    takes the generic ``sum``, so ``int`` and ``Fraction`` factors keep
    their type.
    """
    weighted = list(weighted)
    polys = [x for _, a, b in weighted for x in (a, b) if isinstance(x, LaurentPoly)]
    if not polys:
        return sum(w * (a * b) for w, a, b in weighted)
    arity = polys[0].arity
    for poly in polys:
        if poly.arity != arity:
            raise InputDomainError(f"arity mismatch: {arity} vs {poly.arity}")
    if len(polys) < 2 * len(weighted):  # some factor is a scalar
        scalars = {x for _, a, b in weighted for x in (a, b) if not isinstance(x, LaurentPoly)}
        if not all(isinstance(x, EXACT_SCALARS) for x in scalars):
            raise TypeError("only int and Fraction scalars multiply a LaurentPoly")
        constants = {x: _constant(arity, x) for x in scalars}

        def lifted(x):
            return x if isinstance(x, LaurentPoly) else constants[x]

        weighted = [(w, lifted(a), lifted(b)) for w, a, b in weighted]
    return _sum_of_products(arity, weighted)


def det(matrix: Sequence[Sequence]):
    """Determinant of a small square matrix of ring elements.

    Cofactor expansion, memoized over column subsets so each minor is
    computed once.  Each minor, sum_i +-entry_i * minor_i, is one
    ``sum_of_products``: a single packed map when a polynomial takes part,
    where entries of different arities raise :class:`InputDomainError`,
    else the generic ``sum``, so ``int`` and ``Fraction`` entries keep
    their type.  The side is capped at ``MAX_DET_SIDE``.
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
        if cols not in memo:
            memo[cols] = sum_of_products([
                (-1 if i % 2 else 1, matrix[row][c], minor(cols[:i] + cols[i + 1 :]))
                for i, c in enumerate(cols)
            ])
        return memo[cols]

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


# Past this, CPython's complex division overflows inside its own denominator.
_HALF_FLOAT_MAX = sys.float_info.max / 2


def quotient(top, bottom):
    """``top / bottom``, with a complex ``bottom`` past half the float maximum first scaled.

    CPython divides complex values by Smith's method, whose denominator
    reaches twice ``bottom``'s larger part: ``1 / (1e308+1e308j)`` reads
    ``-0j``.  There both sides are divided by 4, which is exact, so the
    quotient is the one the unscaled division would give without overflow;
    any other pair is divided as it is.
    """
    if isinstance(bottom, complex) and max(abs(bottom.real), abs(bottom.imag)) > _HALF_FLOAT_MAX:
        top, bottom = (complex(z.real / 4, z.imag / 4) for z in (complex(top), bottom))
    return top / bottom


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


class ScaledForm(Record):
    """A closed form ``scale * body`` in the variables ``<prefix>1..<prefix>dim``.

    Each domain subclasses this with its ``body`` (a :class:`LaurentPoly`
    or a :class:`RationalFn`), its variable prefix, its metadata, its
    JSON fields and its LaTeX layout (``latex_pieces``).  Every writer
    yields its text in pieces; each ``to_*`` method joins them.
    """

    scale: Fraction

    prefix = "x"

    @property
    def dim(self) -> int:
        """The number of variables: the body's arity."""
        return self.body.arity

    def evaluate(self, point: Sequence) -> "Fraction | complex":
        return self.scale * self.body.evaluate(point)

    def varnames(self) -> tuple[str, ...]:
        return tuple(f"{self.prefix}{q}" for q in range(1, self.dim + 1))

    def latex_names(self) -> tuple[str, ...]:
        return tuple(f"{self.prefix}_{{{q}}}" for q in range(1, self.dim + 1))

    def _scaled(self, body, layout: str, fraction: str = LATEX_FRACTION) -> Iterator[str]:
        """``body``'s pieces alone at scale 1, else ``layout`` laid out with the scale and them.

        The scale is written with the ``fraction`` layout, LaTeX's by default.
        """
        if self.scale == 1:
            return body
        return laid_out(layout, rational_text(self.scale, fraction), body)

    def text_pieces(self) -> Iterator[str]:
        return self._scaled(self.body.text_pieces(self.varnames()), "{} * ({})", "{}/{}")

    def json_pieces(self) -> Iterator[str]:
        """``json.dumps(self.to_json_dict(), indent=2)``, written straight from the packed maps."""
        return json_pieces(self._json_fields())

    def to_text(self) -> str:
        return "".join(self.text_pieces())

    def to_latex(self) -> str:
        """The domain's LaTeX layout, from its ``latex_pieces``."""
        return "".join(self.latex_pieces())

    def to_json(self) -> str:
        return "".join(self.json_pieces())

    def _json_fields(self) -> dict:
        """The JSON document, polynomials among its values; each domain declares its own."""
        raise NotImplementedError

    def to_json_dict(self) -> dict:
        return _json_tree(self._json_fields())
