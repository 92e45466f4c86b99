"""Output readers: parse what ``zeps`` printed and check it against the reference.

``emit`` output (json, text or latex) is parsed back into a function and
evaluated exactly at seeded rational probe points; each value must equal
the reference exactly.  ``eval`` output must equal the reference exactly
at exact points and lie within ``COMPLEX_TOL`` relative error at complex
points.  ``verify`` must print the expected ``PASS:`` and ``SKIP:`` lines.

Every check also reports decimal digits of agreement with the
reference: an exact match counts as ``DIGITS_CAP``.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from reference import s_reference, z_reference
from workloads import Request, seeded_point

COMPLEX_TOL = 1e-2  # relative error allowed at complex eval points
DIGITS_CAP = 16.0
PROBES = 2


class BadOutput(Exception):
    pass


@dataclass(frozen=True)
class Verdict:
    ok: bool
    digits: float
    reason: str = ""


def check(request: Request, exit_code: int, text: str, rng: random.Random) -> Verdict:
    """Verdict for one request's exit code and stdout."""
    if exit_code != 0:
        return Verdict(False, 0.0, f"exit code {exit_code}")
    try:
        if request.command == "emit":
            return _check_emit(request, text, rng)
        if request.command == "eval":
            return _check_eval(request, text)
        return _check_verify(request, text)
    except (BadOutput, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return Verdict(False, 0.0, f"{type(exc).__name__}: {exc}")


def _reference(request: Request, point):
    if request.domain == "z":
        return z_reference(point)
    return s_reference(point, request.steps)


# -- eval and verify ---------------------------------------------------------


def _check_eval(request: Request, text: str) -> Verdict:
    want = _reference(request, request.point)
    if isinstance(want, Fraction):
        got = Fraction(text.strip())
        if got != want:
            return Verdict(False, 0.0, f"got {got}, reference {want}")
        return Verdict(True, DIGITS_CAP)
    got = complex(text.strip())
    if not (math.isfinite(got.real) and math.isfinite(got.imag)):
        return Verdict(False, 0.0, f"non-finite value {got}")
    error = abs(got - want) / abs(want)
    digits = min(DIGITS_CAP, -math.log10(error)) if error else DIGITS_CAP
    if not error <= COMPLEX_TOL:
        return Verdict(False, digits, f"relative error {error:.3g} above {COMPLEX_TOL:g}")
    return Verdict(True, digits)


def _check_verify(request: Request, text: str) -> Verdict:
    lines = text.splitlines()
    passed = sum(line.startswith("PASS: ") for line in lines)
    skipped = sum(line.startswith("SKIP: ") for line in lines)
    want_skip = 1 if request.expected_pass == 2 else 0
    if passed != request.expected_pass or skipped != want_skip or len(lines) != passed + skipped:
        return Verdict(False, 0.0, f"{passed} PASS and {skipped} SKIP lines in {len(lines)}")
    return Verdict(True, DIGITS_CAP)


# -- emit --------------------------------------------------------------------


def _check_emit(request: Request, text: str, rng: random.Random) -> Verdict:
    function = READERS[request.fmt](request, text)
    for _ in range(PROBES):
        point = seeded_point(rng, request.dim, request.steps or (1,) * request.dim,
                             exact=True, z_domain=request.domain == "z")
        got, want = function(point), _reference(request, point)
        if got != want:
            return Verdict(False, 0.0, f"value {got} at {point}, reference {want}")
    return Verdict(True, DIGITS_CAP)


def _poly_value(terms, point) -> Fraction:
    """sum of coeff * prod point[i] ** e over (coeff, exponents) pairs."""
    powers = [{} for _ in point]
    total = Fraction(0)
    for coeff, exponents in terms:
        term = coeff
        for i, e in enumerate(exponents):
            if e:
                cache = powers[i]
                if e not in cache:
                    cache[e] = point[i] ** e
                term *= cache[e]
        total += term
    return total


def _json_terms(poly: dict, dim: int):
    if poly["arity"] != dim:
        raise BadOutput(f"arity {poly['arity']} for dim {dim}")
    terms = []
    for entry in poly["terms"]:
        if len(entry["exp"]) != dim:
            raise BadOutput(f"exponent {entry['exp']} for dim {dim}")
        terms.append((Fraction(int(entry["num"]), int(entry["den"])), tuple(entry["exp"])))
    return terms


def _fraction(data: dict) -> Fraction:
    return Fraction(int(data["num"]), int(data["den"]))


def read_json(request: Request, text: str):
    """The function a json ``emit`` output describes, checked against ``request``."""
    data = json.loads(text)
    if data["dim"] != request.dim:
        raise BadOutput(f"dim {data['dim']}, expected {request.dim}")
    scale = _fraction(data["scale"])
    if request.domain == "z":
        body = _json_terms(data["body"], request.dim)
        return lambda point: scale * _poly_value(body, point)
    if tuple(_fraction(t) for t in data["T"]) != request.steps:
        raise BadOutput(f"steps {data['T']}, expected {request.steps}")
    num = _json_terms(data["numerator"], request.dim)
    den = _json_terms(data["denominator"], request.dim)
    return lambda point: scale * _poly_value(num, point) / _poly_value(den, point)


_SCALED = re.compile(r"^(\d+(?:/\d+)?) \* \((.*)\)$", re.S)
_QUOTIENT = re.compile(r"^\(([^()]*)\) / \(([^()]*)\)$", re.S)


def _text_terms(body: str, request: Request):
    """Parse ``z1^-1*z2^-2 - 3/2*z1^-2 + ...`` into (coeff, exponents) pairs."""
    pieces = re.split(r" ([+-]) ", body.strip())
    signs = ["+"] + pieces[1::2]
    terms = []
    for sign, piece in zip(signs, pieces[0::2]):
        if piece.startswith("-"):
            if terms or sign != "+":
                raise BadOutput(f"misplaced sign in {piece!r}")
            sign, piece = "-", piece[1:]
        coeff = Fraction(1)
        exponents = [0] * request.dim
        for factor in piece.split("*"):
            if factor[0].isdigit():
                coeff *= Fraction(factor)
                continue
            name, _, power = factor.partition("^")
            if name[0] != request.domain:
                raise BadOutput(f"variable {name!r} in {request.domain}-domain output")
            exponents[int(name[1:]) - 1] += int(power) if power else 1
        terms.append((-coeff if sign == "-" else coeff, tuple(exponents)))
    return terms


def read_text(request: Request, text: str):
    """The function a text ``emit`` output describes: ``[scale * (]body[)]``."""
    body = text.strip()
    scale = Fraction(1)
    scaled = _SCALED.match(body)
    if scaled:
        scale, body = Fraction(scaled.group(1)), scaled.group(2)
    if request.domain == "z":
        terms = _text_terms(body, request)
        return lambda point: scale * _poly_value(terms, point)
    quotient = _QUOTIENT.match(body)
    if not quotient:
        raise BadOutput("s-domain text is not (numerator) / (denominator)")
    num = _text_terms(quotient.group(1), request)
    den = _text_terms(quotient.group(2), request)
    return lambda point: scale * _poly_value(num, point) / _poly_value(den, point)


_LATEX_TOKEN = re.compile(r"\\frac|\\left\(|\\right\)|\\,|[{}^+-]|\d+|[zs]_\{\d+\}|\s+")


def read_latex(request: Request, text: str):
    """Tokenize LaTeX output once; the returned function evaluates it at a point."""
    tokens = []
    position = 0
    body = text.strip()
    while position < len(body):
        match = _LATEX_TOKEN.match(body, position)
        if not match:
            raise BadOutput(f"unexpected LaTeX at {body[position:position + 20]!r}")
        if not match.group().isspace() and match.group() != "\\,":
            tokens.append(match.group())
        position = match.end()
    for token in tokens:
        if token[0] in "zs" and (token[0] != request.domain or int(token[3:-1]) > request.dim):
            raise BadOutput(f"variable {token} in {request.domain}-domain dim {request.dim}")
    return lambda point: _LatexEvaluator(tokens, point).value()


class _LatexEvaluator:
    """Recursive descent over the LaTeX subset zeps prints, evaluating as it goes.

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor factor*
    factor := int | \\frac{expr}{expr} | var ['^{' ['-'] int '}']
              | \\left( expr \\right) ['^{' int '}']
    """

    def __init__(self, tokens, point):
        self.tokens = tokens
        self.point = point
        self.at = 0

    def value(self) -> Fraction:
        result = self.expr()
        if self.at != len(self.tokens):
            raise BadOutput(f"trailing LaTeX token {self.tokens[self.at]!r}")
        return result

    def peek(self):
        return self.tokens[self.at] if self.at < len(self.tokens) else None

    def take(self, expected=None):
        token = self.peek()
        if token is None or (expected is not None and token != expected):
            raise BadOutput(f"expected {expected!r}, found {token!r}")
        self.at += 1
        return token

    def expr(self) -> Fraction:
        negative = self.peek() == "-"
        if negative:
            self.take()
        total = -self.term() if negative else self.term()
        while self.peek() in ("+", "-"):
            sign = self.take()
            total = total + self.term() if sign == "+" else total - self.term()
        return total

    def term(self) -> Fraction:
        product = self.factor()
        while self.peek() not in (None, "+", "-", "}", "\\right)"):
            product *= self.factor()
        return product

    def factor(self) -> Fraction:
        token = self.take()
        if token.isdigit():
            return Fraction(int(token))
        if token == "\\frac":
            self.take("{")
            num = self.expr()
            self.take("}")
            self.take("{")
            den = self.expr()
            self.take("}")
            return num / den
        if token == "\\left(":
            base = self.expr()
            self.take("\\right)")
        elif token[0] in "zs":
            base = self.point[int(token[3:-1]) - 1]
        else:
            raise BadOutput(f"unexpected LaTeX token {token!r}")
        if self.peek() != "^":
            return base
        self.take("^")
        self.take("{")
        negative = self.peek() == "-"
        if negative:
            self.take()
        power = int(self.take())
        self.take("}")
        return base ** (-power if negative else power)


READERS = {"json": read_json, "text": read_text, "latex": read_latex}


# -- corrupted-output self-check ---------------------------------------------


def corrupt(request: Request, text: str) -> str:
    """A plausible but wrong copy of ``text``: one coefficient or verdict changed."""
    if request.command == "verify":
        return text.replace("PASS: ", "FAIL: ", 1)
    if request.command == "eval":
        value = text.strip()
        if value.startswith("("):
            return f"{complex(value) * 1.5}\n"
        return f"{Fraction(value) + 1}\n"
    if request.fmt == "json":
        data = json.loads(text)
        poly = data["body"] if request.domain == "z" else data["numerator"]
        poly["terms"][0]["num"] = str(-int(poly["terms"][0]["num"]))
        return json.dumps(data, indent=2) + "\n"
    if " + " in text:
        return text.replace(" + ", " - ", 1)
    return text.replace(" - ", " + ", 1)


def self_check(samples) -> None:
    """Each reader accepts a real output and rejects its corrupted copy.

    ``samples`` holds (request, stdout) pairs from real ``zeps`` runs.
    Raises ``RuntimeError`` when a reader gets either case wrong.
    """
    for request, text in samples:
        rng = random.Random(7)
        verdict = check(request, 0, text, rng)
        if not verdict.ok:
            raise RuntimeError(f"reader rejects real output of {request.argv}: {verdict.reason}")
        verdict = check(request, 0, corrupt(request, text), random.Random(7))
        if verdict.ok:
            raise RuntimeError(f"reader accepts corrupted output of {request.argv}")
