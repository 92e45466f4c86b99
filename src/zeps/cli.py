"""Command-line front end: emit closed forms, evaluate them at points,
run the verification sweeps, and print the 2-D pole/zero report.

Exit codes: 0 success, 1 verification failure (a check that raises fails
too), 2 usage or configuration error, 3 evaluation error (singular point,
pole, overflow).
"""

from __future__ import annotations

import cmath
import functools
import os
import sys
from collections.abc import Iterable
from fractions import Fraction
from types import SimpleNamespace

from .algebra import quoted, rational_text, read_rational
from .errors import InputDomainError, ZepsError
from .sdomain import (
    MAX_LAPLACE_DIM,
    TustinParams,
    factored_laplace,
    factored_laplace_value,
    pole_zero_report_2d,
)
from .verify import (
    EPSILON_CHECK,
    ORACLE_CHECK,
    TUSTIN_CHECK,
    CheckResult,
    SharedRoutes,
    check_determinant_oracle,
    check_epsilon_formulas,
    check_tustin_consistency,
)
from .ztransform import MAX_DIM, factored_value, factored_ztransform, require_dim

# Unused here; perfbench/tracing.py wraps these two names on this module.
from .sdomain import laplace_determinant  # noqa: F401
from .ztransform import determinant_ztransform  # noqa: F401

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_EVALUATION = 3

# What each --domain names: its dimension window, its builder of the steps and its
# evaluator of a point and the steps.
DOMAINS = {
    "z": (MAX_DIM, lambda params: factored_ztransform(params.dim),
          lambda point, _: factored_value(point)),
    "s": (MAX_LAPLACE_DIM, factored_laplace, factored_laplace_value),
}


def _parse_steps(text: str, dim: int) -> TustinParams:
    parts = text.split(",")
    if len(parts) == 1:
        return TustinParams.uniform(dim, parts[0])
    return TustinParams(dim, tuple(parts))


def _window_then_steps(args, high: int) -> TustinParams:
    """Check the dimension window, then read --T.

    Every command that takes --T reads it, so a malformed step is a
    usage error even where the command has no use for it.  The window
    comes first because the steps are built one per dimension.
    """
    require_dim(args.dim, high)
    return _parse_steps(args.T, args.dim)


def _parse_coordinate(text: str) -> "Fraction | complex":
    """An exact rational when the text reads as one, else a finite complex."""
    exact = read_rational(text)
    if exact is not None:
        return exact
    try:
        value = complex(text)
        if cmath.isfinite(value):
            return value
    except ValueError:
        pass
    raise InputDomainError(f"point coordinates must be finite numbers, got {quoted(text)}")


def _parse_point(text: str, dim: int) -> tuple:
    components = tuple(_parse_coordinate(part.strip()) for part in text.split(","))
    if len(components) != dim:
        raise ValueError(f"point needs {dim} components, got {len(components)}")
    if any(isinstance(c, complex) for c in components):
        try:
            components = tuple(complex(c) for c in components)
        except OverflowError as exc:
            raise InputDomainError(f"point too large for complex evaluation: {exc}") from exc
    return components


def cmd_emit(args) -> tuple[int, Iterable[str]]:
    """The built result's ``--format`` writer: its pieces, rendered as ``main`` writes them."""
    high, build, _ = DOMAINS[args.domain]
    result = build(_window_then_steps(args, high))
    return EXIT_OK, getattr(result, f"{args.format}_pieces")()


def cmd_eval(args) -> tuple[int, Iterable[str]]:
    high, _, value_at = DOMAINS[args.domain]
    params = _window_then_steps(args, high)
    value = value_at(_parse_point(args.point, args.dim), params)
    if isinstance(value, Fraction):
        return EXIT_OK, [rational_text(value)]
    if not cmath.isfinite(value):
        raise OverflowError(f"complex evaluation overflowed to {value}")
    return EXIT_OK, [str(value)]


def cmd_verify(args) -> tuple[int, Iterable[str]]:
    """One line a check; a check that raised fails, with what it raised as its detail.

    The checks read one ``SharedRoutes``, so the request sweeps the N**N
    tuples once and builds the factored z form once.
    """
    params = _window_then_steps(args, MAX_DIM)
    checks = [
        (EPSILON_CHECK, check_epsilon_formulas, (args.dim,)),
        (ORACLE_CHECK, check_determinant_oracle, (args.dim,)),
    ]
    lines = []
    if args.dim <= MAX_LAPLACE_DIM:
        checks.append((TUSTIN_CHECK, check_tustin_consistency, (params, args.samples, args.seed)))
    else:
        lines.append(
            f"SKIP: bilinear substitution consistency "
            f"(s-domain supports dim <= {MAX_LAPLACE_DIM})"
        )
    shared = SharedRoutes(args.dim)
    passed = True
    for name, check, check_args in checks:
        try:
            result = check(*check_args, shared=shared)
        except Exception as exc:
            name = name.format(dim=args.dim, samples=args.samples)
            result = CheckResult(name, (f"raised {type(exc).__name__}: {exc}",))
        lines.append(f"{'PASS' if result.passed else 'FAIL'}: {result.name}")
        for line in result.details:
            print(f"    {line}", file=sys.stderr)
        passed = passed and result.passed
    return EXIT_OK if passed else EXIT_VERIFY_FAILED, ["\n".join(lines)]


def cmd_report(args) -> tuple[int, Iterable[str]]:
    params = _window_then_steps(args, MAX_DIM)
    if args.dim != 2:
        raise ValueError(
            f"pole/zero report is implemented for dim 2 only; for dims 3 to {MAX_DIM} use "
            "`verify` (sampling-based consistency checks) instead"
        )
    return EXIT_OK, [getattr(pole_zero_report_2d(params), f"to_{args.format}")()]


# Each command's function, its summary and its options, one row an option:
# name, converter (``int`` or text), choices (None for any), default,
# whether it is required, and help line.
_SHAPE = (
    ("dim", int, None, None, True, "dimension N (z: 2 to 6, s: 2 to 5)"),
    ("T", str, None, "1", False, "step constant(s), e.g. 1 or 1/2,1/4"),
)
_DOMAIN = ("domain", str, tuple(DOMAINS), None, True, "Z-domain form or its Laplace image")
COMMANDS = {
    "emit": (cmd_emit, "print a closed-form transform", (
        *_SHAPE, _DOMAIN,
        ("format", str, ("json", "latex", "text"), "text", False, "output format"),
    )),
    "eval": (cmd_eval, "evaluate a transform at a point", (
        *_SHAPE, _DOMAIN,
        ("point", str, None, None, True,
         "comma-separated coordinates, exact like 3/4 or complex like 1+2j"),
    )),
    "verify": (cmd_verify, "run the oracle cross-checks", (
        *_SHAPE,
        ("samples", int, None, 100, False, "random points per sampled check, at least 1"),
        ("seed", int, None, 0, False, "seed of the random points"),
    )),
    "report": (cmd_report, "2-D pole/zero structure", (
        *_SHAPE,
        ("format", str, ("json", "text"), "text", False, "output format"),
    )),
}
SUMMARY = "Exact Z-domain and Tustin-mapped Laplace-domain closed forms for the Levi-Civita symbol"


class Parser:
    """``zeps COMMAND (--name VALUE | --name=VALUE)...`` read against a table like ``COMMANDS``.

    A value given as its own token is the next token, whatever it starts
    with.  A unique prefix names an option, and a repeated option keeps its
    last value.  ``-h``/``--help`` prints help to stdout and raises
    ``SystemExit(0)``; a usage error prints a usage line and the error to
    stderr and raises ``SystemExit(2)``.
    """

    def __init__(self, commands: dict):
        self.commands = commands

    def parse_args(self, argv=None) -> SimpleNamespace:
        """The command's name and function, and each option's value or default."""
        argv = sys.argv[1:] if argv is None else list(argv)
        command = argv[0] if argv else ""
        if _named(command, ("help",)):
            self.help(None)
        if command not in self.commands:
            self.error(None, f"the command must be one of {', '.join(self.commands)}, "
                       f"got {command!r}")
        func, _, rows = self.commands[command]
        options = {row[0]: row for row in rows}
        values = {"command": command, "func": func, **{row[0]: row[3] for row in rows}}
        tokens = iter(argv[1:])
        for token in tokens:
            found = _named(token, (*options, "help"))
            if found == ["help"]:
                self.help(command)
            if len(found) != 1:
                self.error(command, f"ambiguous option {token!r}: --{', --'.join(found)}"
                           if found else f"unrecognized argument {token!r}")
            name, convert, choices = options[found[0]][:3]
            _, has_value, text = token.partition("=")
            text = text if has_value else next(tokens, None)
            if text is None:
                self.error(command, f"argument --{name}: expected one value")
            try:
                values[name] = convert(text)
            except ValueError:
                self.error(command, f"argument --{name}: invalid {convert.__name__} value: "
                           f"{text!r}")
            if choices is not None and values[name] not in choices:
                self.error(command, f"argument --{name}: invalid choice: {text!r} "
                           f"(choose from {', '.join(choices)})")
        missing = [f"--{row[0]}" for row in rows if row[4] and values[row[0]] is None]
        if missing:
            self.error(command, f"the following arguments are required: {', '.join(missing)}")
        return SimpleNamespace(**values)

    def usage(self, command: "str | None") -> str:
        if command is None:
            return f"usage: zeps [-h] {{{','.join(self.commands)}}} ..."
        shown = (_flag(row) if row[4] else f"[{_flag(row)}]" for row in self.commands[command][2])
        return f"usage: zeps {command} [-h] {' '.join(shown)}"

    def help(self, command: "str | None"):
        if command is None:
            title, summary = "commands", SUMMARY
            rows = [(name, entry[1]) for name, entry in self.commands.items()]
        else:
            title, summary = "options", self.commands[command][1]
            rows = [("-h, --help", "show this help and exit")] + [
                (_flag(row), row[5] if row[3] is None else f"{row[5]} (default {row[3]})")
                for row in self.commands[command][2]
            ]
        width = max(len(left) for left, _ in rows) + 2
        lines = [self.usage(command), "", summary, "", f"{title}:"]
        lines += [f"  {left:<{width}}{right}" for left, right in rows]
        sys.stdout.write("\n".join(lines) + "\n")
        raise SystemExit(EXIT_OK)

    def error(self, command: "str | None", message: str):
        prog = "zeps" if command is None else f"zeps {command}"
        sys.stderr.write(f"{self.usage(command)}\n{prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _named(token: str, names) -> list:
    """What ``-h`` or ``--word[=value]`` may name: ``word`` itself, else the names it begins."""
    if token == "-h":
        return ["help"]
    word = token.partition("=")[0][2:]
    if not token.startswith("--") or not word:
        return []
    return [word] if word in names else [name for name in names if name.startswith(word)]


def _flag(row: tuple) -> str:
    name, choices = row[0], row[2]
    return f"--{name} {name.upper() if choices is None else '{' + ','.join(choices) + '}'}"


@functools.cache
def build_parser() -> Parser:
    """The process's one parser: built on the first call, shared after."""
    return Parser(COMMANDS)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "samples", 1) < 1:
        parser.error(args.command, "--samples must be >= 1")
    # The command builds its result and returns the pieces of its output,
    # so a failed build writes nothing; each piece is written as it is
    # rendered, and a writer's error ends the output with its own message.
    try:
        code, pieces = args.func(args)
        try:
            for piece in pieces:
                print(piece, end="")
            print()
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed early (``zeps emit ... | head``).  Point stdout
            # at /dev/null so the interpreter's flush at exit fails no more.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except (ZeroDivisionError, OverflowError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return EXIT_EVALUATION
    except (ZepsError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
