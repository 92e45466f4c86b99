"""Command-line front end: emit closed forms, evaluate them at points,
run the verification sweeps, and print the 2-D pole/zero report.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 evaluation error (singular point, pole, overflow).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import os
import sys
from collections.abc import Iterable
from fractions import Fraction

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
    params = _window_then_steps(args, MAX_DIM)
    checks = [check_epsilon_formulas(args.dim), check_determinant_oracle(args.dim)]
    lines = []
    if args.dim <= MAX_LAPLACE_DIM:
        checks.append(check_tustin_consistency(params, args.samples, args.seed))
    else:
        lines.append(
            f"SKIP: bilinear substitution consistency "
            f"(s-domain supports dim <= {MAX_LAPLACE_DIM})"
        )
    for check in checks:
        lines.append(f"{'PASS' if check.passed else 'FAIL'}: {check.name}")
        for line in check.details:
            print(f"    {line}", file=sys.stderr)
    passed = all(check.passed for check in checks)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED, ["\n".join(lines)]


def cmd_report(args) -> tuple[int, Iterable[str]]:
    params = _window_then_steps(args, MAX_DIM)
    if args.dim != 2:
        raise ValueError(
            f"pole/zero report is implemented for dim 2 only; for dims 3 to {MAX_DIM} use "
            "`verify` (sampling-based consistency checks) instead"
        )
    return EXIT_OK, [getattr(pole_zero_report_2d(params), f"to_{args.format}")()]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser: built on the first call, shared after."""
    parser = argparse.ArgumentParser(
        prog="zeps",
        description=(
            "Exact Z-domain and Tustin-mapped Laplace-domain closed forms "
            "for the Levi-Civita symbol"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # --dim and --T, shared by every command
    shape = argparse.ArgumentParser(add_help=False)
    shape.add_argument("--dim", type=int, required=True)
    shape.add_argument("--T", default="1", help="step constant(s), e.g. 1 or 1/2,1/4")

    emit = sub.add_parser("emit", parents=[shape], help="print a closed-form transform")
    emit.add_argument("--domain", choices=DOMAINS, required=True)
    emit.add_argument("--format", choices=("json", "latex", "text"), default="text")
    emit.set_defaults(func=cmd_emit)

    evaluate = sub.add_parser("eval", parents=[shape], help="evaluate a transform at a point")
    evaluate.add_argument("--domain", choices=DOMAINS, required=True)
    evaluate.add_argument(
        "--point",
        required=True,
        help="comma-separated coordinates; rationals like 3/4 stay exact, "
        "complex values use re+imj syntax",
    )
    evaluate.set_defaults(func=cmd_eval)

    verify = sub.add_parser("verify", parents=[shape], help="run the oracle cross-checks")
    verify.add_argument("--samples", type=int, default=100)
    verify.add_argument("--seed", type=int, default=0)
    verify.set_defaults(func=cmd_verify)

    report = sub.add_parser("report", parents=[shape], help="2-D pole/zero structure")
    report.add_argument("--format", choices=("json", "text"), default="text")
    report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "samples", 1) < 1:
        parser.error("--samples must be >= 1")
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
