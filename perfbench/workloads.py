"""Workload definitions: stratum counts and seeded argv generation.

A workload is one pass of requests, fixed by how many requests fall in
each (command, domain, dim) stratum.  Inside a stratum the varied
properties (output format, uniform or per-dimension steps, exact or
complex point, verify sample count) cycle through fixed shares, so every
seed gives the same mix; the seed picks the step constants, the points,
the verify seeds and the order.

Latencies cluster by dimension over four orders of magnitude, so a
percentile that fell on a stratum boundary would jump between clusters
from run to run.  The counts below put the p50 rank and the tail rank
well inside one stratum each; every run prints the rank span of each
stratum so that can be seen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

FORMATS = ("json", "text", "latex")
STEP_POOL = tuple(
    Fraction(n, d) for n, d in ((1, 2), (2, 3), (3, 4), (1, 1), (4, 3), (3, 2), (2, 1), (5, 2))
)
VERIFY_SAMPLES = (2, 3, 4)
MARGIN = 0.4  # distance kept from zeros and poles at complex points

# (command, domain, dim) -> requests per pass.  Dims with the same
# latency share a line; comments give the rank span each cluster covers
# when a pass is sorted by latency.
STRATA = {
    "emit": {
        ("z", 2): 12, ("z", 3): 12, ("s", 2): 10,      # ranks 1-34, ~5-10 ms
        ("z", 4): 24, ("s", 3): 6,                      # ranks 35-64, p50 inside z4
        ("s", 4): 15,                                   # ranks 65-79, ~70 ms
        ("z", 5): 15,                                   # ranks 80-94, p90 inside z5, ~120 ms
        ("s", 5): 3, ("z", 6): 3,                       # ranks 95-100, 1-2 s
    },
    "eval": {
        ("z", 2): 12, ("z", 3): 12, ("s", 2): 10,      # ranks 1-34
        ("z", 4): 24, ("s", 3): 6,                      # ranks 35-64, p50 inside z4
        ("s", 4): 16,                                   # ranks 65-80
        ("z", 5): 14,                                   # ranks 81-94, p90 inside z5
        ("s", 5): 4, ("z", 6): 2,                       # ranks 95-100
    },
    "verify": {
        ("-", 3): 14,                                   # ranks 1-14, ~30 ms
        ("-", 4): 26,                                   # ranks 15-40, p50 and p76 inside, ~100 ms
        ("-", 5): 2, ("-", 6): 1,                       # ranks 41-43, 2-5 s
    },
}


@dataclass(frozen=True)
class Request:
    command: str
    domain: str
    dim: int
    argv: tuple[str, ...]
    fmt: str = ""
    steps: tuple[Fraction, ...] = ()
    point: tuple = ()
    expected_pass: int = 0

    @property
    def stratum(self) -> str:
        if self.command == "verify":
            return f"verify/{self.dim}"
        return f"{self.command}/{self.domain}/{self.dim}"


def pass_size(workload: str) -> int:
    return sum(STRATA[workload].values())


def tail_percentile(workload: str) -> int:
    """Highest whole percentile with at least ten requests of a pass above it."""
    n = pass_size(workload)
    return (100 * (n - 10)) // n


def make_pass(workload: str, rng: random.Random) -> list[Request]:
    """One shuffled pass of the workload, drawn from ``rng``."""
    requests = [
        build(workload, rng, domain, dim, i)
        for (domain, dim), count in STRATA[workload].items()
        for i in range(count)
    ]
    rng.shuffle(requests)
    return requests


def build(command: str, rng: random.Random, domain: str, dim: int, i: int) -> Request:
    """Request ``i`` of the (command, domain, dim) stratum; ``i`` picks its variant."""
    return {"emit": _emit, "eval": _eval, "verify": _verify}[command](rng, domain, dim, i)


def _steps(rng: random.Random, dim: int, uniform: bool) -> tuple[Fraction, ...]:
    if uniform:
        return (rng.choice(STEP_POOL),) * dim
    return tuple(rng.choice(STEP_POOL) for _ in range(dim))


def _steps_arg(steps: tuple[Fraction, ...]) -> str:
    if len(set(steps)) == 1:
        return str(steps[0])
    return ",".join(str(t) for t in steps)


def _emit(rng, domain, dim, i) -> Request:
    fmt = FORMATS[i % 3]
    argv = ["emit", "--domain", domain, "--dim", str(dim), "--format", fmt]
    steps = ()
    if domain == "s":
        steps = _steps(rng, dim, uniform=i % 2 == 0)
        argv += ["--T", _steps_arg(steps)]
    return Request("emit", domain, dim, tuple(argv), fmt=fmt, steps=steps)


def _eval(rng, domain, dim, i) -> Request:
    exact = i % 2 == 0
    argv = ["eval", "--domain", domain, "--dim", str(dim)]
    if domain == "z":
        steps = ()
        point = seeded_point(rng, dim, (1,) * dim, exact, z_domain=True)
    else:
        steps = _steps(rng, dim, uniform=(i // 2) % 2 == 0)
        point = seeded_point(rng, dim, steps, exact, z_domain=False)
        argv += ["--T", _steps_arg(steps)]
    argv.append("--point=" + ",".join(_coordinate_arg(c) for c in point))
    return Request("eval", domain, dim, tuple(argv), steps=steps, point=point)


def _verify(rng, _domain, dim, i) -> Request:
    steps = _steps(rng, dim, uniform=i % 2 == 0)
    samples = VERIFY_SAMPLES[i % len(VERIFY_SAMPLES)]
    argv = (
        "verify", "--dim", str(dim), "--T", _steps_arg(steps),
        "--samples", str(samples), "--seed", str(rng.randrange(1 << 30)),
    )
    return Request("verify", "-", dim, argv, steps=steps, expected_pass=3 if dim <= 5 else 2)


def seeded_point(rng, dim, steps, exact: bool, z_domain: bool) -> tuple:
    """Seeded point off every zero and pole of the transform.

    z-domain: coordinates nonzero with 1/z_q pairwise apart.  s-domain:
    T_q s_q away from -2 (pole) and +2 (zero) and pairwise apart.  The
    gaps keep the reference value well away from zero at complex points.
    """
    while True:
        if exact:
            coords = tuple(
                Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 6))
                for _ in range(dim)
            )
        else:
            coords = tuple(
                complex(round(rng.uniform(-2, 2), 3), round(rng.uniform(-2, 2), 3))
                for _ in range(dim)
            )
        if z_domain:
            if any(abs(c) < 0.25 for c in coords):
                continue
            keys = [1 / c for c in coords]
            singular = []
        else:
            keys = [t * c if exact else float(t) * c for t, c in zip(steps, coords)]
            singular = [k - 2 for k in keys] + [k + 2 for k in keys]
        gaps = singular + [a - b for j, a in enumerate(keys) for b in keys[j + 1:]]
        if all(abs(g) >= MARGIN for g in gaps):
            return coords


def _coordinate_arg(c) -> str:
    if isinstance(c, Fraction):
        return str(c)
    return f"{c.real!r}{'+' if c.imag >= 0 else '-'}{abs(c.imag)!r}j"

