"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole suite targets well under a minute.
"""

import random
import time
from fractions import Fraction
from math import factorial

from zeps.algebra import LaurentPoly
from zeps.epsilon import (
    enumerate_indices,
    epsilon_generalized,
    epsilon_product,
    kron_delta,
    sign_oracle,
)
from zeps.sdomain import (
    TustinParams,
    laplace_2d_closed,
    laplace_compact_3d,
    laplace_determinant,
    pole_zero_report_2d,
    tustin_map,
)
from zeps.verify import random_s_point, rel_close
from zeps.ztransform import (
    brute_force_ztransform,
    compact_form_3d,
    determinant_ztransform,
    scale_constant,
)


def report(number, name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {name}")
    assert ok, f"criterion {number} failed: {name}"


def test_criterion_01_epsilon_closed_form_matches_parity():
    start = time.perf_counter()
    mismatches = 0
    for dim in (2, 3, 4, 5):
        for idx in enumerate_indices(dim):
            if epsilon_product(idx) != sign_oracle(idx):
                mismatches += 1
    elapsed = time.perf_counter() - start
    report(
        1,
        f"product closed form vs parity on all tuples, N=2..5 "
        f"({mismatches} mismatches, {elapsed:.2f}s)",
        mismatches == 0 and elapsed < 1.0,
    )


def test_criterion_02_two_dimensional_closed_form():
    result = determinant_ztransform(2)
    expected = LaurentPoly(2, {(-1, -2): 1, (-2, -1): -1})
    report(
        2,
        "2-D determinant form is exactly z1^-1 z2^-2 - z1^-2 z2^-1 with scale 1",
        result.scale == 1 and result.body == expected,
    )


def test_criterion_03_three_dimensional_scale_and_forms():
    determinant = determinant_ztransform(3)
    brute = brute_force_ztransform(3)
    compact = compact_form_3d()
    ok = (
        determinant.scale == Fraction(1, 2)
        and determinant.expanded() == brute.expanded()
        and compact.expanded() == determinant.expanded()
    )
    report(3, "3-D scale is 1/2; determinant == brute force == compact form", ok)


def test_criterion_04_higher_dimensional_determinant_identity():
    start = time.perf_counter()
    ok = True
    for dim in (4, 5):
        tuples = sum(1 for _ in enumerate_indices(dim))
        brute = brute_force_ztransform(dim)
        determinant = determinant_ztransform(dim)
        ok = ok and tuples == dim**dim
        ok = ok and len(brute.body.terms) == factorial(dim)
        ok = ok and all(c in (1, -1) for c in brute.body.terms.values())
        ok = ok and determinant.expanded() == brute.expanded()
    elapsed = time.perf_counter() - start
    report(
        4,
        f"determinant == brute force for N=4 (256 tuples, 24 terms) and "
        f"N=5 (3125 tuples, 120 terms) ({elapsed:.2f}s)",
        ok and elapsed < 10.0,
    )


def test_criterion_05_scale_constant_law():
    expected = {2: 1, 3: 2, 4: 12, 5: 288, 6: 34560}
    ok = True
    for dim, value in expected.items():
        product = 1
        for j in range(1, dim):
            product *= factorial(j)
        ok = ok and scale_constant(dim) == value == product
    report(5, "scale constant equals 1!*2!*...*(N-1)! for N=2..6", ok)


def test_criterion_06_two_dimensional_laplace_identity():
    ok = True
    for step in (Fraction(1), Fraction(1, 2), Fraction(3)):
        params = TustinParams.uniform(2, step)
        determinant = laplace_determinant(params)
        closed = laplace_2d_closed(params)
        ok = ok and determinant.scale == 1 and determinant.body == closed.body
    params = TustinParams.uniform(2)
    determinant = laplace_determinant(params)
    closed = laplace_2d_closed(params)
    rng = random.Random(2026)
    for _ in range(100):
        point = random_s_point(rng, params)
        ok = ok and rel_close(determinant.evaluate(point), closed.evaluate(point), 1e-10)
    report(
        6,
        "2-D Laplace determinant equals the direct closed form for T in {1, 1/2, 3} "
        "exactly and at 100 seeded points",
        ok,
    )


def test_criterion_07_three_dimensional_laplace_consistency():
    start = time.perf_counter()
    params = TustinParams.uniform(3)
    determinant = laplace_determinant(params)
    compact = laplace_compact_3d(params)
    z_form = determinant_ztransform(3)
    rng = random.Random(7)
    ok = True
    for _ in range(100):
        point = random_s_point(rng, params)
        via_det = determinant.evaluate(point)
        via_compact = compact(point)
        mapped = tuple(tustin_map(s, params.steps[q]) for q, s in enumerate(point))
        via_z = z_form.evaluate(mapped)
        ok = ok and rel_close(via_det, via_compact, 1e-10)
        ok = ok and rel_close(via_det, via_z, 1e-10)
        ok = ok and rel_close(via_compact, via_z, 1e-10)
    elapsed = time.perf_counter() - start
    report(
        7,
        f"3-D Laplace determinant, compact sum, and mapped Z-form agree pairwise "
        f"at 100 seeded points ({elapsed:.2f}s)",
        ok and elapsed < 30.0,
    )


def test_criterion_08_kronecker_identity():
    ok = all(
        kron_delta(m, p) == (1 if m == p else 0)
        for m in (1, 2, 3)
        for p in (1, 2, 3)
    )
    report(8, "gamma/cosine Kronecker delta reproduces the 3x3 identity", ok)


def test_criterion_09_generalized_epsilon_random_tables():
    rng = random.Random(1700)
    ok = True
    for dim in (2, 3, 4):
        for _ in range(50):
            values = set()
            while len(values) < dim:
                values.add(Fraction(rng.randint(-30, 30), rng.randint(1, 8)))
            table = list(values)
            rng.shuffle(table)
            for idx in enumerate_indices(dim):
                if epsilon_generalized(idx, table) != sign_oracle(idx):
                    ok = False
    report(
        9,
        "generalized closed form matches parity for 50 random injective rational "
        "tables per N in {2, 3, 4}",
        ok,
    )


def test_criterion_10_tustin_stability_map():
    rng = random.Random(9818)
    step = 1.0
    ok = True
    for _ in range(1000):
        s = complex(rng.uniform(-50, -1e-3), rng.uniform(-50, 50))
        ok = ok and abs(tustin_map(s, step)) < 1.0
    for _ in range(1000):
        s = complex(rng.uniform(1e-3, 50), rng.uniform(-50, 50))
        ok = ok and abs(tustin_map(s, step)) > 1.0
    for _ in range(1000):
        s = complex(0.0, rng.uniform(-50, 50))
        ok = ok and abs(abs(tustin_map(s, step)) - 1.0) <= 1e-12
    report(
        10,
        "bilinear map sends half-planes inside/outside the unit circle and the "
        "imaginary axis onto it (1000 seeded points each)",
        ok,
    )


def test_criterion_11_pole_zero_report_2d():
    params = TustinParams.uniform(2)
    rep = pole_zero_report_2d(params)
    ok = (
        rep.poles == ((Fraction(-2), 2), (Fraction(-2), 2))
        and rep.intra_zeros == ((Fraction(2), 1), (Fraction(2), 1))
        and rep.inter_zeros == ("s1 = s2",)
    )
    transform = laplace_determinant(params)
    rng = random.Random(31)
    for _ in range(10):
        shared = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if shared in (Fraction(-2), Fraction(2)):
            continue
        ok = ok and transform.evaluate((shared, shared)) == 0
        other = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if other != Fraction(-2):
            ok = ok and transform.evaluate((Fraction(2), other)) == 0
    report(
        11,
        "2-D report: poles -2 (mult 2), zeros +2, inter-dimensional zero s1=s2; "
        "transform vanishes on sampled zero sets",
        ok,
    )
