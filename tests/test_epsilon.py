import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zeps.algebra import difference_product
from zeps.epsilon import (
    _identity_product,
    _product_value,
    check_index,
    enumerate_indices,
    epsilon_generalized,
    epsilon_product,
    gamma_int,
    kron_delta,
    sign_oracle,
)
from zeps.errors import (
    DegenerateDenominatorError,
    IdentityViolationError,
    InputDomainError,
    UnsupportedDimensionError,
)

# Complete sign tables for 2, 3 and 4 dimensions.
SIGN_TABLE_2 = {(1, 2): 1, (2, 1): -1, (1, 1): 0, (2, 2): 0}
PLUS_3 = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
MINUS_3 = [(1, 3, 2), (2, 1, 3), (3, 2, 1)]
PLUS_4 = [
    (1, 2, 3, 4), (1, 3, 4, 2), (1, 4, 2, 3),
    (2, 1, 4, 3), (2, 3, 1, 4), (2, 4, 3, 1),
    (3, 1, 2, 4), (3, 2, 4, 1), (3, 4, 1, 2),
    (4, 1, 3, 2), (4, 2, 1, 3), (4, 3, 2, 1),
]
MINUS_4 = [
    (1, 3, 2, 4), (1, 4, 3, 2), (1, 2, 4, 3),
    (2, 4, 1, 3), (2, 1, 3, 4), (2, 3, 4, 1),
    (3, 2, 1, 4), (3, 4, 2, 1), (3, 1, 4, 2),
    (4, 3, 1, 2), (4, 1, 2, 3), (4, 2, 3, 1),
]


class TestSignOracle:
    def test_basic_values(self):
        assert sign_oracle((1, 2)) == 1
        assert sign_oracle((1, 1)) == 0
        assert sign_oracle((3, 1, 2)) == 1
        assert sign_oracle((4, 3, 2, 1)) == 1

    def test_two_dimensional_table(self):
        for idx, value in SIGN_TABLE_2.items():
            assert sign_oracle(idx) == value

    def test_three_dimensional_table(self):
        for idx in PLUS_3:
            assert sign_oracle(idx) == 1
        for idx in MINUS_3:
            assert sign_oracle(idx) == -1
        assert sign_oracle((1, 1, 3)) == 0
        assert sign_oracle((2, 3, 2)) == 0

    def test_four_dimensional_table(self):
        for idx in PLUS_4:
            assert sign_oracle(idx) == 1
        for idx in MINUS_4:
            assert sign_oracle(idx) == -1
        # those 24 are exactly the permutations; everything else is zero
        seen = set(PLUS_4) | set(MINUS_4)
        for idx in enumerate_indices(4):
            if idx not in seen:
                assert sign_oracle(idx) == 0

    def test_malformed_index_rejected(self):
        with pytest.raises(InputDomainError):
            sign_oracle(())
        with pytest.raises(InputDomainError):
            sign_oracle((0, 1))
        with pytest.raises(InputDomainError):
            sign_oracle((1, 3))  # 3 outside [1, 2]
        with pytest.raises(InputDomainError):
            sign_oracle((1.0, 2.0))

    def test_check_index_normalizes(self):
        assert check_index([2, 1]) == (2, 1)

    @given(st.integers(2, 5), st.data())
    def test_antisymmetry_under_transposition(self, dim, data):
        idx = list(
            data.draw(
                st.tuples(*[st.integers(1, dim)] * dim),
                label="index tuple",
            )
        )
        a = data.draw(st.integers(0, dim - 1), label="first position")
        b = data.draw(st.integers(0, dim - 1).filter(lambda x: x != a), label="second position")
        swapped = list(idx)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        assert sign_oracle(swapped) == -sign_oracle(idx)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_nonzero_count_splits_evenly(self, dim):
        values = [sign_oracle(idx) for idx in enumerate_indices(dim)]
        assert values.count(1) == factorial(dim) // 2
        assert values.count(-1) == factorial(dim) // 2
        assert values.count(0) == dim**dim - factorial(dim)


class TestEpsilonProduct:
    def test_two_dimensional_closed_form(self):
        # N=2 the product collapses to (n2 - n1)/1
        assert epsilon_product((1, 2)) == 1
        assert epsilon_product((2, 1)) == -1
        assert epsilon_product((1, 1)) == 0

    def test_three_dimensional_value(self):
        # (1/2)(3-2)(1-2)(1-3) = +1
        assert epsilon_product((2, 3, 1)) == 1

    def test_repeated_index_vanishes(self):
        assert epsilon_product((1, 1, 3)) == 0
        assert epsilon_product((2, 3, 3, 1)) == 0

    def test_dimension_one_unsupported(self):
        with pytest.raises(UnsupportedDimensionError):
            epsilon_product((1,))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_matches_oracle_exhaustively(self, dim):
        for idx in enumerate_indices(dim):
            assert epsilon_product(idx) == sign_oracle(idx)

    def test_matches_oracle_on_all_six_dimensional_tuples(self):
        # 6**6 = 46,656 tuples; only the 720 with distinct indices reach the division
        for idx in enumerate_indices(6):
            assert epsilon_product(idx) == sign_oracle(idx)

    def test_non_integer_product_raises(self, monkeypatch):
        # integer indices always give an integer product; a half-integer
        # index let past validation breaks that, and a raise (unlike an
        # assert) survives python -O
        monkeypatch.setattr("zeps.epsilon.check_index", tuple)
        with pytest.raises(IdentityViolationError):
            epsilon_product((1, Fraction(3, 2)))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_kernel_equals_the_full_product_quotient(self, dim):
        # the kernel stops at its first zero factor; on every tuple it still
        # gives the quotient of the whole difference product by D(1..N)
        scale = _identity_product(dim)
        for idx in enumerate_indices(dim):
            assert divmod(difference_product(idx), scale) == (_product_value(idx), 0)

    def test_kernel_checks_the_remainder_itself(self):
        # no zero factor, so the half-integer product reaches the division
        with pytest.raises(IdentityViolationError):
            _product_value((1, Fraction(3, 2)))


class TestEpsilonGeneralized:
    def test_identity_table_reproduces_oracle(self):
        for dim in (2, 3):
            table = list(range(1, dim + 1))
            for idx in enumerate_indices(dim):
                assert epsilon_generalized(idx, table) == sign_oracle(idx)

    def test_non_injective_table_rejected(self):
        with pytest.raises(DegenerateDenominatorError):
            epsilon_generalized((1, 2), [3, 3])

    def test_wrong_table_length_rejected(self):
        with pytest.raises(InputDomainError):
            epsilon_generalized((1, 2), [1, 2, 3])

    def test_dimension_one_unsupported(self):
        with pytest.raises(UnsupportedDimensionError):
            epsilon_generalized((1,), [5])

    def test_random_rational_tables_agree_exhaustively(self):
        rng = random.Random(42)
        for _ in range(50):
            table = set()
            while len(table) < 3:
                table.add(Fraction(rng.randint(-20, 20), rng.randint(1, 6)))
            table = list(table)
            rng.shuffle(table)
            for idx in enumerate_indices(3):
                assert epsilon_generalized(idx, table) == sign_oracle(idx)

    @pytest.mark.parametrize(
        "table",
        [
            [0.5, -1.25, 3.75],
            # whole products of ten such differences overflow (or underflow)
            # a float; the paired ratios stay near +/-1
            [k * 1e200 for k in range(1, 6)],
            [k * 1e-200 for k in range(1, 6)],
        ],
    )
    def test_float_table_close_to_oracle(self, table):
        for idx in enumerate_indices(len(table)):
            assert abs(epsilon_generalized(idx, table) - sign_oracle(idx)) < 1e-12


class TestKronDelta:
    def test_identity_matrix(self):
        for m in (1, 2, 3):
            for p in (1, 2, 3):
                assert kron_delta(m, p) == (1 if m == p else 0)

    def test_out_of_domain_rejected(self):
        with pytest.raises(InputDomainError):
            kron_delta(0, 1)
        with pytest.raises(InputDomainError):
            kron_delta(1, 4)

    def test_gamma_int(self):
        assert [gamma_int(k) for k in (1, 2, 3, 4)] == [1, 1, 2, 6]
        with pytest.raises(InputDomainError):
            gamma_int(0)


class TestEnumerateIndices:
    def test_two_dimensional_order(self):
        assert list(enumerate_indices(2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_counts_and_uniqueness(self):
        for dim in (1, 2, 3):
            tuples = list(enumerate_indices(dim))
            assert len(tuples) == dim**dim
            assert len(set(tuples)) == len(tuples)
            assert tuples == sorted(tuples)

    def test_dimension_one(self):
        assert list(enumerate_indices(1)) == [(1,)]

    def test_invalid_dimension(self):
        with pytest.raises(InputDomainError):
            enumerate_indices(0)
