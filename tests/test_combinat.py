import math
from itertools import combinations_with_replacement

import pytest

from crsplucker.combinat import (
    InputPartition,
    complete_homogeneous_coefficients,
    enumerate_partitions_no_ones,
    kostka_two_row,
    stirling_first,
)
from crsplucker.symfunc import SchurClass, TwoRowPartition, class_product, unit_class

from monomial_oracle import all_two_row


def brute_force_partitions(max_weight):
    """Independent enumeration: filter all multisets of parts in [2, max_weight]."""
    found = set()
    for w in range(2, max_weight + 1):
        for length in range(1, w // 2 + 1):
            for combo in combinations_with_replacement(range(2, w + 1), length):
                if sum(combo) == w:
                    found.add(tuple(sorted(combo, reverse=True)))
    return found


def contents(w):
    """Every partition of w into positive parts, largest part first."""
    from sympy.utilities.iterables import partitions as sym_partitions

    for mult in sym_partitions(w):
        yield tuple(sorted((k for k, e in mult.items() for _ in range(e)), reverse=True))


class TestInputPartition:
    def test_rejects_ones_and_zeros(self):
        with pytest.raises(ValueError):
            InputPartition((2, 1))
        with pytest.raises(ValueError):
            InputPartition((0,))

    def test_derived_quantities(self):
        lam = InputPartition((2, 2, 10))
        assert lam.parts == (10, 2, 2)
        assert lam.weight == 14
        assert lam.reduction == (9, 1, 1)
        assert lam.codim == 11
        assert lam.largest == 10
        assert lam.multiplicities == {10: 1, 2: 2}

    def test_codim_identity(self):
        for parts in [(2,), (3, 2), (4, 4, 4), (7, 2, 2, 2)]:
            lam = InputPartition(parts)
            assert lam.codim == lam.weight - len(lam.parts)

    def test_canonical_string_roundtrip(self):
        lam = InputPartition((10, 2, 2))
        assert lam.canonical_string() == "10,2,2"
        assert InputPartition.parse("10,2,2") == lam


class TestEnumeration:
    def test_weight_three(self):
        assert [p.parts for p in enumerate_partitions_no_ones(3)] == [(2,), (3,)]

    def test_weight_four(self):
        assert [p.parts for p in enumerate_partitions_no_ones(4)] == [(2,), (3,), (4,), (2, 2)]

    def test_against_brute_force(self):
        for n in (6, 9, 12):
            got = [p.parts for p in enumerate_partitions_no_ones(n)]
            assert set(got) == brute_force_partitions(n)
            assert len(got) == len(set(got))

    def test_deterministic_order(self):
        got = enumerate_partitions_no_ones(8)
        weights = [p.weight for p in got]
        assert weights == sorted(weights)
        assert got == enumerate_partitions_no_ones(8)


class TestKostka:
    def test_examples(self):
        assert kostka_two_row((2, 1), (2, 1)) == 1
        assert kostka_two_row((3, 1), (2, 1, 1)) == 2
        assert kostka_two_row((1, 1), (2,)) == 0

    def test_weight_mismatch(self):
        with pytest.raises(ValueError, match="content weight"):
            kostka_two_row((2, 1), (2, 2))

    def test_zero_content_entry_rejected(self):
        with pytest.raises(ValueError):
            kostka_two_row((2, 0), (2, 0))

    def test_equals_h_expansion_up_to_weight_14(self):
        # two independent computations of the same number
        for w in range(1, 15):
            for content in contents(w):
                h = complete_homogeneous_coefficients(content)
                assert len(h) == w // 2 + 1
                for shape in all_two_row(w):
                    assert h[shape[1]] == kostka_two_row(shape, content), (shape, content)

    def test_vanishing_agrees_with_count(self):
        for w in range(1, 15):
            for content in contents(w):
                for shape in all_two_row(w):
                    vanish = shape[0] < max(content)
                    assert vanish == (kostka_two_row(shape, content) == 0), (shape, content)

    def test_vanishing_examples(self):
        assert kostka_two_row(TwoRowPartition(3, 3), (4, 1, 1)) == 0
        assert kostka_two_row(TwoRowPartition(4, 2), (4, 1, 1)) == 1
        assert kostka_two_row(TwoRowPartition(5, 0), (3, 1, 1)) == 1


class TestStirling:
    def test_examples(self):
        assert stirling_first(5, 0) == 1
        assert stirling_first(3, 1) == 3
        assert stirling_first(5, 2) == 35

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="stirling_first requires"):
            stirling_first(3, 3)
        with pytest.raises(ValueError, match="stirling_first requires"):
            stirling_first(0, 0)

    def test_recurrence(self):
        # c(m+1, j) = c(m, j-1) + m*c(m, j), with c(m, m-k) = stirling_first(m, k)
        def c(m, j):
            return stirling_first(m, m - j) if 0 <= m - j <= m - 1 else (1 if m == j == 0 else 0)

        for m in range(1, 15):
            for j in range(0, m + 2):
                assert c(m + 1, j) == c(m, j - 1) + m * c(m, j)

    def test_row_sum_is_factorial(self):
        for m in range(1, 13):
            assert sum(stirling_first(m, k) for k in range(m)) == math.factorial(m)


class TestCompleteHomogeneous:
    # entry r2 is the coefficient of s_(w-r2, r2) in h_nu
    def test_single_part(self):
        assert complete_homogeneous_coefficients((4,)) == [1, 0, 0]

    def test_one_one(self):
        assert complete_homogeneous_coefficients((1, 1)) == [1, 1]

    def test_two_one(self):
        assert complete_homogeneous_coefficients((2, 1)) == [1, 1]

    def test_zero_part_is_one_and_negative_part_rejected(self):
        assert complete_homogeneous_coefficients((2, 0)) == complete_homogeneous_coefficients((2,))
        with pytest.raises(ValueError):
            complete_homogeneous_coefficients((2, -1))

    def test_equals_class_product_fold_up_to_weight_14(self):
        def product_fold(nu):  # the expansion as a product of classes, h_i = s_(i,0)
            result = unit_class()
            for part in nu:
                result = class_product(result, SchurClass(part, {TwoRowPartition(part, 0): 1}))
            return result

        for w in range(15):
            for nu in contents(w):
                h = product_fold(nu)
                expected = [h.coefficient((w - r2, r2)).coefficient(0) for r2 in range(w // 2 + 1)]
                assert complete_homogeneous_coefficients(nu) == expected, nu
