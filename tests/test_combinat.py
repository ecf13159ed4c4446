import math
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import pytest

from crsplucker.combinat import (
    InputPartition,
    complete_homogeneous_coefficients,
    enumerate_partitions_no_ones,
    kostka_two_row,
    stirling_first,
)
from crsplucker.symfunc import SchurClass, TwoRowPartition, unit_class

from monomial_oracle import all_two_row
from pieri_oracle import pieri_product


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


@lru_cache(maxsize=None)
def _ssyt_count(r1, r2, content):
    """Count SSYT of two-row shape (r1, r2) and the given content by filling
    values 1, 2, ... in order.

    After all copies of value v are placed, (A, B) = (cells filled in row 1,
    row 2) must satisfy column strictness: the row-2 cells holding values
    <= v must sit under row-1 cells holding values < v, i.e. B <= A_prev.
    """

    def place(v, a_filled, b_filled):
        if v == len(content):
            return 1 if (a_filled, b_filled) == (r1, r2) else 0
        total = 0
        count = content[v]
        for to_row1 in range(count + 1):
            to_row2 = count - to_row1
            a2, b2 = a_filled + to_row1, b_filled + to_row2
            if a2 > r1 or b2 > r2:
                continue
            if b2 > a_filled:  # column strictness against earlier row-1 values
                continue
            total += place(v + 1, a2, b2)
        return total

    return place(0, 0, 0)


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
        # the Pieri fold, read directly and through kostka_two_row, against
        # the tableau count; every content order, and shapes with r1 < r2
        for w in range(1, 15):
            for content in contents(w):
                orders = set(permutations(content)) if len(content) <= 5 else {content, content[::-1]}
                for order in orders:
                    h = complete_homogeneous_coefficients(order)
                    assert len(h) == w // 2 + 1
                    for r2 in range(w + 1):
                        count = _ssyt_count(w - r2, r2, content)
                        assert kostka_two_row((w - r2, r2), order) == count, (r2, order)
                        if r2 <= w - r2:
                            assert h[r2] == count, (r2, order)

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
                result = pieri_product(result, SchurClass(part, {TwoRowPartition(part, 0): 1}))
            return result

        for w in range(15):
            for nu in contents(w):
                h = product_fold(nu)
                expected = [h.coefficient((w - r2, r2)).coefficient(0) for r2 in range(w // 2 + 1)]
                assert complete_homogeneous_coefficients(nu) == expected, nu
