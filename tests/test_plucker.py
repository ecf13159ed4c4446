from fractions import Fraction

import pytest

import crsplucker.plucker
from crsplucker.combinat import InputPartition, enumerate_partitions_no_ones
from crsplucker.crs import ClassCache
from crsplucker.exactalg import DPoly, dpoly
from crsplucker.plucker import (
    KOSTKA,
    STIRLING,
    BelowValidityFloor,
    PluckerFormula,
    plucker_formulas,
    plucker_value,
    predicted_leading,
    threshold_pi2,
    top_degree_class,
    ym_class_closed_form,
)
from crsplucker.symfunc import TwoRowPartition
from newton_form import newton_coefficients


class TestFormulas:
    def test_two_two(self):
        table = plucker_formulas(InputPartition((2, 2)))
        by_j = {row.formula.j: row.formula.formula for row in table.rows}
        assert by_j[0] == dpoly(0, -3, Fraction(11, 2), -3, Fraction(1, 2))
        assert by_j[1] == dpoly(0, 9, Fraction(-9, 2), -1, Fraction(1, 2))
        assert table.all_match()

    def test_three(self):
        table = plucker_formulas(InputPartition((3,)))
        assert table.rows[0].formula.formula == dpoly(0, 2, -3, 1)
        assert table.rows[1].formula.formula == dpoly(0, -6, 3)
        assert [r.formula.codim_index for r in table.rows] == [2, 0]

    def test_two(self):
        table = plucker_formulas(InputPartition((2,)))
        assert len(table.rows) == 1
        assert table.rows[0].formula.formula == dpoly(0, -1, 1)


class TestValues:
    def test_quartic_bitangents(self):
        assert plucker_value(InputPartition((2, 2)), 0, 4) == 28

    def test_value_needs_no_prediction(self, monkeypatch):
        def unused(lam, j):
            raise AssertionError("plucker_value computed a leading-term prediction")

        monkeypatch.setattr(crsplucker.plucker, "predicted_leading", unused)
        assert plucker_value(InputPartition((2, 2)), 0, 4) == 28

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError):
            plucker_value(InputPartition(()), 0, 0)

    def test_dual_curve_degree(self):
        assert plucker_value(InputPartition((2,)), 1, 3) == 6

    def test_below_floor(self):
        with pytest.raises(BelowValidityFloor):
            plucker_value(InputPartition((2, 2)), 0, 3)

    def test_non_integral_degree_is_bad_input(self, monkeypatch):
        # a ValueError, refused before the class is computed; 4.0 is integral
        lam = InputPartition((2, 2))
        assert plucker_value(lam, 0, 4) == plucker_value(lam, 0, 4.0) == 28
        with pytest.raises(ValueError, match="not an integral degree"):
            PluckerFormula(lam, 0, DPoly()).count(Fraction(9, 2))

        def unused(*args, **kwargs):
            raise AssertionError("the class was computed for a refused degree")

        monkeypatch.setattr(crsplucker.plucker, "crs_class", unused)
        for d0 in (4.5, Fraction(9, 2), float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not an integral degree"):
                plucker_value(lam, 0, d0)

    def test_bad_parity(self):
        with pytest.raises(ValueError, match="wrong parity"):
            plucker_value(InputPartition((2, 2)), 1, 5)

    def test_bad_range(self):
        with pytest.raises(ValueError, match="out of range"):
            plucker_value(InputPartition((2, 2)), 4, 5)

    def test_zero_formula_counts_zero(self):
        # no real formula at weight <= 18 is 0 at d0 = |lambda|, so build one
        lam = InputPartition((2, 2))
        assert PluckerFormula(lam, 0, DPoly()).count(lam.weight) == 0

    def test_integrality_sweep(self):
        # integral Newton coefficients at |lambda| make every count from there
        # on an integer (checked in newton_coefficients); c_k >= 0 is observed
        # to weight 18, not proved, and kept here as a regression check
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(14):
            for row in plucker_formulas(lam, cache=cache).rows:
                coeffs = newton_coefficients(row.formula)
                assert min(coeffs) >= 0, (lam, row.formula.j, coeffs)


class TestPredictions:
    def test_10_2_2_degrees(self):
        lam = InputPartition((10, 2, 2))
        degrees = [predicted_leading(lam, j).degree for j in range(6)]
        assert degrees == [14, 14, 14, 13, 12, 11]

    def test_two_two_j0(self):
        lam = InputPartition((2, 2))
        p = predicted_leading(lam, 0)
        assert (p.degree, p.coefficient, p.regime, threshold_pi2(lam)) == (4, Fraction(1, 2), KOSTKA, 1)

    def test_single_part_matches_stirling(self):
        from crsplucker.combinat import stirling_first

        for m in range(2, 10):
            lam = InputPartition((m,))
            for j in range((m - 1) // 2 + 1):
                p = predicted_leading(lam, j)
                assert p.degree == m - j
                assert p.coefficient == stirling_first(m, j)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="j must lie"):
            predicted_leading(InputPartition((2, 2)), 2)

    def test_threshold(self):
        assert threshold_pi2(InputPartition((10, 2, 2))) == 2
        assert threshold_pi2(InputPartition((4, 3, 2))) == 3
        assert threshold_pi2(InputPartition((5,))) == 0

    def test_regime_boundary(self):
        lam = InputPartition((10, 2, 2))
        assert predicted_leading(lam, 2).regime == KOSTKA
        assert predicted_leading(lam, 3).regime == STIRLING

    def test_degree_drop_pattern(self):
        cache = ClassCache()
        for lam in enumerate_partitions_no_ones(12):
            thr = threshold_pi2(lam)
            for row in plucker_formulas(lam, cache=cache).rows:
                j = row.formula.j
                expected = lam.weight if j <= thr else lam.weight - (j - thr)
                assert row.formula.formula.degree == expected, (lam, j)


class TestClosedFormClass:
    def test_m2(self):
        cls = ym_class_closed_form(2)
        assert cls.coefficient((1, 0)) == dpoly(0, -1, 1)

    def test_m3(self):
        cls = ym_class_closed_form(3)
        assert cls.coefficient((1, 1)) == dpoly(0, -6, 3)
        assert cls.coefficient((2, 0)) == dpoly(0, 2, -3, 1)

    def test_no_coefficient_below_k_equals_i(self):
        # the d^(m-k) coefficient of s_(m-1-i, i) vanishes for k < i
        for m in range(2, 10):
            cls = ym_class_closed_form(m)
            for i in range((m - 1) // 2 + 1):
                coeff = cls.coefficient((m - 1 - i, i))
                for k in range(i):
                    assert coeff.coefficient(m - k) == 0


class TestTopDegree:
    def test_examples(self):
        assert top_degree_class(InputPartition((2,))).coefficient((1, 0)).coefficient(0) == 1
        h22 = top_degree_class(InputPartition((2, 2)))
        assert h22.coefficient((2, 0)).coefficient(0) == Fraction(1, 2)
        assert h22.coefficient((1, 1)).coefficient(0) == Fraction(1, 2)
        h32 = top_degree_class(InputPartition((3, 2)))
        assert h32.coefficient((3, 0)).coefficient(0) == 1
        assert h32.coefficient((2, 1)).coefficient(0) == 1


class TestVerifyLeading:
    def test_two_two_all_match(self):
        assert plucker_formulas(InputPartition((2, 2))).all_match()

    def test_10_2_2_all_match(self):
        table = plucker_formulas(InputPartition((10, 2, 2)))
        assert [r.formula.formula.degree for r in table.rows] == [14, 14, 14, 13, 12, 11]
        assert table.all_match()

    def test_4_3_2_uniform_degree(self):
        table = plucker_formulas(InputPartition((4, 3, 2)))
        assert all(r.formula.formula.degree == 9 for r in table.rows)
        assert table.all_match()
