"""Plucker formula extraction and independent leading-term verification.

A computed class is read off row by row: the coefficient of s_(c-j, j) is
the formula counting lambda-lines against a codimension c-2j+1 linear
condition.  Each row's degree and leading coefficient are checked against
the closed-form prediction: Kostka numbers up to the threshold, Stirling
numbers of the first kind beyond it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import NamedTuple

from .combinat import InputPartition, factorial_of_multiplicities, kostka_two_row, stirling_first
# top_degree_class and top_degree_slice are the cache's oracle, kept importable here
from .crs import crs_class, top_degree_class, top_degree_slice
from .exactalg import DPoly, dpoly_eval
from .symfunc import SchurClass, TwoRowPartition

KOSTKA = "kostka"
STIRLING = "stirling"


class BelowValidityFloor(ValueError):
    """Evaluation of a Plucker formula below d = |lambda|, where the
    polynomial/enumerative identification does not hold."""

    def __init__(self, d0, floor):
        super().__init__(f"d = {d0} is below the validity floor {floor}")


def check_degree(lam, d0):
    """Refuse a degree d0 that is not an integral number (ValueError) or lies
    below the validity floor |lambda| (BelowValidityFloor)."""
    if d0 % 1:
        raise ValueError(f"d = {d0} is not an integral degree")
    if d0 < lam.weight:
        raise BelowValidityFloor(d0, lam.weight)


class PluckerFormula(NamedTuple):
    lam: InputPartition
    j: int
    formula: DPoly

    @property
    def codim_index(self):
        """The index c - 2j by which the CLI and plucker_value name this formula."""
        return self.lam.codim - 2 * self.j

    def count(self, d0):
        """The exact number of lambda-lines for degree d0.

        Refuses a non-integral d0, and d0 below the validity floor |lambda|:
        the polynomial is the enumerative count only from there on.
        """
        check_degree(self.lam, d0)
        value = dpoly_eval(self.formula, d0)
        if value.denominator != 1 or value < 0:
            raise ArithmeticError(f"Plucker value at d={d0} is not a nonnegative integer: {value}")
        return int(value)


class LeadingPrediction(NamedTuple):
    degree: int
    coefficient: Fraction
    regime: str  # KOSTKA or STIRLING


class PluckerRow(NamedTuple):
    formula: PluckerFormula
    prediction: LeadingPrediction

    @property
    def match(self):
        """Whether the formula's degree and leading coefficient are the predicted ones."""
        f, p = self.formula.formula, self.prediction
        return (f.degree, f.leading_coefficient) == (p.degree, p.coefficient)

    def mismatch(self):
        """(expected, got): the predicted and the formula's degree and leading coefficient."""
        f, p = self.formula.formula, self.prediction
        return f"degree {p.degree} leading {p.coefficient}", f"degree {f.degree} leading {f.leading_coefficient}"


class PluckerTable(NamedTuple):
    lam: InputPartition
    rows: tuple  # PluckerRow, ordered by j ascending

    def all_match(self):
        return all(row.match for row in self.rows)


def threshold_pi2(lam):
    """Second coordinate of the threshold partition: min(c - lam1 + 1, floor(c/2))."""
    c = lam.codim
    return min(c - lam.largest + 1, c // 2)


def predicted_leading(lam, j):
    """Closed-form leading term of the j-th formula.

    Kostka regime (j up to the threshold): degree |lambda| and coefficient
    K_((c-j,j), reduction) / prod e_i!.  Stirling regime: the degree drops by
    one per extra unit of j and the coefficient is the Stirling number
    sigma_k(1, ..., lam1 - 1) / prod e_i! with k the overshoot.
    """
    if lam.is_empty():
        raise ValueError("predictions require a nonempty partition")
    c = lam.codim
    if j < 0 or j > c // 2:
        raise ValueError(f"j must lie in [0, {c // 2}], got {j}")
    denom = factorial_of_multiplicities(lam)
    if j <= threshold_pi2(lam):
        k = kostka_two_row(TwoRowPartition(c - j, j), lam.reduction)
        return LeadingPrediction(lam.weight, Fraction(k, denom), KOSTKA)
    overshoot = j - (c - lam.largest + 1)
    coeff = Fraction(stirling_first(lam.largest, overshoot), denom)
    return LeadingPrediction(lam.weight - overshoot, coeff, STIRLING)


def _formula(lam, j, cls):
    """Formula j of lambda: the coefficient of s_(c-j, j) in its class."""
    c = lam.codim
    return PluckerFormula(lam, j, cls.coefficient(TwoRowPartition(c - j, j)))


def plucker_formulas(lam, cache=None):
    """Extract every Schur coefficient of the class of lambda as a formula
    row, with its leading-term prediction attached."""
    if lam.is_empty():
        raise ValueError("the empty partition has no Plucker formulas")
    cls = crs_class(lam, cache=cache)
    rows = (PluckerRow(_formula(lam, j, cls), predicted_leading(lam, j)) for j in range(lam.codim // 2 + 1))
    return PluckerTable(lam, tuple(rows))


def index_to_j(lam, codim_index):
    """Convert a codimension index c - 2j to j, validating parity and range."""
    c = lam.codim
    if (c - codim_index) % 2 != 0:
        raise ValueError(f"index {codim_index} has the wrong parity for codim {c}")
    j = (c - codim_index) // 2
    if j < 0 or j > c // 2:
        raise ValueError(f"index {codim_index} is out of range for codim {c}")
    return j


def plucker_value(lam, codim_index, d0, cache=None):
    """The exact number of lambda-lines for degree d0: PluckerFormula.count of
    the one formula that index codim_index names, with no predictions."""
    j = index_to_j(lam, codim_index)
    check_degree(lam, d0)  # refuse before computing the class
    if lam.is_empty():
        raise ValueError("the empty partition has no Plucker formulas")
    return _formula(lam, j, crs_class(lam, cache=cache)).count(d0)


def ym_class_closed_form(m):
    """The class of a single part (m), assembled coefficient by coefficient
    from the closed form: the d^(m-k) coefficient of s_(m-1-i, i) is a signed
    binomial multiple of the Stirling number sigma_k(1, ..., m-1)."""
    if m < 2:
        raise ValueError("m must be at least 2")
    terms = {}
    for i in range((m - 1) // 2 + 1):
        coeffs = {}
        for k in range(m):
            if i <= k < m - i:
                c = (-1) ** (k + i) * comb(k, i) * stirling_first(m, k)
            elif m - i <= k:
                c = ((-1) ** (k + i) * comb(k, i) - (-1) ** (k + m - i) * comb(k, m - i)) * stirling_first(m, k)
            else:
                c = 0
            coeffs[m - k] = c
        terms[TwoRowPartition(m - 1 - i, i)] = DPoly(coeffs)
    return SchurClass(m - 1, terms)
