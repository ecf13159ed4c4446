"""End-to-end acceptance checks, one per printed line.

Each test prints ``ACCEPT <name>: PASS`` when it succeeds so a plain
``pytest -s tests/test_acceptance.py`` reads as a checklist.  Timing
budgets are enforced with generous wall-clock asserts.
"""

import time
from fractions import Fraction
from math import comb

import pytest

from crsplucker.combinat import (
    InputPartition,
    enumerate_partitions_no_ones,
    factorial_of_multiplicities,
    kostka_two_row,
)
from crsplucker.crs import ClassCache, class_via, crs_class, PivotPolicy
from crsplucker.exactalg import DPoly, dpoly
from crsplucker.plucker import (
    plucker_formulas,
    plucker_value,
    ym_class_closed_form,
    top_degree_class,
    top_degree_slice,
)
from crsplucker.symfunc import TwoRowPartition
from newton_form import newton_coefficients
from pieri_oracle import pieri_product


def _report(name, elapsed, budget):
    assert elapsed < budget, f"{name}: took {elapsed:.1f}s, budget {budget}s"
    print(f"ACCEPT {name}: PASS ({elapsed:.2f}s)")


def _formula(lam, j):
    for row in plucker_formulas(InputPartition(lam)).rows:
        if row.formula.j == j:
            return row.formula.formula
    raise AssertionError(f"no row j={j} for {lam}")


def test_1_classical_formulas():
    start = time.monotonic()
    d = dpoly(0, 1)
    half = Fraction(1, 2)

    def shifted(k):
        return dpoly(k, 1)

    assert _formula((2, 2), 1) == (d * shifted(-2) * shifted(-3) * shifted(3)) * half
    assert _formula((3,), 1) == d * shifted(-2) * Fraction(3)
    assert _formula((2,), 0) == d * shifted(-1)
    assert _formula((2, 2), 0) == (d * shifted(-1) * shifted(-2) * shifted(-3)) * half
    _report("classical-formulas", time.monotonic() - start, 1.0)


def test_2_quartic_bitangents():
    start = time.monotonic()
    assert plucker_value(InputPartition((2, 2)), 0, 4) == 28
    _report("quartic-bitangents", time.monotonic() - start, 1.0)


def test_3_degree_pattern_10_2_2():
    start = time.monotonic()
    rows = plucker_formulas(InputPartition((10, 2, 2))).rows
    degrees = [row.formula.formula.degree for row in rows]
    assert degrees == [14, 14, 14, 13, 12, 11]
    _report("degree-pattern-10-2-2", time.monotonic() - start, 30.0)


def test_4_uniform_degree_4_3_2():
    start = time.monotonic()
    rows = plucker_formulas(InputPartition((4, 3, 2))).rows
    assert len(rows) == 4
    assert all(row.formula.formula.degree == 9 for row in rows)
    _report("uniform-degree-4-3-2", time.monotonic() - start, 10.0)


def test_5_leading_term_sweep():
    start = time.monotonic()
    checked = 0
    for lam in enumerate_partitions_no_ones(14):
        table = plucker_formulas(lam)
        bad = [row for row in table.rows if not row.match]
        assert not bad, f"{lam.canonical_string()}: {bad}"
        checked += len(table.rows)
    assert checked >= 8
    elapsed = time.monotonic() - start
    _report(f"leading-term-sweep ({checked} rows)", elapsed, 300.0)


def test_6_oracle_equivalences():
    start = time.monotonic()
    for m in range(2, 13):
        assert crs_class(InputPartition((m,))) == ym_class_closed_form(m)
    for lam in enumerate_partitions_no_ones(12):
        cls = crs_class(lam)
        assert top_degree_slice(cls, lam.weight) == top_degree_class(lam)
    for weight in range(2, 15):
        for lam in enumerate_partitions_no_ones(weight):
            if lam.weight != weight:
                continue
            c = lam.codim
            for j in range(c // 2 + 1):
                mu = TwoRowPartition(c - j, j)
                via_ssyt = kostka_two_row(mu, lam.reduction)
                via_h = _kostka_via_h_product(mu, lam.reduction)
                assert via_ssyt == via_h, (mu, lam)
    _report("oracle-equivalences", time.monotonic() - start, 120.0)


def _kostka_via_h_product(mu, content):
    """Kostka number as the s_mu coefficient of prod h_{nu_i}."""
    from crsplucker.symfunc import unit_class, SchurClass
    from crsplucker.exactalg import ONE

    acc = unit_class()
    for part in content:
        h = SchurClass(part, {TwoRowPartition(part, 0): ONE})
        acc = pieri_product(acc, h)
    coeff = acc.coefficient(TwoRowPartition(*mu))
    value = coeff.coefficient(0)
    assert value.denominator == 1
    return value.numerator


def test_7_structural_properties():
    start = time.monotonic()
    cache = ClassCache()
    for lam in enumerate_partitions_no_ones(12):
        # Pivot independence: min and max pivots from fresh caches, and one
        # step per distinct part off a shared cache, which by induction covers
        # every removal order.  Divisibility and polynomiality are asserted
        # inside every recursion step, so a clean run certifies both.
        reference = crs_class(lam, policy=PivotPolicy.min_part())
        assert crs_class(lam, policy=PivotPolicy.max_part()) == reference
        for m in set(lam.parts):
            assert class_via(lam, m, cache) == reference, (lam, m)

        # Positive leading coefficients everywhere.
        for rho, coeff in reference.items():
            assert isinstance(coeff, DPoly)
            assert coeff.leading_coefficient > 0, (lam, rho)

        # Product leading-term properties: the top d-degree slice of the
        # class times the expected multiplicity factorial is the complete
        # homogeneous expansion, and every d-degree is at most the weight.
        top = top_degree_class(lam)
        scale = factorial_of_multiplicities(lam)
        for rho, coeff in top.items():
            value = coeff.coefficient(lam.weight) * scale
            assert value.denominator == 1 and value >= 0, (lam, rho)
        assert max(c.degree for _, c in reference.items()) == lam.weight
    _report("structural-properties", time.monotonic() - start, 240.0)


def test_8_integrality():
    # nonnegative integral Newton coefficients at |lambda| make every count
    # from |lambda| on a nonnegative integer; one uncached plucker_value per
    # lambda, on a rotating row, checks the Newton form against the count
    start = time.monotonic()
    cache = ClassCache()
    for i, lam in enumerate(enumerate_partitions_no_ones(10)):
        rows = plucker_formulas(lam, cache=cache).rows
        newton = [newton_coefficients(row.formula) for row in rows]
        assert all(min(coeffs) >= 0 for coeffs in newton), lam
        row, coeffs = rows[i % len(rows)], newton[i % len(rows)]
        value = plucker_value(lam, row.formula.codim_index, lam.weight + 10)
        assert isinstance(value, int), (lam, row.formula.codim_index)
        assert value == sum(c * comb(10, k) for k, c in enumerate(coeffs)), (lam, row.formula.codim_index)
    _report("integrality", time.monotonic() - start, 120.0)
