from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crsplucker.exactalg import DPoly, dpoly, dpoly_shift
from crsplucker.symfunc import (
    SchurClass,
    TwoRowPartition,
    class_product,
    linear_factor_expansion,
    monomial_divdiff,
    shift_both,
    split_shift,
    two_row,
    unit_class,
    weighted_divdiff,
)

from monomial_oracle import (
    all_two_row,
    divided_difference,
    extract_schur,
    mono_mul,
    schur_monomials,
    substitute_shift,
)
from pieri_oracle import pieri_product


def two_rows(max_weight=10):
    return st.tuples(st.integers(0, max_weight), st.integers(0, max_weight)).map(
        lambda t: TwoRowPartition(max(t), min(t))
    )


class TestTwoRowPartition:
    def test_validation(self):
        with pytest.raises(ValueError):
            two_row(1, 2)
        assert two_row(3, 1).weight == 4
        assert two_row(3, 1).r2 == 1

    def test_class_rejects_wrong_weight_key(self):
        with pytest.raises(ValueError):
            SchurClass(3, {TwoRowPartition(1, 0): dpoly(1)})


class TestMonomialDivdiff:
    def test_examples(self):
        assert monomial_divdiff(2, 1) == (-1, TwoRowPartition(1, 1))
        assert monomial_divdiff(0, 3) == (1, TwoRowPartition(2, 0))
        assert monomial_divdiff(4, 4) == (0, None)

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_antisymmetry(self, i, j):
        s1, p1 = monomial_divdiff(i, j)
        s2, p2 = monomial_divdiff(j, i)
        assert s1 == -s2 and p1 == p2

    @given(st.integers(0, 10), st.integers(0, 10))
    def test_against_monomial_oracle(self, i, j):
        sign, rho = monomial_divdiff(i, j)
        expected = divided_difference({(i, j): 1})
        if sign == 0:
            assert expected == {}
        else:
            got = {uv: sign * c for uv, c in schur_monomials(*rho).items()}
            assert got == expected


def pieri_interval(rho, sigma):
    """The two-row partitions of s_rho * s_sigma, each of multiplicity one:
    from (rho1+sigma1, rho2+sigma2) to the balanced end, the second row
    stepping by 1."""
    (i, j), (k, l) = rho, sigma
    total = i + j + k + l
    return [TwoRowPartition(total - v, v) for v in range(j + l, min(i + l, j + k) + 1)]


def interval_fold(left, right):
    """class_product as the bilinear extension of pieri_interval, adding each
    pair's product once per member of its interval."""
    out = {}
    for rho, c1 in left.items():
        for sigma, c2 in right.items():
            for tau in pieri_interval(rho, sigma):
                out[tau] = out.get(tau, DPoly()) + c1 * c2
    return SchurClass(left.weight + right.weight, out)


def row_product(left, right):
    """pieri_product by symfunc.class_product on rows, as one recursion step multiplies."""
    w = left.weight + right.weight
    out = [0] * (w // 2 + 1)
    class_product(dict(left.items()), {rho.r2: c for rho, c in right.items()}, right.weight, out)
    return SchurClass(w, {TwoRowPartition(w - v, v): row for v, row in enumerate(accumulate(out)) if row})


def schur(rho):
    return SchurClass(rho[0] + rho[1], {TwoRowPartition(*rho): 1})


class TestSchurProduct:
    def test_pieri_square(self):
        assert pieri_product(schur((1, 0)), schur((1, 0))) == SchurClass(2, {(2, 0): 1, (1, 1): 1})

    def test_multiply_by_ab(self):
        assert pieri_product(schur((2, 1)), schur((1, 1))) == schur((3, 2))

    def test_mixed(self):
        assert pieri_product(schur((2, 0)), schur((2, 1))) == SchurClass(5, {(4, 1): 1, (3, 2): 1})

    @settings(max_examples=80)
    @given(two_rows(6), two_rows(6))
    def test_against_bialternant_oracle(self, rho, sigma):
        product = mono_mul(schur_monomials(*rho), schur_monomials(*sigma))
        expected = extract_schur(product)
        assert {tuple(t): 1 for t in pieri_interval(rho, sigma)} == expected
        for product in (pieri_product, row_product):
            assert product(schur(rho), schur(sigma)) == SchurClass(rho.weight + sigma.weight, expected)


COEFFS = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def schur_classes(draw, max_weight=10):
    """A class of weight <= max_weight whose DPoly coefficients are drawn
    from a few small int and Fraction values, so products often cancel."""
    w = draw(st.integers(0, max_weight))
    rows = draw(st.lists(st.integers(0, w // 2), max_size=w // 2 + 1, unique=True))
    coeff = st.lists(COEFFS, min_size=1, max_size=3).map(lambda cs: DPoly(dict(enumerate(cs))))
    return SchurClass(w, {TwoRowPartition(w - v, v): draw(coeff) for v in rows})


@st.composite
def dipoles(draw, max_weight=10):
    """c * (s_(w-v, v) - s_(w-v-1, v+1)): the two terms' Pieri intervals
    overlap, so its products often have rows that cancel to zero."""
    w = draw(st.integers(2, max_weight))
    v = draw(st.integers(0, w // 2 - 1))
    c = DPoly(dict(enumerate(draw(st.lists(COEFFS, min_size=1, max_size=3)))))
    return SchurClass(w, {TwoRowPartition(w - v, v): c, TwoRowPartition(w - v - 1, v + 1): -c})


class TestClassProduct:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(schur_classes(), dipoles()), schur_classes())
    # (s_(2,0) - s_(1,1)) * s_(1,0) = s_(3,0): the last row s_(2,1) cancels
    @example(SchurClass(2, {(2, 0): 1, (1, 1): -1}), schur((1, 0)))
    # c (s_(4,0) - s_(3,1)) * s_(1,0) = c (s_(5,0) - s_(3,2)): a middle row cancels
    @example(SchurClass(4, {(4, 0): dpoly(1, Fraction(1, 2)), (3, 1): dpoly(-1, Fraction(-1, 2))}), schur((1, 0)))
    def test_equals_interval_fold(self, left, right):
        assert pieri_product(left, right) == row_product(left, right) == interval_fold(left, right)

    def test_identity(self):
        g = SchurClass(2, {TwoRowPartition(2, 0): dpoly(0, 1), TwoRowPartition(1, 1): dpoly(3)})
        for product in (pieri_product, row_product):
            assert product(unit_class(), g) == g
            assert product(g, unit_class()) == g

    def test_scalar_pieri(self):
        f = SchurClass(1, {TwoRowPartition(1, 0): dpoly(0, 1)})  # d * s_(1,0)
        g = SchurClass(1, {TwoRowPartition(1, 0): dpoly(1)})
        for product in (pieri_product, row_product):
            assert product(f, g) == SchurClass(
                2, {TwoRowPartition(2, 0): dpoly(0, 1), TwoRowPartition(1, 1): dpoly(0, 1)}
            )

    def test_square_of_y2(self):
        y2 = SchurClass(1, {TwoRowPartition(1, 0): dpoly(0, -1, 1)})  # d(d-1) s_(1,0)
        sq = dpoly(0, -1, 1) * dpoly(0, -1, 1)
        for product in (pieri_product, row_product):
            assert product(y2, y2) == SchurClass(2, {TwoRowPartition(2, 0): sq, TwoRowPartition(1, 1): sq})

    @settings(max_examples=40)
    @given(two_rows(5), two_rows(5), two_rows(5))
    def test_commutative_associative(self, r1, r2, r3):
        f = SchurClass(r1.weight, {r1: dpoly(1, 2)})
        g = SchurClass(r2.weight, {r2: dpoly(0, 1)})
        h = SchurClass(r3.weight, {r3: dpoly(3)})
        for product in (pieri_product, row_product):
            assert product(f, g) == product(g, f)
            assert product(product(f, g), h) == product(f, product(g, h))


class TestShiftBoth:
    # C_s as {v: c}, c the coefficient of s_(w-s-v, v)
    def test_single_box(self):
        assert shift_both(TwoRowPartition(1, 0)) == [{0: 1}, {0: 2}]

    def test_ab(self):
        assert shift_both(TwoRowPartition(1, 1)) == [{1: 1}, {0: 1}, {0: 1}]

    def test_two_row_weight_two(self):
        c = shift_both(TwoRowPartition(2, 0))
        assert c[1] == {0: 3}
        assert c[2] == {0: 3}

    def test_monomial_oracle_up_to_weight_12(self):
        for w in range(13):
            for kl in all_two_row(w):
                by_xpower = substitute_shift(schur_monomials(*kl))
                got = shift_both(TwoRowPartition(*kl))
                assert len(got) == w + 1
                for s, row in enumerate(got):
                    expected = extract_schur(by_xpower.get(s, {}))
                    as_dict = {(w - s - v, v): c for v, c in row.items()}
                    assert as_dict == {k: Fraction(v) for k, v in expected.items()}

    def test_coefficients_nonnegative_integers(self):
        for w in range(13):
            for kl in all_two_row(w):
                for s, row in enumerate(shift_both(TwoRowPartition(*kl))):
                    for v, c in row.items():
                        assert type(c) is int and c > 0
                        assert w - s - v >= v
                        assert w - s - v <= kl[0] and v <= kl[1]


class TestSplitShift:
    # split_shift takes a class's rows by r2 and gives the buckets B_t as {v: c}
    def test_constant_class(self):
        assert split_shift([1], 0) == [{0: 1}]
        assert split_shift([dpoly(1)], 0) == [{0: dpoly(1)}]

    def test_linear_class(self):
        b = split_shift([dpoly(0, -1, 1)], 1)
        assert b[0] == {0: dpoly(0, -1, 1)}
        assert b[1] == {0: dpoly(0, -2, 2)}

    def test_b0_is_input_and_weights_drop(self):
        rows = [dpoly(0, 1), dpoly(1, 1)]  # s_(3,0) and s_(2,1)
        b = split_shift(rows, 3)
        assert b[0] == dict(enumerate(rows))
        assert len(b) == 4
        assert all(2 * v <= 3 - t for t, bucket in enumerate(b) for v in bucket)


def dpoly_product_factor_expansion(m):
    """e_0, ..., e_m of prod_{i<m}(i*a + (d+m-i)*b), multiplied out factor by factor in DPoly."""
    coeffs = [dpoly(1)]  # index = power of b so far
    for i in range(m):
        b_part = dpoly(m - i, 1)  # d + m - i
        nxt = [DPoly() for _ in range(len(coeffs) + 1)]
        for f, c in enumerate(coeffs):
            nxt[f] = nxt[f] + c * i
            nxt[f + 1] = nxt[f + 1] + c * b_part
        coeffs = nxt
    return tuple(coeffs)


class TestWeightedDivdiff:
    def test_shifted_m2_is_translated_y2(self):
        a0 = weighted_divdiff(0, 2, linear_factor_expansion(2))
        assert a0 == {TwoRowPartition(1, 0): dpoly(2, 3, 1)}  # (d+2)(d+1)

    def test_unshifted_m3(self):
        # in plain d, A_0 for m = 3 is d(d-1)(d-2) s(2,0) + 3d(d-2) s(1,1)
        plain = {
            TwoRowPartition(2, 0): dpoly(0, 2, -3, 1),
            TwoRowPartition(1, 1): dpoly(0, -6, 3),
        }
        expected = {rho: dpoly_shift(c, 3) for rho, c in plain.items()}
        assert weighted_divdiff(0, 3, linear_factor_expansion(3)) == expected

    def test_t1_m2(self):
        # A_1 for m = 2: -(d+2) s(1,1) + (d+2)(d+1) s(1,1) = d(d+2) s(1,1)
        a1 = weighted_divdiff(1, 2, linear_factor_expansion(2))
        assert a1 == {TwoRowPartition(1, 1): dpoly(0, 2, 1)}
        # in plain d, A_1 is d(d-2) s(1,1)
        a1_plain = dpoly(0, -2, 1)
        assert a1 == {TwoRowPartition(1, 1): dpoly_shift(a1_plain, 2)}

    @pytest.mark.parametrize("m", [*range(2, 41), 60])
    def test_factor_expansion_equals_dpoly_product(self, m):
        assert linear_factor_expansion(m) == dpoly_product_factor_expansion(m)

    def test_factor_expansion_degrees(self):
        for m in (2, 3, 4, 5):
            e = linear_factor_expansion(m)
            assert isinstance(e, tuple)
            assert e[0].is_zero()
            for f in range(1, m + 1):
                assert e[f].degree == f
                assert e[f].leading_coefficient > 0

    def test_against_monomial_oracle(self):
        # expand a^t * prod(ia + (d+m-i)b) over integer d-samples is awkward;
        # instead check the divided difference termwise on the e_f expansion.
        for m in (2, 3, 4):
            for t in (0, 1, 2):
                e = linear_factor_expansion(m)
                acc = {}
                for f in range(1, m + 1):
                    for (u, v), c in divided_difference({(t + m - f, f): 1}).items():
                        acc[(u, v)] = acc.get((u, v), DPoly()) + c * e[f]
                acc = {k: v for k, v in acc.items() if not v.is_zero()}
                got = weighted_divdiff(t, m, e)
                # greedy Schur extraction, with DPoly coefficients
                remaining = dict(acc)
                extracted = {}
                while remaining:
                    u, v = max(remaining, key=lambda uv: (uv[0] - uv[1], uv[0]))
                    assert u >= v
                    coeff = remaining[(u, v)]
                    extracted[TwoRowPartition(u, v)] = coeff
                    for uv in schur_monomials(u, v):
                        upd = remaining.get(uv, DPoly()) - coeff
                        if upd.is_zero():
                            remaining.pop(uv, None)
                        else:
                            remaining[uv] = upd
                assert extracted == got
                assert all(u + v == m - 1 + t for u, v in got)
