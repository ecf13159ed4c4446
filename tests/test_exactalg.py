import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crsplucker.exactalg import (
    DPoly,
    dpoly,
    dpoly_eval,
    dpoly_from_coeff_strings,
    dpoly_shift,
    dpoly_to_coeff_strings,
    format_dpoly,
)

NEG_INF = float("-inf")


def small_rats():
    return st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))


def polys():
    return st.dictionaries(st.integers(0, 8), small_rats(), max_size=6).map(DPoly)


class TestBasics:
    def test_zero_normalization(self):
        assert DPoly({3: 0, 1: Fraction(0)}) == DPoly()
        assert DPoly().degree == NEG_INF

    def test_degree_and_leading(self):
        p = dpoly(0, -1, 1)  # d^2 - d
        assert p.degree == 2
        assert p.leading_coefficient == 1

    def test_integral_coefficients_stored_as_int(self):
        two = DPoly({0: Fraction(4, 2)}).coefficient(0)
        assert type(two) is int and two == 2
        assert type(dpoly(Fraction(1, 2)).coefficient(0)) is Fraction
        assert dpoly(2) == DPoly({0: Fraction(2)})

    def test_zero_coefficients_are_int(self):
        assert type(dpoly(1, 2).coefficient(5)) is int
        assert type(DPoly().leading_coefficient) is int

    def test_negative_exponent_rejected_in_dpoly(self):
        with pytest.raises(ValueError):
            DPoly({-1: 1})

    def test_sub_with_exponent_missing_on_the_left(self):
        assert dpoly(1) - DPoly({2: 3}) == DPoly({0: 1, 2: -3})


class TestEval:
    def test_example_d_squared_minus_d(self):
        assert dpoly_eval(dpoly(0, -1, 1), 4) == 12

    def test_zero_polynomial(self):
        assert dpoly_eval(DPoly(), 100) == 0

    def test_bitangent_formula_at_four(self):
        # 1/2 d(d-2)(d-3)(d+3) expanded
        p = dpoly(0, 9, Fraction(-9, 2), -1, Fraction(1, 2))
        assert dpoly_eval(p, 4) == 28


class TestShift:
    def test_square_shift(self):
        assert dpoly_shift(dpoly(0, 0, 1), -2) == dpoly(4, -4, 1)

    def test_constant(self):
        assert dpoly_shift(dpoly(7), 5) == dpoly(7)

    def test_falling_factorial(self):
        assert dpoly_shift(dpoly(0, -1, 1), 2) == dpoly(2, 3, 1)

    @given(polys(), st.integers(-10, 10))
    def test_roundtrip(self, p, delta):
        assert dpoly_shift(dpoly_shift(p, delta), -delta) == p

    @given(polys(), st.integers(-10, 10), st.integers(-6, 6))
    def test_eval_compatibility(self, p, delta, d0):
        assert dpoly_eval(dpoly_shift(p, delta), d0) == dpoly_eval(p, d0 + delta)

    def test_zero_delta_returns_the_polynomial(self):
        p = dpoly(1, Fraction(-2, 3), 5)
        assert dpoly_shift(p, 0) is p

    def test_zero_polynomial(self):
        assert dpoly_shift(DPoly(), 7) == DPoly()
        assert dpoly_shift(DPoly(), 0) == DPoly()


def binomial_shift(p, delta):
    """The expansion p(d + delta) = sum c * binom(e, i) * delta^(e-i) * d^i, term by term."""
    out = {}
    for e, c in p.coeffs.items():
        for i in range(e + 1):
            out[i] = out.get(i, 0) + c * math.comb(e, i) * delta ** (e - i)
    return DPoly(out)


def dense_polys(max_degree=60):
    coefficient = st.one_of(st.integers(-(10**30), 10**30), small_rats())
    return st.lists(coefficient, max_size=max_degree + 1).map(lambda cs: dpoly(*cs))


class TestShiftAgainstBinomialExpansion:
    @settings(max_examples=200)
    @given(dense_polys(), st.integers(-60, 60))
    def test_equals_binomial_expansion(self, p, delta):
        assert dpoly_shift(p, delta) == binomial_shift(p, delta)

    def test_degree_sixty_falling_factorial(self):
        # d(d-1)...(d-59) shifted by -60, as the last step of a recursion with pivot 60 does
        p = DPoly({0: 1})
        for k in range(60):
            p = p * dpoly(-k, 1)
        assert dpoly_shift(p, -60) == binomial_shift(p, -60)


class TestRingAxioms:
    @settings(max_examples=60)
    @given(polys(), polys(), polys())
    def test_distributivity(self, p, q, r):
        assert (p + q) * r == p * r + q * r

    @given(polys(), polys())
    def test_degree_multiplicative(self, p, q):
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).degree == p.degree + q.degree

    @given(polys(), polys())
    def test_commutativity(self, p, q):
        assert p * q == q * p

    @given(polys(), polys())
    def test_dpoly_closed_under_ring_ops(self, p, q):
        for value in (p + q, p - q, -p, p * q, p * Fraction(1, 3)):
            assert isinstance(value, DPoly)
            assert all(e >= 0 for e in value.coeffs)

    @given(polys(), st.integers(-9, 9))
    def test_int_on_either_side(self, p, n):
        # the step's difference array starts from int 0s
        constant = DPoly({0: n})
        assert p + n == n + p == p + constant
        assert p - n == p - constant
        assert n - p == constant - p

    @given(polys(), st.integers(0, 9))
    def test_divmod_by_a_power_of_d(self, p, t):
        power = DPoly({t: 1})
        q, r = divmod(p, power)
        assert q * power + r == p
        assert r.degree < t
        assert divmod(p, 1) == (p, 0)

    def test_divmod_by_other_than_a_power_of_d_refused(self):
        for divisor in (2, DPoly({1: 2}), dpoly(1, 1)):
            with pytest.raises(TypeError):
                divmod(dpoly(0, 1), divisor)


class TestRendering:
    def test_coeff_strings(self):
        p = dpoly(0, Fraction(-1, 2), 1)
        assert dpoly_to_coeff_strings(p) == ["0", "-1/2", "1"]
        assert dpoly_to_coeff_strings(DPoly()) == []

    @pytest.mark.parametrize(
        "text",
        ["0", "-0", "007", "-12", "+5", " 5", "1/2", "-3/6", "1.5", "--5", "\u0663", 3, 1.5, None],
    )
    def test_parse_agrees_with_fraction(self, text):
        # the writer's format, -?[0-9]+ or -?[0-9]+/[0-9]+, comes out as
        # Fraction() has it; every other entry is refused
        if text in {"0", "-0", "007", "-12", "1/2", "-3/6"}:
            want = DPoly({0: Fraction(text), 1: 1})
            got = dpoly_from_coeff_strings([text, "1"])
            assert got == want
            assert type(got.coefficient(0)) is type(want.coefficient(0))
        else:
            with pytest.raises(ValueError):
                dpoly_from_coeff_strings([text, "1"])

    @pytest.mark.parametrize(
        "text",
        ["1e99999999", "1.5", "+5", " 5", "5\n", "\u0663", "1_0", 3, 1.5, None,
         pytest.param("9" * 5000, id="5000-digits")],
    )
    def test_refuses_what_the_writer_never_writes(self, text):
        # exponent notation once sent Fraction() into expanding 10^99999999;
        # int()'s digit limit bounds the size of what is read
        with pytest.raises(ValueError):
            dpoly_from_coeff_strings([text])

    def test_zero_denominator_raises(self):
        with pytest.raises(ArithmeticError):
            dpoly_from_coeff_strings(["1/0"])

    @given(polys())
    def test_bit_exact_roundtrip(self, p):
        assert dpoly_from_coeff_strings(dpoly_to_coeff_strings(p)) == p

    def test_human_readable(self):
        assert format_dpoly(dpoly(0, -1, 1)) == "d^2 - d"
        assert format_dpoly(DPoly()) == "0"
        assert format_dpoly(dpoly(Fraction(1, 2), 0, -3)) == "-3*d^2 + 1/2"
