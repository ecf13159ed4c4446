"""Exact univariate polynomial arithmetic in the degree variable d.

Coefficients are exact: an integral one is stored as an int, any other as a
fractions.Fraction, so integer work (the whole recursion) never builds a
Fraction.  A polynomial is a sparse map exponent -> coefficient with no
explicit zero entries and no negative exponents.  The zero polynomial is
the empty map and has degree -inf.  The one recursion step runs on ints at
a number and on DPolys over Z[d], so a DPoly adds and subtracts ints and
divmod divides it by d^t; the step needs that division exact, so no Laurent
type is needed.
"""

from __future__ import annotations

import re
from fractions import Fraction

NEG_INF = float("-inf")


class DPoly:
    """Sparse polynomial in d over the rationals. Immutable."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if type(c) is not int and (c := Fraction(c)).denominator == 1:
                    c = c.numerator
                if c:
                    clean[int(e)] = c
        bad = [e for e in clean if e < 0]
        if bad:
            raise ValueError(f"negative exponents in DPoly: {sorted(bad)}")
        object.__setattr__(self, "_coeffs", clean)

    # -- basic queries ---------------------------------------------------

    @property
    def coeffs(self):
        return dict(self._coeffs)

    def is_zero(self):
        return not self._coeffs

    @property
    def degree(self):
        return max(self._coeffs) if self._coeffs else NEG_INF

    @property
    def leading_coefficient(self):
        return self._coeffs[max(self._coeffs)] if self._coeffs else 0

    def coefficient(self, exponent):
        return self._coeffs.get(exponent, 0)

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = DPoly({0: other})
        elif not isinstance(other, DPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return DPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = DPoly({0: other})
        elif not isinstance(other, DPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) - c
        return DPoly(out)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return DPoly({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, DPoly):
            out = {}
            for e1, c1 in self._coeffs.items():
                for e2, c2 in other._coeffs.items():
                    e = e1 + e2
                    out[e] = out.get(e, 0) + c1 * c2
            return DPoly(out)
        if isinstance(other, (int, Fraction)):
            return DPoly({e: c * other for e, c in self._coeffs.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __divmod__(self, power):
        """(quotient, remainder) on division by power = d^t, given as a DPoly
        or, for t = 0, as the int 1: the remainder holds the terms below d^t."""
        if power == 1:
            return self, 0
        if not isinstance(power, DPoly) or list(power._coeffs.values()) != [1]:
            return NotImplemented
        t = power.degree
        high = {e - t: c for e, c in self._coeffs.items() if e >= t}
        return DPoly(high), DPoly({e: c for e, c in self._coeffs.items() if e < t})

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, DPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __bool__(self):
        return bool(self._coeffs)

    def __repr__(self):
        return f"DPoly({self._coeffs!r})"

    def __str__(self):
        return format_dpoly(self)


ONE = DPoly({0: 1})


def dpoly(*coeffs):
    """Build a DPoly from coefficients listed from exponent 0 upward."""
    return DPoly({e: c for e, c in enumerate(coeffs)})


def dpoly_eval(p, d0):
    """Exact value p(d0) as a Fraction."""
    d0 = Fraction(d0)
    return sum((c * d0 ** e for e, c in p._coeffs.items()), Fraction(0))


def dpoly_shift(p, delta):
    """Return q with q(d) = p(d + delta); p itself when delta is 0 or p is 0.

    Taylor shift by repeated synthetic division by d - delta, on a dense
    list: n^2/2 multiply-adds by delta for degree n, no binomials or powers.
    """
    if not delta or not p._coeffs:
        return p
    a = [p.coefficient(e) for e in range(p.degree + 1)]
    n = len(a) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            a[j] += delta * a[j + 1]
    return DPoly(dict(enumerate(a)))


# -- canonical text/JSON rendering ----------------------------------------


def dpoly_to_coeff_strings(p):
    """Dense coefficient list from exponent 0 upward, each a rational string."""
    if p.is_zero():
        return []
    return [str(p.coefficient(e)) for e in range(p.degree + 1)]


def dpoly_from_coeff_strings(strings):
    """The DPoly whose coefficients, from exponent 0 upward, are `strings`.

    Only what dpoly_to_coeff_strings writes is read: -?[0-9]+, with int(),
    whose digit limit bounds the size, or -?[0-9]+/[0-9]+.  Anything else,
    exponent notation and non-strings included, raises ValueError.
    """
    return DPoly({
        e: int(s) if type(s) is str and s.isascii() and s.removeprefix("-").isdecimal() else _fraction(s)
        for e, s in enumerate(strings)
    })


_FRACTION = re.compile(r"(-?[0-9]+)/([0-9]+)")


def _fraction(s):
    if type(s) is not str or not (match := _FRACTION.fullmatch(s)):
        raise ValueError(f"not a coefficient string: {s!r}")
    return Fraction(int(match[1]), int(match[2]))


def format_dpoly(p):
    """Human-readable rendering, highest exponent first, e.g. "d^2 - d"."""
    if p.is_zero():
        return "0"
    pieces = []
    for e in sorted(p._coeffs, reverse=True):
        c = p._coeffs[e]
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            dpart = "d" if e == 1 else f"d^{e}"
            body = dpart if mag == 1 else f"{mag}*{dpart}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{sign} {body}")
    return " ".join(pieces)
