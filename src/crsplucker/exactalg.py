"""Exact univariate polynomial arithmetic in the degree variable d.

Coefficients are exact: an integral one is stored as an int, any other as a
fractions.Fraction, so integer work (the whole recursion) never builds a
Fraction.  A polynomial is a sparse map exponent -> coefficient with no
explicit zero entries and no negative exponents.  The zero polynomial is
the empty map and has degree -inf.  The recursion only ever divides by d^t
where the division is exact, so no Laurent type is needed.
"""

from __future__ import annotations

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
        if not isinstance(other, DPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
        return DPoly(out)

    def __sub__(self, other):
        if not isinstance(other, DPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) - c
        return DPoly(out)

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

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, DPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

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

    An optionally negated string of decimal digits is read with int(), which
    gives the value Fraction() would, much faster.  Every other entry goes
    through Fraction(), so what is accepted and what raises is decided there.
    """
    return DPoly({
        e: int(s) if isinstance(s, str) and s.removeprefix("-").isdecimal() else Fraction(s)
        for e, s in enumerate(strings)
    })


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
