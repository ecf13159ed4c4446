"""Two-variable symmetric polynomial calculus in the Schur basis.

All classes live in the basis s_(r1,r2)(a,b) with r1 >= r2 >= 0.  A
SchurClass is a finite map from two-row partitions to d-coefficients
(DPoly), homogeneous of one {a,b}-degree, stored explicitly as `weight`
so the zero class still carries its grading.

The three phases of one recursion step (split_shift, weighted_divdiff and
class_product) work on rows and dicts whose values are ints, at a number,
or DPolys, over Z[d]; crs.step_at runs them in both modes.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

from .exactalg import DPoly, ONE


class TwoRowPartition(NamedTuple):
    r1: int
    r2: int

    @property
    def weight(self):
        return self.r1 + self.r2


def two_row(r1, r2):
    if not r1 >= r2 >= 0:
        raise ValueError(f"not a two-row partition: ({r1}, {r2})")
    return TwoRowPartition(r1, r2)


class SchurClass:
    """Finite map TwoRowPartition -> DPoly, homogeneous of {a,b}-degree `weight`."""

    __slots__ = ("weight", "_terms")

    def __init__(self, weight, terms=None):
        clean = {}
        for rho, coeff in (terms or {}).items():
            rho = two_row(*rho)
            if rho.weight != weight:
                raise ValueError(f"term {rho} has weight {rho.weight}, class has weight {weight}")
            if not isinstance(coeff, DPoly):
                coeff = DPoly({0: coeff})
            if not coeff.is_zero():
                clean[rho] = coeff
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("SchurClass is immutable")

    def coefficient(self, rho):
        return self._terms.get(TwoRowPartition(*rho), DPoly())

    def items(self):
        """Terms in deterministic order: r2 ascending."""
        return sorted(self._terms.items(), key=lambda kv: kv[0].r2)

    def is_zero(self):
        return not self._terms

    def scale(self, factor):
        """Multiply every coefficient by a scalar, DPoly or Fraction/int."""
        return SchurClass(self.weight, {rho: c * factor for rho, c in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, SchurClass):
            return self.weight == other.weight and self._terms == other._terms
        return NotImplemented

    def __repr__(self):
        body = ", ".join(f"s{tuple(rho)}: {c}" for rho, c in self.items())
        return f"SchurClass(weight={self.weight}, {{{body}}})"


def unit_class():
    """The class 1 = 1 * s_(0,0)."""
    return SchurClass(0, {TwoRowPartition(0, 0): ONE})


def monomial_divdiff(i, j):
    """Divided difference of the monomial a^i b^j: (a^i b^j - a^j b^i)/(b - a).

    Returns (sign, rho): the result is sign * s_rho, and (0, None) for the
    symmetric monomials it kills.
    """
    if i < 0 or j < 0:
        raise ValueError("exponents must be nonnegative")
    if j > i:
        return 1, TwoRowPartition(j - 1, i)
    if j == i:
        return 0, None
    return -1, TwoRowPartition(i - 1, j)


def shift_both(rho):
    """Expand s_rho(a+x, b+x) as a polynomial in x, as a table of ints.

    With w = weight(rho) and s_rho(a+x, b+x) = sum_s x^s C_s(a,b), returns
    the list [C_0, ..., C_w]: C_s is a dict {v: c}, c the coefficient of
    s_(w-s-v, v) in C_s, a positive int (zero entries are left out).  C_0 is
    {l: 1} for rho = (k, l).  The coefficient is
    binom(k+1,u+1)binom(l,v) - binom(k+1,v)binom(l,u+1) with u = w - s - v.
    """
    k, l = rho
    w = k + l
    out = []
    for s in range(w + 1):
        tw = w - s
        row = {}
        for v in range(tw // 2 + 1):
            u = tw - v
            c = comb(k + 1, u + 1) * comb(l, v) - comb(k + 1, v) * comb(l, u + 1)
            if c:
                row[v] = c
        out.append(row)
    return out


def split_shift(values, weight):
    """Linear extension of shift_both to the rows `values`, by r2, of a class
    of the given weight: returns the buckets [B_0, ..., B_weight], B_t as
    {v: coefficient of s_(weight - t - v, v)} with zero entries left out.

    The values are ints or DPolys, and B_0 holds the input's nonzero rows.
    """
    buckets = [{} for _ in range(weight + 1)]
    for r2, q in enumerate(values):
        if q:
            for bucket, row in zip(buckets, shift_both((weight - r2, r2))):
                for v, c in row.items():
                    bucket[v] = bucket.get(v, 0) + q * c
    return [{v: c for v, c in bucket.items() if c} for bucket in buckets]


@lru_cache(maxsize=None)
def linear_factor_expansion(m):
    """Coefficients e_f(d) of prod_{i=0}^{m-1}(i*a + (d+m-i)*b) = sum_f e_f a^(m-f) b^f.

    e_0 = 0 (the i = 0 factor has no a part), deg(e_f) = f and leading
    coefficients are positive.  Each e_f is a dense int list from d^0 upward
    while one factor per pass is multiplied in: e_f <- i*e_f + (d+m-i)*e_(f-1).
    Returns the tuple (e_0, ..., e_m) of DPoly; it is cached, since every
    bucket of every recursion step with pivot m needs it.
    """
    e = [[1]]  # e[f] = coefficients of e_f, length f + 1
    for i in range(m):
        k = m - i
        e.append([0] * (len(e) + 1))
        for f in range(len(e) - 1, 0, -1):
            lower = e[f - 1]
            e[f] = [i * x + k * y + z for x, y, z in zip(e[f], lower + [0], [0] + lower)]
        e[0] = [i * x for x in e[0]]
    return tuple(DPoly(dict(enumerate(row))) for row in e)


def weighted_divdiff(t, m, e, majorant=False):
    """The class A_t = divided difference of a^t * prod_{i=0}^{m-1}(i*a + (d+m-i)*b),
    as {(i, j): coefficient of s_(i,j)} with zero entries left out.

    `e` lists e_0, ..., e_m of that product (linear_factor_expansion(m), or
    its values at a point).  This is the form appearing inside one recursion
    step: with d + m in place of d, A_0 is the class of the single part (m)
    translated by m.  A_t has weight m - 1 + t.  With majorant=True the
    signs are dropped, so nonnegative e give an entrywise upper bound.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    terms = {}
    for f in range(1, m + 1):
        sign, rho = monomial_divdiff(t + m - f, f)
        if sign:
            terms[rho] = terms.get(rho, 0) + (e[f] if majorant else e[f] * sign)
    return {rho: c for rho, c in terms.items() if c}


def class_product(a_t, b_t, weight, out):
    """Add the product of A_t = {(i, j): c} and B = {v: q}, q the coefficient
    of s_(weight - v, v), into the difference array `out` of the rows by r2.

    By the Pieri rule s_(i,j) * s_(k,l) is the sum of s_(w-v, v) over the
    interval j + l <= v <= min(i + l, j + k), each with multiplicity one.
    Each pair's product is added at the interval's first row and subtracted
    one past its last, unless that is the balanced row, the last of `out`;
    the rows are one running sum over `out`.  Entries are ints or DPolys.
    """
    top = len(out) - 1
    for (i, j), c in a_t.items():
        for l, q in b_t.items():
            cq = c * q
            lo, hi = j + l, min(i + l, j + weight - l)
            out[lo] += cq
            if hi < top:
                out[hi + 1] -= cq
