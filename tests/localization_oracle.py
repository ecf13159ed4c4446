"""Torus-localization oracle for the class of a coincident root stratum at one degree.

For a degree d0 >= |lambda| let mu = lambda + 1^(d0 - |lambda|), with part
multiplicities e_p and k parts in all.  The stratum is the image of
(P^1)^k -> P(Sym^d0), one point per part, and the torus (a, b) acting on x, y
fixes the forms x^J y^(d0-J).  Summing over the fixed points of (P^1)^k, with
s_p of the e_p points of part p at x and J = sum_p s_p p,

    [Y_lambda](d0) = (1 / prod_p e_p!) sum_s prod_p C(e_p, s_p)
                     * prod_{j != J} w_j / ((b - a)^|s| (a - b)^(k - |s|)),

where w_j = j a + (d0 - j) b is the weight of x^j y^(d0-j).  The result is a
symmetric polynomial of degree c = |lambda| - len(lambda) in a, b.  It is
evaluated at b = 1 and a = 2 ... c + 2, interpolated, and written in the
Schur basis s_(u, c-u)(a, 1) = a^(c-u) + ... + a^u from the top u down.

Only Fraction sums are used: nothing here shares code with the recursion.
"""

from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, factorial, prod


def _class_at(parts, d0, a):
    """The class of the stratum of `parts` (with 1's) at degree d0, at (a, 1)."""
    mults = sorted(Counter(parts).items())
    k = len(parts)
    weights = [j * a + (d0 - j) for j in range(d0 + 1)]
    all_weights = prod(weights)
    total = Fraction(0)
    for s in product(*(range(e + 1) for _, e in mults)):
        J = sum(s_p * p for s_p, (p, _) in zip(s, mults))
        size = sum(s)
        choices = prod(comb(e, s_p) for s_p, (_, e) in zip(s, mults))
        total += Fraction(choices * all_weights // weights[J], (1 - a) ** size * (a - 1) ** (k - size))
    return total / prod(factorial(e) for _, e in mults)


def _interpolate(xs, ys):
    """Coefficients, from degree 0 up, of the polynomial through (xs, ys)."""
    coeffs = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]  # prod_{m != i} (x - x_m), from degree 0 up
        denom = 1
        for m, xm in enumerate(xs):
            if m != i:
                basis = [Fraction(0)] + basis
                for n in range(len(basis) - 1):
                    basis[n] -= xm * basis[n + 1]
                denom *= xi - xm
        for n, c in enumerate(basis):
            coeffs[n] += yi * c / denom
    return coeffs


def localization_class(lam, d0):
    """{u: coefficient of s_(u, c-u)} of the class of the InputPartition lam
    at degree d0, for u from c down to ceil(c/2)."""
    if d0 < lam.weight:
        raise ValueError("d0 must be at least |lambda|")
    parts = list(lam.parts) + [1] * (d0 - lam.weight)
    c = lam.codim
    xs = list(range(2, c + 3))
    poly = _interpolate(xs, [_class_at(parts, d0, a) for a in xs])
    # coefficient of a^u, for u >= c/2, is the sum of the s_(u', c-u') with u' >= u
    return {u: poly[u] - (poly[u + 1] if u < c else 0) for u in range(c, (c - 1) // 2, -1)}
