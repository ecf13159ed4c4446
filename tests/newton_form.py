"""Newton form of a Plucker formula at its validity floor.

A formula p of degree <= |lambda| is sum_k c_k C(d - |lambda|, k), where c_k
is the k-th forward difference of p at d = |lambda|.  If every c_k is an
integer, p takes integer values at every d >= |lambda|; if every c_k is also
>= 0, those values are >= 0.  prod e_i! * p has integer coefficients, so the
differences are taken in integers and divided by prod e_i! once, exactly.
"""

from crsplucker.combinat import factorial_of_multiplicities


def newton_coefficients(formula):
    """[c_0, ..., c_|lambda|] of a PluckerFormula; AssertionError if some
    c_k is not an integer."""
    lam, poly = formula.lam, formula.formula
    scale = factorial_of_multiplicities(lam)
    scaled = {e: c * scale for e, c in poly.coeffs.items()}
    assert all(c == int(c) for c in scaled.values()), (lam, formula.j, "prod e_i! * p is not integral")
    top = max(scaled, default=0)
    values = []
    for d in range(lam.weight, 2 * lam.weight + 1):
        value = 0
        for e in range(top, -1, -1):
            value = value * d + int(scaled.get(e, 0))
        values.append(value)
    coeffs = []
    while values:
        c, rest = divmod(values[0], scale)
        assert rest == 0, (lam, formula.j, len(coeffs), f"c_k = {values[0]}/{scale}")
        coeffs.append(c)
        values = [b - a for a, b in zip(values, values[1:])]
    return coeffs
