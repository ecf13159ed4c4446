"""The product of two SchurClasses by the Pieri rule, for the tests.

The library multiplies only inside one recursion step, on rows
(symfunc.class_product); this whole-class product is the reference that
the Pieri, Kostka-fold and product-leading-term tests compare against.
"""

from crsplucker.exactalg import DPoly
from crsplucker.symfunc import SchurClass, TwoRowPartition


def pieri_product(left, right):
    """The product of two classes, bilinear in their terms.

    By the Pieri rule s_(i,j) * s_(k,l) is the sum of s_(w-v, v),
    w = i + j + k + l, over the interval j + l <= v <= min(i + l, j + k),
    each with multiplicity one.  Each pair's product is added at the
    interval's first row and subtracted one past its last, unless that is
    the balanced row w // 2; the rows are one running sum over v.
    """
    w = left.weight + right.weight
    top = w // 2
    diff = {}
    for (i, j), c1 in left.items():
        for (k, l), c2 in right.items():
            c = c1 * c2
            lo, hi = j + l, min(i + l, j + k)
            diff[lo] = diff[lo] + c if lo in diff else c
            if hi < top:
                diff[hi + 1] = diff[hi + 1] - c if hi + 1 in diff else -c
    out, acc = {}, DPoly()
    for v in range(min(diff, default=top + 1), top + 1):
        if v in diff:
            acc = acc + diff[v]
        out[TwoRowPartition(w - v, v)] = acc
    return SchurClass(w, out)

