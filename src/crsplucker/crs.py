"""The recursion engine for equivariant classes of coincident root strata.

One step removes a part m from the partition: split the smaller class into
the shift components B_t, pair each with the divided-difference class A_t,
sum (1/e_m) * sum_t m^t A_t (B_t / d^t) and translate d by -m.  Each B_t is
divided by d^t exactly before the product, so every term, and hence the sum,
is a polynomial.  The divisibility is guaranteed by the underlying algebra
and checked at runtime: a failure is an implementation bug.

The step has one implementation, step_at, on the class's rows by r2.  Its
values are ints at a number, where verify checks every removal order, or
DPolys over Z[d], where recursion_step builds every class.

Only the 1/e_m has a denominator, and the e_m of a run multiply to prod e_i!
whatever the pivot order.  So the steps run without it on the integral class
prod e_i! * [Y_lambda], in int arithmetic, and class_via divides once.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from itertools import accumulate
from typing import NamedTuple

from .combinat import InputPartition, complete_homogeneous_coefficients, factorial_of_multiplicities
from .exactalg import DPoly, dpoly_from_coeff_strings, dpoly_shift, dpoly_to_coeff_strings
from .symfunc import (
    SchurClass, TwoRowPartition, class_product, linear_factor_expansion, split_shift, unit_class, weighted_divdiff,
)

D = DPoly({1: 1})  # the indeterminate d: step_at at D is the step over Z[d]


class DivisibilityViolation(ArithmeticError):
    """A coefficient of B_t was not divisible by d^t: an implementation bug."""


class PivotPolicy(NamedTuple):
    """Which part to remove at each recursion step: `choose` (min or max)
    applied to the parts.

    The computed class is independent of this choice; `verify` checks every
    removal order with step_at, one integer step per distinct part.
    """

    choose: object

    @classmethod
    def min_part(cls):
        return cls(min)

    @classmethod
    def max_part(cls):
        return cls(max)


DEFAULT_POLICY = PivotPolicy.min_part()


class ClassCache:
    """Partition -> SchurClass, for use from one thread at a time.

    Only classes of the partition's weight that are integral once scaled by
    prod e_i! are stored.  Entries loaded from disk must also pass the
    top-degree oracle, and a file is written whole or not at all.  An entry
    that is wrong below its top d-degree still loads; `verify` checks it at
    one exact point, and only up to its --max-weight.
    """

    def __init__(self):
        self._data = {}
        # Path of the file `load` read, kept only while the entries are exactly
        # its entries (every key kept, nothing put since): saving there is a no-op.
        self._loaded_from = None

    def get(self, partition):
        return self._data.get(partition.canonical_string())

    def put(self, partition, schur_class):
        _validate_class(partition, schur_class)
        self._data[partition.canonical_string()] = schur_class
        self._loaded_from = None

    def discard(self, partition):
        """Drop the entry of `partition`, if any."""
        if self._data.pop(partition.canonical_string(), None) is not None:
            self._loaded_from = None

    def __len__(self):
        return len(self._data)

    # -- persistence -------------------------------------------------------

    def save(self, path):
        """Write a sibling file and rename it over `path`, so a crash mid-write
        leaves the old file intact.  Saving back to the file `load` read, with
        nothing changed since, writes nothing."""
        if os.fspath(path) == self._loaded_from:
            return
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                # compact JSON with sorted keys, one entry at a time: the C
                # encoder's speed without holding the whole document
                fh.write("{")
                for i, (key, cls) in enumerate(sorted(self._data.items())):
                    entry = class_to_json(cls, InputPartition.parse(key))
                    fh.write(("," if i else "") + json.dumps(key) + ":")
                    fh.write(json.dumps(entry, sort_keys=True, separators=(",", ":")))
                fh.write("}\n")
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)

    @classmethod
    def load(cls, path):
        """Load a cache file, silently dropping any entry that fails revalidation."""
        cache = cls()
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            return cache
        for key, payload in doc.items():
            try:
                partition = InputPartition.parse(key)
                loaded = class_from_json(payload)
                if tuple(payload.get("partition", ())) != partition.parts:
                    raise ValueError("partition key/payload mismatch")
                check_top_degree(partition, loaded)
                cache.put(partition, loaded)
            except (ValueError, KeyError, TypeError, ArithmeticError):
                continue
        if cache._data.keys() == doc.keys():
            cache._loaded_from = os.fspath(path)
        return cache


def _validate_class(partition, schur_class):
    if schur_class.weight != partition.codim:
        raise ValueError(
            f"class for {partition} has weight {schur_class.weight}, expected {partition.codim}"
        )
    scale = factorial_of_multiplicities(partition)
    if any(scale % c.denominator for _, p in schur_class.items() for c in p.coeffs.values()):
        raise ValueError(f"class for {partition} times prod e_i! = {scale} is not integral")


def top_degree_class(lam):
    """The coefficient of d^|lambda| of the whole class, as a SchurClass of
    constants: h_nu of the reduction nu over prod e_i!, so the coefficient of
    s_(c-j, j) is K_((c-j, j), nu) / prod e_i!."""
    if lam.is_empty():
        raise ValueError("requires a nonempty partition")
    scale, c = factorial_of_multiplicities(lam), lam.codim
    coeffs = complete_homogeneous_coefficients(lam.reduction)
    return SchurClass(c, {TwoRowPartition(c - j, j): Fraction(k, scale) for j, k in enumerate(coeffs)})


def top_degree_slice(schur_class, degree):
    """The indicated d-degree slice of a class, as constant coefficients."""
    return SchurClass(
        schur_class.weight,
        {rho: coeff.coefficient(degree) for rho, coeff in schur_class.items()},
    )


def check_top_degree(partition, schur_class):
    """Raise ValueError unless every coefficient has d-degree at most |lambda|
    and the d^|lambda| slice is top_degree_class, as for the class of
    `partition`: prod e_i! times the slice, by r2, is the int list of
    complete_homogeneous_coefficients, with no SchurClass built."""
    if partition.is_empty():
        raise ValueError("requires a nonempty partition")
    weight, scale = partition.weight, factorial_of_multiplicities(partition)
    if any(coeff.degree > weight for _, coeff in schur_class.items()):
        raise ValueError(f"class for {partition} has d-degree above {weight}")
    if schur_class.weight != partition.codim:
        raise ValueError(f"class for {partition} has weight {schur_class.weight}, expected {partition.codim}")
    top = [0] * (partition.codim // 2 + 1)
    for rho, coeff in schur_class.items():
        top[rho.r2] = coeff.coefficient(weight) * scale
    if top != complete_homogeneous_coefficients(partition.reduction):
        raise ValueError(f"top d-degree slice of the class for {partition} is wrong")


def class_to_json(schur_class, partition=None):
    doc = {
        "codim": schur_class.weight,
        "terms": [
            {"rho": [rho.r1, rho.r2], "coeff": dpoly_to_coeff_strings(coeff)}
            for rho, coeff in schur_class.items()
        ],
    }
    if partition is not None:
        doc = {"partition": list(partition.parts), **doc}
    return doc


def class_from_json(doc):
    terms = {}
    for entry in doc["terms"]:
        r1, r2 = entry["rho"]
        terms[TwoRowPartition(int(r1), int(r2))] = dpoly_from_coeff_strings(entry["coeff"])
    return SchurClass(int(doc["codim"]), terms)


def recursion_step(y_prime, m):
    """Map prod e_i! * [Y_lambda'] to prod e_i! * [Y_lambda], lambda = lambda' + (m):
    step_at over Z[d], then the substitution d -> d - m."""
    w = y_prime.weight
    rows = step_at([y_prime.coefficient((w - v, v)) for v in range(w // 2 + 1)], w, m, D)
    w += m - 1
    return SchurClass(w, {TwoRowPartition(w - v, v): dpoly_shift(row, -m) for v, row in enumerate(rows) if row})


def crs_class(partition, policy=DEFAULT_POLICY, cache=None):
    """The equivariant class of the coincident root stratum of `partition`,
    as a SchurClass of weight codim with DPoly coefficients.

    The result is independent of the pivot policy.  A cache may be shared
    across calls.
    """
    if partition.is_empty():
        return unit_class()
    if cache is None:
        cache = ClassCache()
    hit = cache.get(partition)
    if hit is not None:
        return hit
    result = class_via(partition, policy.choose(partition.parts), cache, policy)
    cache.put(partition, result)
    return result


def class_via(partition, m, cache, policy=DEFAULT_POLICY):
    """The class of `partition` computed by removing the part m first.

    One recursion step from the class of partition - (m), taken from `cache`
    or computed under `policy` and cached.  The result itself is not cached.
    """
    smaller = partition.remove(m)
    sub = crs_class(smaller, policy, cache)
    if (sub_scale := factorial_of_multiplicities(smaller)) != 1:
        sub = sub.scale(sub_scale)
    result = recursion_step(sub, m)
    if (scale := factorial_of_multiplicities(partition)) != 1:
        result = result.scale(Fraction(1, scale))
    return result


def step_at(values, weight, m, z, majorant=False):
    """One recursion step, at the number z or over Z[d] with z = D.

    `values` lists, by r2, prod e_i! * [Y_lambda'] at d = z, where weight is
    codim(lambda'); returns the list, by r2, of prod e_i! * [Y_lambda] at
    d = z + m, lambda = lambda' + (m).  At a number the values are ints and
    the substitution d -> d - m is the offset between the two points; over
    Z[d] they are DPolys, and recursion_step substitutes.  The step sums
    m^t A_t (B_t / z^t) over the buckets B_t of split_shift, each divided by
    z^t exactly, or DivisibilityViolation is raised.

    With majorant=True the signs of A_t are dropped and the division rounds
    up.  Given an entrywise bound on rows_at(Y', y + m, abs) at z = y + m,
    for any y >= 1, each entry then bounds that row of rows_at(Y, y, abs),
    which at y = 1 is the row's 1-norm: the split constants and the
    coefficients of each e_f are nonnegative, |B / d^t|(z) = |B|(z) / z^t
    and |p(d - m)|(y) <= |p|(y + m).
    """
    if m < 2:
        raise ValueError("need m >= 2")
    if isinstance(z, DPoly):
        e = linear_factor_expansion(m)
    else:
        e = [1]  # e[f] = e_f(z), multiplying out prod_{i<m}(i*a + (z+m-i)*b) at z
        for i in range(m):
            e = [i * x + (z + m - i) * y for x, y in zip(e + [0], [0] + e)]
    out, zt = [0] * ((weight + m + 1) // 2), 1  # the (weight + m - 1) // 2 + 1 rows
    for t, bucket in enumerate(split_shift(values, weight)):
        quotients, mt = {}, m**t
        for v, b in bucket.items():
            q, r = divmod(b, zt)
            if r:
                if not majorant:
                    rho = (weight - t - v, v)
                    raise DivisibilityViolation(f"{z}^{t} does not divide the s_{rho} coefficient of B_{t}")
                q += 1  # rounded up
            quotients[v] = q * mt
        class_product(weighted_divdiff(t, m, e, majorant), quotients, weight - t, out)
        zt *= z
    return list(accumulate(out))


def rows_at(schur_class, scale, x, coeff=int):
    """The list, by r2, of scale * schur_class at d = x, by Horner; with
    coeff=abs, of the class with each coefficient replaced by its absolute value."""
    rows = [0] * (schur_class.weight // 2 + 1)
    for rho, p in schur_class.items():
        row = 0
        for e in range(p.degree, -1, -1):
            c = p.coefficient(e)  # an int or a Fraction whose denominator divides scale
            row = row * x + coeff(c.numerator * scale // c.denominator)
        rows[rho.r2] = row
    return rows
