"""The consistency sweep behind `crsplucker verify`: each of CLASS_CHECKS
takes (lambda, its class, the cache) and yields, per item it counts, None
or a failure witness (partition, check, expected, got); pivot independence
checks the whole sweep at one shared point."""

from __future__ import annotations

from operator import add

from .combinat import InputPartition, enumerate_partitions_no_ones, factorial_of_multiplicities
from .crs import DEFAULT_POLICY, ClassCache, DivisibilityViolation, check_top_degree, crs_class, rows_at, step_at
from .plucker import plucker_formulas, ym_class_closed_form

PIVOT = "pivot-independence"
EMPTY = InputPartition(())


def closed_form_single_part(lam, cls, cache):
    if len(lam.parts) == 1:
        expected = ym_class_closed_form(lam.parts[0])
        yield None if cls == expected else (str(lam), "closed-form-single-part", repr(expected), repr(cls))


def top_degree(lam, cls, cache):
    try:
        check_top_degree(lam, cls)
    except ValueError as exc:
        yield (str(lam), "top-degree", "d-degree <= |lambda| and top slice top_degree_class", str(exc))
    else:
        yield None


def leading_term(lam, cls, cache):
    for row in plucker_formulas(lam, cache=cache).rows:
        yield None if row.match else (str(lam), f"leading-term j={row.formula.j}", *row.mismatch())


# name -> check on one built class
CLASS_CHECKS = {
    "closed-form-single-part": closed_form_single_part,
    "top-degree": top_degree,
    "leading-term": leading_term,
}
CHECKS = (PIVOT, *CLASS_CHECKS)  # the order of verify's report


def majorant(lam, max_weight, majorants):
    """Bounds, by r2, on prod e_i! * the class of lambda at d = 1 + max_weight
    - |lambda| with absolute coefficients: one majorant step from the bounds
    of lambda minus the part crs_class removes first."""
    m = DEFAULT_POLICY.choose(lam.parts)
    smaller = lam.remove(m)
    return step_at(majorants[smaller], smaller.codim, m, 1 + max_weight - smaller.weight, majorant=True)


def _pivot_witness(lam, values, failed, x):
    """None when the step through each distinct part m at x - m gives
    values[lam], else the failure witness.  A lambda - (m) that did not
    build, then one that failed, fails lambda without a step."""
    smaller = {m: lam.remove(m) for m in sorted(set(lam.parts))}
    for m, sub in smaller.items():
        if sub not in values:
            return (str(lam), f"{PIVOT} via {m}", "exact division", f"no class for {sub}")
    for m, sub in smaller.items():
        if sub in failed:
            return (str(lam), f"{PIVOT} via {m}", f"{sub} verified", f"{sub} failed")
    for m, sub in smaller.items():
        try:
            if step_at(values[sub], sub.codim, m, x - m) != values[lam]:
                return (str(lam), f"{PIVOT} via {m}", "identical classes", "diverged")
        except DivisibilityViolation as exc:
            return (str(lam), f"{PIVOT} via {m}", "exact division", str(exc))
    return None


def run_verification(max_weight, cache=None):
    """Build every partition without 1's of weight <= W = max_weight on the
    cache, ascending, and check it: {check name: (passed, failures)}.

    Pass 1 builds each class, runs CLASS_CHECKS on it and steps its
    majorant.  With Q = prod e_i! * the class, y = 1 + W - |lambda| and
    x = B - (W - |lambda|), B = 2^K is chosen once, above
    1 + W + majorant + rows_at(Q, y, abs) in every row of every class.
    Pass 2 evaluates each Q at x and, for each distinct part m, steps once
    from the value of lambda - (m) at x - m, which is its own x.

    This is exact by induction on the weight.  lambda passes only if every
    lambda - (m) passed, so each step starts from the true class; through
    the smallest part it gives the true Q at x, and by the paper's theorem
    so does every other part.  The true Q minus the checked one, with d
    replaced by d - (W - |lambda|), has height below B - 1, as
    |p(d - s)|(1) <= |p|(1 + s), so by Cauchy's root bound it vanishes at B
    only if it is zero.  A step through another part that gave some other
    polynomial is caught unless the difference vanishes at x: no majorant is
    stepped through that part.  Each lambda - (m) is swept too, so every
    removal order is checked.

    Cache entries of weight at most W are checked like built classes;
    heavier ones are left as they are.  A lambda that does not build (a
    DivisibilityViolation, or no class for lambda minus the pivot) fails
    pivot independence and is not cached.  Every partition with a failed
    check is dropped from the cache at the end.
    """
    cache = cache if cache is not None else ClassCache()
    sweep = enumerate_partitions_no_ones(max_weight)
    passed, failures, failed = dict.fromkeys(CHECKS, 0), {name: [] for name in CHECKS}, set()

    def count(name, lam, witness):
        if witness is None:
            passed[name] += 1
        else:
            failures[name].append(witness)
            failed.add(lam)

    built, not_built, majorants, bound = {}, {}, {EMPTY: [1]}, 0
    for lam in sweep:
        smaller = lam.remove(DEFAULT_POLICY.choose(lam.parts))  # crs_class builds lam from smaller
        try:
            if smaller.parts and cache.get(smaller) is None:
                cache.discard(lam)  # smaller did not build, so nothing is built or checked through it
                raise DivisibilityViolation(f"no class for {smaller}")
            built[lam] = cls = crs_class(lam, cache=cache)
        except DivisibilityViolation as exc:
            not_built[lam] = (str(lam), PIVOT, "exact division", str(exc))
            continue
        for name, check in CLASS_CHECKS.items():
            for witness in check(lam, cls, cache):
                count(name, lam, witness)
        majorants[lam] = majorant(lam, max_weight, majorants)
        norms = rows_at(cls, factorial_of_multiplicities(lam), 1 + max_weight - lam.weight, abs)
        bound = max(bound, *map(add, majorants[lam], norms))

    b, values, pivot_failed = 1 << (1 + max_weight + bound).bit_length(), {EMPTY: [1]}, set()
    for lam in sweep:
        witness = not_built.get(lam)
        if lam in built:
            x = b - (max_weight - lam.weight)
            values[lam] = rows_at(built[lam], factorial_of_multiplicities(lam), x)
            witness = _pivot_witness(lam, values, pivot_failed, x)
        count(PIVOT, lam, witness)
        if witness is not None:
            pivot_failed.add(lam)
    for lam in failed:
        cache.discard(lam)
    return {name: (passed[name], failures[name]) for name in CHECKS}
