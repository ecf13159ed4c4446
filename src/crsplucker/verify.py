"""The consistency sweep behind `crsplucker verify`: each check of CHECKS
takes (lambda, its class, the class of lambda - (m) by distinct part m, the
cache) and yields, per item it counts, None or a failure witness
(partition, check, expected, got)."""

from __future__ import annotations

from .combinat import enumerate_partitions_no_ones, factorial_of_multiplicities
from .crs import DEFAULT_POLICY, ClassCache, DivisibilityViolation, check_top_degree, crs_class, rows_at, step_at
from .plucker import plucker_formulas, ym_class_closed_form


def pivot_witness(lam, cls, subs):
    """None when every removal order gives `cls`, else the failure witness.

    For each distinct part m, ascending, one step_at from subs[m], the cached
    class of lambda - (m), at d = B - m must give the rows of Q = prod e_i! * cls at
    d = B = 2^K.  K is chosen so that B > 1 + M + H, where M, the largest
    step_at majorant, bounds every coefficient of each polynomial step and H,
    the largest row 1-norm of Q, bounds every coefficient of Q.
    A nonzero integer polynomial of height at most M + H has no root that
    large (Cauchy's bound), so equal values mean equal classes: the check is
    exact.

    A removal order through a partition whose class did not build (subs[m]
    is None) fails without a step.
    """
    scale, steps, bound = factorial_of_multiplicities(lam), [], 0
    try:
        for m, sub in subs.items():
            smaller = lam.remove(m)
            if sub is None:
                return (str(lam), f"pivot-independence via {m}", "exact division", f"no class for {smaller}")
            sub = (sub, factorial_of_multiplicities(smaller))
            steps.append((m, smaller.codim, sub))
            bound = max(bound, *step_at(rows_at(*sub, 1 + m, abs), smaller.codim, m, 1 + m, majorant=True))
        x = 1 << (bound + max(rows_at(cls, scale, 1, abs)) + 1).bit_length()
        target = rows_at(cls, scale, x)
        for m, weight, sub in steps:
            if step_at(rows_at(*sub, x - m), weight, m, x - m) != target:
                return (str(lam), f"pivot-independence via {m}", "identical classes", "diverged")
    except DivisibilityViolation as exc:
        return (str(lam), f"pivot-independence via {m}", "exact division", str(exc))
    return None


def closed_form_single_part(lam, cls, subs, cache):
    if len(lam.parts) == 1:
        expected = ym_class_closed_form(lam.parts[0])
        yield None if cls == expected else (str(lam), "closed-form-single-part", repr(expected), repr(cls))


def top_degree(lam, cls, subs, cache):
    try:
        check_top_degree(lam, cls)
    except ValueError as exc:
        yield (str(lam), "top-degree", "d-degree <= |lambda| and top slice top_degree_class", str(exc))
    else:
        yield None


def leading_term(lam, cls, subs, cache):
    for row in plucker_formulas(lam, cache=cache).rows:
        yield None if row.match else (str(lam), f"leading-term j={row.formula.j}", *row.mismatch())


# name -> check, in the order of verify's report
CHECKS = {
    "pivot-independence": lambda lam, cls, subs, cache: [pivot_witness(lam, cls, subs)],
    "closed-form-single-part": closed_form_single_part,
    "top-degree": top_degree,
    "leading-term": leading_term,
}


def _witnesses(lam, cache):
    """(check name, witness or None) for each item the checks count on lambda."""
    # each lam - (m) was swept before lam (by ascending weight): missing when it did not build
    smaller = {m: lam.remove(m) for m in sorted(set(lam.parts))}
    subs = {m: cache.get(sub) if sub.parts else crs_class(sub) for m, sub in smaller.items()}
    pivot = DEFAULT_POLICY.choose(lam.parts)  # crs_class builds lam from lam - (pivot)
    try:
        if subs[pivot] is None:
            cache.discard(lam)  # lam did not build either, so nothing is built or checked through it
            raise DivisibilityViolation(f"no class for {smaller[pivot]}")
        cls = crs_class(lam, cache=cache)
    except DivisibilityViolation as exc:
        yield "pivot-independence", (str(lam), "pivot-independence", "exact division", str(exc))
        return
    for name, check in CHECKS.items():
        for witness in check(lam, cls, subs, cache):
            yield name, witness


def run_verification(max_weight, cache=None):
    """Build every partition without 1's of weight <= max_weight on the
    cache, ascending, and run CHECKS on it: {check name: (passed, failures)}.

    Each lambda - (m) is swept too, so by induction on the number of parts
    pivot_witness checks every removal order.  Cache entries of weight at
    most max_weight are checked like built classes; heavier ones are left as
    they are.  A lambda that does not build (a DivisibilityViolation, or no
    class for lambda minus the pivot) fails pivot independence and is not
    cached, so what is built or checked through it fails without a step.
    Every partition with a failed check is dropped from the cache at the end.
    """
    cache = cache if cache is not None else ClassCache()
    passed, failures, failed = dict.fromkeys(CHECKS, 0), {name: [] for name in CHECKS}, []
    for lam in enumerate_partitions_no_ones(max_weight):
        for name, witness in _witnesses(lam, cache):
            if witness is None:
                passed[name] += 1
            else:
                failures[name].append(witness)
                failed.append(lam)
    for lam in failed:
        cache.discard(lam)
    return {name: (passed[name], failures[name]) for name in CHECKS}
