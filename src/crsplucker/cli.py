"""Command-line front end.

Subcommands:
  class    compute and print the class of one partition
  plucker  print the Plucker formula table, or evaluate counts
  verify   sweep all partitions up to a weight and run the consistency checks

Exit codes: 0 success, 1 verification failure (including a MISMATCH row
printed by plucker, and a divisibility violation met by verify), 2 bad
input/flags or an unusable --cache path, 3 internal assertion failure in
class or plucker (an ArithmeticError: a divisibility violation, or a count
that is not a nonnegative integer), 4 evaluation below the validity
floor, 141 stdout closed by its reader (128 + SIGPIPE, as a shell reports a
process that SIGPIPE ends; nothing is printed).
Stdout carries data, stderr diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .combinat import InputPartition, enumerate_partitions_no_ones, factorial_of_multiplicities
from .crs import (
    DEFAULT_POLICY, ClassCache, DivisibilityViolation, check_top_degree, class_to_json, crs_class, rows_at, step_at,
)
from .exactalg import dpoly_to_coeff_strings, format_dpoly
from .plucker import BelowValidityFloor, index_to_j, plucker_formulas, plucker_value, ym_class_closed_form

CACHE_ENV_VAR = "CRS_PLUCKER_CACHE"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_INTERNAL = 3
EXIT_BELOW_FLOOR = 4
EXIT_BROKEN_PIPE = 141


def parse_partition(text):
    try:
        lam = InputPartition.parse(text)
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from None
    if lam.is_empty():
        raise ValueError("partition must be nonempty")
    return lam


# -- rendering --------------------------------------------------------------


def render_class_plain(lam, cls):
    if cls.is_zero():
        return f"Y[{lam.canonical_string()}](d) = 0"
    parts = [
        f"({format_dpoly(coeff)}) * s[{rho.r1},{rho.r2}]" for rho, coeff in cls.items()
    ]
    return f"Y[{lam.canonical_string()}](d) = " + " + ".join(parts)


def render_class_latex(lam, cls):
    terms = " + ".join(
        f"\\left({format_dpoly(coeff).replace('*', ' ')}\\right) s_{{{rho.r1},{rho.r2}}}"
        for rho, coeff in cls.items()
    )
    return f"\\left[\\,\\overline Y_{{{lam.canonical_string()}}}(d)\\right] = {terms or '0'}"


def _mismatch(row):
    """(expected, got): the predicted and the formula's degree and leading coefficient."""
    f, p = row.formula.formula, row.prediction
    return f"degree {p.degree} leading {p.coefficient}", f"degree {f.degree} leading {f.leading_coefficient}"


def render_table_plain(table):
    lines = []
    for row in table.rows:
        f = row.formula
        verdict = "match" if row.match else "MISMATCH expected {}, got {}".format(*_mismatch(row))
        lines.append(
            f"Pl[{f.lam.canonical_string()};{f.codim_index}] = {format_dpoly(f.formula)}"
            f"   (predicted degree {row.prediction.degree},"
            f" leading {row.prediction.coefficient},"
            f" {row.prediction.regime}: {verdict})"
        )
    return "\n".join(lines)


def render_table_json(table):
    return {
        "partition": list(table.lam.parts),
        "codim": table.lam.codim,
        "rows": [
            {
                "j": row.formula.j,
                "codim_index": row.formula.codim_index,
                "coeff": dpoly_to_coeff_strings(row.formula.formula),
                "predicted_degree": row.prediction.degree,
                "predicted_leading": str(row.prediction.coefficient),
                "regime": row.prediction.regime,
                "match": row.match,
            }
            for row in table.rows
        ],
    }


def render_table_latex(table):
    lines = []
    for row in table.rows:
        f = row.formula
        lines.append(
            f"\\Pl_{{{f.lam.canonical_string()};{f.codim_index}}}(d) = "
            + format_dpoly(f.formula).replace("*", " ")
        )
    return "\n".join(lines)


# -- cache handling ----------------------------------------------------------


def open_cache(path):
    """The cache in the file at `path`, or an empty one.  A path that cannot
    be read is bad input (ValueError); a file that does not parse, or nests
    too deeply for the JSON decoder, is not."""
    if path:
        try:
            return ClassCache.load(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise ValueError(f"cannot read cache file {path}: {exc.strerror or exc}") from None
        except (ValueError, RecursionError) as exc:
            print(f"warning: cache file {path} does not parse, starting empty: {exc}", file=sys.stderr)
    return ClassCache()


def save_cache(cache, path):
    if path:
        try:
            cache.save(path)
        except OSError as exc:
            raise ValueError(f"cannot write cache file {path}: {exc.strerror or exc}") from None


# -- verification sweep -------------------------------------------------------


class CheckResult:
    __slots__ = ("name", "passed", "failures")

    def __init__(self, name):
        self.name, self.passed, self.failures = name, 0, []

    def record(self, ok, witness):
        if ok:
            self.passed += 1
        else:
            self.failures.append(witness)


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


def run_verification(max_weight, cache=None):
    """Sweep all partitions without 1's of weight <= max_weight and run the
    pivot-independence, closed-form, top-degree and leading-term checks.

    Classes are built by the polynomial recursion on the shared cache.
    Pivot independence (pivot_witness): for every partition lambda and every
    distinct part m, one exact integer step from the cached class of
    lambda - (m) must give the cached class of lambda.  Every lambda - (m)
    is itself in the sweep, so by induction on the number of parts every
    removal order gives the cached class, and every class loaded from a cache
    file is checked.  A DivisibilityViolation while building lambda fails
    its pivot-independence check; lambda is not cached and the sweep goes on.
    A later lambda built or checked through it fails the same check without
    stepping again, and its witness names the partition that did not build.

    Returns a list of CheckResult, one per check.
    """
    partitions = enumerate_partitions_no_ones(max_weight)
    cache = cache if cache is not None else ClassCache()

    pivot_check = CheckResult("pivot-independence")
    closed_form = CheckResult("closed-form-single-part")
    top_degree = CheckResult("top-degree")
    leading = CheckResult("leading-term")

    for lam in partitions:
        # each lam - (m) was swept before lam (by ascending weight): missing when it did not build
        smaller = {m: lam.remove(m) for m in sorted(set(lam.parts))}
        subs = {m: cache.get(sub) if sub.parts else crs_class(sub) for m, sub in smaller.items()}
        pivot = DEFAULT_POLICY.choose(lam.parts)  # crs_class builds lam from lam - (pivot)
        if subs[pivot] is None:
            cache.discard(lam)  # so nothing is built or checked through lam either
            witness = (str(lam), "pivot-independence", "exact division", f"no class for {smaller[pivot]}")
            pivot_check.record(False, witness)
            continue
        try:
            cls = crs_class(lam, cache=cache)
        except DivisibilityViolation as exc:
            pivot_check.record(False, (str(lam), "pivot-independence", "exact division", str(exc)))
            continue
        witness = pivot_witness(lam, cls, subs)
        pivot_check.record(witness is None, witness)

        # single-part closed form
        if len(lam.parts) == 1:
            expected = ym_class_closed_form(lam.parts[0])
            closed_form.record(
                cls == expected, (str(lam), "closed-form-single-part", repr(expected), repr(cls))
            )

        # top d-degree: nothing above d^|lambda|, and the d^|lambda| slice
        try:
            check_top_degree(lam, cls)
            problem = None
        except ValueError as exc:
            problem = str(exc)
        want = "d-degree <= |lambda| and top slice top_degree_class"
        top_degree.record(problem is None, (str(lam), "top-degree", want, problem))

        # leading terms of every formula
        for row in plucker_formulas(lam, cache=cache).rows:
            if row.match:
                leading.passed += 1
            else:
                leading.failures.append((str(lam), f"leading-term j={row.formula.j}", *_mismatch(row)))

    return [pivot_check, closed_form, top_degree, leading]


# -- subcommands --------------------------------------------------------------


def cmd_class(args):
    lam = parse_partition(args.partition)
    cache = open_cache(args.cache)
    cls = crs_class(lam, cache=cache)
    save_cache(cache, args.cache)
    if args.format == "json":
        print(json.dumps(class_to_json(cls, lam), sort_keys=True))
    elif args.format == "latex":
        print(render_class_latex(lam, cls))
    else:
        print(render_class_plain(lam, cls))
    return EXIT_OK


def cmd_plucker(args):
    if args.eval is not None and args.format != "plain":
        raise ValueError(f"--eval prints plain numbers; --format {args.format} is refused")
    lam = parse_partition(args.partition)
    indices = range(lam.codim, -1, -2) if args.codim is None else [args.codim]
    js = [index_to_j(lam, index) for index in indices]  # a bad --codim is refused before any work
    cache = open_cache(args.cache)
    if args.eval is not None:
        values = [plucker_value(lam, index, args.eval, cache) for index in indices]
        save_cache(cache, args.cache)
        print("\n".join(map(str, values)))
        return EXIT_OK
    table = plucker_formulas(lam, cache=cache)
    save_cache(cache, args.cache)
    table = table._replace(rows=tuple(table.rows[j] for j in js))
    if args.format == "json":
        print(json.dumps(render_table_json(table), sort_keys=True))
    elif args.format == "latex":
        print(render_table_latex(table))
    else:
        print(render_table_plain(table))
    return EXIT_OK if table.all_match() else EXIT_VERIFY_FAILED


def cmd_verify(args):
    if args.max_weight < 2:
        print("--max-weight must be at least 2", file=sys.stderr)
        return EXIT_BAD_INPUT
    cache = open_cache(args.cache)
    results = run_verification(args.max_weight, cache=cache)
    partitions = enumerate_partitions_no_ones(args.max_weight)
    # an entry that failed a check is not written back, so no later run serves it
    failed = {w[0] for r in results for w in r.failures}
    for lam in partitions:
        if str(lam) in failed:
            cache.discard(lam)
    save_cache(cache, args.cache)
    n_partitions = len(partitions)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "max_weight": args.max_weight,
                    "partitions": n_partitions,
                    "checks": [
                        {"name": r.name, "passed": r.passed, "failed": len(r.failures)}
                        for r in results
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        print(f"verified {n_partitions} partitions of weight <= {args.max_weight}")
        for r in results:
            print(f"  {r.name}: {r.passed} passed, {len(r.failures)} failed")
    failures = [w for r in results for w in r.failures]
    if failures:
        lam, check, expected, got = failures[0]
        print(
            f"first failure: partition {lam}, check {check}: expected {expected}, got {got}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="crsplucker",
        description="Exact classes of coincident root strata and generalized Plucker formulas.",
    )
    parser.add_argument(
        "--cache",
        default=os.environ.get(CACHE_ENV_VAR),
        help=f"path to a JSON class cache (default: ${CACHE_ENV_VAR})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_class = sub.add_parser("class", help="compute the class of one partition")
    p_class.add_argument("partition", help="comma-separated parts, each >= 2, e.g. 10,2,2")
    p_class.add_argument("--format", choices=["plain", "json", "latex"], default="plain")
    p_class.set_defaults(func=cmd_class)

    p_pl = sub.add_parser("plucker", help="Plucker formulas and values")
    p_pl.add_argument("partition")
    p_pl.add_argument("--codim", type=int, default=None, help="codimension index c - 2j")
    p_pl.add_argument("--eval", type=int, default=None, metavar="D0", help="evaluate at degree D0")
    p_pl.add_argument("--format", choices=["plain", "json", "latex"], default="plain")
    p_pl.set_defaults(func=cmd_plucker)

    p_ver = sub.add_parser("verify", help="run the consistency sweep")
    p_ver.add_argument("--max-weight", type=int, required=True)
    # every removal order is checked; --pivots stays accepted for old scripts
    p_ver.add_argument("--pivots", choices=["min", "all"], default="min", help=argparse.SUPPRESS)
    p_ver.add_argument("--format", choices=["plain", "json"], default="plain")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout must fail here, not at exit
        return code
    except BrokenPipeError:
        # the unwritten rest goes to /dev/null, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except BelowValidityFloor as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BELOW_FLOOR
    except ArithmeticError as exc:
        print(f"internal assertion failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
