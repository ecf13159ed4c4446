"""Command-line front end: argument parsing, rendering, the cache file and
exit codes.

Subcommands:
  class    compute and print the class of one partition
  plucker  print the Plucker formula table, or evaluate counts
  verify   report verify.run_verification, the consistency sweep up to a weight

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

from .combinat import InputPartition
from .crs import ClassCache, class_to_json, crs_class
from .exactalg import dpoly_to_coeff_strings, format_dpoly
from .plucker import BelowValidityFloor, index_to_j, plucker_formulas, plucker_value
from .verify import run_verification

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


def render_table_plain(table):
    lines = []
    for row in table.rows:
        f = row.formula
        verdict = "match" if row.match else "MISMATCH expected {}, got {}".format(*row.mismatch())
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
    results = run_verification(args.max_weight, cache=cache)  # drops every entry that failed a check
    save_cache(cache, args.cache)
    counts = {name: (passed, len(failures)) for name, (passed, failures) in results.items()}
    n_partitions = sum(counts["pivot-independence"])  # one pivot-independence item per partition
    if args.format == "json":
        print(
            json.dumps(
                {
                    "max_weight": args.max_weight,
                    "partitions": n_partitions,
                    "checks": [{"name": name, "passed": p, "failed": f} for name, (p, f) in counts.items()],
                },
                sort_keys=True,
            )
        )
    else:
        print(f"verified {n_partitions} partitions of weight <= {args.max_weight}")
        for name, (p, f) in counts.items():
            print(f"  {name}: {p} passed, {f} failed")
    failures = [w for _, found in results.values() for w in found]
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
