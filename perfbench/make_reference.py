"""Build reference.jsonl: the canonical class_to_json of every class the
benchmark checks, cross-checked against the program's independent oracles.

    python3 perfbench/make_reference.py

Each class is computed with the min-part pivot on one shared cache and must
equal, byte for byte in canonical JSON, the max-part pivot result from a
separate cache.  Single parts must equal ym_class_closed_form, the top
d-degree slice must equal top_degree_class, and every row's degree and
leading coefficient must match predicted_leading.  Nothing is written when
any of these fails.
"""

from __future__ import annotations

import sys

import program
import workloads


def reference_partitions():
    shapes = workloads.partitions_no_ones(workloads.SWEEP_WEIGHT)
    return shapes + [p for p in workloads.COLD_PARTITIONS if p not in set(shapes)]


def build():
    """(lines, problems): canonical reference lines and every oracle disagreement."""
    pkg = program.load()
    from crsplucker.crs import class_to_json
    from crsplucker.plucker import top_degree_slice

    min_cache, max_cache = pkg.ClassCache(), pkg.ClassCache()
    lines, problems = [], []
    for parts in reference_partitions():
        lam = pkg.InputPartition(parts)
        cls = pkg.crs_class(lam, pkg.PivotPolicy.min_part(), min_cache)
        text = workloads.canonical(class_to_json(cls, lam))
        other = pkg.crs_class(lam, pkg.PivotPolicy.max_part(), max_cache)
        if workloads.canonical(class_to_json(other, lam)) != text:
            problems.append(f"{lam}: max-part pivot differs")
        if len(parts) == 1 and pkg.ym_class_closed_form(parts[0]) != cls:
            problems.append(f"{lam}: single-part closed form differs")
        if top_degree_slice(cls, lam.weight) != pkg.top_degree_class(lam):
            problems.append(f"{lam}: top-degree slice differs")
        c = lam.codim
        for j in range(c // 2 + 1):
            row = cls.coefficient((c - j, j))
            want = pkg.predicted_leading(lam, j)
            if (row.degree, row.leading_coefficient) != (want.degree, want.coefficient):
                problems.append(f"{lam}: row {j} misses its leading-term prediction")
        lines.append(text)
    return lines, problems


def main():
    lines, problems = build()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    workloads.REFERENCE_PATH.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    print(f"{len(lines)} classes cross-checked and written to {workloads.REFERENCE_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
