"""crsplucker benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it measures the end-to-end metrics with no tracing; with
--trace 1 it alternates untraced and traced passes and reports the per-layer
metrics.  Every pass runs in fresh interpreters the benchmark owns
(pass_child.py; verify-cli's measured passes run the CLI itself), so each
pass starts cold.  The metric names and units come from BENCHMARK.json.  The last line
of stdout is the result; the line before it records the run (seed, passes,
fail_rate, Python version, nproc, commit, src/ line count).  Exit status is 0
when every op's output matched the reference, 1 when any did not, and 2 when
there is no program to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from statistics import median, quantiles
from time import perf_counter

import program
import tracer
import workloads

BENCHMARK_JSON = program.ROOT / "BENCHMARK.json"
# setup_s is the median of SETUP_SAMPLES samples spread over the run; each
# sample is the fastest of SETUP_TRIES back-to-back fresh-interpreter set-ups,
# so a sub-second dip in machine speed does not decide a sample.
SETUP_SAMPLES = 15
SETUP_TRIES = 3
# A measured run makes at least this many passes, so that its median over
# passes is robust to one slow pass (a sweep-w18 pass takes about 9 s).
MIN_PASSES = 3
# A traced pass's root spans must cover the time its ops took, measured
# outside the tracer, to within this share.
SPAN_COVER_TOLERANCE = 1e-3


def declared_metrics(kind):
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def setup_sample(wl):
    return min(wl.probe_setup() for _ in range(SETUP_TRIES))


def end_to_end(wl, ref, seconds):
    """Passes until `seconds` have gone by, and at least MIN_PASSES.  The
    set-up samples are spread over the run, so one burst of load on the
    machine cannot skew all of them."""
    setup, passes = [], []
    start = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(wl.measured_pass(ref))
        share = (perf_counter() - start) / seconds if seconds > 0 else 1
        due = min(SETUP_SAMPLES, math.ceil(SETUP_SAMPLES * share))
        setup.extend(setup_sample(wl) for _ in range(due - len(setup)))
    setup.extend(setup_sample(wl) for _ in range(SETUP_SAMPLES - len(setup)))
    p50 = [median(p.latencies) for p in passes]
    p90 = [quantiles(p.latencies, n=10, method="inclusive")[8] for p in passes]
    values = {
        "wall_s": median(p.wall for p in passes),
        "op_p50_ms": 1000 * median(p50),
        "op_p90_ms": 1000 * median(p90),
        "setup_s": median(setup),
        "peak_rss_mb": median(p.rss_kb for p in passes) / 1024,
    }
    notes = {
        "op_samples_per_pass": len(passes[0].latencies),
        "op_samples_beyond_p90": [sum(1 for x in p.latencies if x > cut) for p, cut in zip(passes, p90)],
        "pass_wall_s": [round(p.wall, 6) for p in passes],
        "pass_rss_kb": [p.rss_kb for p in passes],
        "setup_samples_s": [round(s, 6) for s in setup],
    }
    return passes, values, notes


def per_layer(wl, ref, seconds):
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(wl.child_pass(ref, False))
        traced.append(wl.child_pass(ref, True, program.OUT_DIR))
    values = {name: median(p.layers[name] for p in traced) for name in tracer.metric_names()}
    untraced_wall = median(p.wall for p in untraced)
    traced_wall = median(p.wall for p in traced)
    values["trace.overhead_pct"] = 100 * (traced_wall / untraced_wall - 1) if untraced_wall else 0.0
    for p in traced:
        gap = abs(p.layers["trace.wall_s"] - p.wall)
        if not p.failures and gap > SPAN_COVER_TOLERANCE * p.wall:
            p.failures.append(f"root spans cover {p.layers['trace.wall_s']} s of a {p.wall} s pass")
    notes = {
        "untraced_passes": len(untraced),
        "traced_passes": len(traced),
        "absent_layers": traced[-1].absent,
        "spans_files": f"{program.OUT_DIR.name}/{wl.name}-seed{wl.seed}-*.spans.json",
    }
    return untraced + traced, values, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description="crsplucker benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        program.require()
    except program.MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_metrics(kind)
    ref = workloads.Reference.load()
    with program.temp_dir() as tmp:
        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        measure = per_layer if args.trace else end_to_end
        passes, values, notes = measure(wl, ref, args.seconds)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for line in failures[:10]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "fail_rate": len(failures) / attempted,
        **notes,
        **program.provenance(),
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
