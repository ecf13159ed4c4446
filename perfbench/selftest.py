"""Self-test of the benchmark's output checks and tracing (about 30 s).

    python3 perfbench/selftest.py

1. Tampered reference: for each workload one reference class is scaled by
   1/4, so the (2,2) class counts 7 bitangents of a plane quartic instead
   of 28.  One pass against that reference must report failed ops.
2. Self times: on a traced cold-classes pass, the layer self times plus the
   unwrapped remainder add up to the traced wall time, that traced wall
   time matches the pass's op time measured outside the tracer, and
   class_product, weighted_divdiff and dpoly_shift hold most of the layer
   self time.
3. A layer the program does not define is reported absent and reads 0.
"""

from __future__ import annotations

import sys

import program
import tracer
import workloads

TAMPERED = {"cold-classes": "10,2,2", "sweep-w18": "2,2", "plucker-queries": "2,2", "verify-cli": "2,2"}
KERNEL = ("symfunc.class_product", "symfunc.weighted_divdiff", "exactalg.dpoly_shift")
MISSING = "exactalg.no_such_layer"


def main():
    ref = workloads.Reference.load()
    results = []

    def report(ok, what):
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {what}")

    bitangents = workloads.evaluate(ref.coeff("2,2", (1, 1)), 4)
    tampered_bitangents = workloads.evaluate(ref.tampered("2,2").coeff("2,2", (1, 1)), 4)
    report((bitangents, tampered_bitangents) == (28, 7), f"(2,2) at d=4: reference {bitangents}, tampered {tampered_bitangents}")

    with program.temp_dir() as tmp:
        for name, k in TAMPERED.items():
            wl = workloads.WORKLOADS[name](1, tmp)
            done = wl.measured_pass(ref.tampered(k))
            rate = len(done.failures) / done.attempted
            report(rate > 0, f"{name} with class {k} tampered: fail_rate {rate:.4f} ({len(done.failures)}/{done.attempted})")

        wl = workloads.ColdClasses(1, tmp)
        done = wl.child_pass(ref, True, program.OUT_DIR)
    summary = done.layers
    report(not done.failures, f"traced cold-classes pass is correct ({done.attempted} ops)")
    gap = tracer.self_time_gap(summary)
    report(
        gap < 1e-6 and abs(summary["trace.wall_s"] - done.wall) < 1e-3,
        f"layer self {summary['trace.layers_self_s']:.6f} s + unwrapped {summary['trace.unwrapped_s']:.6f} s"
        f" = traced wall {summary['trace.wall_s']:.6f} s (gap {gap:.1e} s; ops took {done.wall:.6f} s)",
    )
    kernel = sum(summary[f"{layer}.self_s"] for layer in KERNEL)
    share = kernel / summary["trace.layers_self_s"]
    report(share > 0.5, f"class_product + weighted_divdiff + dpoly_shift hold {100 * share:.1f}% of layer self time")

    program.load()
    rec = tracer.Recorder(layers={**tracer.LAYERS, MISSING: None})
    with rec.installed():
        absent = rec.absent
    report(
        absent == [MISSING] and rec.summary(None)[f"{MISSING}.calls"] == 0,
        f"missing layer reported absent: {absent}",
    )
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
