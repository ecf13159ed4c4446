"""One pass (or one segment of a pass) of a workload, in a fresh interpreter.

    python3 perfbench/pass_child.py --workload NAME --seed N --tmp DIR \
        --segment S --mode setup|run|trace [--spans PATH]

run.py starts one of these for every measured or traced pass, so every pass
starts cold: nothing the program keeps at module level carries over from an
earlier pass.  The child times its set-up (import crsplucker, or
crsplucker.cli for verify-cli, and build the workload's inputs and ops),
then, unless the mode is "setup", runs the ops and reads its own peak RSS.
With "trace" the layer wrappers are installed around the ops and the spans
go to --spans.  It prints one JSON line.  It does not check the outputs;
the parent does, against the reference.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import program
import tracer
import workloads


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    parser.add_argument("--segment", required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    start = perf_counter()
    pkg = program.load()
    importlib.import_module(workload.entry_module)
    ops = workload(args.seed, args.tmp).ops(pkg, args.segment)
    doc = {"setup_s": perf_counter() - start}
    if args.mode != "setup":
        rec = tracer.Recorder() if args.mode == "trace" else None
        with rec.installed() if rec else contextlib.nullcontext():
            doc["ops"] = workloads.run_ops(ops, rec)
        doc["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if rec:
            doc["layers"] = rec.summary(pkg.crs.class_to_json)
            doc["absent"] = rec.absent
            tracer.write_spans(args.spans, rec.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
