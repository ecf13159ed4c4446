"""The four workloads: inputs made from the seed, the ops of one pass, and the output checks.

Every pass runs in a fresh interpreter that the benchmark owns
(pass_child.py), so no state the program keeps at module level carries from
one pass to the next.  Every op is one closed-loop call into crsplucker; the
next op starts when the previous one has returned.  Only the call is timed.
Right after it, outside the timed region, the child reduces the output to a
small observation: a digest of a class's canonical JSON, a returned int, a
CLI run's exit code and output.  The parent checks every observation against
the committed reference (reference.jsonl), so a fast wrong answer counts as
a failed op, and the reference never sits in the measured process.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

import program
import tracer

REFERENCE_PATH = Path(__file__).with_name("reference.jsonl")
CHILD = Path(__file__).with_name("pass_child.py")

# cold-classes: kernel-bound inputs, each from an empty cache.  Multi-part
# inputs are dominated by class_product, single parts by weighted_divdiff and
# dpoly_shift.
COLD_PARTITIONS = ((12, 10, 8), (6, 6, 6, 6, 6), (5, 5, 5, 5), (10, 2, 2), (40,), (60,))
SWEEP_WEIGHT = 18
QUERY_WEIGHT = 12
QUERY_COUNT = 400
QUERY_D_SPAN = 50
VERIFY_WEIGHT = 12


def partitions_no_ones(max_weight):
    """Parts tuples of every partition without 1's of weight 2..max_weight, weight
    ascending and then largest parts first (the order the program enumerates)."""

    def gen(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for p in range(min(cap, remaining), 1, -1):
            if remaining - p != 1:
                for rest in gen(remaining - p, p):
                    yield (p,) + rest

    return [parts for weight in range(2, max_weight + 1) for parts in gen(weight, weight)]


def key(parts):
    return ",".join(str(p) for p in parts)


def canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def digest(doc):
    """sha256 of a document's canonical JSON text."""
    text = doc if isinstance(doc, str) else canonical(doc)
    return hashlib.sha256(text.encode()).hexdigest()


def codim(parts):
    return sum(parts) - len(parts)


class Reference:
    """Canonical class_to_json text of each reference class, keyed by partition."""

    def __init__(self, lines):
        self.lines = lines

    @classmethod
    def load(cls, path=REFERENCE_PATH):
        lines = {}
        with open(path, encoding="utf-8") as fh:
            for text in fh:
                text = text.rstrip("\n")
                if text:
                    lines[key(json.loads(text)["partition"])] = text
        return cls(lines)

    def coeff(self, k, rho):
        """Coefficient strings of s_rho in the class of partition k ([] when absent)."""
        for term in json.loads(self.lines[k])["terms"]:
            if term["rho"] == list(rho):
                return term["coeff"]
        return []

    def tampered(self, k):
        """A copy in which every coefficient of one class is divided by 4."""
        doc = json.loads(self.lines[k])
        for term in doc["terms"]:
            term["coeff"] = [str(Fraction(c) / 4) for c in term["coeff"]]
        return Reference({**self.lines, k: canonical(doc)})


def evaluate(coeff_strings, d0):
    return sum((Fraction(c) * d0**e for e, c in enumerate(coeff_strings)), Fraction(0))


class Op(NamedTuple):
    run: Callable[[], object]  # the timed call into the program
    observe: Callable[[object], object]  # the output reduced to JSON, outside the timed region
    sampled: bool = True  # counts toward the op latency percentiles


def run_ops(ops, rec=None):
    """Child side: run ops in order, timing each call and observing each output after it."""
    gc.collect()
    done = []
    for op in ops:
        start = perf_counter()
        try:
            out = rec.call(tracer.OP, op.run) if rec else op.run()
        except Exception as exc:  # a raising op is a failed op, not a crashed pass
            done.append({"s": perf_counter() - start, "sampled": op.sampled, "error": f"raised {exc!r}"})
            continue
        seconds = perf_counter() - start
        try:
            done.append({"s": seconds, "sampled": op.sampled, "out": op.observe(out)})
        except Exception as exc:  # malformed output is a failed op
            done.append({"s": seconds, "sampled": op.sampled, "error": f"output could not be read: {exc!r}"})
    return done


@dataclass
class PassResult:
    wall: float = 0.0  # seconds spent inside ops, checks excluded
    latencies: list = field(default_factory=list)  # seconds of each sampled op
    attempted: int = 0
    failures: list = field(default_factory=list)
    rss_kb: int = 0  # largest peak RSS of the pass's processes
    layers: dict = None  # per-layer numbers, traced passes only
    absent: list = field(default_factory=list)

    def record(self, op_sampled, seconds, problem):
        self.wall += seconds
        if op_sampled:
            self.latencies.append(seconds)
        self.attempted += 1
        if problem is not None:
            self.failures.append(problem)

    def add_layers(self, layers):
        """Fold one segment's per-layer numbers into the pass: maxima by max, the rest by sum."""
        if self.layers is None:
            self.layers = dict(layers)
            return
        for name, value in layers.items():
            merge = max if name.endswith("_max") else (lambda a, b: a + b)
            self.layers[name] = merge(self.layers.get(name, 0), value)


def judged(check, observed):
    try:
        return check(observed)
    except Exception as exc:  # malformed observation is a failed op
        return f"output check raised {exc!r}"


class Workload:
    name = ""
    entry_module = "crsplucker"
    segments = ("pass",)  # each segment of a pass runs in its own child interpreter

    def __init__(self, seed, tmp):
        self.seed = seed
        self.tmp = Path(tmp)

    # Child side: the program's objects exist only here.

    def ops(self, pkg, segment):
        raise NotImplementedError

    def observe_class(self, pkg, lam, cls):
        return digest(pkg.crs.class_to_json(cls, lam))

    # Parent side: checks against the reference, one per op of the segment.

    def checks(self, ref, segment):
        raise NotImplementedError

    def before(self, segment):
        """Prepare the checkout for a segment (parent side, untimed)."""

    def check_class(self, ref, parts, observed):
        if observed != digest(ref.lines[key(parts)]):
            return f"class of {parts} differs from the reference"
        return None

    def child(self, segment, mode, spans_path=None):
        """Run pass_child.py for one segment; its JSON document, or None and why it failed."""
        cmd = [
            sys.executable, str(CHILD), "--workload", self.name, "--seed", str(self.seed),
            "--tmp", str(self.tmp), "--segment", segment, "--mode", mode,
        ]
        if spans_path is not None:
            cmd += ["--spans", str(spans_path)]
        done = subprocess.run(cmd, capture_output=True, text=True, env=program.child_env(), cwd=program.ROOT)
        if done.returncode != 0 or not done.stdout.strip():
            return None, f"pass child exited {done.returncode}: {done.stderr.strip()[-300:]}"
        return json.loads(done.stdout.splitlines()[-1]), None

    def probe_setup(self):
        """Seconds a fresh interpreter takes to import the program and build the inputs."""
        doc, problem = self.child(self.segments[0], "setup")
        if doc is None:
            raise RuntimeError(problem)
        return doc["setup_s"]

    def child_pass(self, ref, traced, spans_dir=None):
        """One pass, each segment in a fresh child interpreter, traced or not."""
        result = PassResult()
        for segment in self.segments:
            self.before(segment)
            spans = spans_dir / f"{self.name}-seed{self.seed}-{segment}.spans.json" if traced else None
            doc, problem = self.child(segment, "trace" if traced else "run", spans)
            checks = self.checks(ref, segment)
            if doc is None or len(doc["ops"]) != len(checks):
                problem = problem or f"pass child ran {len(doc['ops'])} ops, expected {len(checks)}"
                for _ in checks:
                    result.record(True, 0.0, problem)
                continue
            for op, check in zip(doc["ops"], checks):
                result.record(op["sampled"], op["s"], op.get("error") or judged(check, op["out"]))
            result.rss_kb = max(result.rss_kb, doc["rss_kb"])
            if traced:
                result.add_layers(doc["layers"])
                result.absent = doc["absent"]
        if traced and result.layers is None:
            result.layers = dict.fromkeys(tracer.metric_names(), 0)
        return result

    def measured_pass(self, ref):
        return self.child_pass(ref, False)


class ColdClasses(Workload):
    name = "cold-classes"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.order = list(COLD_PARTITIONS)
        random.Random(seed).shuffle(self.order)

    def ops(self, pkg, segment):
        def compute(lam):
            return pkg.crs_class(lam, cache=pkg.ClassCache())

        lams = [pkg.InputPartition(parts) for parts in self.order]
        return [Op(partial(compute, lam), partial(self.observe_class, pkg, lam)) for lam in lams]

    def checks(self, ref, segment):
        return [partial(self.check_class, ref, parts) for parts in self.order]


class SweepW18(Workload):
    name = "sweep-w18"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.shapes = partitions_no_ones(SWEEP_WEIGHT)
        self.path = self.tmp / "sweep-cache.json"

    def ops(self, pkg, segment):
        cache = pkg.ClassCache()
        lams = [pkg.InputPartition(parts) for parts in self.shapes]
        to_strings = pkg.exactalg.dpoly_to_coeff_strings

        def step(lam):
            return pkg.crs_class(lam, cache=cache), pkg.plucker_formulas(lam, cache=cache)

        def observe_step(lam, out):
            cls, table = out
            rows = [[digest(to_strings(row.formula.formula)), bool(row.match)] for row in table.rows]
            return {"class": self.observe_class(pkg, lam, cls), "rows": rows}

        def persist():
            cache.save(self.path)
            return pkg.ClassCache.load(self.path)

        def observe_loaded(loaded):
            found = [(lam, loaded.get(lam)) for lam in lams]
            return {
                "len": len(loaded),
                "classes": [None if cls is None else self.observe_class(pkg, lam, cls) for lam, cls in found],
            }

        ops = [Op(partial(step, lam), partial(observe_step, lam)) for lam in lams]
        ops.append(Op(persist, observe_loaded, sampled=False))
        return ops

    def _check_step(self, ref, parts, observed):
        problem = self.check_class(ref, parts, observed["class"])
        if problem:
            return problem
        c = codim(parts)
        rows = observed["rows"]
        if len(rows) != c // 2 + 1:
            return f"table of {parts} has {len(rows)} rows"
        for j, (formula, match) in enumerate(rows):
            if formula != digest(ref.coeff(key(parts), (c - j, j))):
                return f"formula {j} of {parts} differs from the reference"
            if match is not True:
                return f"formula {j} of {parts} misses its leading-term prediction"
        return None

    def _check_loaded(self, ref, observed):
        if observed["len"] != len(self.shapes):
            return f"loaded cache holds {observed['len']} classes, expected {len(self.shapes)}"
        for parts, cls in zip(self.shapes, observed["classes"], strict=True):
            if cls is None:
                return f"loaded cache lost {parts}"
            problem = self.check_class(ref, parts, cls)
            if problem:
                return "after save/load: " + problem
        return None

    def checks(self, ref, segment):
        checks = [partial(self._check_step, ref, parts) for parts in self.shapes]
        return checks + [partial(self._check_loaded, ref)]


class PluckerQueries(Workload):
    name = "plucker-queries"

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        rng = random.Random(seed)
        shapes = partitions_no_ones(QUERY_WEIGHT)
        drawn = []
        while len(drawn) < QUERY_COUNT:  # rounds of seeded permutations: uniform, balanced
            batch = list(shapes)
            rng.shuffle(batch)
            drawn.extend(batch)
        self.queries = []
        for parts in drawn[:QUERY_COUNT]:
            c = codim(parts)
            index = c - 2 * rng.randrange(c // 2 + 1)
            d0 = rng.randrange(sum(parts), sum(parts) + QUERY_D_SPAN)
            self.queries.append((parts, index, d0))

    def ops(self, pkg, segment):
        def observe(value):
            return value if type(value) is int else {"not an int": repr(value)}

        queries = [(pkg.InputPartition(parts), index, d0) for parts, index, d0 in self.queries]
        return [Op(partial(pkg.plucker_value, *q), observe) for q in queries]

    def _check_value(self, ref, parts, index, d0, value):
        c = codim(parts)
        j = (c - index) // 2
        want = evaluate(ref.coeff(key(parts), (c - j, j)), d0)
        if type(value) is not int or want.denominator != 1 or value != want:
            return f"plucker_value{(parts, index, d0)} = {value!r}, reference {want}"
        return None

    def checks(self, ref, segment):
        return [partial(self._check_value, ref, *q) for q in self.queries]


def verify_argv(cache_path):
    return [
        "--cache", str(cache_path), "verify",
        "--max-weight", str(VERIFY_WEIGHT), "--pivots", "all", "--format", "json",
    ]


def expected_verify_checks():
    """The check counts `verify --max-weight 12` must report, derived from the
    partitions alone: one pivot and one top-degree check per partition, one
    closed-form check per single part, one leading-term check per formula."""
    shapes = partitions_no_ones(VERIFY_WEIGHT)
    counts = {
        "pivot-independence": len(shapes),
        "closed-form-single-part": sum(1 for parts in shapes if len(parts) == 1),
        "top-degree": len(shapes),
        "leading-term": sum(codim(parts) // 2 + 1 for parts in shapes),
    }
    return [{"failed": 0, "name": name, "passed": n} for name, n in counts.items()]


class VerifyCli(Workload):
    """`crsplucker verify` twice: cold with no cache file, then warm on the
    file the cold run wrote.  Measured passes run the real command line as a
    subprocess; traced passes run `cli.main(argv)` in a pass child."""

    name = "verify-cli"
    entry_module = "crsplucker.cli"
    segments = ("cold", "warm")

    def __init__(self, seed, tmp):
        super().__init__(seed, tmp)
        self.cache_path = self.tmp / "verify-cache.json"
        self.stderr_path = self.tmp / "verify-stderr.txt"
        self.argv = verify_argv(self.cache_path)
        self.expected = expected_verify_checks()
        self.shapes = partitions_no_ones(VERIFY_WEIGHT)

    def before(self, segment):
        if segment == "cold":
            self.cache_path.unlink(missing_ok=True)

    def ops(self, pkg, segment):
        cli = importlib.import_module("crsplucker.cli")

        def main():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.argv)
            return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

        return [Op(main, dict)]

    def check_run(self, ref, run):
        if run["code"] != 0:
            return f"verify exited {run['code']}: {run['stderr'].strip()[-300:]}"
        doc = json.loads(run["stdout"])
        if doc.get("partitions") != len(self.shapes) or doc.get("max_weight") != VERIFY_WEIGHT:
            return f"verify swept {doc.get('partitions')} partitions up to {doc.get('max_weight')}"
        if doc.get("checks") != self.expected:
            return f"verify reported {doc.get('checks')}, expected {self.expected}"
        try:
            written = json.loads(self.cache_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            return "verify wrote no cache file"
        if sorted(written) != sorted(key(parts) for parts in self.shapes):
            return f"cache file holds {len(written)} entries, expected {len(self.shapes)}"
        for k, entry in written.items():
            if canonical(entry) != ref.lines[k]:
                return f"cache file entry {k} differs from the reference"
        return None

    def checks(self, ref, segment):
        return [partial(self.check_run, ref)]

    def measured_pass(self, ref):
        """Each run is `python3 -m crsplucker.cli ...`, timed from spawn to exit."""
        result = PassResult()
        for segment in self.segments:
            self.before(segment)
            with open(self.stderr_path, "w+", encoding="utf-8") as err:
                start = perf_counter()
                proc = subprocess.Popen(
                    [sys.executable, "-m", "crsplucker.cli", *self.argv],
                    stdout=subprocess.PIPE, stderr=err, env=program.child_env(), cwd=program.ROOT,
                )
                with proc.stdout:
                    out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                seconds = perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
                err.seek(0)
                run = {"code": proc.returncode, "stdout": out.decode(), "stderr": err.read()}
            result.rss_kb = max(result.rss_kb, usage.ru_maxrss)
            result.record(True, seconds, judged(partial(self.check_run, ref), run))
        return result


WORKLOADS = {w.name: w for w in (ColdClasses, SweepW18, PluckerQueries, VerifyCli)}
