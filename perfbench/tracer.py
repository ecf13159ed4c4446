"""Spans around the calls into each crsplucker layer, recorded from outside the program.

A wrapper replaces every binding of a layer function inside the crsplucker
modules (and the method itself for ClassCache), so the wrapper sits on the
name the caller actually looks up.  Each call records a span
[name, start, end, parent]; spans stay in memory until the pass ends.  Ops
are the root spans, so a layer's self time is its span minus its child spans,
and the ops' own self time is the part no layer covers ("unwrapped").

A layer that no longer exists in the program is listed as absent and reads
0; nothing fails because a refactor removed or moved it.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

PACKAGE = "crsplucker"
OP = "op"


def _class_product(rec, args, result):
    rec.counts["symfunc.class_product.term_pairs"] += len(args[0].items()) * len(args[1].items())


def _split_shift(rec, args, result):
    rec.counts["symfunc.split_shift.buckets"] += len(result)


def _cache_get(rec, args, result):
    rec.counts["crs.ClassCache.get.misses" if result is None else "crs.ClassCache.get.hits"] += 1


def _cache_save(rec, args, result):
    rec.counts["crs.ClassCache.save.bytes"] += os.path.getsize(args[1])


def _cache_load(rec, args, result):
    with open(args[1], encoding="utf-8") as fh:
        on_disk = len(json.load(fh))
    rec.counts["crs.ClassCache.load.entries_kept"] += len(result)
    rec.counts["crs.ClassCache.load.entries_dropped"] += on_disk - len(result)


def _recursion_step(rec, args, result):
    rec.results.append(result)


COUNTERS = (
    "symfunc.class_product.term_pairs",
    "symfunc.split_shift.buckets",
    "crs.ClassCache.get.hits",
    "crs.ClassCache.get.misses",
    "crs.ClassCache.save.bytes",
    "crs.ClassCache.load.entries_kept",
    "crs.ClassCache.load.entries_dropped",
)
TOTALS = ("exactalg.coeff_bits_max", "trace.wall_s", "trace.unwrapped_s", "trace.layers_self_s")

# Layer -> counter hook.  A hook runs after the layer's span has closed, so
# its cost lands in the caller's self time and in trace.overhead_pct.
LAYERS = {
    "crs.recursion_step": _recursion_step,
    "crs.ClassCache.get": _cache_get,
    "crs.ClassCache.put": None,
    "crs.ClassCache.save": _cache_save,
    "crs.ClassCache.load": _cache_load,
    "symfunc.split_shift": _split_shift,
    "symfunc.weighted_divdiff": None,
    "symfunc.class_product": _class_product,
    "exactalg.laurent_reduce": None,
    "exactalg.dpoly_shift": None,
    "plucker.plucker_value": None,
    "plucker.plucker_formulas": None,
    "combinat.kostka_two_row": None,
    "cli.run_verification": None,
}


def coeff_bits(schur_class, class_to_json):
    """Largest numerator or denominator bit length among a class's coefficients."""
    bits = 0
    for term in class_to_json(schur_class)["terms"]:
        for text in term["coeff"]:
            value = Fraction(text)
            bits = max(bits, abs(value.numerator).bit_length(), value.denominator.bit_length())
    return bits


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans = []
        self.counts = defaultdict(int)
        self.results = []
        self.absent = []
        self._stack = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span whose parent is the innermost open span."""
        stack = self._stack
        index = len(self.spans)
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        self.spans.append(span)
        stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()

    def _wrapper(self, name, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:  # outside any op, e.g. an output check
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _resolve(self, name):
        """(owner, attribute, raw value) of a layer, or None when it is absent."""
        module_name, *path = name.split(".")
        try:
            owner = importlib.import_module(f"{PACKAGE}.{module_name}")
        except ImportError:
            return None
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
        if owner is None or path[-1] not in vars(owner):
            return None
        return owner, path[-1], vars(owner)[path[-1]]

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block, then restore the program."""
        patches = []
        found = {name: self._resolve(name) for name in self.layers}
        self.absent = [name for name, hit in found.items() if hit is None]
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))
        ]
        try:
            for name, hook in self.layers.items():
                if found[name] is None:
                    continue
                owner, attr, raw = found[name]
                if isinstance(owner, type):
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrapper(name, raw.__func__, hook))
                    else:
                        wrapped = self._wrapper(name, raw, hook)
                    patches.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                wrapped = self._wrapper(name, raw, hook)
                for module in modules:
                    for binding, value in list(vars(module).items()):
                        if value is raw:
                            patches.append((module, binding, raw))
                            setattr(module, binding, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(patches):
                setattr(owner, attr, raw)

    def summary(self, class_to_json):
        """Per-layer numbers of the pass: calls, self and inclusive seconds, counters."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out = dict.fromkeys(metric_names(self.layers), 0)
        wall = unwrapped = layers_self = 0.0
        for index, (name, start, end, parent) in enumerate(spans):
            seconds = end - start
            own = seconds - covered[index]
            if parent < 0:
                wall += seconds
                unwrapped += own
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own
            out[f"{name}.s"] += seconds
            layers_self += own
        out.update(self.counts)
        unique = {id(c): c for c in self.results}.values()
        out["exactalg.coeff_bits_max"] = max((coeff_bits(c, class_to_json) for c in unique), default=0)
        out["trace.wall_s"] = wall
        out["trace.unwrapped_s"] = unwrapped
        out["trace.layers_self_s"] = layers_self
        return out


def metric_names(layers=LAYERS):
    """Every name a pass summary holds; an absent or idle layer reads 0."""
    per_layer = [f"{layer}.{q}" for layer in layers for q in ("calls", "self_s", "s")]
    return [*per_layer, *COUNTERS, *TOTALS]


def self_time_gap(summary):
    """|sum of layer self times + unwrapped remainder - traced wall time| in seconds."""
    return abs(summary["trace.layers_self_s"] + summary["trace.unwrapped_s"] - summary["trace.wall_s"])


def write_spans(path, spans):
    """Write spans as [name, start_s, end_s, parent] with times relative to the first span."""
    origin = spans[0][1] if spans else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[n, round(s - origin, 9), round(e - origin, 9), p] for n, s, e, p in spans], fh)
