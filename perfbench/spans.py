"""Per-layer spans recorded from outside the package.

`Tracer` replaces public functions of the fastafd modules with timing
wrappers while a traced item runs and puts the originals back afterwards, so
untraced items call the unwrapped functions. Every call records one span:
function name, start and end (perf_counter_ns), parent span and item id. The
spans stay in memory until the run ends. A span's self time is its duration
minus the time its child spans cover; calls run on one thread and nest, so
that coverage is the sum of the children's durations.

This module uses only the standard library: run.py imports it for the
metric names before any package code is loaded.
"""

from __future__ import annotations

import functools
import os
import time

# Module, function, extra statistics beyond self time. These are the public
# functions each layer's cost is attributed to.
TRACED = (
    ("transform", "weighted_inverse_grid", ("calls", "cells_per_s")),
    ("transform", "dft_forward", ("calls",)),
    ("core", "decompose", ()),
    ("core", "inner_product_field", ()),
    ("core", "maximal_selection", ("calls",)),
    ("core", "remainder_update", ("calls",)),
    ("core", "discrete_energy", ("calls",)),
    ("core", "error_trace", ()),
    ("core", "reconstruct", ()),
    ("oracle", "field_direct", ("calls",)),
    ("signals", "load_signal_csv", ("mib_per_s",)),
    ("signals", "save_signal_csv", ("mib_per_s",)),
    ("cli", "run_command", ()),
    ("cli", "dumps_document", ()),
    ("cli", "decomposition_from_document", ()),
)

# Work done by one call, from its positional arguments (the package passes
# these positionally). Throughputs divide it by self time.
WORK = {
    "transform.weighted_inverse_grid": lambda args: len(args[0]) * len(args[1]),
    "signals.load_signal_csv": lambda args: os.path.getsize(args[0]),
    "signals.save_signal_csv": lambda args: os.path.getsize(args[0]),
}

STAT_UNITS = {"self_ms": "ms", "calls": "count", "cells_per_s": "1/s",
              "mib_per_s": "MiB/s"}

LAYER_UNITS = {}
for _module, _function, _stats in TRACED:
    for _stat in ("self_ms",) + _stats:
        LAYER_UNITS["%s.%s.%s" % (_module, _function, _stat)] = STAT_UNITS[_stat]
LAYER_UNITS.update({
    "failed_ratio": "ratio",
    "core.maximal_selection.engine_mismatch_ratio": "ratio",
    "setup.import_ms": "ms",
    "trace.overhead_ms": "ms",
})


class Tracer:
    """Timing wrappers around the TRACED functions of the given modules."""

    def __init__(self, modules):
        self.names = []
        self.parents = []
        self.items = []
        self.starts = []
        self.ends = []
        self.work = []
        self._stack = []
        self._item = -1
        self._originals = []
        self._wrappers = []
        for module_name, function, _ in TRACED:
            module = modules[module_name]
            original = getattr(module, function)
            name = "%s.%s" % (module_name, function)
            self._originals.append((module, function, original))
            self._wrappers.append((module, function,
                                   self._wrap(name, original, WORK.get(name))))

    def _wrap(self, name, fn, work):
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.names)
            self.names.append(name)
            self.parents.append(stack[-1] if stack else -1)
            self.items.append(self._item)
            self.starts.append(0)
            self.ends.append(0)
            self.work.append(0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.starts[index] = start
                self.ends[index] = end
                if work is not None:
                    self.work[index] = work(args)

        return wrapper

    def install(self, item):
        self._item = item
        for module, function, wrapper in self._wrappers:
            setattr(module, function, wrapper)

    def uninstall(self):
        for module, function, original in self._originals:
            setattr(module, function, original)
        self._item = -1

    def self_times(self):
        """Self time of every span, in nanoseconds."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def metrics(self, traced_items):
        """Per-item layer metrics over `traced_items` traced items."""
        totals = {}
        for name, own, work in zip(self.names, self.self_times(), self.work):
            entry = totals.setdefault(name, [0, 0, 0])
            entry[0] += own
            entry[1] += 1
            entry[2] += work
        out = {}
        for module_name, function, stats in TRACED:
            name = "%s.%s" % (module_name, function)
            own_ns, calls, work = totals.get(name, (0, 0, 0))
            seconds = own_ns / 1e9
            values = {
                "self_ms": own_ns / 1e6 / traced_items,
                "calls": calls / traced_items,
                "cells_per_s": work / seconds if seconds else 0.0,
                "mib_per_s": work / 2 ** 20 / seconds if seconds else 0.0,
            }
            for stat in ("self_ms",) + stats:
                out["%s.%s" % (name, stat)] = values[stat]
        return out

    def write(self, path):
        """Write every span as CSV: item, name, parent, start, end, self time."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("span,item,name,parent,start_ns,end_ns,self_ns\n")
            for index, own in enumerate(self.self_times()):
                fh.write("%d,%d,%s,%d,%d,%d,%d\n" % (
                    index, self.items[index], self.names[index], self.parents[index],
                    self.starts[index], self.ends[index], own))
