"""Wall-clock comparison of the two field engines across signal sizes.

Times full decompositions of the bundled rational test signal on the
standard radius grid, one warm-up per cell discarded, median over repeats
as the reported statistic. Absolute seconds are machine-specific and never
asserted anywhere; what the harness is for are the fitted log-log slopes
(quadratic growth of the direct engine against the near-linear transform
engine) and per-size ratios.
"""

from __future__ import annotations

import os
import platform
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from . import core, signals

__all__ = ["BenchRow", "BenchReport", "run_benchmark", "fit_scaling"]

CSV_HEADER = "engine,N,M,terms,repeat,seconds"


@dataclass(frozen=True)
class BenchRow:
    engine: str
    n_samples: int
    radius_count: int
    terms: int
    repeat_index: int
    wall_seconds: float


@dataclass
class BenchReport:
    rows: list
    environment: dict = field(default_factory=dict)

    def engines(self):
        seen = []
        for row in self.rows:
            if row.engine not in seen:
                seen.append(row.engine)
        return seen

    def medians(self, engine):
        """Median wall seconds per size for one engine, as {N: seconds}."""
        per_size = {}
        for row in self.rows:
            if row.engine == engine:
                per_size.setdefault(row.n_samples, []).append(row.wall_seconds)
        return {n: float(np.median(ts)) for n, ts in sorted(per_size.items())}

    def summary(self):
        """Medians and fitted slopes per engine, JSON-ready."""
        engines = {}
        for engine in self.engines():
            medians = self.medians(engine)
            try:
                slope = fit_scaling(self, engine)
            except ValueError:
                slope = None
            engines[engine] = {
                "median_seconds": {str(n): t for n, t in medians.items()},
                "slope": slope,
            }
        return {"environment": dict(self.environment), "engines": engines}

    def to_csv(self, path):
        lines = [CSV_HEADER]
        for row in self.rows:
            lines.append("%s,%d,%d,%d,%d,%.17g" % (
                row.engine, row.n_samples, row.radius_count, row.terms,
                row.repeat_index, row.wall_seconds))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def _environment():
    return {
        "cpu": _cpu_model(),
        "cores": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_benchmark(sizes, terms=10, repeats=6, engines=core.ENGINES):
    """Time decompose() for every (size, engine) cell on the standard grid.

    Parameters
    ----------
    sizes : iterable of int
        Signal lengths, powers of two >= 8.
    terms : int
        Decomposition steps per timed run.
    repeats : int
        Timed repetitions per cell (after one discarded warm-up).
    engines : iterable of str
        Any of core.ENGINES.

    Returns
    -------
    BenchReport
    """
    sizes = [core._signal_length(int(n)) for n in sizes]
    if not sizes:
        raise ValueError("need at least one size")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    engines = list(engines)
    if not engines:
        raise ValueError("need at least one engine")
    for engine in engines:
        if engine not in core.ENGINES:
            raise ValueError("unknown engine label %r" % (engine,))

    rows = []
    for n in sizes:
        g = signals.synth_f1(n)
        grid = core.ParameterGrid.experiment_default(n)
        for engine in engines:
            core.decompose(g, grid, max_terms=terms, dc_first=True, engine=engine)
            for repeat in range(repeats):
                start = time.perf_counter()
                core.decompose(g, grid, max_terms=terms, dc_first=True, engine=engine)
                elapsed = time.perf_counter() - start
                rows.append(BenchRow(engine, n, len(grid.radii), terms, repeat,
                                     elapsed))
    return BenchReport(rows, _environment())


def fit_scaling(report, engine):
    """Least-squares slope of log(median seconds) against log(N).

    Needs at least three distinct sizes for the engine; the direct engine
    trends toward 2, the transform engine stays near 1 plus log-factor
    drift.
    """
    medians = report.medians(engine)
    if len(medians) < 3:
        raise ValueError("need >= 3 distinct sizes to fit a slope, have %d"
                         % len(medians))
    ns = np.array(sorted(medians))
    ts = np.array([medians[n] for n in ns])
    slope, _ = np.polyfit(np.log(ns), np.log(ts), 1)
    return float(slope)
