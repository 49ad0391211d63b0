"""Command line front end: CSV signals in, JSON decompositions out.

Four subcommands. `synth` writes one of the bundled generators to a signal
CSV, `decompose` runs the greedy decomposition and persists the step list
plus the per-term relative-error trace as JSON, `reconstruct` rebuilds a
partial sum from such a document, and `bench` times the engines. `decompose`
checks its document as `reconstruct` loads it and writes none that fails.

JSON output is the standard `json` encoder's, so it is byte-deterministic
for identical inputs: keys are written in a fixed order, one list entry per
line, and every float in Python's shortest form that round-trips double
precision exactly. A non-finite float is an error, never a bare `inf` or
`nan` token.

The decompose default pins the first atom at a = 0 (the mean term), so the
error trace starts at 1.0 for zero-mean inputs and adaptive selection begins
at step 2; pass --no-dc-first for a fully greedy first step. The trace is
the residual-energy column over the initial energy: on the sample lattice
G - S_n = B_n G_{n+1} with |B_n| = 1, so that ratio is the relative error of
each partial sum.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bench, core, signals

__all__ = ["run_command", "main"]

SCHEMA_VERSION = 1

# Largest allowed |relative_errors[k] - residual_energy_k / E_0| in a document,
# times the square of the condition number of E_0 (see _initial_energy).
ERRORS_TOL = 1e-10

# Bytes per sample that `reconstruct` holds at its peak, the CSV text
# included: 181 measured with tracemalloc at N = 65536.
RECONSTRUCT_BYTES = 256


def _physical_memory():
    """Bytes of physical memory, from os.sysconf."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


# ---------------------------------------------------------------------------
# deterministic JSON


def dumps_document(doc):
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# decomposition documents


def document_from_decomposition(d, errors, dc_first):
    steps = []
    for k, step in enumerate(d.steps, start=1):
        steps.append({
            "k": k,
            "a_radius": float(step.point.radius),
            "a_angle_index": int(step.point.angle_index),
            "a_re": float(step.point.value.real),
            "a_im": float(step.point.value.imag),
            "coeff_re": float(step.coefficient.real),
            "coeff_im": float(step.coefficient.imag),
            "residual_energy": float(step.residual_energy),
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "n_samples": int(d.n_samples),
        "engine": d.engine,
        "dc_first": bool(dc_first),
        "grid": {
            "radii": [float(r) for r in d.grid.radii],
            "angular_count": int(d.grid.angular_count),
        },
        "steps": steps,
        "relative_errors": [float(e) for e in errors],
    }


def _as_float(value, key):
    """A JSON number (int or float, not bool) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError("document field %r has the wrong type" % key)
    try:
        return float(value)
    except OverflowError:
        raise ValueError("document field %r is out of range" % key) from None


def _require(doc, key, kind):
    if key not in doc:
        raise ValueError("document is missing %r" % key)
    value = doc[key]
    if kind is float:
        return _as_float(value, key)
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError("document field %r has the wrong type" % key)
    return value


def _require_numbers(doc, key):
    """The list doc[key] as floats; every entry a finite, non-negative number."""
    values = [_as_float(v, key) for v in _require(doc, key, list)]
    if not all(0.0 <= v < np.inf for v in values):
        raise ValueError("document field %r has non-finite or negative entries" % key)
    return values


def decomposition_from_document(doc):
    """Validate a parsed document and rebuild the Decomposition.

    Checks the invariants the file format promises: schema version, an
    engine from core.ENGINES, shape consistency, JSON numbers where numbers
    are due (finite, and non-negative in the lists), poles inside the disc,
    angle indices on the sample lattice, stored pole values equal to
    a_radius e^{2 pi i j / N} (to 1e-12), radii on the grid (or the dc-first
    pin a = 0 at step 1), a non-increasing residual-energy column, and
    relative errors equal to residual_energy / E_0 (to ERRORS_TOL), E_0 the
    initial energy that step 1 pins (:func:`_initial_energy`).
    """
    if not isinstance(doc, dict):
        raise ValueError("document is not a JSON object")
    if _require(doc, "schema_version", int) != SCHEMA_VERSION:
        raise ValueError("unsupported schema_version %r" % doc["schema_version"])
    n = _require(doc, "n_samples", int)
    engine = _require(doc, "engine", str)
    if engine not in core.ENGINES:
        raise ValueError("document engine %r is not one of %s" % (engine, core.ENGINES))
    dc_first = _require(doc, "dc_first", bool)
    grid_doc = _require(doc, "grid", dict)
    grid = core.ParameterGrid(tuple(_require_numbers(grid_doc, "radii")),
                              _require(grid_doc, "angular_count", int))
    if grid.angular_count != n:
        raise ValueError("grid angular_count %d does not match n_samples %d"
                         % (grid.angular_count, n))
    raw_steps = _require(doc, "steps", list)
    errors = _require_numbers(doc, "relative_errors")
    if len(errors) != len(raw_steps):
        raise ValueError("relative_errors length %d does not match %d steps"
                         % (len(errors), len(raw_steps)))
    steps = []
    previous = None
    for i, raw in enumerate(raw_steps):
        if not isinstance(raw, dict):
            raise ValueError("step %d is not an object" % (i + 1,))
        if _require(raw, "k", int) != i + 1:
            raise ValueError("step %d has k=%r" % (i + 1, raw["k"]))
        numbers = [_require(raw, key, float) for key in
                   ("a_radius", "a_re", "a_im", "coeff_re", "coeff_im",
                    "residual_energy")]
        if not np.isfinite(numbers).all() or numbers[-1] < 0:
            raise ValueError("step %d has non-finite or negative entries" % (i + 1,))
        j = _require(raw, "a_angle_index", int)
        if not 0 <= j < n:
            raise ValueError("step %d has a_angle_index %d outside 0..%d"
                             % (i + 1, j, n - 1))
        point = core.ParameterPoint(numbers[0], j, complex(numbers[1], numbers[2]))
        # Same expression as ParameterGrid.point, so written documents match exactly.
        if abs(point.value - numbers[0] * np.exp(2j * np.pi * j / n)) > 1e-12:
            raise ValueError("step %d pole (a_re, a_im) is not a_radius e^{2 pi i j/N}"
                             % (i + 1,))
        pinned = i == 0 and dc_first and point == core.ParameterPoint(0.0, 0, 0j)
        if numbers[0] not in grid.radii and not pinned:
            raise ValueError("step %d has a_radius outside the grid" % (i + 1,))
        coeff = complex(numbers[3], numbers[4])
        residual = numbers[5]
        if previous is not None and residual > previous * (1 + 1e-9) + 1e-300:
            raise ValueError("residual_energy increases at step %d" % (i + 1,))
        previous = residual
        steps.append(core.DecompositionStep(point, coeff, residual))
    if not steps:
        return core.Decomposition((), grid, n, 0.0, engine), errors
    initial, condition = _initial_energy(steps[0], n)
    for i, (step, error) in enumerate(zip(steps, errors)):
        if not abs(error - step.residual_energy / initial) <= ERRORS_TOL * condition ** 2:
            raise ValueError("relative_errors entry %d is not residual_energy over "
                             "the initial energy" % (i + 1,))
    return core.Decomposition(tuple(steps), grid, n, initial, engine), errors


def _initial_energy(step, n):
    """E_0 as step 1 pins it, and the condition number of that recovery.

    The initial energy is not persisted. Step 1 takes c = <G, e_a> on the
    N-point lattice, where ||e_a||^2 = (1 + rho) / (1 - rho), rho = |a|^N,
    so E_1 = ||G - c e_a||^2 = E_0 - |c|^2 (1 - 3 rho) / (1 - rho). The
    condition number is 1 unless rho > 1/3, where the two terms cancel; the
    errors then carry a roundoff of up to its square, since they reach
    E_1 / E_0, which is that condition number at most.
    """
    rho = step.point.radius ** n
    gain = abs(step.coefficient) ** 2 * (1.0 - 3.0 * rho) / (1.0 - rho)
    initial = step.residual_energy + gain
    if not initial > 0.0:
        raise ValueError("step 1 leaves no initial energy")
    return initial, (step.residual_energy + abs(gain)) / initial


# ---------------------------------------------------------------------------
# argument parsing helpers


def _parse_radii(text):
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError("radius range must be START:STEP:END, got %r" % text)
        start, step, stop = (float(p) for p in parts)
        return core.radius_range(start, step, stop)
    return tuple(float(p) for p in text.split(","))


def _parse_int_list(text):
    return [int(p) for p in text.split(",")]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_synth(args):
    if args.kind == "f1":
        g = signals.synth_f1(args.samples)
    elif args.kind == "f2":
        g = signals.synth_f2(args.samples)
    else:
        g = signals.synth_random_hardy(args.samples, degree=args.degree,
                                       seed=args.seed)
    signals.save_signal_csv(args.output, g)
    extra = ""
    if args.kind == "random":
        extra = ", seed=%d, degree=%d" % (args.seed,
                                          args.degree if args.degree is not None
                                          else args.samples // 4)
    print("wrote %s: kind=%s, samples=%d%s" % (args.output, args.kind,
                                               args.samples, extra))
    return 0


def _cmd_decompose(args):
    g = signals.load_signal_csv(args.input)
    grid = core.ParameterGrid(_parse_radii(args.radii), g.shape[0])
    d = core.decompose(g, grid, max_terms=args.terms, threshold=args.threshold,
                       engine=args.engine, dc_first=args.dc_first)
    errors = [step.residual_energy / d.initial_energy for step in d.steps]
    doc = document_from_decomposition(d, errors, args.dc_first)
    decomposition_from_document(doc)  # write no document that reconstruct rejects
    text = dumps_document(doc)
    with open(args.output, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    if errors:
        print("wrote %s: %d terms, final relative error %.6g"
              % (args.output, len(d.steps), errors[-1]))
    else:
        print("wrote %s: empty decomposition (zero-energy input)" % args.output)
    return 0


def _cmd_reconstruct(args):
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise ValueError("%s: document nests too deeply" % args.input) from None
    d, errors = decomposition_from_document(doc)
    # A length that fits in virtual memory but not in RAM would allocate.
    if d.n_samples * RECONSTRUCT_BYTES > _physical_memory():
        raise ValueError("a signal of %d samples does not fit in physical memory"
                         % d.n_samples)
    try:
        s = core.reconstruct(d, args.terms)
    except MemoryError:
        raise ValueError("no memory for a signal of %d samples" % d.n_samples) from None
    signals.save_signal_csv(args.output, s)
    if args.emit_errors:
        lines = ["n,relative_error"]
        for i, e in enumerate(errors[:args.terms], start=1):
            lines.append("%d,%.17g" % (i, e))
        with open(args.emit_errors, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
    print("wrote %s: partial sum over %d of %d terms"
          % (args.output, args.terms, len(d.steps)))
    return 0


def _cmd_bench(args):
    engines = [e.strip() for e in args.engines.split(",") if e.strip()]
    report = bench.run_benchmark(_parse_int_list(args.sizes), terms=args.terms,
                                 repeats=args.repeats, engines=engines)
    report.to_csv(args.output)
    summary = report.summary()
    summary_path = str(Path(args.output).with_suffix("")) + ".summary.json"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps_document(summary))
    for engine, info in summary["engines"].items():
        slope = info["slope"]
        slope_text = "%.3f" % slope if slope is not None else "n/a"
        print("%s: slope=%s, medians=%s" % (
            engine, slope_text,
            " ".join("%s:%.4gs" % (n, t) for n, t in info["median_seconds"].items())))
    print("wrote %s and %s" % (args.output, summary_path))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fastafd",
        description="Greedy adaptive decomposition of sampled analytic signals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a test signal CSV")
    p.add_argument("kind", choices=("f1", "f2", "random"))
    p.add_argument("--samples", type=int, required=True,
                   help="sample count, power of two >= 8")
    p.add_argument("--seed", type=int, default=0,
                   help="random stream seed (random kind only)")
    p.add_argument("--degree", type=int, default=None,
                   help="polynomial degree for the random kind (default N/4)")
    p.add_argument("--output", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("decompose", help="run the greedy decomposition")
    p.add_argument("--input", required=True, help="signal CSV")
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--threshold", type=float, default=None,
                   help="stop once residual/initial energy falls this low")
    p.add_argument("--radii", default="0:0.1:0.8",
                   help="START:STEP:END range or comma list")
    p.add_argument("--engine", choices=core.ENGINES, default="fft")
    p.add_argument("--output", required=True, help="decomposition JSON")
    p.add_argument("--dc-first", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="pin the first atom at a=0 (the mean term)")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("reconstruct", help="rebuild a partial sum from JSON")
    p.add_argument("--input", required=True, help="decomposition JSON")
    p.add_argument("--terms", type=int, required=True)
    p.add_argument("--output", required=True, help="signal CSV for the partial sum")
    p.add_argument("--emit-errors", default=None,
                   help="also write the stored per-term relative errors as CSV")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("bench", help="time the engines across sizes")
    p.add_argument("--sizes", required=True, help="comma list of powers of two")
    p.add_argument("--terms", type=int, default=10)
    p.add_argument("--repeats", type=int, default=6)
    p.add_argument("--engines", default="fft,direct",
                   help="comma list from fft, direct")
    p.add_argument("--output", required=True, help="timing rows CSV")
    p.set_defaults(func=_cmd_bench)
    return parser


def run_command(argv):
    """Parse argv and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


def main(argv=None):
    return run_command(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
