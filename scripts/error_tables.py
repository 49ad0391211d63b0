#!/usr/bin/env python3
"""Print the per-term relative-error tables for the two bundled signals.

Both field engines run on the standard grid (radii 0, 0.1, ..., 0.8, one
angle per sample, N = 1024) with the mean atom pinned first, and the table
shows their error sequences side by side; the engines are expected to agree
to far more digits than printed. For the engines' wall times at this size
run `fastafd bench --sizes 1024 --output bench.csv`.
"""

import argparse

from fastafd import core, signals


def error_columns(g, grid, terms):
    columns = {}
    for engine in core.ENGINES:
        d = core.decompose(g, grid, max_terms=terms, engine=engine,
                           dc_first=True)
        columns[engine] = core.error_trace(d, g)
    return columns


def print_table(name, columns):
    print()
    print("%s: relative error ||G - S_n||^2 / ||G||^2" % name)
    print("%4s  %12s  %12s" % ("n", "fft", "direct"))
    for i, (a, b) in enumerate(zip(columns["fft"], columns["direct"]), start=1):
        print("%4d  %12.6f  %12.6f" % (i, a, b))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=1024)
    parser.add_argument("--terms", type=int, default=10)
    args = parser.parse_args()

    grid = core.ParameterGrid.experiment_default(args.samples)
    cases = [("rational signal f1", signals.synth_f1(args.samples)),
             ("square wave f2", signals.synth_f2(args.samples))]
    for name, g in cases:
        print_table(name, error_columns(g, grid, args.terms))


if __name__ == "__main__":
    main()
