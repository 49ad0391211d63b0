#!/usr/bin/env python3
"""Measure how the two field engines scale with the signal size.

Times full decompositions over a ladder of power-of-two sizes, prints the
median wall time per cell with per-size speedup ratios, and fits the
log-log slope per engine. Raw rows and the summary can be written next to
each other with --output.
"""

import argparse
from pathlib import Path

from fastafd import bench
from fastafd.cli import dumps_document


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", default="256,512,1024,2048,4096,8192",
                        help="comma list of powers of two")
    parser.add_argument("--terms", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--output", default=None,
                        help="write timing rows CSV (summary JSON alongside)")
    args = parser.parse_args()

    engines = ["fft", "direct"]
    sizes = [int(s) for s in args.sizes.split(",")]
    report = bench.run_benchmark(sizes, terms=args.terms, repeats=args.repeats,
                                 engines=engines)

    medians = {engine: report.medians(engine) for engine in engines}
    print("%8s" % "N" + "".join("%14s" % e for e in engines) + "%10s" % "ratio")
    for n in sizes:
        row = "%8d" % n
        for engine in engines:
            row += "%14.6f" % medians[engine][n]
        row += "%9.1fx" % (medians["direct"][n] / medians["fft"][n])
        print(row)
    for engine in engines:
        print("%s log-log slope: %.3f" % (engine, bench.fit_scaling(report, engine)))

    if args.output:
        report.to_csv(args.output)
        summary_path = str(Path(args.output).with_suffix("")) + ".summary.json"
        with open(summary_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(dumps_document(report.summary()))
        print("wrote %s and %s" % (args.output, summary_path))


if __name__ == "__main__":
    main()
