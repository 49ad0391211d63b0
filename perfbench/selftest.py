"""Self-test of the benchmark: `python3 perfbench/selftest.py` from the repo root.

Runs every workload at a tiny size through run.py's main, counts
deliberately corrupted outputs as failed items, and checks that a seed
reproduces its inputs bit for bit. Takes about 15 seconds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from fastafd import cli, core, oracle, signals  # noqa: E402

TINY = {name: dict(params, n=256, pool=2, setups=2)
        for name, params in run.WORKLOADS.items()}
WORKDIR = os.path.join(HERE, ".work", "selftest")


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def prepared(name, seed, tag):
    """A tiny workload with its inputs written to a fresh directory."""
    workdir = os.path.join(WORKDIR, "%s-%s" % (name, tag))
    shutil.rmtree(workdir, ignore_errors=True)
    workload = workloads.make({"workload": name, "seed": seed, "params": TINY[name]},
                              workdir)
    os.makedirs(workload.inputs)
    workload.prepare()
    return workload


def files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


class SmokeRun(unittest.TestCase):
    """Each workload, traced and untraced, emits every named metric with its unit."""

    def test_every_metric_with_unit(self):
        spec = benchmark_spec()
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]), sorted(run.WORKLOADS))
        expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
        saved = dict(run.WORKLOADS)
        run.WORKLOADS.update(TINY)
        try:
            for name in TINY:
                for trace in (0, 1):
                    with self.subTest(workload=name, trace=trace):
                        out = io.StringIO()
                        with contextlib.redirect_stdout(out):
                            code = run.main(["--workload", name, "--seed", "3",
                                             "--seconds", "0.3", "--trace", str(trace)])
                        self.assertEqual(code, 0)
                        result = json.loads(out.getvalue().strip().splitlines()[-1])
                        self.assertEqual(sorted(result), ["attempted", "correct",
                                                          "failed", "metrics"])
                        self.assertTrue(result["correct"])
                        self.assertEqual(result["failed"], 0)
                        self.assertGreaterEqual(result["attempted"], 1)
                        units = {k: v["unit"] for k, v in result["metrics"].items()}
                        self.assertEqual(units, expected[trace])
                        for value in result["metrics"].values():
                            self.assertTrue(math.isfinite(value["value"]))
                        with open(os.path.join(HERE, ".work", name, "result.json"),
                                  encoding="utf-8") as fh:
                            record = json.load(fh)
                        self.assertEqual(record["tail_undersampled"],
                                         record["tail_beyond"] < run.TAIL_BEYOND)
        finally:
            run.WORKLOADS.update(saved)


class CorruptedOutputs(unittest.TestCase):
    """A wrong output is a failed item, and the loop goes on after it."""

    def assert_all_fail(self, name, module, attribute, corrupt):
        workload = prepared(name, 5, "corrupt")
        workload.load_inputs()
        workload.load_references()
        original = getattr(module, attribute)
        setattr(module, attribute, corrupt(original))
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                result = worker.timed_loop(workload, 0.05)
        finally:
            setattr(module, attribute, original)
        self.assertGreater(result["attempted"], 1)
        self.assertEqual(result["failed"], result["attempted"])

    def test_clean_outputs_pass(self):
        for name in TINY:
            with self.subTest(workload=name):
                workload = prepared(name, 5, "clean")
                workload.load_inputs()
                workload.load_references()
                result = worker.timed_loop(workload, 0.05)
                self.assertGreater(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)

    def test_perturbed_coefficient_in_written_document(self):
        def corrupt(dumps):
            def perturbed(doc):
                doc["steps"][1]["coeff_re"] += 1e-9
                return dumps(doc)
            return perturbed
        self.assert_all_fail("pipeline_large", cli, "dumps_document", corrupt)

    def test_perturbed_coefficient_in_loaded_document(self):
        def corrupt(load):
            def perturbed(doc):
                d, errors = load(doc)
                steps = list(d.steps)
                steps[1] = dataclasses.replace(steps[1],
                                               coefficient=steps[1].coefficient + 1e-9)
                return dataclasses.replace(d, steps=tuple(steps)), errors
            return perturbed
        self.assert_all_fail("reconstruct_roundtrip", cli, "decomposition_from_document",
                             corrupt)

    def test_altered_signal_csv(self):
        workload = prepared("reconstruct_roundtrip", 5, "csv")
        path = os.path.join(workload.inputs, "partial.csv")
        expected = workloads.random_signal(256, 5, 0)
        signals.save_signal_csv(path, expected)
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        self.assertTrue(workloads.signal_csv_matches(path, expected))
        rows = text.split("\n")
        value = rows[7].split(",")[1]
        altered = {
            "digit": text.replace(rows[7], rows[7].replace(
                value, repr(float(value) * (1 + 1e-15)), 1), 1),
            "row dropped": "\n".join(rows[:7] + rows[8:]),
            "CRLF": text.replace("\n", "\r\n"),
            "last newline": text[:-1],
        }
        for what, bad in altered.items():
            with self.subTest(alteration=what):
                self.assertNotEqual(bad, text)
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(bad)
                self.assertFalse(workloads.signal_csv_matches(path, expected))

    def test_perturbed_error_trace(self):
        def corrupt(trace):
            def perturbed(d, g):
                errors = trace(d, g)
                errors[-1] += 1e-6
                return errors
            return perturbed
        self.assert_all_fail("batch_small", core, "error_trace", corrupt)

    def test_perturbed_direct_field(self):
        def corrupt(field_direct):
            return lambda g, grid: field_direct(g, grid) * (1 + 1e-6)
        self.assert_all_fail("direct_small", oracle, "field_direct", corrupt)


class SeededInputs(unittest.TestCase):
    """The same seed writes the same input and reference files, bit for bit."""

    def test_same_seed_same_bytes(self):
        for name in TINY:
            with self.subTest(workload=name):
                first = files(prepared(name, 11, "a").inputs)
                second = files(prepared(name, 11, "b").inputs)
                other = files(prepared(name, 12, "c").inputs)
                self.assertTrue(first)
                self.assertEqual(first, second)
                self.assertNotEqual(first, other)


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
