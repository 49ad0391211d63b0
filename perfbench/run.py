"""fastafd benchmark: one workload per invocation, closed loop, one item in flight.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each invocation starts separate
Python processes in turn, never two at once:

1. prepare: generates the workload's inputs and reference outputs from the
   seed (the same seed gives the same files, bit for bit);
2. probes: fresh processes that each time `import fastafd` plus one warm-up
   item, the set-up cost a user pays per process; half of them run before
   the measure step and half after it, so that set-up is sampled across the
   run;
3. measure: a fresh process that is itself one more set-up sample, then runs
   items back to back until S seconds of item time have passed, checking
   every output outside the timed interval.

With --trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 the measure process alternates untraced and traced
items (public package functions wrapped at run time, see spans.py) and the
JSON carries the per-layer metrics plus the tracing overhead. Lines before
it give every metric by name and unit, the environment, and the tie-break
mismatch count of the direct engine.

Artefacts (result record, spans) go to perfbench/.work/<workload>/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys

from spans import LAYER_UNITS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Sizes per workload. `pool` is the number of seeded random inputs cycled
# through; `setups` the number of fresh processes whose set-up time is timed,
# fewer on the large workloads because each costs a full item. `tail` is the
# percentile reported as latency_tail_ms, fixed per workload so that two
# commits compare the same percentile: p90, or p60 where a 25-second run has
# only about 25 items. Items of one workload do identical work, so their
# spread is mostly the host's; on a shared 2-core host p95 and p99 moved
# between runs by up to the bound. A run that leaves fewer than TAIL_BEYOND
# items beyond its tail percentile is flagged `tail_undersampled`.
WORKLOADS = {
    "pipeline_large": {"n": 65536, "pool": 2, "terms": 10, "setups": 5, "tail": 60},
    "batch_small": {"n": 1024, "pool": 30, "terms": 10, "setups": 15, "tail": 90},
    "reconstruct_roundtrip": {"n": 65536, "pool": 2, "terms": 10, "setups": 7,
                              "tail": 90},
    "direct_small": {"n": 1024, "pool": 16, "terms": 10, "setups": 15, "tail": 90},
}
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def core_count():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def child_env(cores):
    """Environment for the worker processes: package source on the path,
    BLAS and OpenMP pools capped at the core count."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        try:
            value = int(env.get(var, ""))
        except ValueError:
            value = 0
        if not 1 <= value <= cores:
            env[var] = str(cores)
    return env


def run_worker(mode, workdir, env, timeout):
    """Run one worker process to completion and return its JSON result."""
    result_path = os.path.join(workdir, mode + ".json")
    if os.path.exists(result_path):
        os.remove(result_path)
    proc = subprocess.run([sys.executable, WORKER, mode, workdir], env=env,
                          cwd=ROOT, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError("%s worker exited with code %d" % (mode, proc.returncode))
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def percentile(samples, pct):
    """Nearest-rank percentile and the number of samples above it."""
    ordered = sorted(samples)
    index = max(math.ceil(pct / 100 * len(ordered)) - 1, 0)
    return ordered[index], len(ordered) - index - 1


def run_workload(name, seed, seconds, trace):
    """Prepare, probe and measure one workload; return the result record."""
    params = dict(WORKLOADS[name])
    cores = core_count()
    env = child_env(cores)
    workdir = os.path.join(HERE, ".work", name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spec = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "params": params, "src": os.path.join(ROOT, "src")}
    with open(os.path.join(workdir, "spec.json"), "w", encoding="utf-8") as fh:
        json.dump(spec, fh)

    run_worker("prepare", workdir, env, timeout=150)
    probes = params["setups"] - 1
    setups = [run_worker("probe", workdir, env, timeout=60) for _ in range(probes // 2)]
    measured = run_worker("measure", workdir, env, timeout=3 * seconds + 120)
    setups += [run_worker("probe", workdir, env, timeout=60)
               for _ in range(probes - probes // 2)]
    setups.append(measured)
    shutil.rmtree(os.path.join(workdir, "inputs"), ignore_errors=True)
    shutil.rmtree(os.path.join(workdir, "outputs"), ignore_errors=True)

    latencies = measured["latency_ms"]
    tail, beyond = percentile(latencies, params["tail"])
    attempted, failed = measured["attempted"], measured["failed"]
    e2e = {
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "items_per_s": len(latencies) / measured["busy_s"],
        "peak_rss_mib": measured["peak_rss_mib"],
    }
    # failed_ratio is a per-layer metric (it reads 0 when every check passes,
    # and an end-to-end metric must never read 0) but is reported by every run.
    layers = {"failed_ratio": failed / attempted}
    layers.update(measured["layers"])
    if trace:
        layers["core.maximal_selection.engine_mismatch_ratio"] = (
            measured["mismatches"] / attempted)
        layers["setup.import_ms"] = statistics.median(p["import_ms"] for p in setups)
        layers["trace.overhead_ms"] = (statistics.median(measured["traced_latency_ms"])
                                       - e2e["latency_p50_ms"])
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "shape": "closed loop, 1 item in flight, 1 process",
        "params": params,
        "environment": {
            "cores": cores,
            "cpu_model": cpu_model(),
            "python": platform.python_version(),
            "numpy": measured["numpy"],
            "threads": {var: env[var] for var in THREAD_VARS},
        },
        "attempted": attempted,
        "failed": failed,
        "engine_mismatches": measured["mismatches"],
        "tail_beyond": beyond,
        "tail_undersampled": beyond < TAIL_BEYOND,
        "samples": len(latencies),
        "setup_samples": len(setups),
        "traced_items": len(measured["traced_latency_ms"]),
        "end_to_end": e2e,
        "per_layer": layers,
    }


def report_lines(record):
    """Human-readable summary; every metric with its unit."""
    env = record["environment"]
    lines = [
        "workload %s, seed %d, %s, %d items (%d traced)"
        % (record["workload"], record["seed"], record["shape"],
           record["attempted"], record["traced_items"]),
        "environment: cores=%d cpu=%r python=%s numpy=%s %s"
        % (env["cores"], env["cpu_model"], env["python"], env["numpy"],
           " ".join("%s=%s" % kv for kv in env["threads"].items())),
    ]
    for key, value in record["end_to_end"].items():
        note = ""
        if key == "latency_tail_ms":
            note = "  (p%d, %d of %d samples beyond%s)" % (
                record["params"]["tail"], record["tail_beyond"], record["samples"],
                "; tail_undersampled: fewer than %d beyond" % TAIL_BEYOND
                if record["tail_undersampled"] else "")
        elif key == "setup_s":
            note = "  (median of %d fresh processes, before and after measuring)" \
                % record["setup_samples"]
        lines.append("%-16s %14.6g %s%s" % (key, value, E2E_UNITS[key], note))
    lines.append("checks: %d of %d items failed" % (record["failed"], record["attempted"]))
    if record["workload"] == "direct_small":
        lines.append("engine mismatch: %d of %d items picked a different pole "
                     "sequence from the fft engine on a tied field maximum"
                     % (record["engine_mismatches"], record["attempted"]))
    for key, value in record["per_layer"].items():
        lines.append("%-52s %14.6g %s" % (key, value, LAYER_UNITS[key]))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "fastafd", "__init__.py")):
        print("error: package source src/fastafd not found under %s" % ROOT,
              file=sys.stderr)
        return 2
    try:
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    with open(os.path.join(HERE, ".work", args.workload, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for line in report_lines(record):
        print(line)
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    units = LAYER_UNITS if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
