"""One benchmark process: `python3 worker.py MODE WORKDIR`.

MODE is `prepare` (write inputs and references), `probe` (time set-up only)
or `measure` (time set-up, then the closed loop). WORKDIR holds spec.json
written by run.py; the result goes to WORKDIR/MODE.json. The package
is imported inside `main`, after the set-up clock starts.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback

MAX_REPORTED_ERRORS = 5


def timed_loop(workload, seconds, tracer=None):
    """Run items back to back until `seconds` of item time pass.

    One item is in flight at a time. With a tracer, odd items run traced and
    even items untraced, each input in turn getting one of each. Every output
    is checked outside the timed interval; an item that raises or fails its
    check counts as failed and the loop goes on.
    """
    latencies, traced_latencies = [], []
    spent = busy = 0.0
    attempted = failed = 0
    minimum = 1 if tracer is None else 2  # a traced run needs one item of each kind
    with open(os.devnull, "w", encoding="utf-8") as sink:
        while spent < seconds or attempted < minimum:
            traced = tracer is not None and attempted % 2 == 1
            k = (attempted // 2 if tracer is not None else attempted) % workload.size
            if traced:
                tracer.install(attempted)
            output = error = None
            with contextlib.redirect_stdout(sink):
                start = time.perf_counter()
                try:
                    output = workload.item(k)
                except Exception as exc:  # counted as a failed item
                    error = exc
                elapsed = time.perf_counter() - start
            spent += elapsed
            if traced:
                tracer.uninstall()
                traced_latencies.append(elapsed * 1e3)
            else:
                latencies.append(elapsed * 1e3)
                busy += elapsed
            attempted += 1
            if error is None:
                try:
                    ok = bool(workload.check(k, output))
                except Exception as exc:  # a malformed output fails its check
                    ok, error = False, exc
            else:
                ok = False
            if not ok:
                failed += 1
                if failed <= MAX_REPORTED_ERRORS:
                    detail = "".join(traceback.format_exception_only(error)).strip() \
                        if error is not None else "output check failed"
                    print("item %d (input %d): %s" % (attempted - 1, k, detail),
                          file=sys.stderr)
    return {
        "latency_ms": latencies,
        "traced_latency_ms": traced_latencies,
        "busy_s": busy,
        "attempted": attempted,
        "failed": failed,
        "mismatches": workload.mismatches,
    }


def main(argv):
    mode, workdir = argv
    with open(os.path.join(workdir, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "prepare":
        import workloads
        workload = workloads.make(spec, workdir)
        os.makedirs(workload.inputs)
        workload.prepare()
        result = {}
    else:
        start = time.perf_counter()
        import fastafd
        from fastafd import cli, core, oracle, signals, transform
        imported = time.perf_counter()
        import workloads
        workload = workloads.make(spec, workdir)
        workload.load_inputs()
        with open(os.devnull, "w", encoding="utf-8") as sink, \
                contextlib.redirect_stdout(sink):
            workload.item(0)
        result = {"setup_s": time.perf_counter() - start,
                  "import_ms": (imported - start) * 1e3}
        src = os.path.realpath(spec["src"])
        if not os.path.realpath(fastafd.__file__).startswith(src + os.sep):
            raise RuntimeError("imported fastafd from %s, not from %s"
                               % (fastafd.__file__, src))
        if mode == "measure":
            import numpy
            from spans import Tracer
            workload.load_references()
            tracer = None
            if spec["trace"]:
                tracer = Tracer({"cli": cli, "core": core, "oracle": oracle,
                                 "signals": signals, "transform": transform})
            gc.collect()
            result.update(timed_loop(workload, spec["seconds"], tracer))
            result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["numpy"] = numpy.__version__
            result["layers"] = {}
            if tracer is not None:
                result["layers"] = tracer.metrics(len(result["traced_latency_ms"]))
                tracer.write(os.path.join(workdir, "spans.csv"))
    with open(os.path.join(workdir, mode + ".json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
