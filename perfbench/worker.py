"""One workload process: set up, say ``ready``, run timed passes.

``run.py`` starts this file with the BLAS/OpenMP thread pools already pinned
in its environment, and times set-up from process start to the ``ready``
line.  Set-up imports conelab, numpy, scipy and jsonschema and writes the
seeded inputs.  The last line of output is one JSON object with the passes.

Without tracing, passes run for ``--seconds`` (at least two, so that every
report can be compared with the previous pass).  With tracing,
the first half of the time runs untraced passes and the second half traced
ones, so the tracing overhead is the difference of their median pass times.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_pass(tasks, previous, failures):
    """One pass over every task.  A task fails on an exception (a failed
    check, a nonzero CLI exit, a fault in conelab) or on a report that
    differs from its report in the previous pass."""
    failed = 0
    t0 = time.perf_counter()
    for task in tasks:
        try:
            report = task.fn()
        except Exception as exc:  # counted, and the pass goes on
            failed += 1
            failures.append(f"{task.name}: {type(exc).__name__}: {exc}")
            continue
        if task.name in previous and previous[task.name] != report:
            failed += 1
            failures.append(f"{task.name}: report differs from the "
                            f"previous pass")
        previous[task.name] = report
    return time.perf_counter() - t0, failed


def fits(start, last_wall, budget):
    """Whether one more pass, as long as the last, ends within the budget.
    Runs then last about ``--seconds`` whatever the pass length."""
    return time.perf_counter() - start + last_wall <= budget


def layer_metrics(traced):
    """Per-layer figures from the traced passes: counts from the first pass
    (``counts_repeat`` says whether every pass gave the same), times as
    medians over the passes."""
    from tracer import COUNTERS, KERNEL_SPANS, LAYER_SPANS

    names = list(dict.fromkeys(n for n, _, _ in LAYER_SPANS))
    first = traced[0]
    out = {}
    for name in KERNEL_SPANS:
        out[f"{name}.calls"] = first["spans"].get(name, {}).get("calls", 0)
        out[f"{name}.s"] = statistics.median(
            p["spans"].get(name, {}).get("s", 0.0) for p in traced)
    for name in names:
        out[f"{name}.calls"] = first["spans"].get(name, {}).get("calls", 0)
        out[f"{name}.self_s"] = statistics.median(
            p["spans"].get(name, {}).get("self_s", 0.0) for p in traced)
    for name in COUNTERS:
        out[name] = first["counts"].get(name, 0)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    root = os.path.dirname(HERE)
    sys.path.insert(0, os.path.join(root, "src"))
    import importlib.metadata

    import jsonschema  # noqa: F401  (part of the timed set-up)
    import numpy
    import scipy
    import conelab  # noqa: F401
    from tracer import Tracer, summarize, unspanned_share
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    os.makedirs(os.path.join(HERE, "tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-",
                           dir=os.path.join(HERE, "tmp"))
    try:
        inputs = workload.inputs(args.seed, tmp)
        accuracy = {}
        tasks = workload.tasks(inputs, accuracy)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        previous, failures = {}, []
        passes, failed = [], 0
        budget = args.seconds / 2 if args.trace else args.seconds
        start = time.perf_counter()
        while (len(passes) < (1 if args.trace else 2)
               or fits(start, passes[-1], budget)):
            wall, bad = run_pass(tasks, previous, failures)
            passes.append(wall)
            failed += bad

        traced = []
        if args.trace:
            tracer = Tracer()
            with tracer:
                start = time.perf_counter()
                while not traced or fits(start, traced[-1]["wall"], budget):
                    tracer.reset()
                    wall, bad = run_pass(tasks, previous, failures)
                    failed += bad
                    traced.append({"wall": wall,
                                   "spans": summarize(tracer.spans),
                                   "counts": dict(tracer.counts),
                                   "unspanned": unspanned_share(
                                       tracer.spans, wall)})
            if args.spans_out:
                with open(args.spans_out, "w") as fh:
                    json.dump({"fields": ["name", "start", "end", "parent"],
                               "skipped": tracer.skipped,
                               "spans": tracer.spans}, fh)

        result = {
            "pass_s": passes,
            "attempted": len(tasks) * (len(passes) + len(traced)),
            "failed": failed,
            "failures": failures[:20],
            "accuracy": accuracy,
            "accuracy_tolerance": workload.accuracy,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "versions": {"numpy": numpy.__version__,
                         "scipy": scipy.__version__,
                         "jsonschema": importlib.metadata.version(
                             "jsonschema")},
        }
        if traced:
            result["traced_pass_s"] = [p["wall"] for p in traced]
            result["layers"] = layer_metrics(traced)
            result["unspanned_share"] = statistics.median(
                p["unspanned"] for p in traced)
            result["counts_repeat"] = all(
                {k: v["calls"] for k, v in p["spans"].items()}
                == {k: v["calls"] for k, v in traced[0]["spans"].items()}
                and p["counts"] == traced[0]["counts"] for p in traced)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
