"""conelab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src/``).  The workloads are defined in ``workloads.py``; each runs in its
own single-threaded process (``worker.py``).  With ``--trace 0`` the last
line of output is the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it is the per-layer metrics of a traced run, next to the
untraced pass time and the tracing overhead.  The lines before it print
every figure by name and unit with the environment, and the same report is
written to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Thread pools are pinned before numpy is imported: on 2 cores one thread
#: gives steadier pass times than the default pools.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: Set-up is measured in this many processes and reported as the median.
SETUPS = 5

#: Every worker is killed if the run is still going after this many seconds.
DEADLINE_S = 170.0

WORKLOAD_NAMES = ("patching", "heat_green", "exact_scan")


class BenchError(Exception):
    pass


def start_worker(args, deadline, setup_only=False, spans_out=None):
    """Start a workload process; return it with its set-up time, from
    process start to its ``ready`` line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    first = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    return proc, timer, first, setup_s


def finish_worker(proc, timer, first):
    """Wait for a worker; return its last output line."""
    try:
        out, err = proc.communicate()
    finally:
        timer.cancel()
    if proc.returncode != 0 or first.strip() != "ready":
        raise BenchError(f"workload process exited with {proc.returncode}:\n"
                         + err[-4000:])
    lines = out.strip().splitlines()
    return lines[-1] if lines else ""


def environment(versions):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu,
            "thread_env": THREAD_ENV,
            "python": platform.python_version(),
            **versions}


def end_to_end(res, setups):
    """The BENCHMARK.json end-to-end metrics of one untraced run."""
    # Geometric mean of each accuracy figure's share of its tolerance, so a
    # given relative worsening of any one figure moves it alike.  A check
    # that produced no figure counts as its whole tolerance.
    tol = res["accuracy_tolerance"]
    share = math.exp(statistics.fmean(
        math.log(res["accuracy"][k] / t if k in res["accuracy"] else 1.0)
        for k, t in tol.items()))
    return {
        "pass_s": (statistics.median(res["pass_s"]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "accuracy_tol_share": (share, "ratio"),
    }


def per_layer(res):
    """The BENCHMARK.json per-layer metrics of one traced run."""
    out = {}
    for name, value in res["layers"].items():
        unit = "s" if name.endswith("_s") or name.endswith(".s") else "count"
        out[name] = (value, unit)
    untraced = statistics.median(res["pass_s"])
    traced = statistics.median(res["traced_pass_s"])
    out["trace.pass_s"] = (traced, "s")
    out["trace.untraced_pass_s"] = (untraced, "s")
    out["trace.overhead_s"] = (traced - untraced, "s")
    out["trace.unspanned_share"] = (res["unspanned_share"], "ratio")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "conelab",
                                       "__init__.py")):
        print(f"error: no conelab source under {ROOT}/src", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    try:
        setups = []
        for _ in range(SETUPS - 1):
            proc, timer, first, setup_s = start_worker(args, deadline,
                                                       setup_only=True)
            finish_worker(proc, timer, first)
            setups.append(setup_s)
        spans_out = os.path.join(OUT, tag + ".spans.json") \
            if args.trace else None
        proc, timer, first, setup_s = start_worker(args, deadline,
                                                   spans_out=spans_out)
        setups.append(setup_s)
        res = json.loads(finish_worker(proc, timer, first))
    except (BenchError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # The final line carries the BENCHMARK.json metrics of this mode; the
    # lines before it print every figure, failed_frac and accuracy included.
    metrics = per_layer(res) if args.trace else end_to_end(res, setups)
    figures = {"failed_frac": (res["failed"] / res["attempted"], "ratio")}
    figures.update((k, (v, "ratio")) for k, v in sorted(
        res["accuracy"].items()))
    figures.update(end_to_end(res, setups))
    figures.update(metrics)
    report = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": environment(res["versions"]),
        "pass_s_all": res["pass_s"],
        "setup_s_all": setups,
        "attempted": res["attempted"], "failed": res["failed"],
        "failures": res["failures"],
        "accuracy_tolerance": res["accuracy_tolerance"],
        "figures": {k: {"value": v, "unit": u}
                    for k, (v, u) in figures.items()},
    }
    if args.trace:
        report["traced_pass_s_all"] = res["traced_pass_s"]
        report["counts_repeat"] = res["counts_repeat"]
        report["spans_file"] = os.path.relpath(spans_out, ROOT)
    with open(os.path.join(OUT, tag + ".json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)

    print(f"# conelab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    print("# environment: " + json.dumps(report["environment"],
                                         sort_keys=True))
    print(f"# passes={len(res['pass_s'])} untraced"
          + (f", {len(res['traced_pass_s'])} traced" if args.trace else "")
          + f"; attempted={res['attempted']} failed={res['failed']}")
    for failure in res["failures"]:
        print(f"# FAILED {failure}")
    for name, (value, unit) in figures.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
