"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The solver-count test pins the counts of the package as it stood when the
benchmark was defined; a change that alters how many factorizations or
solves a workload makes updates those numbers on purpose.
"""
import json
import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import conelab as cl  # noqa: E402
from conelab import cones  # noqa: E402
from run import WORKLOAD_NAMES, end_to_end, per_layer  # noqa: E402
from tracer import Tracer, _covered, summarize, unspanned_share  # noqa: E402
from worker import layer_metrics, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_pass(name, seed, directory):
    workload = WORKLOADS[name]
    directory.mkdir()
    tasks = workload.tasks(workload.inputs(seed, str(directory)), {})
    failures = []
    with Tracer() as tracer:
        _, failed = run_pass(tasks, {}, failures)
    assert failed == 0, failures
    calls = {k: v["calls"] for k, v in summarize(tracer.spans).items()}
    return calls, dict(tracer.counts)


def test_self_time_on_synthetic_nest():
    spans = [["a", 0.0, 10.0, -1],
             ["b", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1],
             ["d", 5.0, 6.0, 0],
             ["d", 11.0, 12.5, -1]]
    got = summarize(spans)
    assert got["a"] == {"calls": 1, "s": 10.0, "self_s": 6.0}
    assert got["b"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
    assert got["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert got["d"] == {"calls": 2, "s": 2.5, "self_s": 2.5}
    assert unspanned_share(spans, 20.0) == pytest.approx(8.5 / 20.0)
    assert _covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0


def test_tracer_nests_and_restores():
    original = cones.build_cone
    with Tracer() as tracer:
        assert cl.build_cone is not original
        cone = cl.build_cone(cl.sphere_link(4, 6), 0.1, 2.0, 8)
        cl.patch_neumann(cl.PatchingInput(1.0, 1.0, 2, 2.0))
        res = cl.greens_function(cone, cone.base_point())
    assert cones.build_cone is original and cl.build_cone is original
    assert res.positive
    names = [s[0] for s in tracer.spans]
    assert names.count("covering.patch") == 1   # the Dirichlet call nests
    greens = names.index("spectral.greens")
    for kernel in ("spectral.factor", "spectral.solve"):
        assert tracer.spans[names.index(kernel)][3] == greens
    assert tracer.counts["cones.build.vertices"] == cone.n_vertices
    assert tracer.counts["spectral.factor.fill_nnz"] > cone.n_vertices


def test_counts_repeat_between_traced_runs(tmp_path):
    first = traced_pass("exact_scan", 7, tmp_path / "one")
    second = traced_pass("exact_scan", 7, tmp_path / "two")
    assert first == second
    assert first[1]["graphs.cheeger.subsets"] > 2 ** 20


def test_solver_counts(tmp_path):
    calls, _ = traced_pass("patching", 0, tmp_path / "patching")
    assert (calls["spectral.factor"], calls["spectral.solve"]) == (399, 50592)
    calls, _ = traced_pass("heat_green", 0, tmp_path / "heat_green")
    assert (calls["spectral.factor"], calls["spectral.solve"]) == (53, 4290)


def test_benchmark_json_matches_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert WORKLOAD_NAMES == tuple(WORKLOADS)
    assert {w["name"]: w["why"] for w in bench["workloads"]} \
        == {name: w.why for name, w in WORKLOADS.items()}
    fake = {"pass_s": [1.0, 2.0], "traced_pass_s": [2.0],
            "peak_rss_mb": 1.0, "unspanned_share": 0.1,
            "accuracy": {}, "accuracy_tolerance": {"x": 0.1},
            "layers": layer_metrics([{"spans": {}, "counts": {}}])}
    e2e = end_to_end(fake, [1.0])
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in bench["end_to_end"]] == [u for _, u in
                                                       e2e.values()]
    layers = per_layer(fake)
    assert [m["name"] for m in bench["per_layer"]] == list(layers)
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in
                                                      layers.values()]
    assert all(math.isfinite(v) for v, _ in layers.values())
