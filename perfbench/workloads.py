"""The benchmark's workloads: seeded inputs, tasks and correctness checks.

``inputs(seed, directory)`` writes every input a workload needs as JSON
files and returns their paths with the CLI arguments derived from the seed.
``tasks(inputs, accuracy)`` lists the steps of one pass; the checks record
their accuracy figures in the ``accuracy`` dict.  A task drives conelab only
through its public functions and ``conelab.cli.main``, runs the acceptance
checks on what comes back, and returns its report: the CLI's output files,
or for library steps the results written as canonical JSON.  The program
sees only the generated files and the CLI arguments.

The criterion-2, -4 and -5 inputs are the fixed acceptance-criterion models,
so on ``patching`` and ``heat_green`` the seed reaches only the ``--seed``
argument of the reports; on ``exact_scan`` it draws the graphs and the
doubling-scan samples.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi


class CheckFailed(Exception):
    """A correctness check on a task's output did not hold."""


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


class Task:
    def __init__(self, name, fn):
        self.name = name
        self.fn = fn


def _write_json(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def _read(path):
    with open(path) as fh:
        return fh.read()


def _run_cli(argv, outputs):
    """``conelab.cli.main(argv)``; a nonzero exit fails the task.  Returns
    the concatenated output files, which must repeat byte for byte."""
    from conelab import cli
    for path in outputs:
        if os.path.exists(path):
            os.remove(path)
    code = cli.main(argv)
    check(code == 0, f"conelab {argv[0]} exited with {code}")
    return "".join(f"== {os.path.basename(p)}\n{_read(p)}" for p in outputs)


def _library_report(doc):
    return json.dumps(doc, sort_keys=True) + "\n"


def _cone_doc(link, r_min, r_max, radial_steps, angular_steps=None,
              spacing="uniform"):
    doc = {"link": link, "r_min": r_min, "r_max": r_max,
           "radial_steps": radial_steps, "spacing": spacing}
    if angular_steps is not None:
        doc["angular_steps"] = angular_steps
    return doc


def _circle(length):
    return {"kind": "circle", "length": length}


# ---------------------------------------------------------------------------
# patching


PATCHING_WHY = (
    "criterion-2 patching on an 8,064-vertex flat annulus at R = 1, 2, 4: "
    "many sparse solves per factorization on small matrices, no heat kernel")

PATCH_RADII = (1.0, 2.0, 4.0)


def patching_inputs(seed, directory):
    cone = _cone_doc(_circle(TWO_PI), 0.15, 16.0, 168, angular_steps=48,
                     spacing="geometric")
    return {"cone": _write_json(directory, "annulus.json", cone)}


def patching_tasks(inputs, acc):
    import conelab as cl

    state = {}

    def build():
        state.clear()
        cone = cl.cones.cone_from_json(_read(inputs["cone"]))
        state["cone"] = cone
        state["normalized"] = {}
        return _library_report({"n_vertices": cone.n_vertices,
                                "total_measure": cone.total_measure})

    def patch_at(R):
        def run():
            cone = state["cone"]
            region = np.flatnonzero((cone.radii >= R)
                                    & (cone.radii <= 2.0 * R)).tolist()
            cov = cl.net_covering(cone, region, 0.3 * R)
            rep = cl.validate_covering(cov)
            check(rep.ok, f"R={R}: covering not good: {rep.violations}")
            s_graph = 1.0 / cl.spectral_gap(cl.associated_graph(cov, rep))
            s_cell = cl.covering_cell_constant(cov, cone)
            lam = cl.poincare_constant(cone, region, sorted(cov.Asharp))
            bound = cl.patch_neumann(cl.PatchingInput(
                s_cell, s_graph, rep.q1, rep.q2, p=2.0, nu=math.inf))
            check(lam <= bound, f"R={R}: Lambda {lam} exceeds bound {bound}")
            state["normalized"][R] = lam / R ** 2
            return _library_report({"R": R, "lambda": lam, "bound": bound,
                                    "s_cell": s_cell, "s_graph": s_graph,
                                    "q1": rep.q1, "q2": rep.q2,
                                    "n_cells": len(cov.cells)})
        return run

    def spread():
        norm = state["normalized"]
        check(len(norm) == len(PATCH_RADII), "a patching step failed")
        lo, hi = min(norm.values()), max(norm.values())
        acc["patch.scale_spread"] = (hi - lo) / lo
        check(hi <= lo * 1.10, f"Lambda/R^2 spread {(hi - lo) / lo:.3%}")
        return _library_report({"normalized": [norm[R] for R in PATCH_RADII]})

    return ([Task("build", build)]
            + [Task(f"patch_R{R:g}", patch_at(R)) for R in PATCH_RADII]
            + [Task("spread", spread)])


# ---------------------------------------------------------------------------
# heat_green


HEAT_GREEN_WHY = (
    "heat on the criterion-4 cones, green on a 46,080-vertex 3d cone and "
    "the time-integration cross-check: large sparse factorizations, cone "
    "assembly")

HEAT_TIMES = "0.1,0.25,0.5,1.0"
GREEN_CONE = {"n_theta": 12, "n_phi": 24, "r_min": 0.05, "r_max": 8.0,
              "radial_steps": 160}


def heat_green_inputs(seed, directory):
    green = _cone_doc({"kind": "sphere", "n_theta": GREEN_CONE["n_theta"],
                       "n_phi": GREEN_CONE["n_phi"]},
                      GREEN_CONE["r_min"], GREEN_CONE["r_max"],
                      GREEN_CONE["radial_steps"])
    small = _cone_doc({"kind": "sphere", "n_theta": 10, "n_phi": 20},
                      0.05, 5.0, 128)
    return {
        "dir": directory,
        "seed": str(seed),
        "flat": _write_json(directory, "flat.json", _cone_doc(
            _circle(TWO_PI), 0.0, 6.0, 192, angular_steps=32)),
        "wedge": _write_json(directory, "wedge.json", _cone_doc(
            _circle(math.pi), 0.0, 6.0, 192, angular_steps=16)),
        "green": _write_json(directory, "green.json", green),
        "small": _write_json(directory, "small.json", small),
    }


def _green_cone_radii():
    """Vertex radii of GREEN_CONE: uniform rings, link nodes innermost."""
    g = GREEN_CONE
    faces = np.linspace(g["r_min"], g["r_max"], g["radial_steps"] + 1)
    rings = 0.5 * (faces[:-1] + faces[1:])
    return np.repeat(rings, g["n_theta"] * g["n_phi"])


def heat_green_tasks(inputs, acc):
    import conelab as cl

    d = inputs["dir"]
    seed = inputs["seed"]

    def heat(name, path, flat):
        def run():
            out, table = os.path.join(d, f"{name}.report.json"), \
                os.path.join(d, f"{name}.csv")
            text = _run_cli(["heat", "--in", path, "--times", HEAT_TIMES,
                             "--seed", seed, "--out", out, "--csv", table],
                            [out, table])
            fit = json.loads(_read(out))["results"]["fit"]
            check(fit["passed"], f"{name}: Gaussian fit failed")
            if flat:
                check(abs(fit["c2"] - 0.25) <= 0.10 * 0.25,
                      f"{name}: c2 = {fit['c2']}")
                t, _, dist, value = np.loadtxt(table, delimiter=",",
                                               skiprows=1, unpack=True)
                # the source is the apex, so distance = radius
                keep = ((dist <= 4.0 * np.sqrt(t))
                        & (dist <= 6.0 - 2.0 * np.sqrt(t)))
                exact = (np.exp(-dist[keep] ** 2 / (4.0 * t[keep]))
                         / (4.0 * math.pi * t[keep]))
                worst = float(np.max(np.abs(value[keep] - exact) / exact))
                acc["heat.max_rel_err"] = worst
                check(worst < 0.05, f"{name}: flat-plane error {worst}")
            else:
                for key in ("c1", "C1", "c2", "C2"):
                    c = fit[key]
                    check(isinstance(c, float) and math.isfinite(c) and c > 0,
                          f"{name}: {key} = {c}")
            return text
        return run

    def green():
        out, table = os.path.join(d, "green.report.json"), \
            os.path.join(d, "green.csv")
        text = _run_cli(["green", "--in", inputs["green"], "--seed", seed,
                         "--out", out, "--csv", table], [out, table])
        check(json.loads(_read(out))["results"]["positive"],
              "green: G is not positive")
        _, dist, value = np.loadtxt(table, delimiter=",", skiprows=1,
                                    unpack=True)
        keep = (dist >= 0.3) & (_green_cone_radii() < 6.0)
        ratio = value[keep] * 4.0 * math.pi * dist[keep]
        acc["green.max_rel_dev"] = float(np.max(np.abs(ratio - 1.0)))
        check(ratio.min() >= 0.95 and ratio.max() <= 1.05,
              f"green: G 4 pi d in [{ratio.min()}, {ratio.max()}]")
        return text

    def cross_check():
        small = cl.cones.cone_from_json(_read(inputs["small"]))
        o = small.base_point()
        direct = cl.greens_function(small, o).values
        quad = cl.green_by_time_integration(small, o, dt=0.05, n_steps=300)
        dist = small.distances_from(o)
        keep = (dist >= 0.3) & (small.radii < 3.0)
        rel = float(np.max(np.abs(quad[keep] - direct[keep])
                           / direct[keep]))
        acc["green.cross_rel_dev"] = rel
        check(rel < 0.05, f"time integration deviates by {rel}")
        return _library_report({"max_rel_dev": rel,
                                "direct_sum": float(direct.sum()),
                                "quad_sum": float(quad.sum())})

    return [Task("heat_flat", heat("flat", inputs["flat"], True)),
            Task("heat_wedge", heat("wedge", inputs["wedge"], False)),
            Task("green", green),
            Task("green_cross_check", cross_check)]


# ---------------------------------------------------------------------------
# exact_scan


EXACT_SCAN_WHY = (
    "graph, cone, toric and bp subcommands: subset enumeration, ball queries, "
    "exact fractions and report writing, no sparse solver; a solver change "
    "should move nothing here")

N_SMALL_GRAPHS = 200
LARGE_GRAPH_SIZES = (16, 18, 20)
DOUBLING_LENGTHS = (math.pi, TWO_PI, 3.0 * math.pi)
A_FANS = (10, 20, 30)
C3Z3_RAYS = [[1, 0, 0], [0, 1, 0], [-1, -1, 3]]


def _connected_graph(rng, n, n_extra):
    """Random spanning tree plus ``n_extra`` distinct chords, measures in
    [0.1, 10].  Sizes and edge counts are fixed by the caller, so the
    enumeration work does not depend on the seed."""
    measures = rng.uniform(0.1, 10.0, size=n)
    order = rng.permutation(n)
    edges = set()
    for k in range(1, n):
        a, b = int(order[k]), int(order[int(rng.integers(0, k))])
        edges.add((min(a, b), max(a, b)))
    chords = [(a, b) for a in range(n) for b in range(a + 1, n)
              if (a, b) not in edges]
    pick = rng.choice(len(chords), size=min(n_extra, len(chords)),
                      replace=False)
    edges.update(chords[int(i)] for i in pick)
    return {"vertices": [{"id": i, "measure": float(m)}
                         for i, m in enumerate(measures)],
            "edges": [list(e) for e in sorted(edges)]}


def exact_scan_inputs(seed, directory):
    rng = np.random.default_rng(seed)
    graphs = []
    for i in range(N_SMALL_GRAPHS):
        n = 2 + i % 11
        graphs.append(_write_json(directory, f"g{i:03d}.json",
                                  _connected_graph(rng, n, n // 2)))
    for n in LARGE_GRAPH_SIZES:
        graphs.append(_write_json(directory, f"g_large{n}.json",
                                  _connected_graph(rng, n, n)))
    cones = []
    for k, L in enumerate(DOUBLING_LENGTHS):
        nang = max(8, int(round(96 * L / TWO_PI)))
        cones.append(_write_json(directory, f"cone{k}.json", _cone_doc(
            _circle(L), 0.0, 8.0, 192, angular_steps=nang)))
    fans = {"C3Z3": _write_json(directory, "c3z3.json", {
        "dim": 3, "rays": C3Z3_RAYS, "omega_link": 4.0 * math.pi ** 2 / 3.0,
        "interior_value": 1})}
    for k in A_FANS:
        fans[f"A{k - 1}"] = _write_json(directory, f"a{k - 1}.json", {
            "dim": 2, "rays": [[1, 0], [1, k]], "omega_link": TWO_PI,
            "support_values": {json.dumps([1, j]): j * (k - j)
                               for j in range(1, k)}})
    return {"dir": directory, "seed": str(seed), "graphs": graphs,
            "cones": cones, "fans": fans,
            "scan_seeds": [str(int(s)) for s in
                           rng.integers(0, 2 ** 31, size=len(cones))]}


def exact_scan_tasks(inputs, acc):
    import conelab as cl

    d = inputs["dir"]
    seed = inputs["seed"]
    doubling_dev = {}

    def graph(path):
        def run():
            out = os.path.join(d, os.path.basename(path) + ".report")
            text = _run_cli(["graph", "--in", path, "--seed", seed,
                             "--out", out], [out])
            res = json.loads(_read(out))["results"]
            check(res["lower_ok"], f"{path}: h^2/(8 m0) <= gap fails")
            return text
        return run

    def doubling(k, path):
        scan_seed = inputs["scan_seeds"][k]

        def run():
            out, table = os.path.join(d, f"cone{k}.report"), \
                os.path.join(d, f"cone{k}.csv")
            text = _run_cli(["cone", "--in", path, "--samples", "100",
                             "--r-lo", "0.5", "--r-hi", "1.2",
                             "--seed", scan_seed, "--out", out,
                             "--csv", table], [out, table])
            res = json.loads(_read(out))["results"]
            check(res["n_samples"] == 100, f"cone{k}: {res['n_samples']}")
            check(isinstance(res["doubling_ratio_max"], float)
                  and math.isfinite(res["doubling_ratio_max"]),
                  f"cone{k}: doubling ratio {res['doubling_ratio_max']}")
            if DOUBLING_LENGTHS[k] == TWO_PI:
                with open(table) as fh:
                    remote = [float(r["ratio"]) for r in csv.DictReader(fh)
                              if r["case"] == "remote"]
                check(remote, "flat cone: no remote balls")
                check(all(abs(r - 4.0) <= 0.15 * 4.0 for r in remote),
                      f"flat cone: remote ratios {min(remote)}..{max(remote)}")
            cone = cl.cones.cone_from_json(_read(path))
            anchored = cl.doubling_scan(cone, n_samples=100,
                                        r_bounds=(0.5, 1.2),
                                        seed=int(scan_seed), anchored=True)
            ratios = [r.ratio for r in anchored.records]
            dev = max(abs(r - 4.0) / 4.0 for r in ratios)
            doubling_dev[k] = dev
            acc["doubling.max_dev"] = max(doubling_dev.values())
            check(len(ratios) == 100 and dev <= 0.15,
                  f"cone{k}: anchored deviation {dev}")
            return text + _library_report({"anchored": ratios})
        return run

    def toric(name, path):
        def run():
            out = os.path.join(d, f"{name}.report")
            text = _run_cli(["toric", "--in", path, "--seed", seed,
                             "--out", out], [out])
            res = json.loads(_read(out))["results"]
            check(res["gamma_unique"] and res["maximal"] and res["basic"]
                  and res["is_kahler"], f"{name}: {res}")
            check(res["invariant_A"] < 0, f"{name}: A = {res['invariant_A']}")
            div, vol = res["divisor_sum"], res["polytope_volume"]
            check(abs(div - vol) <= 1e-9 * abs(div),
                  f"{name}: divisor sum {div} vs polytope volume {vol}")
            if name.startswith("A"):
                k = int(name[1:]) + 1
                want = -math.pi * (k ** 3 - k) / 3.0
                check(abs(res["invariant_A"] - want) <= 1e-9 * abs(want),
                      f"{name}: A = {res['invariant_A']}, want {want}")
            return text
        return run

    def model_fans():
        """Criterion 7's library pipeline, with the homogeneity check."""
        out = {}
        fans = {"A1": (2, [[1, 0], [1, 2]], TWO_PI),
                "C3Z3": (3, C3Z3_RAYS, 4.0 * math.pi ** 2 / 3.0)}
        for name, (dim, rays, omega) in fans.items():
            cone = cl.ToricConeData(dim, tuple(tuple(r) for r in rays))
            gres = cl.gorenstein_covector(cone)
            check(gres.gamma is not None and gres.unique, f"{name}: gamma")
            section = cl.cross_section(cone, gres.gamma)
            check(len(section.interior2d) == 1, f"{name}: interior points")
            tri = cl.maximal_triangulation(section, cone)
            check(tri.maximal and tri.basic, f"{name}: triangulation")
            vals = {r: (0 if i < tri.n_boundary else 1)
                    for i, r in enumerate(tri.rays)}
            check(cl.support_function_check(tri, vals).strictly_convex,
                  f"{name}: support function")
            inv = cl.invariant_A(tri, vals, omega_link=omega, method="both")
            check(inv.value < 0, f"{name}: A = {inv.value}")
            check(abs(inv.divisor_sum - inv.polytope_volume)
                  <= 1e-9 * abs(inv.divisor_sum), f"{name}: two routes")
            scaled = {}
            for t in (2, 3):
                scaled[t] = cl.invariant_A(
                    tri, {r: t * v for r, v in vals.items()},
                    omega_link=omega).value
                check(abs(scaled[t] - t ** dim * inv.value)
                      <= 1e-12 * abs(t ** dim * inv.value),
                      f"{name}: homogeneity at t={t}")
            out[name] = {"gamma": list(gres.gamma), "A": inv.value,
                         "A2": scaled[2], "A3": scaled[3]}
        return _library_report(out)

    def indicial():
        """Criterion 6: indicial roots at the threshold eigenvalue."""
        out = {}
        for m in (2, 3, 4):
            lam1 = 2.0 * m - 1.0
            spec = cl.indicial_spectrum(m, [lam1, lam1 + 3.0, lam1 + 3.0])
            check(max(spec.mu_pairs[0]) == lam1, f"m={m}: mu_1^+")
            for (a, b), lam in zip(spec.mu_pairs, spec.link_eigenvalues):
                check(abs(a + b - (2 * m - 2)) <= 1e-12
                      and abs(a * b + lam) <= 1e-12, f"m={m}: root pair")
            w = list(spec.exceptional_weights)
            check(w == sorted(set(w)), f"m={m}: weights not sorted")
            out[m] = w
        return _library_report(out)

    def bp():
        csv_out = os.path.join(d, "bp.csv")
        json_out = os.path.join(d, "bp.report")
        text = _run_cli(["bp", "--m", "3", "--k-range", "3..12",
                         "--out", csv_out], [csv_out])
        want = "m,k,se_ok,resolvable,blowup_count\n" + "".join(
            f"3,{k},{str(k > 6).lower()},{str(k % 3 in (0, 1)).lower()},"
            f"{k // 3}\n" for k in range(3, 13))
        check(_read(csv_out) == want, "bp CSV differs from criterion 8")
        text += _run_cli(["bp", "--m", "3", "--k-range", "3..12",
                          "--format", "json", "--seed", seed,
                          "--out", json_out], [json_out])
        return text

    tasks = [Task(f"graph_{os.path.basename(p)}", graph(p))
             for p in inputs["graphs"]]
    tasks += [Task(f"cone{k}", doubling(k, p))
              for k, p in enumerate(inputs["cones"])]
    tasks += [Task(f"toric_{name}", toric(name, p))
              for name, p in inputs["fans"].items()]
    tasks += [Task("toric_model_fans", model_fans),
              Task("indicial", indicial), Task("bp", bp)]
    return tasks


# ---------------------------------------------------------------------------


class Workload:
    def __init__(self, why, inputs, tasks, accuracy):
        self.why = why
        self.inputs = inputs
        self.tasks = tasks
        #: accuracy metric -> the tolerance its check allows
        self.accuracy = accuracy


WORKLOADS = {
    "patching": Workload(PATCHING_WHY, patching_inputs, patching_tasks,
                         {"patch.scale_spread": 0.10}),
    "heat_green": Workload(HEAT_GREEN_WHY, heat_green_inputs,
                           heat_green_tasks,
                           {"heat.max_rel_err": 0.05,
                            "green.max_rel_dev": 0.05,
                            "green.cross_rel_dev": 0.05}),
    "exact_scan": Workload(EXACT_SCAN_WHY, exact_scan_inputs,
                           exact_scan_tasks, {"doubling.max_dev": 0.15}),
}
