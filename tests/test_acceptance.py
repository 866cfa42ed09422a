"""End-to-end acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py``: the verbose listing gives
one pass/fail line per criterion.  Each test prints its measured numbers,
visible with ``-s`` or on failure.  Criterion 2 has a second test that pins
the numbers of its R = 1 step bit for bit, and a third that pins the band
factors of one pass.
"""
import hashlib
import json
import math
import time

import numpy as np
import pytest

import conelab as cl
import conelab.spectral
from conelab.graphs import random_connected_graph, spectral_gap
from conelab.spectral import covering_cell_constant, poincare_constant

TWO_PI = 2.0 * math.pi


# -- 1. Cheeger-gap lower bound on random graphs ----------------------------

def test_criterion_1_cheeger_gap_lower_bound():
    t0 = time.time()
    rng = np.random.default_rng(0)
    violations = 0
    for _ in range(200):
        g = random_connected_graph(rng, max_vertices=12,
                                   measure_range=(0.1, 10.0))
        rep = cl.cheeger_gap_report(g)
        if not rep.lower_ok:
            violations += 1
    elapsed = time.time() - t0
    print(f"criterion 1: 200 graphs, {violations} violations of "
          f"h^2/(8 m0) <= gap, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 60.0


# -- 2. Patching soundness and scale invariance on flat annuli --------------

def test_criterion_2_patching_soundness_and_scaling():
    cone = cl.build_cone(cl.CircleLink(TWO_PI), 0.15, 16.0, 168,
                         angular_steps=48, spacing="geometric")
    normalized = {}
    for R in (1.0, 2.0, 4.0):
        region = [v for v in range(cone.n_vertices)
                  if R <= cone.radii[v] <= 2.0 * R]
        cov = cl.net_covering(cone, region, 0.3 * R)
        rep = cl.validate_covering(cov)
        assert rep.ok, rep.violations
        lam = poincare_constant(cone, region, sorted(cov.Asharp))
        s_cell = covering_cell_constant(cov, cone)
        s_graph = 1.0 / spectral_gap(cl.associated_graph(cov, rep))
        bound = cl.patch_neumann(cl.PatchingInput(
            s_cell, s_graph, rep.q1, rep.q2, p=2.0, nu=math.inf))
        print(f"criterion 2: R={R} Lambda={lam:.4f} "
              f"Lambda/R^2={lam / R ** 2:.4f} bound={bound:.3e}")
        assert lam <= bound
        normalized[R] = lam / R ** 2
    lo, hi = min(normalized.values()), max(normalized.values())
    print(f"criterion 2: Lambda/R^2 spread {(hi - lo) / lo:.3%}")
    assert hi <= lo * 1.10


def test_criterion_2_numbers_are_pinned():
    """Every number of the R = 1 patching step, to the last bit: a change to
    how coverings are stored or solved must not move any of them."""
    cone = cl.build_cone(cl.CircleLink(TWO_PI), 0.15, 16.0, 168,
                         angular_steps=48, spacing="geometric")
    region = np.flatnonzero((cone.radii >= 1.0)
                            & (cone.radii <= 2.0)).tolist()
    cov = cl.net_covering(cone, region, 0.3)
    rep = cl.validate_covering(cov)
    assert rep.ok, rep.violations
    s_graph = 1.0 / spectral_gap(cl.associated_graph(cov, rep))
    s_cell = covering_cell_constant(cov, cone)
    lam = poincare_constant(cone, region, sorted(cov.Asharp))
    assert (rep.q1, repr(rep.q2)) == (55, "15.481140289858345")
    assert repr(s_graph) == "3.4716954188724096"
    assert repr(s_cell) == "0.7210546181615378"
    assert repr(lam) == "0.8293670316752491"
    # the witnesses k(i, j) as a JSON list of sorted [i, j, k] triples
    triples = sorted([i, j, k] for (i, j), k in rep.witnesses.items())
    assert len(triples) == 301
    assert hashlib.sha256(json.dumps(triples).encode()).hexdigest() == (
        "020e4bb3457db5abaf20d429c5ba713ededd200e12c0418e893b8b6a09245da4")


def test_criterion_2_band_factor_count(monkeypatch):
    """Work guard of one criterion-2 pass: at each R the covering's 6
    congruence classes are solved once each, plus the global pencil, so
    3 * (6 + 1) = 21 band factors (LAPACK ``dpbtrf``)."""
    calls = []
    factor = conelab.spectral.dpbtrf

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return factor(*args, **kwargs)
    monkeypatch.setattr(conelab.spectral, "dpbtrf", counted)
    cone = cl.build_cone(cl.CircleLink(TWO_PI), 0.15, 16.0, 168,
                         angular_steps=48, spacing="geometric")
    for R in (1.0, 2.0, 4.0):
        region = np.flatnonzero((cone.radii >= R)
                                & (cone.radii <= 2.0 * R)).tolist()
        cov = cl.net_covering(cone, region, 0.3 * R)
        covering_cell_constant(cov, cone)
        poincare_constant(cone, region, sorted(cov.Asharp))
    assert len(calls) == 21


# -- 3. Volume doubling on cones over circles -------------------------------

def test_criterion_3_volume_doubling():
    for L in (math.pi, TWO_PI, 3.0 * math.pi):
        nang = max(8, int(round(96 * L / TWO_PI)))
        cone = cl.build_cone(cl.CircleLink(L), 0.0, 8.0, 192,
                             angular_steps=nang)
        scan = cl.doubling_scan(cone, n_samples=100, r_bounds=(0.5, 1.2),
                                seed=0)
        assert len(scan.records) == 100
        assert math.isfinite(scan.ratio_max)
        anchored = cl.doubling_scan(cone, n_samples=100,
                                    r_bounds=(0.5, 1.2), seed=0,
                                    anchored=True)
        ratios = [r.ratio for r in anchored.records]
        print(f"criterion 3: L={L:.3f} C_D={scan.ratio_max:.3f} "
              f"anchored [{min(ratios):.3f}, {max(ratios):.3f}]")
        assert all(abs(r - 4.0) <= 0.15 * 4.0 for r in ratios)
        if abs(L - TWO_PI) < 1e-12:
            remote = [r.ratio for r in scan.records if r.case == "remote"]
            assert remote
            print(f"criterion 3: remote [{min(remote):.3f}, "
                  f"{max(remote):.3f}] over {len(remote)} balls")
            assert all(abs(r - 4.0) <= 0.15 * 4.0 for r in remote)


# -- 4. Two-sided Gaussian heat kernel bound --------------------------------

def test_criterion_4_gaussian_heat_kernel():
    cone = cl.build_cone(cl.CircleLink(TWO_PI), 0.0, 6.0, 192,
                         angular_steps=32)
    o = cone.base_point()
    times = [0.1, 0.25, 0.5, 1.0]
    samples = cl.heat_kernel(cone, o, times)
    d = cone.distances_from(o)
    worst = 0.0
    for s in samples:
        keep = ((d <= 4.0 * math.sqrt(s.t))
                & (cone.radii <= 6.0 - 2.0 * math.sqrt(s.t)))
        exact = np.exp(-d[keep] ** 2 / (4.0 * s.t)) / (4.0 * math.pi * s.t)
        worst = max(worst, float(np.max(np.abs(s.values[keep] - exact)
                                        / exact)))
    fit = cl.gaussian_fit(samples, cone)
    print(f"criterion 4: flat plane worst rel err {worst:.4f}, "
          f"c2={fit.c2:.5f}")
    assert worst < 0.05
    assert abs(fit.c2 - 0.25) <= 0.10 * 0.25
    assert fit.passed

    cone_pi = cl.build_cone(cl.CircleLink(math.pi), 0.0, 6.0, 192,
                            angular_steps=16)
    fit_pi = cl.gaussian_fit(
        cl.heat_kernel(cone_pi, cone_pi.base_point(), times), cone_pi)
    print(f"criterion 4: pi-cone fit passed={fit_pi.passed} "
          f"c1={fit_pi.c1:.4f} C2={fit_pi.C2:.4f}")
    assert fit_pi.passed
    for c in (fit_pi.c1, fit_pi.C1, fit_pi.c2, fit_pi.C2):
        assert math.isfinite(c) and c > 0


# -- 5. Green's function bound on a three-dimensional cone ------------------

def test_criterion_5_green_bound():
    cone = cl.build_cone(cl.sphere_link(12, 24), 0.05, 8.0, 160)
    o = cone.base_point()
    res = cl.greens_function(cone, o)
    assert res.positive
    d = cone.distances_from(o)
    keep = (d >= 0.3) & (cone.radii < 6.0)
    ratio = res.values[keep] * 4.0 * math.pi * d[keep]
    print(f"criterion 5: G * 4 pi d in [{ratio.min():.4f}, "
          f"{ratio.max():.4f}] over {int(keep.sum())} nodes")
    assert ratio.min() >= 0.95
    assert ratio.max() <= 1.05

    small = cl.build_cone(cl.sphere_link(10, 20), 0.05, 5.0, 128)
    o2 = small.base_point()
    direct = cl.greens_function(small, o2).values
    quad = cl.green_by_time_integration(small, o2, dt=0.05, n_steps=300)
    d2 = small.distances_from(o2)
    keep2 = (d2 >= 0.3) & (small.radii < 3.0)
    rel = float(np.max(np.abs(quad[keep2] - direct[keep2])
                       / direct[keep2]))
    print(f"criterion 5: time integration vs direct solve, "
          f"max rel dev {rel:.4f}")
    assert rel < 0.05


# -- 6. Indicial roots at the threshold eigenvalue --------------------------

def test_criterion_6_indicial_spectrum():
    for m in (2, 3, 4):
        lam1 = 2.0 * m - 1.0
        spec = cl.indicial_spectrum(m, [lam1, lam1 + 3.0, lam1 + 3.0])
        mu_plus = max(spec.mu_pairs[0])
        print(f"criterion 6: m={m} mu_1^+ = {mu_plus}")
        assert mu_plus == lam1
        for (a, b), lam in zip(spec.mu_pairs, spec.link_eigenvalues):
            assert a + b == pytest.approx(2 * m - 2, abs=1e-12)
            assert a * b == pytest.approx(-lam, abs=1e-12)
        w = list(spec.exceptional_weights)
        assert w == sorted(set(w))


# -- 7. Toric pipeline on the two model fans --------------------------------

def test_criterion_7_toric_pipeline():
    fans = {
        "A1": (cl.ToricConeData(2, [(1, 0), (1, 2)]), TWO_PI),
        "C3/Z3": (cl.ToricConeData(3, [(1, 0, 0), (0, 1, 0), (-1, -1, 3)]),
                  4.0 * math.pi ** 2 / 3.0),
    }
    for name, (cone, omega) in fans.items():
        gres = cl.gorenstein_covector(cone)
        assert gres.gamma is not None and gres.unique
        section = cl.cross_section(cone, gres.gamma)
        assert len(section.interior2d) == 1
        tri = cl.maximal_triangulation(section, cone)
        assert tri.maximal and tri.basic
        vals = {r: (0 if i < tri.n_boundary else 1)
                for i, r in enumerate(tri.rays)}
        chk = cl.support_function_check(tri, vals)
        assert chk.strictly_convex
        inv = cl.invariant_A(tri, vals, omega_link=omega, method="both")
        print(f"criterion 7: {name} gamma={gres.gamma} A={inv.value:.6f}")
        assert inv.value < 0
        assert abs(inv.divisor_sum - inv.polytope_volume) \
            <= 1e-9 * abs(inv.divisor_sum)
        base = cl.invariant_A(tri, vals, omega_link=omega).value
        for t in (2, 3):
            scaled = cl.invariant_A(tri, {k: t * v for k, v in vals.items()},
                                    omega_link=omega).value
            assert scaled == pytest.approx(t ** cone.dim * base, rel=1e-12)


# -- 8. Brieskorn-Pham admissibility table ----------------------------------

def test_criterion_8_bp_table():
    want = "m,k,se_ok,resolvable,blowup_count\n" + "".join(
        f"3,{k},{str(k > 6).lower()},{str(k % 3 in (0, 1)).lower()},{k // 3}\n"
        for k in range(3, 13))
    got = cl.bp_table_csv(3, range(3, 13))
    print("criterion 8: CSV byte-exact =", got == want)
    assert got == want
    for k in range(3, 13):
        rec = cl.bp_crepant_chain(3, k)
        assert rec.se_ok == (k > 6)
        assert rec.resolvable == (k % 3 in (0, 1))
        assert rec.blowup_count == k // 3
