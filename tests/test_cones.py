import json
import math
import pathlib

import numpy as np
import pytest

import conelab.cones
from conelab import (CircleLink, DomainError, GraphLink, InternalFault,
                     annular_covering, associated_graph, build_cone,
                     classify_ball, combine_parameter, covering_cell_constant,
                     doubling_scan, net_covering, radius_field,
                     separated_net, sphere_link, validate_covering)
from conelab.cones import DoublingRecord, _link_mesh, cone_from_json
from conelab.graphs import dirichlet_laplacian

TWO_PI = 2.0 * math.pi


def flat_disc(r_max=4.0, radial=64, angular=32):
    return build_cone(CircleLink(TWO_PI), 0.0, r_max, radial,
                      angular_steps=angular)


class TestMeasures:
    def test_flat_disc_total_measure(self):
        cone = flat_disc(r_max=2.0)
        assert cone.total_measure == pytest.approx(math.pi * 4.0)

    def test_sector_total_measure(self):
        L = math.pi
        cone = build_cone(CircleLink(L), 0.0, 3.0, 30, angular_steps=16)
        assert cone.total_measure == pytest.approx(L * 9.0 / 2.0)

    def test_annulus_measure(self):
        cone = build_cone(CircleLink(TWO_PI), 1.0, 2.0, 20, angular_steps=16)
        assert cone.total_measure == pytest.approx(math.pi * (4.0 - 1.0))

    def test_solid_shell_measure(self):
        # apex vertices only exist over circle links, so start at r > 0
        cone = build_cone(sphere_link(8, 16), 0.1, 1.0, 16)
        want = 4.0 * math.pi * (1.0 - 0.1 ** 3) / 3.0
        assert cone.total_measure == pytest.approx(want, rel=1e-6)

    def test_sphere_link_area(self):
        link = sphere_link(10, 20)
        assert sum(link.measures) == pytest.approx(4.0 * math.pi)


def _path_laplacian(w):
    L = np.zeros((len(w) + 1, len(w) + 1))
    for k, wk in enumerate(w):
        L[k:k + 2, k:k + 2] += wk * np.array([[1.0, -1.0], [-1.0, 1.0]])
    return L


class TestProductStructure:
    """Without an apex the cone is a product of rings and link nodes:
    measures = shell (x) lm and L = L_r (x) diag(lm) + diag(T) (x) L_S."""

    @pytest.mark.parametrize("spacing", ["uniform", "geometric"])
    def test_circle_and_sphere_links(self, spacing):
        K, r_min, r_max = 9, 0.2, 3.0
        if spacing == "uniform":
            faces = np.linspace(r_min, r_max, K + 1)
        else:
            faces = r_min * (r_max / r_min) ** (np.arange(K + 1) / K)
        lo, hi = faces[:-1], faces[1:]
        r = 0.5 * (lo + hi)
        A = 10
        circle = (build_cone(CircleLink(TWO_PI), r_min, r_max, K,
                             angular_steps=A, spacing=spacing),
                  np.full(A, TWO_PI / A),
                  [(a, (a + 1) % A) for a in range(A)],
                  np.full(A, A / TWO_PI))
        link = sphere_link(6, 12)
        sphere = (build_cone(link, r_min, r_max, K, spacing=spacing),
                  np.array(link.measures), link.edges,
                  np.array(link.conductances))
        for cone, lm, ledges, lcond in (circle, sphere):
            n = cone.dimension
            L_S = np.zeros((len(lm), len(lm)))
            for (u, v), c in zip(ledges, lcond):
                L_S[np.ix_([u, v], [u, v])] += c * np.array([[1.0, -1.0],
                                                             [-1.0, 1.0]])
            L_r = _path_laplacian(hi[:-1] ** (n - 1) / np.diff(r))
            T = r ** (n - 3) * (hi - lo)
            f = cone.factors
            assert np.allclose(f.radial_weights, hi[:-1] ** (n - 1)
                               / np.diff(r), rtol=1e-14, atol=0)
            assert np.allclose(f.ring_factors, T, rtol=1e-14, atol=0)
            want = np.kron(L_r, np.diag(lm)) + np.kron(np.diag(T), L_S)
            got = dirichlet_laplacian(cone.n_vertices, cone.edges,
                                      cone.conductances).toarray()
            assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
            shell = (hi ** n - lo ** n) / n
            assert np.array_equal(cone.measures, np.kron(shell, lm))


def _loop_assembly(link, r_min, r_max, K, angular=None, spacing="uniform"):
    """Vertex and edge arrays of the cone, built one vertex and one edge at
    a time in the documented order: radial, apex, then tangential edges."""
    lm, ledges, lcond, ldist = _link_mesh(link, angular)
    A, n = len(lm), link.dim + 1
    if r_min == 0:
        h = r_max / K
        ring_r = np.arange(1, K + 1) * h
        lo = np.r_[0.5 * h, (np.arange(2, K + 1) - 0.5) * h]
        hi = np.r_[(np.arange(1, K) + 0.5) * h, r_max]
        apex_hi = 0.5 * r_max / K
    else:
        faces = (np.linspace(r_min, r_max, K + 1) if spacing == "uniform"
                 else r_min * (r_max / r_min) ** (np.arange(K + 1) / K))
        ring_r = 0.5 * (faces[:-1] + faces[1:])
        lo, hi = faces[:-1], faces[1:]
    off = int(r_min == 0)
    shell = (hi ** n - lo ** n) / n
    measures = [lm.sum() * apex_hi ** n / n] if off else []
    for k in range(K):
        measures += [lm[a] * shell[k] for a in range(A)]
    edges, cond, elen = [], [], []
    for k in range(K - 1):
        dr = ring_r[k + 1] - ring_r[k]
        for a in range(A):
            edges.append((off + k * A + a, off + (k + 1) * A + a))
            cond.append(hi[k] ** (n - 1) * lm[a] / dr)
            elen.append(dr)
    for a in range(A if off else 0):
        edges.append((0, off + a))
        cond.append(apex_hi ** (n - 1) * lm[a] / ring_r[0])
        elen.append(ring_r[0])
    for k in range(K):
        for (u, v), c in zip(ledges, lcond):
            edges.append((off + k * A + u, off + k * A + v))
            cond.append(c * ring_r[k] ** (n - 3) * (hi[k] - lo[k]))
            elen.append(ring_r[k] * ldist[u, v])
    return measures, edges, cond, elen


class TestAssemblyMatchesLoops:
    """The vectorized assembly repeats the float operations of the loops,
    so the arrays agree bit for bit."""

    # the 168- and 128-ring grids have radii where array ** -1 and ** 2
    # differ from scalar pow in the last bit
    LOOP_GRIDS = [
        (CircleLink(TWO_PI), 0.0, 3.0, 12, 10),
        (CircleLink(math.pi), 0.0, 2.0, 7, 5),
        (CircleLink(TWO_PI), 0.15, 16.0, 168, 3, "geometric"),
        (sphere_link(2, 3), 0.05, 5.0, 128),
        (sphere_link(4, 8), 0.2, 2.0, 6, None, "geometric"),
        # 17 to 40 rings: an apex, geometric spacing and a sphere link
        (CircleLink(TWO_PI), 0.0, 4.0, 40, 12),
        (CircleLink(3 * math.pi), 0.5, 9.0, 33, 7, "geometric"),
        (sphere_link(3, 6), 0.1, 3.0, 17),
    ]

    @pytest.mark.parametrize("args", LOOP_GRIDS)
    def test_bitwise_equal(self, args):
        link, r_min, r_max, K = args[:4]
        angular = args[4] if len(args) > 4 else None
        spacing = args[5] if len(args) > 5 else "uniform"
        cone = build_cone(link, r_min, r_max, K, angular_steps=angular,
                          spacing=spacing)
        measures, edges, cond, elen = _loop_assembly(*args)
        assert cone.measures.tobytes() == np.array(measures).tobytes()
        assert np.array_equal(cone.edges, np.array(edges))
        assert cone.conductances.tobytes() == np.array(cond).tobytes()
        assert cone.edge_lengths.tobytes() == np.array(elen).tobytes()

    @pytest.mark.parametrize("args", LOOP_GRIDS)
    def test_factors_reassemble_bitwise(self, args):
        """Each conductance is (ring numerator * link factor) / ring
        denominator of the stored product factors, edge by edge."""
        link, r_min, r_max, K = args[:4]
        cone = build_cone(link, r_min, r_max, K,
                          angular_steps=args[4] if len(args) > 4 else None,
                          spacing=args[5] if len(args) > 5 else "uniform")
        f = cone.factors
        lm, A = f.link_measures, len(f.link_measures)
        cond = [f.face_powers[k] * lm[a] / f.gaps[k]
                for k in range(K - 1) for a in range(A)]
        edges = [(k * A + a, (k + 1) * A + a)
                 for k in range(K - 1) for a in range(A)]
        if f.apex_power is not None:
            cond += [f.apex_power * lm[a] / f.apex_gap for a in range(A)]
            edges = ([(u + 1, v + 1) for u, v in edges]
                     + [(0, 1 + a) for a in range(A)])
        off = 0 if f.apex_power is None else 1
        for k in range(K):
            for (u, v), c in zip(f.link_edges, f.link_conductances):
                edges.append((off + k * A + u, off + k * A + v))
                cond.append(c * f.ring_powers[k] * f.widths[k])
        assert np.array_equal(cone.edges, np.array(edges))
        assert cone.conductances.tobytes() == np.array(cond).tobytes()
        measures = [lm[a] * f.shell[k] for k in range(K) for a in range(A)]
        assert cone.measures[off:].tobytes() == np.array(measures).tobytes()


def _overflow_doc(measures, length, conductance, dim, r_min, r_max, K):
    """A cone over a two-node graph link joined by one edge."""
    return json.dumps({
        "link": {"kind": "graph", "dim": dim,
                 "nodes": [{"measure": m} for m in measures],
                 "edges": [{"i": 0, "j": 1, "length": length,
                            "conductance": conductance}]},
        "r_min": r_min, "r_max": r_max, "radial_steps": K})


#: Cones whose measures are finite but whose edges leave the float range.
EDGE_OVERFLOWS = {
    # face power * link measure / gap
    "radial_conductance": _overflow_doc((1e308, 1e308), 1.0, 1.0, 1,
                                        0.5, 1.0, 4),
    # ring power * link conductance * width
    "tangential_conductance": _overflow_doc((1.0, 1.0), 1.0, 1e307, 2,
                                            1.0, 200.0, 2),
    # ring radius * link length
    "edge_length": _overflow_doc((1.0, 1.0), 1e300, 1.0, 1,
                                 1.0, 1e10, 4),
    # one edge only: the radial edge of the last gap at the larger measure
    "largest_link_factor_only": _overflow_doc((1.0, 2.8e307), 1.0, 1.0, 1,
                                              0.5, 1.0, 4),
}


class TestEdgesOnDemand:
    """A cone keeps no edge array until one is read, and an overflowing
    edge is still caught at construction."""

    def test_arrays_are_built_once_and_read_only(self):
        cone = flat_disc(r_max=3.0, radial=40, angular=12)
        assert cone._edge_arrays is None
        edges = cone.edges
        assert cone.edges is edges
        assert cone.conductances is cone._edge_arrays[1]
        for name in ("edges", "conductances", "edge_lengths"):
            with pytest.raises(AttributeError):
                setattr(cone, name, None)
            with pytest.raises(ValueError):
                getattr(cone, name)[0] = 0

    @pytest.fixture
    def no_edge_arrays(self, monkeypatch):
        def refused(self):
            raise AssertionError("the cone's edge arrays were built")
        monkeypatch.setattr(conelab.cones.DiscretizedCone,
                            "_materialize_edges", refused)

    def test_heat_green_and_doubling_read_no_edge_array(self, no_edge_arrays):
        from conelab import (gaussian_fit, green_by_time_integration,
                             greens_function, heat_kernel)
        disc = flat_disc(r_max=3.0, radial=40, angular=12)
        gaussian_fit(heat_kernel(disc, 0, [0.1, 0.3]), disc)
        doubling_scan(disc, n_samples=5, r_bounds=(0.2, 0.5))
        doubling_scan(disc, n_samples=5, r_bounds=(0.2, 0.5), anchored=True)
        sphere = build_cone(sphere_link(4, 8), 0.1, 3.0, 40)
        greens_function(sphere, 0)
        green_by_time_integration(sphere, 0, dt=0.05, n_steps=20)

    @pytest.mark.parametrize("argv", [
        ["cone", "--in", "cone.json", "--samples", "20", "--csv", "c.csv"],
        ["heat", "--in", "heat.json", "--times", "0.2,0.4", "--csv", "h.csv"],
        ["green", "--in", "green.json", "--csv", "g.csv"],
    ], ids=lambda argv: argv[0])
    def test_cli_reads_no_edge_array(self, argv, tmp_path, no_edge_arrays):
        from conelab.cli import main
        fixtures = pathlib.Path(__file__).parent / "fixtures"
        argv = [str(fixtures / a) if a.endswith(".json") else
                str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        assert main(argv + ["--out", str(tmp_path / "r.json")]) == 0

    @pytest.mark.parametrize("doc", list(EDGE_OVERFLOWS.values()),
                             ids=list(EDGE_OVERFLOWS))
    def test_edge_overflow_raises_at_construction(self, doc):
        with pytest.raises(DomainError, match="floating-point range"):
            cone_from_json(doc)
        # the measures are finite: the edges are what overflow
        spec = json.loads(doc)
        n = spec["link"]["dim"] + 1
        faces = np.linspace(spec["r_min"], spec["r_max"],
                            spec["radial_steps"] + 1)
        lm = [node["measure"] for node in spec["link"]["nodes"]]
        with np.errstate(over="raise"):
            assert np.isfinite(np.kron((faces[1:] ** n - faces[:-1] ** n)
                                       / n, lm)).all()

    def test_largest_link_factor_case_overflows_one_edge(self):
        """In EDGE_OVERFLOWS' last case, of the radial conductances
        face_k * lm_a / gap_k (n = 2), only the last gap's at the larger
        link measure overflows; every other edge is finite."""
        faces = np.linspace(0.5, 1.0, 5)
        gaps = np.diff(0.5 * (faces[:-1] + faces[1:]))
        lm = np.array([1.0, 2.8e307])
        with np.errstate(over="ignore"):
            cond = faces[1:-1, None] * lm / gaps[:, None]
        assert np.isinf(cond).tolist() == [[False, False], [False, False],
                                           [False, True]]

    @pytest.mark.parametrize("command", ["cone", "heat", "green"])
    @pytest.mark.parametrize("doc", list(EDGE_OVERFLOWS.values()),
                             ids=list(EDGE_OVERFLOWS))
    def test_edge_overflow_exits_2(self, doc, command, tmp_path, capsys):
        from conelab.cli import main
        inp = tmp_path / "cone.json"
        inp.write_text(doc)
        out = tmp_path / "r.json"
        source = [] if command == "cone" else ["--source", "0"]
        assert main([command, "--in", str(inp), "--out", str(out),
                     *source]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "floating-point range" in err
        assert not out.exists()


DISTANCE_CONES = [
    flat_disc(r_max=3.0, radial=24, angular=16),
    build_cone(CircleLink(math.pi / 2), 0.0, 3.0, 20, angular_steps=6),
    build_cone(CircleLink(3 * math.pi), 0.0, 3.0, 20, angular_steps=24),
    build_cone(CircleLink(TWO_PI), 0.7, 3.0, 20, angular_steps=16),
    build_cone(sphere_link(4, 8), 0.2, 2.0, 12),
]
DISTANCE_IDS = ["apex", "wedge", "3pi", "r_min", "sphere"]


def gathered_distances(cone, v):
    """Distances from v by the per-vertex formula: the link distance of
    every vertex gathered, and its cosine taken, one vertex at a time."""
    r1 = cone.radii[v]
    r = cone.radii
    if v == cone.apex:
        return r.copy()
    dS = cone._link_dist[cone.link_index[v], cone.link_index].copy()
    ang = np.minimum(dS, math.pi)
    d = np.sqrt(np.maximum(
        r1 * r1 + r * r - 2.0 * r1 * r * np.cos(ang), 0.0))
    if cone.apex is not None:
        d[cone.apex] = r1
    d[v] = 0.0
    return d


def dijkstra_link_cone():
    """A cone over a ten-node cycle link without directions (Dijkstra
    distances), long enough that some link distances exceed pi."""
    n = 10
    lengths = tuple(0.5 + 0.05 * i for i in range(n))
    link = GraphLink((1.0,) * n, tuple((i, (i + 1) % n) for i in range(n)),
                     tuple(1.0 / x for x in lengths), lengths, dim=1)
    return build_cone(link, 0.3, 2.5, 16)


class TestDistancesFromTheProduct:
    """``distances_from`` broadcasts over (rings x link nodes); it must
    give the gathered per-vertex formula's bits."""

    @pytest.mark.parametrize("cone", DISTANCE_CONES + [dijkstra_link_cone()],
                             ids=DISTANCE_IDS + ["dijkstra"])
    def test_every_vertex(self, cone):
        for v in range(cone.n_vertices):
            assert (cone.distances_from(v).tobytes()
                    == gathered_distances(cone, v).tobytes())

    def test_dijkstra_link_reaches_past_pi(self):
        assert dijkstra_link_cone()._link_dist.max() > math.pi

    @pytest.mark.parametrize("nodes", [48, 96, 144])
    def test_bench_sized_cones(self, nodes):
        cone = build_cone(CircleLink(TWO_PI * nodes / 96), 0.0, 8.0, 192,
                          angular_steps=nodes)
        rng = np.random.default_rng(nodes)
        for v in rng.integers(0, cone.n_vertices, size=30).tolist():
            assert (cone.distances_from(v).tobytes()
                    == gathered_distances(cone, v).tobytes())


class TestDistances:
    def test_distance_from_apex_is_radius(self):
        cone = flat_disc()
        o = cone.base_point()
        d = cone.distances_from(o)
        assert np.allclose(d, cone.radii)

    def test_same_ray_distance(self):
        cone = flat_disc()
        same_ray = [v for v in range(cone.n_vertices)
                    if cone.link_index[v] == cone.link_index[1]]
        a, b = same_ray[1], same_ray[5]
        d = cone.distances_from(a)[b]
        assert d == pytest.approx(abs(cone.radii[a] - cone.radii[b]))

    def test_triangle_chord(self):
        # cosine law on the flat disc: points at equal radius, angle pi/2
        cone = build_cone(CircleLink(TWO_PI), 0.0, 2.0, 20, angular_steps=8)
        ring = [v for v in range(cone.n_vertices)
                if cone.ring_of[v] == 10]
        a = ring[0]
        b = ring[2]   # two steps of 2 pi / 8 = pi / 2
        r = cone.radii[a]
        assert cone.distances_from(a)[b] == pytest.approx(r * math.sqrt(2.0))


class TestBalls:
    def test_anchored_volume_quadratic(self):
        cone = flat_disc(r_max=4.0, radial=128, angular=64)
        o = cone.base_point()
        dr = 4.0 / 128
        for r in (0.5, 1.0, 2.0):
            bv = cone.ball_volume(o, r)
            assert not bv.clipped
            # whole radial cells are counted, so bracket by one cell width
            assert math.pi * (r - dr) ** 2 <= bv.volume
            assert bv.volume <= math.pi * (r + dr) ** 2

    def test_clipping_flag(self):
        cone = flat_disc(r_max=2.0)
        o = cone.base_point()
        assert cone.ball_volume(o, 3.0).clipped
        assert not cone.ball_volume(o, 1.0).clipped

    def test_classification(self):
        cone = flat_disc()
        o = cone.base_point()
        assert classify_ball(cone, o, 1.0) == "anchored"
        far = int(np.argmax(cone.radii))
        d = cone.distances_from(o)[far]
        assert classify_ball(cone, far, 0.5 * 0.2 * d, epsilon=0.2) == "remote"
        assert classify_ball(cone, far, d, epsilon=0.2) == "neither"

    @pytest.mark.parametrize("cone", DISTANCE_CONES, ids=DISTANCE_IDS)
    def test_classification_threshold_on_every_cone(self, cone):
        # 'remote' up to r = epsilon d(o, x) / 2 and 'neither' just above
        o = cone.base_point()
        d = cone.distances_from(o)
        for v in np.random.default_rng(11).integers(0, cone.n_vertices, 20):
            if v != o:
                r = 0.1 * d[v]
                assert classify_ball(cone, v, r, epsilon=0.2) == "remote"
                assert classify_ball(cone, v, r * (1 + 1e-9),
                                     epsilon=0.2) == "neither"

    def test_combine_parameter(self):
        assert combine_parameter(0.5, 0.5) == pytest.approx(0.5 * 0.25 / 8.0)
        with pytest.raises(DomainError):
            combine_parameter(2.0, 0.5)


class TestDoublingScan:
    def test_deterministic_and_bounded(self):
        cone = flat_disc(r_max=6.0, radial=96, angular=48)
        s1 = doubling_scan(cone, n_samples=40, r_bounds=(0.3, 0.8), seed=5)
        s2 = doubling_scan(cone, n_samples=40, r_bounds=(0.3, 0.8), seed=5)
        assert [r.ratio for r in s1.records] == [r.ratio for r in s2.records]
        assert s1.ratio_max == pytest.approx(s2.ratio_max)
        assert math.isfinite(s1.ratio_max)
        # flat plane doubles exactly by 4; the grid only roughens that
        assert s1.ratio_max < 8.0

    @pytest.mark.parametrize("n", [2.5, 2.0, True, np.float64(3.0)])
    def test_sample_count_must_be_an_integer(self, n):
        # 2.5 drew 3 records
        with pytest.raises(DomainError, match="n_samples must be an integer"):
            doubling_scan(flat_disc(r_max=2.0, radial=8, angular=8),
                          n_samples=n)

    def test_anchored_exact(self):
        cone = flat_disc(r_max=6.0, radial=192, angular=96)
        scan = doubling_scan(cone, n_samples=20, r_bounds=(0.5, 1.2),
                             seed=1, anchored=True)
        assert abs(scan.ratio_max - 4.0) < 0.6


def doubling_by_ball_volumes(cone, n_samples, r_bounds, seed, anchored):
    """``doubling_scan``'s records and clipped count, with both balls of a
    sample measured by ``ball_volume``."""
    rng = np.random.default_rng(seed)
    records, n_clipped, tries = [], 0, 0
    while len(records) < n_samples and tries < 50 * n_samples:
        tries += 1
        r = float(rng.uniform(*r_bounds))
        v = (cone.base_point() if anchored
             else int(rng.integers(0, cone.n_vertices)))
        b2 = cone.ball_volume(v, 2 * r)
        if b2.clipped:
            n_clipped += 1
            continue
        b1 = cone.ball_volume(v, r)
        records.append(DoublingRecord(v, r, b2.volume / b1.volume,
                                      classify_ball(cone, v, r)))
    return records, n_clipped


class TestDoublingMatchesBallVolumes:
    @pytest.mark.parametrize("r_min, anchored", [(0.0, False), (0.0, True),
                                                 (0.4, False)])
    def test_records_equal_and_one_distance_array_per_ball(
            self, r_min, anchored, monkeypatch):
        cone = build_cone(CircleLink(TWO_PI), r_min, 4.0, 48,
                          angular_steps=24)
        args = dict(n_samples=30, r_bounds=(0.3, 2.5), seed=3,
                    anchored=anchored)
        records, n_clipped = doubling_by_ball_volumes(cone, **args)
        calls = []
        distances = conelab.cones.DiscretizedCone.distances_from

        def counted(self, v):
            calls.append(v)
            return distances(self, v)

        monkeypatch.setattr(conelab.cones.DiscretizedCone, "distances_from",
                            counted)
        scan = doubling_scan(cone, **args)
        assert scan.records == records
        assert scan.n_clipped == n_clipped > 0
        # the base point's array once, which classifies every ball and
        # measures the anchored ones; one more array per kept non-anchored
        # sample, and none for a clipped sample
        if anchored:
            assert calls == [cone.base_point()]
        else:
            assert calls == [cone.base_point()] + [r.vertex for r in records]


class TestNetsAndCoverings:
    def test_separated_net_is_separated_and_covering(self):
        cone = flat_disc(r_max=4.0, radial=64, angular=48)
        region = [v for v in range(cone.n_vertices)
                  if 1.0 <= cone.radii[v] <= 2.0]
        s = 0.4
        net = separated_net(cone, region, s)
        for k, a in enumerate(net):
            d = cone.distances_from(a)
            for b in net[k + 1:]:
                assert d[b] >= s * (1 - 1e-9)
        # maximality: every region vertex is within s of some net point
        dmin = np.full(cone.n_vertices, np.inf)
        for a in net:
            dmin = np.minimum(dmin, cone.distances_from(a))
        assert max(dmin[v] for v in region) <= s * (1 + 1e-9)

    def test_net_covering_is_good(self):
        cone = flat_disc(r_max=4.0, radial=64, angular=48)
        region = [v for v in range(cone.n_vertices)
                  if 1.0 <= cone.radii[v] <= 2.0]
        cov = net_covering(cone, region, 0.35)
        rep = validate_covering(cov)
        assert rep.ok, rep.violations
        g = associated_graph(cov, rep)
        assert g.is_connected()

    def test_net_covering_measures_each_net_point_once(self, monkeypatch):
        cone = flat_disc(r_max=4.0, radial=64, angular=48)
        region = [v for v in range(cone.n_vertices)
                  if 1.0 <= cone.radii[v] <= 2.0]
        s = 0.35
        net = separated_net(cone, region, s)
        balls = [np.flatnonzero(cone.distances_from(x) <= s * (1 + 1e-12))
                 for x in net]
        calls = []
        measure = conelab.cones.DiscretizedCone.distances_from

        def counted(self, v):
            calls.append(v)
            return measure(self, v)

        monkeypatch.setattr(conelab.cones.DiscretizedCone, "distances_from",
                            counted)
        cov = net_covering(cone, region, s)
        assert calls == net
        assert len(cov.cells) == len(balls)
        # the buffer radius: 3 s plus the longest edge at a small ball
        in_U = np.zeros(cone.n_vertices, dtype=bool)
        in_U[np.concatenate(balls)] = True
        touch = in_U[cone.edges].any(axis=1)
        big = (3 * s + cone.edge_lengths[touch].max()) * (1 + 1e-12)
        for x, c, ball in zip(net, cov.cells, balls):
            np.testing.assert_array_equal(c.U, ball)
            np.testing.assert_array_equal(
                c.Ustar, np.flatnonzero(measure(cone, x) <= big))
            # U* and U# are one array, and U lies in it
            assert c.Ustar is c.Usharp
            assert np.isin(c.U, c.Ustar).all()

    def test_region_vertices_are_checked(self):
        cone = flat_disc(r_max=4.0, radial=8, angular=8)
        n = cone.n_vertices
        for region in ([-1, 3], [3, n], [n], [-n - 1]):
            with pytest.raises(DomainError, match="not a vertex"):
                net_covering(cone, region, 0.5)
            with pytest.raises(DomainError, match="not a vertex"):
                separated_net(cone, region, 0.5)

    def test_region_ids_must_be_integers(self):
        # int() truncated 0.9, 1.5, 2.7 to the vertices 0, 1, 2
        cone = flat_disc(r_max=4.0, radial=8, angular=8)
        for region in ([0.9, 1.5, 2.7], np.array([0.0, 1.0]),
                       [True, True], [1, True], ["0", "1"]):
            with pytest.raises(DomainError, match="integer vertex ids"):
                net_covering(cone, region, 0.5)
            with pytest.raises(DomainError, match="integer vertex ids"):
                separated_net(cone, region, 0.5)
        assert separated_net(cone, np.arange(3, dtype=np.uint8), 0.01) == [
            0, 1, 2]

    @pytest.mark.parametrize("s", [math.nan, 0.0, -0.5])
    def test_separation_must_be_positive(self, s):
        # a NaN passed s <= 0: the net was empty, and the covering failed
        # with "covering needs at least one cell"
        cone = flat_disc(r_max=4.0, radial=8, angular=8)
        with pytest.raises(DomainError, match="separation"):
            separated_net(cone, range(10), s)
        with pytest.raises(DomainError, match="separation"):
            net_covering(cone, range(10), s)

    def test_annular_covering(self):
        cone = build_cone(CircleLink(TWO_PI), 0.05, 40.0, 120,
                          angular_steps=24, spacing="geometric")
        cov = annular_covering(cone, R=1.0, kappa=2.0, levels=4)
        rep = validate_covering(cov)
        assert rep.ok, rep.violations
        assert rep.q1 <= 9
        g = associated_graph(cov, rep)
        # the nerve of a chain of annuli is a path
        assert g.is_connected()
        assert len(g.edges) == len(g) - 1


def _edge_table(edges, conductances):
    """The weighted edge set as bytes, independent of edge order and
    orientation."""
    e = np.sort(edges, axis=1)
    order = np.lexsort((conductances, e[:, 1], e[:, 0]))
    return e[order].tobytes() + conductances[order].tobytes()


class TestLinkAutomorphism:
    @pytest.mark.parametrize("r_min, spacing", [(0.0, "uniform"),
                                                (0.2, "uniform"),
                                                (0.2, "geometric")])
    def test_circle_rotation_is_a_cone_automorphism(self, r_min, spacing):
        A = 12
        cone = build_cone(CircleLink(TWO_PI), r_min, 3.0, 9, angular_steps=A,
                          spacing=spacing)
        sigma = cone.link_automorphism
        assert np.array_equal(sigma, (np.arange(A) + 1) % A)
        # (k, a) -> (k, sigma(a)) with the apex fixed, on vertex indices
        off = 0 if cone.apex is None else 1
        v = np.arange(cone.n_vertices)
        image = v.copy()
        image[off:] = off + cone.ring_of[off:] * A + sigma[
            cone.link_index[off:]]
        assert sorted(image) == list(v)
        assert (cone.measures[image].tobytes() == cone.measures.tobytes())
        assert (_edge_table(image[cone.edges], cone.conductances)
                == _edge_table(cone.edges, cone.conductances))

    def test_graph_link_has_none(self):
        cone = build_cone(sphere_link(4, 8), 0.5, 2.0, 6)
        assert cone.link_automorphism is None

    def test_perturbed_link_measure_fails_the_cone_check(self, monkeypatch):
        """A circle link keeps its rotation whatever its mesh holds; the
        cone-level check, run on every cell-constant call, refuses a mesh
        one ulp off the rotation."""
        def perturbed(link, angular_steps):
            measures, edges, cond, dist = _link_mesh(link, angular_steps)
            measures = measures.copy()
            measures[3] = np.nextafter(measures[3], 1.0)
            return measures, edges, cond, dist
        monkeypatch.setattr(conelab.cones, "_link_mesh", perturbed)
        A = 12
        cone = build_cone(CircleLink(TWO_PI), 0.2, 3.0, 9, angular_steps=A)
        assert np.array_equal(cone.link_automorphism, (np.arange(A) + 1) % A)
        cov = net_covering(cone, range(cone.n_vertices), 0.8)
        with pytest.raises(InternalFault, match="not an automorphism"):
            covering_cell_constant(cov, cone)


class TestRadiusField:
    def test_values_and_equivalence(self):
        cone = flat_disc(r_max=8.0, radial=128, angular=64)
        rf = radius_field(cone)
        assert np.allclose(rf.values, np.maximum(1.0, cone.radii))
        c = rf.equivalence_constant(cone)
        # rho = max(1, r) vs sqrt(1 + r^2): off by at most sqrt(2)
        assert 1.0 <= c <= math.sqrt(2.0) + 1e-9


class TestConstructionAndIO:
    def test_rejects_bad_ranges(self):
        with pytest.raises(DomainError):
            build_cone(CircleLink(TWO_PI), 2.0, 1.0, 10)
        with pytest.raises(DomainError):
            CircleLink(-1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            build_cone(CircleLink(TWO_PI), 0.0, bad, 10, angular_steps=8)
        with pytest.raises(DomainError):
            build_cone(CircleLink(TWO_PI), bad, 1.0, 10, angular_steps=8)
        with pytest.raises(DomainError):
            CircleLink(bad)
        good = dict(measures=(1.0, 1.0), edges=((0, 1),),
                    conductances=(1.0,), lengths=(1.0,), dim=1)
        for field in ("measures", "conductances", "lengths"):
            with pytest.raises(DomainError):
                GraphLink(**dict(good, **{field: (bad,) * len(good[field])}))
        with pytest.raises(DomainError):
            GraphLink(**good, directions=((1.0, 0.0), (bad, 1.0)))

    def test_rejects_geometry_out_of_float_range(self):
        # the link spectrum ~ length^-2 underflowed: heat lost its mass
        with pytest.raises(DomainError, match="circle length"):
            CircleLink(1e101)
        # squared distances up to 4 r_max^2 overflowed
        with pytest.raises(DomainError, match="2 r_max"):
            build_cone(CircleLink(TWO_PI), 0.0, 1e200, 4, angular_steps=4)
        # shell measures ~ r^3 overflowed with a RuntimeWarning
        with pytest.raises(DomainError, match="floating-point range"):
            build_cone(sphere_link(3, 4), 1.0, 1e120, 4)
        with pytest.raises(DomainError, match="floating-point range"):
            build_cone(sphere_link(3, 4), 1.0, 1e120, 4, spacing="geometric")

    def test_rejects_negative_link_conductance(self):
        # an indefinite link Laplacian made the heat kernel lose mass
        with pytest.raises(DomainError):
            GraphLink((1.0, 1.0, 1.0), ((0, 1), (1, 2), (2, 0)),
                      (1.0, -5.0, 1.0), (1.0, 1.0, 1.0))

    @pytest.mark.parametrize("length", [0.0, -1.0])
    def test_rejects_non_positive_link_length(self, length):
        # a negative length kept the link's shortest paths from ending
        with pytest.raises(DomainError, match="lengths must be positive"):
            GraphLink((1.0, 1.0), ((0, 1),), (1.0,), (length,))

    def test_graph_link_cone(self):
        # two segments of length 1 joined at both ends: a circle of length 2
        link = GraphLink((1.0, 1.0), ((0, 1), (1, 0)), (1.0, 1.0),
                         (1.0, 1.0), dim=1)
        cone = build_cone(link, 0.5, 2.0, 12)
        assert cone.total_measure == pytest.approx(2.0 * (4.0 - 0.25) / 2.0)

    def test_circle_link_dimension_is_fixed(self):
        # dim=3 built a "4-dimensional" cone over a circle
        assert CircleLink(TWO_PI).dim == 1
        with pytest.raises(TypeError):
            CircleLink(TWO_PI, dim=3)

    def test_json_round_trip(self):
        doc = ('{"link": {"kind": "circle", "length": 6.283185307179586},'
               ' "r_min": 0.0, "r_max": 2.0, "radial_steps": 20,'
               ' "angular_steps": 16}')
        cone = cone_from_json(doc)
        assert cone.total_measure == pytest.approx(math.pi * 4.0)

    def test_angular_steps_only_for_circle_links(self):
        # a sphere cone accepted angular_steps = 999 and ignored it
        with pytest.raises(DomainError, match="circle links only"):
            build_cone(sphere_link(4, 6), 0.1, 2.0, 8, angular_steps=999)
        doc = {"link": {"kind": "sphere", "n_theta": 4, "n_phi": 6},
               "r_min": 0.1, "r_max": 2.0, "radial_steps": 8}
        assert cone_from_json(json.dumps(doc)).link_nodes == 24
        with pytest.raises(DomainError, match="circle links only"):
            cone_from_json(json.dumps(dict(doc, angular_steps=999)))

    @pytest.mark.parametrize("steps", [{"radial_steps": 24.9},
                                       {"angular_steps": 16.7},
                                       {"radial_steps": True},
                                       {"angular_steps": 16.0}])
    def test_step_counts_must_be_integers(self, steps):
        # 24.9 built 24 rings and 16.7 built 16 link nodes
        args = {"radial_steps": 24, "angular_steps": 16, **steps}
        with pytest.raises(DomainError, match="must be an integer"):
            build_cone(CircleLink(TWO_PI), 0.0, 3.0, **args)
        doc = {"link": {"kind": "circle", "length": TWO_PI},
               "r_min": 0.0, "r_max": 3.0, **args}
        with pytest.raises(DomainError, match="must be an integer"):
            cone_from_json(json.dumps(doc))

    @pytest.mark.parametrize("link", [
        {"kind": "sphere", "n_theta": 4.9, "n_phi": 6.7},
        {"kind": "sphere", "n_theta": 4, "n_phi": 6.0},
        {"kind": "sphere", "n_theta": True, "n_phi": 6},
        {"kind": "graph", "dim": 2.5},
        {"kind": "graph", "dim": True},
    ], ids=["sphere-floats", "sphere-integral-float", "sphere-bool",
            "graph-float", "graph-bool"])
    def test_link_integers_must_be_integers(self, link):
        # {"n_theta": 4.9, "n_phi": 6.7} built a 24-node link
        if link["kind"] == "graph":
            link = dict(link, nodes=[{"measure": 1.0}, {"measure": 1.0}],
                        edges=[{"i": 0, "j": 1, "length": 1.0}])
            with pytest.raises(DomainError, match="dim must be an integer"):
                GraphLink((1.0, 1.0), ((0, 1),), (1.0,), (1.0,),
                          dim=link["dim"])
        else:
            with pytest.raises(DomainError, match="must be an integer"):
                sphere_link(link["n_theta"], link["n_phi"])
        doc = {"link": link, "r_min": 0.1, "r_max": 2.0, "radial_steps": 8}
        with pytest.raises(DomainError, match="must be an integer"):
            cone_from_json(json.dumps(doc))

    def test_json_malformed(self):
        with pytest.raises(DomainError):
            cone_from_json("{")
        with pytest.raises(DomainError):
            cone_from_json('{"link": {"kind": "torus"}, "r_min": 0,'
                           ' "r_max": 1, "radial_steps": 4}')
