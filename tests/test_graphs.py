import json
import math

import numpy as np
import pytest

import conelab.graphs
from conelab import (CapacityError, DomainError, WeightedGraph,
                     cheeger_constant, cheeger_gap_report, degree_bound_m0,
                     isoperimetric_constant, spectral_gap)
from conelab.graphs import (dirichlet_laplacian, graph_from_json,
                            graph_to_json, random_connected_graph, subset_cut)


def k2():
    return WeightedGraph([(0, 1.0), (1, 1.0)], [(0, 1)])


def p3():
    return WeightedGraph([(0, 1.0), (1, 1.0), (2, 1.0)], [(0, 1), (1, 2)])


def cycle(n, m=1.0):
    return WeightedGraph([(i, m) for i in range(n)],
                         [(i, (i + 1) % n) for i in range(n)])


class TestFrozenExamples:
    def test_k2(self):
        g = k2()
        assert cheeger_constant(g) == pytest.approx(1.0)
        assert spectral_gap(g) == pytest.approx(2.0)
        assert degree_bound_m0(g) == pytest.approx(1.0)
        rep = cheeger_gap_report(g)
        assert rep.lower_ok
        assert not rep.upper_ok  # gap 2 > h = 1: one-sided failure expected

    def test_path3(self):
        g = p3()
        assert cheeger_constant(g) == pytest.approx(1.0)
        assert spectral_gap(g) == pytest.approx(1.0)
        assert degree_bound_m0(g) == pytest.approx(2.0)
        rep = cheeger_gap_report(g)
        assert rep.lower_ok and rep.upper_ok

    def test_cycle6(self):
        g = cycle(6)
        # best cut: a contiguous arc of three vertices, boundary two edges
        assert cheeger_constant(g) == pytest.approx(2.0 / 3.0)
        assert spectral_gap(g) == pytest.approx(2.0 - 2.0 * math.cos(math.pi / 3))

    def test_star_m0(self):
        k = 5
        g = WeightedGraph([(i, 1.0) for i in range(k + 1)],
                          [(0, i) for i in range(1, k + 1)])
        assert degree_bound_m0(g) == pytest.approx(k)


class TestEdgeMeasure:
    def test_edge_measure_is_max_of_endpoints(self):
        g = WeightedGraph([(0, 2.0), (1, 5.0)], [(0, 1)])
        assert g.edge_measures[0] == pytest.approx(5.0)
        cut = subset_cut(g, [0])
        assert cut.boundary_measure == pytest.approx(5.0)
        assert cut.interior_measure == pytest.approx(2.0)


class TestInvariants:
    def test_lower_bound_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            g = random_connected_graph(rng)
            rep = cheeger_gap_report(g)
            assert rep.lower_ok
            assert rep.h ** 2 / (8.0 * rep.m0) <= rep.gap * (1 + 1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            g = random_connected_graph(rng, max_vertices=8)
            gs = g.scaled(3.7)
            assert cheeger_constant(gs) == pytest.approx(cheeger_constant(g))
            assert spectral_gap(gs) == pytest.approx(spectral_gap(g))
            assert degree_bound_m0(gs) == pytest.approx(degree_bound_m0(g))

    def test_degree_bound_matches_edge_loop(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = random_connected_graph(rng, 12)
            tot = np.zeros(len(g))
            for (a, b), w in zip(g.edge_pos, g.edge_measures):
                tot[a] += w
                tot[b] += w
            assert degree_bound_m0(g) == float(np.max(tot / g.measures))

    def test_disconnected(self):
        g = WeightedGraph([(0, 1.0), (1, 1.0), (2, 1.0)], [(0, 1)])
        assert spectral_gap(g) == 0.0
        assert cheeger_constant(g) == 0.0

    def test_single_vertex_gap_infinite(self):
        g = WeightedGraph([(0, 1.0)], [])
        assert spectral_gap(g) == math.inf

    def test_capacity_cap(self):
        g = cycle(6)
        with pytest.raises(CapacityError):
            cheeger_constant(g, cap=5)


def path(n):
    return WeightedGraph([(i, 1.0) for i in range(n)],
                         [(i, i + 1) for i in range(n - 1)])


class TestSparseSpectralGap:
    """Graphs above DENSE_EIG_LIMIT, solved by shift-invert Lanczos."""

    @pytest.mark.parametrize("n", [3001, 5000])
    def test_path_oracle(self, n):
        assert n > conelab.graphs.DENSE_EIG_LIMIT
        exact = 2.0 - 2.0 * math.cos(math.pi / n)
        assert spectral_gap(path(n)) == pytest.approx(exact, rel=1e-6)

    def test_matches_dense_with_varied_measures(self, monkeypatch):
        g = random_connected_graph(np.random.default_rng(5), 60)
        dense = spectral_gap(g)
        monkeypatch.setattr(conelab.graphs, "DENSE_EIG_LIMIT", len(g) - 1)
        assert spectral_gap(g) == pytest.approx(dense, rel=1e-9)

    def test_no_convergence_raises(self, monkeypatch):
        eigsh = conelab.graphs.eigsh
        monkeypatch.setattr(conelab.graphs, "eigsh",
                            lambda *a, **k: eigsh(*a, maxiter=1, ncv=3, **k))
        with pytest.raises(CapacityError):
            spectral_gap(path(5000))

    def test_large_residual_raises(self, monkeypatch):
        eigsh = conelab.graphs.eigsh

        def off_by_1e3(*a, **k):
            vals, vecs = eigsh(*a, **k)
            return vals * (1 + 1e-3), vecs
        monkeypatch.setattr(conelab.graphs, "eigsh", off_by_1e3)
        with pytest.raises(CapacityError):
            spectral_gap(path(3001))


class TestDirichletLaplacian:
    def test_form_and_constants(self):
        rng = np.random.default_rng(7)
        edges = np.array([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 1)])
        w = rng.uniform(0.1, 5.0, size=len(edges))
        L = dirichlet_laplacian(5, edges, w)
        assert np.allclose(L @ np.ones(5), 0.0, atol=1e-12)
        f = rng.standard_normal(5)
        want = sum(wk * (f[i] - f[j]) ** 2 for (i, j), wk in zip(edges, w))
        assert f @ (L @ f) == pytest.approx(want, rel=1e-12)

    def test_isolated_vertex_disconnects(self):
        g = WeightedGraph([(0, 1.0), (1, 2.0), (2, 1.0), (3, 0.5)],
                          [(0, 1), (1, 2), (2, 0)])
        assert not g.is_connected()
        assert g.with_edges([(2, 3)]).is_connected()


class TestIsoperimetric:
    def test_neumann_is_reciprocal_cheeger(self):
        g = cycle(6)
        assert isoperimetric_constant(g, mode="neumann") == pytest.approx(
            1.0 / cheeger_constant(g))

    def test_dirichlet_whole_family_infinite(self):
        # the full vertex set has empty boundary
        assert isoperimetric_constant(p3(), mode="dirichlet") == math.inf

    def test_dirichlet_restricted_family(self):
        g = p3()
        val = isoperimetric_constant(g, nu=2.0, mode="dirichlet",
                                     subsets=[[0], [0, 1]])
        # {0}: 1^(1/2)/1 = 1 ; {0,1}: 2^(1/2)/1
        assert val == pytest.approx(math.sqrt(2.0))

    def test_bad_nu(self):
        with pytest.raises(DomainError):
            isoperimetric_constant(p3(), nu=1.0)


class TestValidationAndIO:
    def test_rejects_nonpositive_measure(self):
        with pytest.raises(DomainError):
            WeightedGraph([(0, 0.0)], [])

    def test_rejects_unknown_edge_endpoint(self):
        with pytest.raises(DomainError):
            WeightedGraph([(0, 1.0)], [(0, 1)])

    def test_json_round_trip(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(rng)
        g2 = graph_from_json(graph_to_json(g))
        assert list(g2.ids) == list(g.ids)
        assert np.allclose(g2.measures, g.measures)
        assert sorted(map(tuple, g2.edges)) == sorted(map(tuple, g.edges))
        assert spectral_gap(g2) == pytest.approx(spectral_gap(g))

    def test_malformed_json(self):
        with pytest.raises(DomainError):
            graph_from_json("{not json")
