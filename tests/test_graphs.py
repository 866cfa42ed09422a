import ast
import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from scipy.sparse.csgraph import connected_components

import conelab.graphs
from conelab import (CapacityError, DomainError, InternalFault,
                     WeightedGraph, cheeger_constant, cheeger_gap_report,
                     degree_bound_m0, isoperimetric_constant, spectral_gap)
from conelab.graphs import (_dense_laplacian, _subset_chunks,
                            dirichlet_laplacian, graph_from_json,
                            graph_to_json, random_connected_graph,
                            subset_cut)


def k2():
    return WeightedGraph([(0, 1.0), (1, 1.0)], [(0, 1)])


def p3():
    return WeightedGraph([(0, 1.0), (1, 1.0), (2, 1.0)], [(0, 1), (1, 2)])


def cycle(n, m=1.0):
    return WeightedGraph([(i, m) for i in range(n)],
                         [(i, (i + 1) % n) for i in range(n)])


def random_graphs(seed, count, max_vertices=14):
    """Seeded graphs on 1..max_vertices vertices, connected or not: edge
    densities from none to nearly complete, and every other graph with an
    edge at its top vertex."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, max_vertices + 1))
        p = (0.0, 0.15, 0.5, 0.9)[k % 4]
        edges = {(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < p}
        if n > 1 and k % 2:
            edges.add((int(rng.integers(0, n - 1)), n - 1))
        yield WeightedGraph(enumerate(rng.uniform(0.1, 10.0, size=n)),
                            sorted(edges))


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


def loop_boundary(g, subset):
    """Boundary measure of ``subset`` by a loop over the edges, summed one
    edge after another in edge order."""
    pos = {g.index(v) for v in subset}
    total = 0.0
    for (a, b), w in zip(g.edge_pos.tolist(), g.edge_measures.tolist()):
        if (a in pos) != (b in pos):
            total += w
    return total


class TestSubsetCut:
    def test_boundary_equals_edge_loop_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for g in random_graphs(4, 80):
            for subset in ([], list(g.ids)) + tuple(
                    [v for v in g.ids if rng.random() < p]
                    for p in (0.2, 0.5, 0.8)):
                got = subset_cut(g, subset).boundary_measure
                assert got.hex() == loop_boundary(g, subset).hex()


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


class TestDenseSpectralGap:
    """Graphs up to DENSE_EIG_LIMIT, solved by LAPACK."""

    @pytest.mark.parametrize("eps, ok", [(1e-290, True), (1e-300, True),
                                         (1e-303, False), (1e-305, False)])
    def test_null_eigenvalue_guards_the_gap(self, eps, ok):
        """Unit path with vertex 1 of measure eps: the gap tends to
        (3 - sqrt 3)/2, and is refused once the null eigenvalue shows it
        lost to rounding."""
        g = WeightedGraph([(0, 1.0), (1, eps), (2, 1.0), (3, 1.0)],
                          [(0, 1), (1, 2), (2, 3)])
        if ok:
            assert spectral_gap(g) == pytest.approx(
                (3.0 - math.sqrt(3.0)) / 2.0, rel=1e-13)
        else:
            with pytest.raises(CapacityError, match="rounding"):
                spectral_gap(g)

    @pytest.mark.parametrize("n", [100, 150])
    def test_path_oracle(self, n):
        """The gap of a path, 4 sin^2(pi/2n), up to the dense route's cut.
        The null eigenvalue's share of the gap grows with n: about 1e-13
        here, 1e-9 at n = 3000."""
        assert n <= conelab.graphs.DENSE_EIG_LIMIT
        exact = 4.0 * math.sin(math.pi / (2 * n)) ** 2
        assert spectral_gap(path(n)) == pytest.approx(exact, rel=1e-8)

    def test_varied_measures_match_lanczos(self, monkeypatch):
        """Measures over 4 decades on a 500-vertex path: the null
        eigenvalue reads about 8e-9 of the gap, and the gap agrees with
        the residual-checked Lanczos solve."""
        m = 10.0 ** np.random.default_rng(3).uniform(-2.0, 2.0, size=500)
        g = WeightedGraph(enumerate(m), [(i, i + 1) for i in range(499)])
        monkeypatch.setattr(conelab.graphs, "DENSE_EIG_LIMIT", len(g))
        dense = spectral_gap(g)
        monkeypatch.setattr(conelab.graphs, "DENSE_EIG_LIMIT", len(g) - 1)
        assert dense == pytest.approx(spectral_gap(g), rel=1e-6)

    def test_matches_the_scipy_pencil(self):
        """600 seeded connected graphs on 2..150 vertices: the gap of
        M^-1/2 L M^-1/2 agrees with scipy's generalized solve of (L, M).
        To 1e-13 relative, or to n eps times the largest eigenvalue where
        the gap is that much smaller: each solve is backward stable, so
        either may be off by that much (against a 40-digit reference the
        numpy gap was the closer one on the graphs beyond 1e-13)."""
        rng = np.random.default_rng(32)
        sizes = set()
        for _ in range(600):
            g = random_connected_graph(rng, conelab.graphs.DENSE_EIG_LIMIT)
            n = len(g)
            sizes.add(n)
            L = _dense_laplacian(n, g.edge_pos, g.edge_measures)
            w = scipy.linalg.eigh(L, np.diag(g.measures), eigvals_only=True)
            assert spectral_gap(g) == pytest.approx(
                w[1], rel=1e-13, abs=n * np.finfo(float).eps * w[-1])
        assert {2, conelab.graphs.DENSE_EIG_LIMIT} <= sizes

    def test_connected_graph_never_reads_gap_zero(self, monkeypatch):
        """Measures over 16 decades on a connected path: rounding makes the
        computed gap negative, which must not be reported as the 0 of a
        disconnected graph."""
        m = 10.0 ** np.random.default_rng(1).uniform(-8.0, 8.0, size=200)
        g = WeightedGraph(enumerate(m), [(i, i + 1) for i in range(199)])
        assert g.is_connected()
        monkeypatch.setattr(conelab.graphs, "DENSE_EIG_LIMIT", len(g))
        with pytest.raises(CapacityError, match="rounding"):
            spectral_gap(g)


def grid(rows, cols, measures):
    """rows x cols grid graph, vertex r * cols + c, with the given measures."""
    idx = np.arange(rows * cols).reshape(rows, cols)
    edges = np.r_[np.c_[idx[:-1].ravel(), idx[1:].ravel()],
                  np.c_[idx[:, :-1].ravel(), idx[:, 1:].ravel()]]
    return WeightedGraph(enumerate(measures), map(tuple, edges.tolist()))


class TestSparseSpectralGap:
    """Graphs above DENSE_EIG_LIMIT: the gap is 1 / Lambda(V, V), the
    Poincare constant of the whole vertex set."""

    @pytest.mark.parametrize("n", [1000, 3001, 5000])
    def test_path_oracle(self, n):
        assert n > conelab.graphs.DENSE_EIG_LIMIT
        # 2 - 2 cos(pi / n), without its cancellation
        exact = 4.0 * math.sin(math.pi / (2 * n)) ** 2
        assert spectral_gap(path(n)) == pytest.approx(exact, rel=1e-12)

    def test_matches_dense_with_varied_measures(self, monkeypatch):
        g = random_connected_graph(np.random.default_rng(5), 60)
        dense = spectral_gap(g)
        monkeypatch.setattr(conelab.graphs, "DENSE_EIG_LIMIT", len(g) - 1)
        assert spectral_gap(g) == pytest.approx(dense, rel=1e-9)

    def test_grid_matches_dense_eigh(self):
        # the pencil (L, M) with M diagonal is M^-1/2 L M^-1/2, solved by
        # LAPACK in place
        g = grid(60, 60, np.random.default_rng(3).uniform(0.5, 2.0, 3600))
        assert len(g) > conelab.graphs.DENSE_EIG_LIMIT
        gap = spectral_gap(g)
        s = 1.0 / np.sqrt(g.measures)
        A = _dense_laplacian(len(g), g.edge_pos, g.edge_measures)
        A *= s
        A *= s[:, None]
        (want,) = scipy.linalg.eigh(A, eigvals_only=True, overwrite_a=True,
                                    subset_by_index=[1, 1])
        assert gap == pytest.approx(want, rel=1e-11)

    def test_disconnected_is_zero(self):
        g = path(3001)
        assert spectral_gap(WeightedGraph(zip(g.ids, g.measures),
                                          g.edges[1:])) == 0.0

    def test_no_convergence_raises(self, monkeypatch):
        eigsh = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            lambda *a, **k: eigsh(*a, maxiter=1, ncv=3, **k))
        with pytest.raises(CapacityError):
            spectral_gap(path(5000))

    def test_large_residual_raises(self, monkeypatch):
        # the Poincare route's contract: an eigenpair off its pencil is a
        # fault of the solver, not of the input
        eigsh = scipy.sparse.linalg.eigsh

        def off_by_1e3(*a, **k):
            vals, vecs = eigsh(*a, **k)
            return vals * (1 + 1e-3), vecs
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", off_by_1e3)
        with pytest.raises(InternalFault):
            spectral_gap(path(3001))


def test_one_sparse_eigen_solver():
    """ARPACK has one call site: ``eigsh`` is named only inside
    spectral.poincare_constant, and graphs imports no scipy.sparse.linalg
    (its large gaps go through that function) and no scipy.linalg (its
    dense gaps are numpy's)."""
    def walk(node, where):
        """(enclosing function, node) for every node below ``node``."""
        for child in ast.iter_child_nodes(node):
            yield where, child
            yield from walk(child, child.name if isinstance(
                child, ast.FunctionDef) else where)

    def name(node):
        return (node.name if isinstance(node, ast.alias) else
                node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else None)

    src = pathlib.Path(conelab.__file__).parent
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    sites = {(module, where) for module, tree in trees.items()
             for where, node in walk(tree, None) if name(node) == "eigsh"}
    assert sites == {("spectral", "poincare_constant")}
    imported = set()
    for node in ast.walk(trees["graphs"]):
        if isinstance(node, ast.Import):
            imported.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(f"{node.module}.{a.name}" for a in node.names)
    assert not [m for m in imported if m.startswith(
        ("scipy.linalg", "scipy.sparse.linalg"))]


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

    def test_is_connected_agrees_with_connected_components(self):
        seen = set()
        for g in random_graphs(3, 400, max_vertices=20):
            L = dirichlet_laplacian(len(g), g.edge_pos, g.edge_measures)
            want = connected_components(L, directed=False)[0] == 1
            assert g.is_connected() == want
            seen.add(want)
        assert seen == {False, True}

    def test_dense_equals_sparse(self):
        # scipy sums the duplicate entries of a row in input order while
        # the row has at most 16 stored entries (degree <= 8); above that
        # its sort is unstable and the diagonal may differ in the last bit
        checked = 0
        for g in random_graphs(4, 600, max_vertices=30):
            args = (len(g), g.edge_pos, g.edge_measures)
            dense = _dense_laplacian(*args)
            sparse = dirichlet_laplacian(*args).toarray()
            if np.bincount(g.edge_pos.ravel(), minlength=len(g)).max() <= 8:
                assert dense.tobytes() == sparse.tobytes()
                checked += 1
            else:
                assert np.allclose(dense, sparse, rtol=1e-14, atol=0.0)
        assert checked >= 300


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

    @pytest.mark.parametrize("vertices, edges", [
        ([([0], 1.0)], []),
        ([(0, 1.0), (1, 1.0)], [([0], 1)]),
    ])
    def test_rejects_unhashable_ids(self, vertices, edges):
        with pytest.raises(DomainError, match="hashable"):
            WeightedGraph(vertices, edges)

    @pytest.mark.parametrize("measure", [None, [1.0], "x", True, "2.5"])
    def test_rejects_non_numeric_measure(self, measure):
        with pytest.raises(DomainError, match="measure"):
            WeightedGraph([(0, measure)], [])

    def test_rejects_overflowing_totals(self):
        # connected, each measure finite, but m(V) overflows
        with pytest.raises(DomainError, match="must be finite"):
            WeightedGraph([(0, 1e308), (1, 1e308)], [(0, 1)])
        # m(V) finite, but the edges at the heavy center sum to inf
        with pytest.raises(DomainError, match="must be finite"):
            WeightedGraph([(0, 1e308)] + [(i, 1e307) for i in range(1, 6)],
                          [(0, i) for i in range(1, 6)])

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


def enum_tables_by_bits(g):
    """Subset and boundary measures by one pass over the masks per vertex
    and per edge, indexed by bitmask - 1."""
    n = len(g)
    masks = np.arange(1, 1 << n, dtype=np.int64)
    m_sub = np.zeros(len(masks))
    for pos in range(n):
        m_sub += np.where((masks >> pos) & 1 == 1, g.measures[pos], 0.0)
    bnd = np.zeros(len(masks))
    w = g.edge_measures
    for k in range(len(g.edge_pos)):
        a, b = g.edge_pos[k]
        cut = ((masks >> int(a)) ^ (masks >> int(b))) & 1
        bnd += np.where(cut == 1, w[k], 0.0)
    return m_sub, bnd


def assert_tables_match_reference(g):
    """Every yielded chunk equals the reference at its bitmasks, bit for
    bit, and the chunks hold every nonempty subset exactly once."""
    want_m, want_b = enum_tables_by_bits(g)
    seen = np.zeros(len(want_m), dtype=int)
    for first, m, b in _subset_chunks(g, 22):
        at = slice(first - 1, first - 1 + len(m))
        assert m.tobytes() == want_m[at].tobytes()
        assert b.tobytes() == want_b[at].tobytes()
        seen[at] += 1
    assert np.all(seen == 1)


def ring_with_chords(n, step, measures):
    return WeightedGraph(enumerate(measures),
                         [(i, (i + 1) % n) for i in range(n)]
                         + [(i, (i + step) % n) for i in range(n)])


class TestEnumTables:
    @pytest.mark.parametrize("seed", range(12))
    def test_bitwise_equal_to_per_bit_sums(self, seed):
        assert_tables_match_reference(random_connected_graph(
            np.random.default_rng(seed), max_vertices=16))

    def test_bitwise_equal_on_any_graph(self):
        for g in random_graphs(2, 520):
            assert_tables_match_reference(g)

    @pytest.mark.parametrize("n", [17, 18])
    def test_reductions_equal_reference_across_chunks(self, n):
        """2^(n-1) > _CHUNK, so both halves come in several chunks, and
        some edges have one or both ends above the chunk's bits."""
        assert 1 << (n - 1) > conelab.graphs._CHUNK
        g = ring_with_chords(n, 5, np.random.default_rng(n).uniform(
            0.1, 10.0, size=n))
        assert_tables_match_reference(g)
        m_sub, bnd = enum_tables_by_bits(g)
        ok = m_sub <= g.total_measure / 2.0 * (1 + 1e-12)
        assert cheeger_constant(g) == np.min(bnd[ok] / m_sub[ok])
        assert isoperimetric_constant(g, mode="neumann") == np.max(
            m_sub[ok] / bnd[ok])

    @pytest.mark.parametrize("n", [20, 22])
    def test_peak_memory_does_not_grow_with_n(self, n):
        """The Cheeger scan holds a few tables of _CHUNK floats at a time
        (2^n floats are 8 and 32 MB here), and nothing of size 2^n."""
        g = ring_with_chords(n, 7, np.linspace(0.5, 2.0, n))
        tracemalloc.start()
        try:
            h = cheeger_constant(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < h < math.inf
        assert peak < 12 * 8 * conelab.graphs._CHUNK

    def test_fixed_shapes(self):
        m = np.random.default_rng(7).uniform(0.1, 10.0, size=16)
        for g in (WeightedGraph([(0, 0.3)]),
                  WeightedGraph([(i, 0.1 * (i + 1)) for i in range(5)]),
                  ring_with_chords(16, 5, m)):
            assert_tables_match_reference(g)
