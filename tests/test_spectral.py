import gc
import math
import tracemalloc
import types
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st
from scipy.sparse.linalg import LinearOperator, splu

import conelab.spectral
from conelab import (CapacityError, Cell, CircleLink, DomainError,
                     GoodCovering, InternalFault, PreconditionError,
                     annular_covering, build_cone, covering_cell_constant,
                     gaussian_fit, green_by_time_integration, greens_function,
                     heat_kernel, indicial_spectrum, net_covering,
                     poincare_constant, scale_invariant_poincare_scan,
                     sphere_link)
from conelab.graphs import _dense_laplacian, dirichlet_laplacian
from conelab.spectral import HeatKernelSample

TWO_PI = 2.0 * math.pi


def path_net(n, h):
    """Uniform finite-volume discretization of the unit interval."""
    net = types.SimpleNamespace()
    net.measures = [h] * n
    net.edges = [(i, i + 1) for i in range(n - 1)]
    net.conductances = [1.0 / h] * (n - 1)
    return net


def cancelling_triangle_net(n, seed=None):
    """path_net(n, 1) with a triangle whose spanning-tree weights 1 - 1/2 -
    1/2 cancel, which makes the grounded energy form exactly singular; with
    a seed, its vertices renumbered at random."""
    net = path_net(n, 1.0)
    net.edges = [(0, 2)] + net.edges
    net.conductances = [-0.5, 1.0, 1.0] + net.conductances[2:]
    if seed is not None:
        perm = np.random.default_rng(seed).permutation(n)
        net.edges = [(int(perm[a]), int(perm[b])) for a, b in net.edges]
    return net


class TestPoincare:
    def test_unit_interval_oracle(self):
        # best constant for int |f - mean|^2 <= C int |f'|^2 on [0,1] is 1/pi^2
        net = path_net(400, 1.0 / 400)
        lam = poincare_constant(net, range(400), range(400))
        assert lam == pytest.approx(1.0 / math.pi ** 2, rel=1e-4)

    def test_scaling_quadratic(self):
        # on [0, L] the constant is L^2 / pi^2
        n, L = 300, 2.5
        net = path_net(n, L / n)
        lam = poincare_constant(net, range(n), range(n))
        assert lam == pytest.approx(L * L / math.pi ** 2, rel=1e-3)

    @pytest.mark.parametrize("n", [3, 10, 50, 300])
    def test_matches_schur_reference(self, n):
        # a path with random chords, measures and conductances; U' is the
        # whole net and U two thirds of it, so the Schur form has work
        rng = np.random.default_rng(n)
        chords = rng.integers(0, n, size=(n // 2, 2))
        chords = chords[chords[:, 0] != chords[:, 1]]
        net = types.SimpleNamespace(
            measures=rng.uniform(0.5, 2.0, n),
            edges=np.vstack([np.c_[np.arange(n - 1), np.arange(1, n)],
                             chords]))
        net.conductances = rng.uniform(0.5, 2.0, len(net.edges))
        U = np.sort(rng.permutation(n)[:max(2, 2 * n // 3)])
        assert (poincare_constant(net, U, range(n))
                == pytest.approx(schur_reference(net, U, range(n)),
                                 rel=1e-9))

    def test_two_vertex_pencil(self):
        # U = U' = {0, 1}, measures 1 and 3, conductance 2: Q(f) = 3/4 d^2
        # and the energy 2 d^2 with d = f_0 - f_1, so the constant is 3/8
        net = types.SimpleNamespace(measures=[1.0, 3.0], edges=[(0, 1)],
                                    conductances=[2.0])
        assert poincare_constant(net, [0, 1], [0, 1]) == pytest.approx(
            0.375, rel=1e-12)

    @pytest.mark.parametrize("n", [300, 1000])
    def test_components_off_u_are_grounded(self, n):
        # two zero edges cut the path into thirds, U in the middle one: the
        # constant is that of U's third alone
        k = n // 3
        net = path_net(n, 1.0 / n)
        net.conductances[k - 1] = 0.0
        net.conductances[2 * k - 1] = 0.0
        alone = path_net(k, 1.0 / n)
        U = range(k + 5, k + 50)
        assert (poincare_constant(net, U, range(n))
                == pytest.approx(poincare_constant(alone, range(5, 50),
                                                   range(k)), rel=1e-12))

    def test_no_dense_eigen_solve(self, monkeypatch):
        # every pencil, however small, is solved by Lanczos
        calls = []
        eigh = scipy.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return eigh(*args, **kwargs)
        monkeypatch.setattr(scipy.linalg, "eigh", counted)
        for n in (3, 10, 399):
            net = path_net(n, 1.0 / n)
            poincare_constant(net, range(n), range(n))
            poincare_constant(net, range(n // 2 + 1), range(n))
        assert calls == []

    def test_larger_pair_does_no_worse(self):
        n = 200
        net = path_net(n, 1.0 / n)
        U = range(50, 150)
        assert (poincare_constant(net, U, range(n))
                <= poincare_constant(net, U, U) * (1 + 1e-9))

    def test_disconnected_pair_infinite(self):
        net = path_net(6, 1.0)
        net.edges = [(0, 1), (3, 4)]
        net.conductances = [1.0, 1.0]
        assert poincare_constant(net, [0, 1, 3, 4], [0, 1, 3, 4]) == math.inf

    @pytest.mark.parametrize("n", [300, 500])
    def test_zero_conductance_splits(self, n):
        # the zero edge splits the path into n - 49 and 49 vertices
        net = path_net(n, 1.0 / n)
        net.conductances[n - 50] = 0.0
        assert poincare_constant(net, range(n), range(n)) == math.inf
        part = path_net(n - 49, 1.0 / n)
        assert (poincare_constant(net, range(10), range(n))
                == pytest.approx(poincare_constant(part, range(10),
                                                   range(n - 49)),
                                 rel=1e-10))

    @pytest.mark.parametrize("n", [300, 500])
    def test_singular_energy_form_is_a_precondition(self, n):
        net = cancelling_triangle_net(n)
        with pytest.raises(PreconditionError):
            poincare_constant(net, range(n), range(n))

    def test_singular_energy_form_in_any_numbering(self):
        # the same net under a random renumbering: the band order then
        # meets the cancellation as a tiny pivot, not a failed dpbtrf
        n = 500
        net = cancelling_triangle_net(n, seed=3)
        with pytest.raises(PreconditionError):
            poincare_constant(net, range(n), range(n))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("n", [50, 300, 399])
    def test_singular_dense_form_in_any_numbering(self, n, seed):
        # small pencils meet the same band factor and pivot guard as large
        # ones: a dense generalized eigen-solve returns about 1.1e16 here
        net = cancelling_triangle_net(n, seed)
        with pytest.raises(PreconditionError, match="singular"):
            poincare_constant(net, range(n), range(n))

    @pytest.mark.parametrize("n", [10, 500])
    def test_star_about_the_grounded_vertex(self, n):
        # every edge meets the grounded centre, so the band is its diagonal
        # alone; the leaves off U follow the centre, and the constant is
        # that of the edge (0, 1): (h / 2) / c with c = 1 / h
        h = 0.3
        net = types.SimpleNamespace(measures=[h] * n,
                                    edges=[(0, i) for i in range(1, n)],
                                    conductances=[1.0 / h] * (n - 1))
        lam = poincare_constant(net, [0, 1], range(n))
        assert lam == pytest.approx(h * h / 2, rel=1e-12)

    def test_singleton_zero(self):
        net = path_net(5, 1.0)
        assert poincare_constant(net, [2], [1, 2, 3]) == 0.0

    def test_mean_set_must_be_inside(self):
        net = path_net(5, 1.0)
        with pytest.raises(DomainError):
            poincare_constant(net, [1, 2], [0, 1, 2, 3], mean_set=[3])

    @pytest.mark.parametrize("U, Up, mean_set", [
        ([-1, -2], [-1, -2, -3], None),
        ([], [0, 1, 2], None),
        ([3, 5], [3, 4, 5], None),
        ([3, 4], [2, 3, 4, 5], None),
        ([1, 2], [0, 1, 2, 3], []),
        ([0.5, 1.7, 2.2], [0.5, 1.7, 2.2, 3.9], None),
        (np.array([0.5, 1.7, 2.2]), np.arange(5), None),
        (np.array([True, True]), np.arange(5), None),
        ([1], [False, True], None),
        ([1, True], np.arange(5), None),
        ([1, 2], np.arange(5), [1.0]),
    ], ids=["negative", "empty U", "U beyond", "U' beyond",
            "empty mean_set", "float lists", "float array", "bool U",
            "bool U'", "int and bool U", "float mean_set"])
    def test_vertex_ids_are_checked(self, U, Up, mean_set):
        net = path_net(5, 1.0)
        with pytest.raises(DomainError):
            poincare_constant(net, U, Up, mean_set=mean_set)

    def test_mean_set_shrinks_drop_constant_shift(self):
        net = path_net(100, 0.01)
        U = range(20, 80)
        full = poincare_constant(net, U, range(100))
        part = poincare_constant(net, U, range(100), mean_set=range(20, 40))
        # centering at a sub-mean can only increase the variance bound
        assert part >= full * (1 - 1e-9)


def schur_reference(net, U, Uprime):
    """Largest eigenvalue of the pencil (Q, L') on U' with the first U vertex
    grounded, from its dense Schur form on U: the vertices of U' outside U
    are eliminated exactly, S = L_UU - L_UV L_VV^-1 L_VU, and (Q_U, S) is
    solved by a dense generalized eigen-solve."""
    U, Up = sorted(U), sorted(Uprime)
    loc = np.full(len(net.measures), -1)
    loc[Up] = np.arange(len(Up))
    e = loc[np.asarray(net.edges).reshape(-1, 2)]
    inside = (e >= 0).all(axis=1)
    L = dirichlet_laplacian(len(Up), e[inside],
                            np.asarray(net.conductances)[inside]).tocsr()
    iu = loc[U[1:]]
    iv = np.setdiff1d(np.arange(len(Up)), loc[U])
    B = L[iv][:, iu].tocsc()
    cols = np.flatnonzero(np.diff(B.indptr))   # U vertices next to V
    X = splu(L[iv][:, iv].tocsc()).solve(B[:, cols].toarray())
    S = L[iu][:, iu].toarray()
    S[np.ix_(cols, cols)] -= B[:, cols].T @ X
    m = np.asarray(net.measures)[U]
    Q = np.diag(m) - np.outer(m, m) / m.sum()
    k = len(S) - 1
    return scipy.linalg.eigh(Q[1:, 1:], S, eigvals_only=True,
                             subset_by_index=[k, k])[0]


class TestPoincareLanczos:
    """Pairs on 1,000 vertices and more: the Lanczos steps, its failure
    modes and the global criterion-2 pencil."""

    def test_unit_interval_oracle(self):
        # U = U' = the whole path: the constant is 1 / gap of the path
        # graph, h^2 / (4 sin^2(pi / 2n)), and tends to 1/pi^2
        n = 1000
        lam = poincare_constant(path_net(n, 1.0 / n), range(n), range(n))
        exact = 1.0 / (4 * n * n * math.sin(math.pi / (2 * n)) ** 2)
        assert lam == pytest.approx(exact, rel=1e-10)
        assert lam == pytest.approx(1.0 / math.pi ** 2, rel=1e-5)

    @pytest.fixture(scope="class")
    def criterion_2_pencil(self):
        """The global pencil of the criterion-2 annulus at R = 2."""
        cone = build_cone(CircleLink(TWO_PI), 0.15, 16.0, 168,
                          angular_steps=48, spacing="geometric")
        R = 2.0
        region = np.flatnonzero((cone.radii >= R)
                                & (cone.radii <= 2 * R)).tolist()
        Up = sorted(net_covering(cone, region, 0.3 * R).Asharp)
        assert len(Up) > 400
        return cone, region, Up, poincare_constant(cone, region, Up)

    def test_criterion_2_region_matches_schur_reference(self,
                                                        criterion_2_pencil):
        cone, region, Up, lam = criterion_2_pencil
        assert lam == pytest.approx(schur_reference(cone, region, Up),
                                    rel=1e-9)

    def test_vertex_numbering_does_not_matter(self, criterion_2_pencil):
        cone, region, Up, lam = criterion_2_pencil
        perm = np.random.default_rng(5).permutation(cone.n_vertices)
        net = types.SimpleNamespace(
            measures=np.empty(cone.n_vertices), edges=perm[cone.edges],
            conductances=cone.conductances)
        net.measures[perm] = cone.measures
        U, Up = perm[region], perm[Up]
        got = poincare_constant(net, U, Up)
        assert got == pytest.approx(lam, rel=1e-12)
        assert got == pytest.approx(schur_reference(net, U, Up), rel=1e-9)

    def test_global_pencil_memory_is_the_band(self, monkeypatch):
        """Criterion 2's global pencil at R = 4: the traced heap peak stays
        below its band, (kd + 1) n doubles, plus 12 arrays of E floats (the
        peak measured 4.28 MB, 8 * ((kd + 1) n + 9.3 E) bytes)."""
        cone = build_cone(CircleLink(TWO_PI), 0.15, 16.0, 168,
                          angular_steps=48, spacing="geometric")
        region = np.flatnonzero((cone.radii >= 4.0) & (cone.radii <= 8.0))
        Up = net_covering(cone, region, 1.2).Asharp
        poincare_constant(cone, region, Up)   # warm the import caches
        shapes = []
        band_factor = conelab.spectral._band_factor

        def recorded(*args):
            factor = band_factor(*args)
            shapes.append(factor.shape)
            return factor
        monkeypatch.setattr(conelab.spectral, "_band_factor", recorded)
        tracemalloc.start()
        try:
            poincare_constant(cone, region, Up)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (rows, n), = shapes
        assert rows > 1 and n > 7000
        assert peak < 8 * (rows * n + 12 * len(cone.edges))

    def test_band_is_factored_in_place(self, monkeypatch):
        """The band is built in LAPACK's layout and its factor overwrites
        it, with the bits of the factor of a C-ordered copy."""
        bands = []
        dpbtrf = conelab.spectral.dpbtrf

        def kept(ab, **kwargs):
            bands.append((ab, ab.copy()))
            return dpbtrf(ab, **kwargs)
        monkeypatch.setattr(conelab.spectral, "dpbtrf", kept)
        cone = build_cone(CircleLink(TWO_PI), 0.5, 3.0, 12, angular_steps=8)
        n = cone.n_vertices - 1   # the last vertex grounded
        factor = conelab.spectral._band_factor(
            np.arange(cone.n_vertices), cone.edges, cone.conductances, n)
        (band, built), = bands
        assert factor.flags.f_contiguous
        assert np.shares_memory(factor, band)
        L = dirichlet_laplacian(cone.n_vertices, cone.edges,
                                cone.conductances).toarray()[:n, :n]
        want = np.zeros_like(built)
        for k in range(len(built)):
            want[k, :n - k] = np.diagonal(L, -k)
        np.testing.assert_allclose(built, want, rtol=1e-14, atol=0)
        np.testing.assert_array_equal(
            factor, dpbtrf(np.ascontiguousarray(built), lower=1)[0])

    def test_two_vertex_region(self):
        # U = {i, i + 1}: the energy is least with f flat off their edge,
        # so the constant is (h / 2) / (1 / h) = h^2 / 2
        n = 1000
        lam = poincare_constant(path_net(n, 1.0 / n), [10, 11], range(n))
        assert lam == pytest.approx(0.5 / n ** 2, rel=1e-12)

    def test_loops_link_nothing(self):
        n = 1000
        net = path_net(n, 1.0 / n)
        lam = poincare_constant(net, range(n), range(n))
        net.edges = net.edges + [(3, 3)]
        net.conductances = net.conductances + [5.0]
        assert poincare_constant(net, range(n), range(n)) == lam

    def test_one_band_solve_per_lanczos_step(self, monkeypatch):
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("dpbtrf", "dpbtrs"):
            monkeypatch.setattr(conelab.spectral, name,
                                counted(name, getattr(conelab.spectral,
                                                      name)))
        eigsh = scipy.sparse.linalg.eigsh

        def standard(A, **kwargs):
            assert not {"M", "Minv", "sigma"} & set(kwargs)
            return eigsh(LinearOperator(A.shape, dtype=float,
                                        matvec=counted("step", A.matvec)),
                         **kwargs)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", standard)
        n = 1000
        poincare_constant(path_net(n, 1.0 / n), range(n), range(n))
        # one factorization; one solve per step and one for the eigenvector
        assert counts["dpbtrf"] == 1
        assert counts["dpbtrs"] == counts["step"] + 1

    def test_corrupted_solve_is_an_internal_fault(self, monkeypatch):
        dpbtrs = conelab.spectral.dpbtrs

        def corrupted(*args, **kwargs):
            # a rough error: a smooth one hides in L f's cancellation
            x, info = dpbtrs(*args, **kwargs)
            x[::2] *= 1 + 1e-6
            return x, info
        monkeypatch.setattr(conelab.spectral, "dpbtrs", corrupted)
        n = 1000
        with pytest.raises(InternalFault, match="residual"):
            poincare_constant(path_net(n, 1.0 / n), range(n), range(n))

    def test_no_convergence_raises(self, monkeypatch):
        eigsh = scipy.sparse.linalg.eigsh
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh",
                            lambda *a, **k: eigsh(*a, maxiter=1, ncv=3, **k))
        n = 1000
        with pytest.raises(CapacityError):
            poincare_constant(path_net(n, 1.0 / n), range(n), range(n))

def modal_reference(cone, I, J):
    """The constant of each link mode of the pencil of the product sets
    U = (rings I) x (whole link) inside U' = (rings J) x (whole link), J
    consecutive rings; Lambda(U, U') is the largest.

    Separation of variables (J. Cheeger, J. Differential Geom. 18, 1983):
    the measure is shell (x) M_S and L = L_r (x) M_S + diag(T) (x) L_S
    (:class:`~conelab.cones.ProductFactors`), so in the link eigenbasis,
    L_S phi_j = mu_j M_S phi_j with phi_j^T M_S phi_j = 1, both forms split
    into one pencil of size |J| per mode: (diag(shell on I), L_r|J + mu_j
    diag(T|J)).  The mean over U is removed in mode 0 only, the constant
    mode, because the other modes are M_S-orthogonal to the constants; mode
    0's forms are then shift invariant, and its first ring is grounded.
    Dense LAPACK solves, from the factors alone.  Cones without an apex
    (r_min > 0) only: an apex couples to mode 0.
    """
    assert cone.apex is None
    f = cone.factors
    lm = f.link_measures
    L_S = _dense_laplacian(len(lm), f.link_edges, f.link_conductances)
    mu = scipy.linalg.eigh(L_S, np.diag(lm), eigvals_only=True)
    assert abs(mu[0]) <= 1e-12 * mu[-1] < mu[1]   # one constant mode
    w = f.radial_weights[J[0]:J[-1]]
    L_r = (np.diag(np.r_[w, 0.0] + np.r_[0.0, w])
           - np.diag(w, 1) - np.diag(w, -1))
    d = np.where(np.isin(J, I), f.shell[J], 0.0)
    Q0 = np.diag(d) - np.outer(d, d) / d.sum()
    top = len(J) - 1
    consts = [scipy.linalg.eigh(Q0[1:, 1:], L_r[1:, 1:], eigvals_only=True,
                                subset_by_index=[top - 1, top - 1])[0]]
    T = np.diag(f.ring_factors[J])
    for m in mu[1:]:
        consts.append(scipy.linalg.eigh(np.diag(d), L_r + m * T,
                                        eigvals_only=True,
                                        subset_by_index=[top, top])[0])
    return consts


def ring_vertices(cone, rings):
    return np.flatnonzero(np.isin(cone.ring_of, rings))


class TestSeparationOfVariables:
    """poincare_constant against :func:`modal_reference` on the cones and
    at the pencil sizes (5,000-8,000 vertices) of the workloads."""

    @pytest.fixture(scope="class")
    def cones(self):
        def annulus(length):
            return build_cone(CircleLink(length), 0.15, 16.0, 168,
                              angular_steps=48, spacing="geometric")
        return {"circle": annulus(TWO_PI), "wedge": annulus(math.pi / 2),
                "sphere": build_cone(sphere_link(12, 24), 0.05, 8.0, 160)}

    @pytest.mark.parametrize("kind, I, J, top_mode", [
        ("circle", (30, 60), (0, 108), "link"),
        ("circle", (60, 100), (10, 168), "link"),
        ("circle", (100, 130), (0, 158), "link"),
        ("wedge", (30, 60), (0, 108), "constant"),
        ("wedge", (60, 100), (10, 168), "constant"),
        ("sphere", (45, 60), (40, 66), "link"),
        ("sphere", (20, 30), (15, 35), "link"),
    ])
    def test_product_pencil(self, cones, kind, I, J, top_mode):
        cone = cones[kind]
        I, J = np.arange(*I), np.arange(*J)
        Up = ring_vertices(cone, J)
        assert len(Up) > 5000
        consts = modal_reference(cone, I, J)
        # both kinds of mode lead somewhere, so a fault in either shows
        assert (np.argmax(consts) == 0) == (top_mode == "constant")
        lam = poincare_constant(cone, ring_vertices(cone, I), Up)
        assert lam == pytest.approx(max(consts), rel=1e-11)

    @pytest.mark.parametrize("R, upper, lower", [
        (1.0, 0.829435, 0.817780),
        (2.0, 3.293617, 3.247651),
        (4.0, 13.18498, 13.00128),
    ])
    def test_criterion_2_global_pencil_is_bracketed(self, cones, R, upper,
                                                    lower):
        """A# is the full rings 0..k - 1 and part of ring k, so Lambda(U, A#)
        lies between the product constants over rings 0..k - 1 and 0..k:
        Lambda(U, U') can only fall as U' grows."""
        cone = cones["circle"]
        region = np.flatnonzero((cone.radii >= R) & (cone.radii <= 2 * R))
        Asharp = net_covering(cone, region, 0.3 * R).Asharp
        per_ring = np.bincount(cone.ring_of[Asharp])
        k = int(np.count_nonzero(per_ring == cone.link_nodes))
        assert len(per_ring) == k + 1 and 0 < per_ring[k] < cone.link_nodes
        I = np.unique(cone.ring_of[region])
        hi = max(modal_reference(cone, I, np.arange(k)))
        lo = max(modal_reference(cone, I, np.arange(k + 1)))
        lam = poincare_constant(cone, region, Asharp)
        assert hi >= lam >= lo
        assert hi == pytest.approx(upper, rel=1e-6)
        assert lo == pytest.approx(lower, rel=1e-6)


def loop_gaussian_fit(samples, cone, slack=3.0, band=(1.0, 4.0),
                      boundary_factor=2.0):
    """Reference for gaussian_fit: the admissible points gathered vertex by
    vertex; returns the GaussianFit fields as a tuple."""
    xs, ys, tags = [], [], []
    nonpos = None
    for s in samples:
        rt = math.sqrt(s.t)
        d = cone.distances_from(s.source)
        V = cone.ball_volume(s.source, rt).volume
        for v in range(cone.n_vertices):
            if not band[0] * rt <= d[v] <= band[1] * rt:
                continue
            if cone.boundary_distance(v) < boundary_factor * rt:
                continue
            if s.values[v] <= 0:
                nonpos = (s.t, v, float(s.values[v]), 0.0)
                continue
            xs.append(d[v] ** 2 / s.t)
            ys.append(math.log(s.values[v] * V))
            tags.append((s.t, v))
    xs, ys = np.asarray(xs), np.asarray(ys)
    slope, intercept = np.polyfit(xs, ys, 1)
    amp = math.exp(intercept)
    resid = ys - (intercept + slope * xs)
    worst = int(np.argmax(np.abs(resid)))
    passed = bool(-slope > 0 and nonpos is None
                  and np.all(np.abs(resid) <= math.log(slack)))
    witness = nonpos if nonpos is not None else (
        *tags[worst], math.exp(ys[worst]), amp * math.exp(slope * xs[worst]))
    return (amp / slack, -slope, -slope, amp * slack, passed, len(xs),
            witness, float(np.exp(np.max(np.abs(resid))) - 1.0))


def assert_fit_matches_loop(samples, cone):
    fit = gaussian_fit(samples, cone)
    want = loop_gaussian_fit(samples, cone)
    got = (fit.c1, fit.C1, fit.c2, fit.C2, fit.passed, fit.n_points,
           fit.witness, fit.max_rel_residual)
    assert got[4:6] == want[4:6] and got[6][:2] == want[6][:2]
    # the masked form may round the logarithm differently in the last bit
    np.testing.assert_allclose(got[:4] + got[6][2:] + got[7:],
                               want[:4] + want[6][2:] + want[7:],
                               rtol=1e-12)


class TestHeatKernel:
    def setup_method(self):
        self.cone = build_cone(CircleLink(TWO_PI), 0.0, 6.0, 96,
                               angular_steps=48)

    def test_mass_conserved(self):
        o = self.cone.base_point()
        samples = heat_kernel(self.cone, o, [0.2, 0.6])
        for s in samples:
            assert s.mass(self.cone) == pytest.approx(1.0, abs=1e-9)

    def test_flat_plane_oracle(self):
        # on the full 2 pi cone the kernel from the apex is the planar one
        o = self.cone.base_point()
        t = 0.25
        (s,) = heat_kernel(self.cone, o, [t])
        d = self.cone.distances_from(o)
        keep = (d < 2.0)
        exact = np.exp(-d[keep] ** 2 / (4 * t)) / (4 * math.pi * t)
        rel = np.abs(s.values[keep] - exact) / exact
        assert rel.max() < 0.03

    def test_gaussian_fit_flat(self):
        o = self.cone.base_point()
        samples = heat_kernel(self.cone, o, [0.1, 0.25, 0.5])
        fit = gaussian_fit(samples, self.cone)
        assert fit.passed
        assert fit.c2 == pytest.approx(0.25, rel=0.1)
        assert fit.c1 <= fit.C2 and fit.c1 > 0
        assert_fit_matches_loop(samples, self.cone)

    @pytest.mark.parametrize("t", [0.0, math.nan, math.inf, 36.5, 1e30])
    def test_times_outside_the_range_rejected(self, t):
        # t = 1e30 lost the mass (or overflowed) through e^(-t lam_0)
        with pytest.raises(DomainError, match="r_max"):
            heat_kernel(self.cone, self.cone.base_point(), [0.2, t])

    def test_mass_lost_to_rounding_is_a_precondition(self):
        # t * eps * lambda_max is 2.8e-9 here, yet the mass is off 1 by
        # 3.6e-11 only: the bound explains a failed check, it refuses nothing
        cone = build_cone(CircleLink(TWO_PI), 0.0, 6.0, 1536,
                          angular_steps=32)
        (s,) = heat_kernel(cone, cone.base_point(), [36.0])
        assert s.mass(cone) == pytest.approx(1.0, abs=1e-9)
        # a thin shell: lambda_max ~5e11, and the mass is off by 7e-6
        shell = build_cone(sphere_link(4, 6), 2.0, 2.00001, 5)
        with pytest.raises(PreconditionError, match="eigen-solver's rounding"):
            heat_kernel(shell, 0, [0.1])

    def test_fit_needs_two_distances(self):
        # every admissible vertex lies on ring 1: polyfit was rank deficient
        cone = build_cone(CircleLink(1.0), 0.0, 1.0, 3, angular_steps=4)
        samples = heat_kernel(cone, cone.base_point(), [0.1])
        with pytest.raises(DomainError, match="two or more"):
            gaussian_fit(samples, cone)

    def test_fit_rejects_corrupted_sample(self):
        o = self.cone.base_point()
        samples = heat_kernel(self.cone, o, [0.25])
        bad = samples[0].values.copy()
        d = self.cone.distances_from(o)
        idx = int(np.argmin(np.abs(d - 1.0)))
        bad[idx] *= 1e6
        corrupted = [HeatKernelSample(samples[0].t, o, bad)]
        fit = gaussian_fit(corrupted, self.cone)
        assert not fit.passed
        assert fit.witness is not None
        assert_fit_matches_loop(corrupted, self.cone)
        bad[idx + 1] = -1.0
        assert_fit_matches_loop(corrupted, self.cone)


class TestGreen:
    def test_needs_three_dimensions(self):
        cone = build_cone(CircleLink(TWO_PI), 0.0, 2.0, 16, angular_steps=8)
        with pytest.raises(DomainError):
            greens_function(cone, cone.base_point())

    def test_flat_r3_decay(self):
        cone = build_cone(sphere_link(10, 20), 0.05, 6.0, 96)
        o = cone.base_point()
        res = greens_function(cone, o)
        assert res.positive
        d = cone.distances_from(o)
        keep = (d > 0.4) & (cone.radii < 4.0)
        ratio = res.values[keep] * 4.0 * math.pi * d[keep]
        assert ratio.min() > 0.9 and ratio.max() < 1.1
        assert res.bound_constant < 1.0 / (2.0 * math.pi)

    def test_time_integration_agrees(self):
        cone = build_cone(sphere_link(8, 16), 0.05, 5.0, 64)
        o = cone.base_point()
        direct = greens_function(cone, o).values
        quad = green_by_time_integration(cone, o, dt=0.05, n_steps=250)
        d = cone.distances_from(o)
        keep = (d > 0.4) & (cone.radii < 3.0)
        rel = np.abs(quad[keep] - direct[keep]) / direct[keep]
        assert rel.max() < 0.05


def vertex_robin_laplacian(cone):
    """The vertex-basis Laplacian plus the outflow term (n-2)/r_max *
    r_max^(n-1) * link measure on the outer ring."""
    n = cone.dimension
    lm = cone.factors.link_measures
    robin = np.where(cone.is_outer, (n - 2) / cone.r_max
                     * cone.r_max ** (n - 1) * lm[cone.link_index], 0.0)
    L = dirichlet_laplacian(cone.n_vertices, cone.edges, cone.conductances)
    return L + sp.diags(robin)


def vertex_green(cone, source):
    """Reference Green's function: one sparse solve of
    vertex_robin_laplacian."""
    rhs = np.zeros(cone.n_vertices)
    rhs[source] = 1.0
    return splu(vertex_robin_laplacian(cone).tocsc()).solve(rhs)


def vertex_heat(cone, source, times):
    """Reference heat kernel: h(t) = Phi e^(-t lam) Phi^T e_source from one
    dense generalized eigen-solve L Phi = M Phi diag(lam), Phi^T M Phi = I,
    of the vertex-basis network."""
    L = dirichlet_laplacian(cone.n_vertices, cone.edges, cone.conductances)
    lam, Phi = scipy.linalg.eigh(L.toarray(), np.diag(cone.measures))
    return [Phi @ (np.exp(-t * lam) * Phi[source]) for t in times]


def vertex_time_integration(cone, source, dt, n_steps):
    """Reference backward-Euler quadrature of the heat flow with the Robin
    term of vertex_green, stepped in the vertex basis, plus the tail
    estimate h_N / lam from the last decay rate of the mass."""
    L = vertex_robin_laplacian(cone)
    M = sp.diags(cone.measures)
    lu = splu((M + dt * L).tocsc())
    h = np.zeros(cone.n_vertices)
    h[source] = 1.0 / cone.measures[source]
    total = np.zeros_like(h)
    prev_norm = lam = None
    for _ in range(n_steps):
        h = lu.solve(M @ h)
        total += dt * h
        norm = float(np.dot(h, cone.measures))
        if prev_norm and norm > 0:
            lam = -math.log(norm / prev_norm) / dt
        prev_norm = norm
    if lam and lam > 0:
        total += h / lam
    return total


def ring_sources(cone):
    """The apex or a vertex of the inner ring, one mid-grid and one on the
    outer ring."""
    A, K = cone.link_nodes, cone.radial_steps
    off = cone.n_vertices - K * A
    return [0, off + (K // 2) * A + A // 3, cone.n_vertices - 1]


def assert_heat_matches(cone, source, times):
    got = heat_kernel(cone, source, times)
    want = vertex_heat(cone, source, sorted(times))
    for s, h in zip(got, want):
        assert np.max(np.abs(s.values - h)) <= 1e-10 * np.max(np.abs(h))


def assert_green_matches(cone, source):
    got = greens_function(cone, source).values
    want = vertex_green(cone, source)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10


#: The cones of TestSeparatedVariables' fixed cases.
CONES = [build_cone(CircleLink(TWO_PI), 0.0, 3.0, 24, angular_steps=12),
         build_cone(CircleLink(math.pi), 0.0, 3.0, 24, angular_steps=12),
         build_cone(sphere_link(4, 8), 0.1, 3.0, 12),
         build_cone(sphere_link(4, 8), 0.1, 3.0, 12, spacing="geometric")]
CONE_IDS = ["disc", "half_disc", "sphere", "sphere_geometric"]


class TestSeparatedVariables:
    """heat_kernel, greens_function and green_by_time_integration solve in
    the link-eigenmode basis; the vertex-basis computations above are the
    reference."""

    @pytest.mark.parametrize("length", [TWO_PI, math.pi])
    def test_heat_circle_with_apex(self, length):
        cone = build_cone(CircleLink(length), 0.0, 3.0, 24, angular_steps=12)
        for source in ring_sources(cone):
            assert_heat_matches(cone, source, [0.1, 0.3])

    @pytest.mark.parametrize("spacing", ["uniform", "geometric"])
    def test_sphere_link(self, spacing):
        cone = build_cone(sphere_link(4, 8), 0.1, 3.0, 12, spacing=spacing)
        for source in ring_sources(cone):
            assert_green_matches(cone, source)
            assert_heat_matches(cone, source, [0.2, 0.5])

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(sphere=st.booleans(), apex=st.booleans(),
           geometric=st.booleans(), K=st.integers(2, 10),
           nodes=st.integers(3, 9), r_min=st.floats(0.05, 1.0),
           width=st.floats(0.5, 4.0), where=st.floats(0.0, 1.0))
    def test_random_small_cones(self, sphere, apex, geometric, K, nodes,
                                r_min, width, where):
        if sphere:
            link = sphere_link(2 + nodes // 3, nodes)
        else:
            link = CircleLink(width * nodes / 3.0)
        if apex and not sphere:
            r_min, geometric = 0.0, False
        cone = build_cone(link, r_min, r_min + width, K,
                          angular_steps=None if sphere else nodes,
                          spacing="geometric" if geometric else "uniform")
        source = min(int(where * cone.n_vertices), cone.n_vertices - 1)
        times = [0.05 * width ** 2, 0.2 * width ** 2]
        assert_heat_matches(cone, source, times)
        if sphere:
            assert_green_matches(cone, source)

    def test_time_integration_matches_vertex_stepping(self):
        cone = build_cone(sphere_link(4, 8), 0.1, 3.0, 12)
        for source in ring_sources(cone):
            got = green_by_time_integration(cone, source, dt=0.05,
                                            n_steps=60)
            want = vertex_time_integration(cone, source, 0.05, 60)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10

    def test_corrupted_coupling_trips_internal_fault(self, monkeypatch):
        modal = conelab.spectral._modal

        def corrupted(cone, robin):
            diag, coupling, mass, to_modes, from_modes = modal(cone, robin)
            coupling = coupling.copy()
            coupling[1] *= 1.001
            return diag, coupling, mass, to_modes, from_modes

        monkeypatch.setattr(conelab.spectral, "_modal", corrupted)
        sphere = build_cone(sphere_link(4, 8), 0.1, 3.0, 12)
        with pytest.raises(InternalFault):
            greens_function(sphere, 0)
        with pytest.raises(InternalFault):
            green_by_time_integration(sphere, 0, dt=0.05, n_steps=60)
        disc = build_cone(CircleLink(TWO_PI), 0.0, 3.0, 24, angular_steps=12)
        with pytest.raises(InternalFault):
            heat_kernel(disc, 0, [0.2])

    def test_indefinite_step_matrix_trips_internal_fault(self, monkeypatch):
        modal = conelab.spectral._modal

        def indefinite(cone, robin):
            diag, coupling, mass, to_modes, from_modes = modal(cone, robin)
            return (-diag, -coupling, np.zeros_like(mass), to_modes,
                    from_modes)

        monkeypatch.setattr(conelab.spectral, "_modal", indefinite)
        sphere = build_cone(sphere_link(4, 8), 0.1, 3.0, 12)
        with pytest.raises(InternalFault, match="dpttrf"):
            green_by_time_integration(sphere, 0, dt=0.05, n_steps=60)
        with pytest.raises(InternalFault, match="dpttrf"):
            greens_function(sphere, 0)

    @pytest.mark.parametrize("cone", CONES, ids=CONE_IDS)
    def test_edge_sums_match_the_vertex_matrix(self, cone):
        L = vertex_robin_laplacian(cone)
        rng = np.random.default_rng(7)
        for x in (rng.standard_normal(cone.n_vertices),
                  rng.uniform(0.5, 2.0, cone.n_vertices)):
            Lx, absLx = conelab.spectral._robin_products(cone, x)
            want = abs(L) @ np.abs(x)
            assert np.all(np.abs(absLx - want) <= 1e-13 * want)
            assert np.max(np.abs(Lx - L @ x)) <= 1e-13 * np.max(want)

    @pytest.mark.parametrize("cone", CONES + [
        build_cone(sphere_link(12, 24), 0.05, 8.0, 160),
        build_cone(CircleLink(TWO_PI), 0.0, 4.0, 40, angular_steps=12)],
        ids=CONE_IDS + ["green_bench", "disc_40_rings"])
    def test_ring_blocks_match_the_whole_edge_sum(self, cone):
        """Summed block by block, L x and |L| |x| equal the sums over the
        cone's whole edge arrays to 1e-13 relative."""
        lm = cone.factors.link_measures
        r = np.where(cone.is_outer, conelab.spectral._outflow(cone)
                     * lm[cone.link_index], 0.0)
        rng = np.random.default_rng(11)
        for x in (rng.standard_normal(cone.n_vertices),
                  rng.uniform(0.5, 2.0, cone.n_vertices)):
            Lx, absLx = conelab.spectral._robin_products(cone, x)
            want, want_abs = conelab.spectral._edge_products(
                cone.n_vertices, cone.edges, cone.conductances, x)
            want, want_abs = want + r * x, want_abs + r * np.abs(x)
            assert np.all(np.abs(absLx - want_abs) <= 1e-13 * want_abs)
            assert np.all(np.abs(Lx - want) <= 1e-13 * want_abs)

    @pytest.mark.parametrize("solver, source", [
        (solver, source) for solver in ("time", "green")
        for source in (0, 700, 3999)],
        ids=["0", "700", "3999", "green-0", "green-700", "green-3999"])
    def test_time_integration_steps_only_the_reached_blocks(self, solver,
                                                            source,
                                                            monkeypatch):
        """The time integration (ids 0, 700, 3999) and the Green's function
        (ids green-*) factor and solve exactly the rows of the mode blocks
        that the source reaches, and give the bits of the same computation
        on the whole modal system."""
        cone = build_cone(sphere_link(10, 20), 0.05, 5.0, 20)
        K = cone.radial_steps
        dt, n_steps = 0.05, 30
        diag, coupling, mass, to_modes, from_modes = \
            conelab.spectral._modal(cone, robin=True)
        e_source = np.zeros(cone.n_vertices)
        e_source[source] = 1.0
        b = to_modes(e_source)
        lapack = scipy.linalg.lapack
        if solver == "green":
            d, e, _ = lapack.dpttrf(diag, coupling)
            want = from_modes(lapack.dpttrs(d, e, b)[0])
        else:
            d, e, _ = lapack.dpttrf(mass + dt * diag, dt * coupling)
            total, c = np.zeros_like(b), None
            for _ in range(n_steps):
                c_prev, c = c, lapack.dpttrs(d, e, b)[0]
                total += c
                b = mass * c
            total, h, h_prev = (from_modes(x)
                                for x in (dt * total, c, c_prev))
            want = total + h / (-math.log(np.dot(h, cone.measures)
                                          / np.dot(h_prev, cone.measures))
                                / dt)
        # the apex-free cone's K-row blocks, one per link mode; mode 0
        # (the constants) reaches every vertex
        reached = K * int(np.count_nonzero(
            to_modes(e_source).reshape(-1, K).any(axis=1)))
        factored, solved = [], []
        dpttrf, dpttrs = conelab.spectral.dpttrf, conelab.spectral.dpttrs

        def counted_factor(d, e, **kwargs):
            factored.append(len(d))
            return dpttrf(d, e, **kwargs)

        def counted_solve(d, e, b, **kwargs):
            solved.append(len(d))
            return dpttrs(d, e, b, **kwargs)

        monkeypatch.setattr(conelab.spectral, "dpttrf", counted_factor)
        monkeypatch.setattr(conelab.spectral, "dpttrs", counted_solve)
        if solver == "green":
            got = greens_function(cone, source).values
        else:
            got = green_by_time_integration(cone, source, dt=dt,
                                            n_steps=n_steps)
        assert got.tobytes() == want.tobytes()
        assert factored == [reached]
        assert solved == [reached] * (1 if solver == "green" else n_steps)
        if source == 0:
            # the polar cap node is a zero of a quarter of the link modes
            assert reached == 3000 < cone.n_vertices == 4000

    def test_green_path_needs_no_superlu(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("splu called")

        assert not hasattr(conelab.spectral, "splu")
        monkeypatch.setattr("scipy.sparse.linalg.splu", refused)
        cone = build_cone(sphere_link(4, 8), 0.1, 3.0, 12)
        for source in ring_sources(cone):
            assert_green_matches(cone, source)
            got = green_by_time_integration(cone, source, dt=0.05,
                                            n_steps=60)
            want = vertex_time_integration(cone, source, 0.05, 60)
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-10

    def test_link_modes_solved_once_per_cone(self, monkeypatch):
        def make():
            return build_cone(sphere_link(4, 8), 0.1, 3.0, 12)

        want_green = greens_function(make(), 5).values
        want_time = green_by_time_integration(make(), 5, dt=0.05, n_steps=60)
        calls = []
        eigh = scipy.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh", counted)
        cone = make()
        got_green = greens_function(cone, 5).values
        got_time = green_by_time_integration(cone, 5, dt=0.05, n_steps=60)
        heat_kernel(cone, 5, [0.2])
        assert len(calls) == 1
        assert got_green.tobytes() == want_green.tobytes()
        assert got_time.tobytes() == want_time.tobytes()
        # the modes are kept only while their cone lives
        kept = len(conelab.spectral._LINK_MODES)
        del cone
        gc.collect()
        assert len(conelab.spectral._LINK_MODES) == kept - 1

    def test_green_memory_is_linear(self):
        """The traced heap peak of one solve on a 46,080-vertex cone stays
        below 16 arrays of n floats: O(n), with no fill-in, and the edge
        sums of the residual check held to one ring block at a time."""
        cone = build_cone(sphere_link(12, 24), 0.05, 8.0, 160)
        greens_function(cone, cone.base_point())   # warm the import caches
        tracemalloc.start()
        try:
            greens_function(cone, cone.base_point())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 8 * cone.n_vertices

    @pytest.mark.parametrize("apex", [True, False])
    def test_heat_solves_only_the_modes_the_source_reaches(self, apex,
                                                          monkeypatch):
        calls = []
        eigh_tridiagonal = scipy.linalg.eigh_tridiagonal

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh_tridiagonal(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", counted)
        cone = build_cone(CircleLink(TWO_PI), 0.0, 3.0, 24, angular_steps=12)
        source = 0 if apex else ring_sources(cone)[1]
        heat_kernel(cone, source, [0.1, 0.3])
        assert len(calls) == (1 if apex else cone.link_nodes)

    def test_source_out_of_range(self):
        cone = build_cone(sphere_link(4, 8), 0.1, 3.0, 12)
        # 2.5 was a bare IndexError; True indexed every vertex, and the heat
        # kernel's mass check raised InternalFault
        for source in (-1, cone.n_vertices, 2.5, True):
            with pytest.raises(DomainError):
                greens_function(cone, source)
            with pytest.raises(DomainError):
                heat_kernel(cone, source, [0.2])
            with pytest.raises(DomainError):
                green_by_time_integration(cone, source)
        # dt <= 0, NaN or inf raised InternalFault, and n_steps = 2.5 a bare
        # TypeError
        for bad in ({"n_steps": 1}, {"n_steps": 2.5}, {"n_steps": True},
                    {"dt": 0.0}, {"dt": -0.05}, {"dt": math.nan},
                    {"dt": math.inf}):
            with pytest.raises(DomainError):
                green_by_time_integration(cone, 0, **bad)


class TestIndicial:
    def test_quadratic_roots(self):
        spec = indicial_spectrum(3, [5.0])
        mp, mm = max(spec.mu_pairs[0]), min(spec.mu_pairs[0])
        assert mp == pytest.approx(5.0)
        assert mm == pytest.approx(-1.0)
        # root sum / product identities of mu^2 - (2m-2) mu - lambda = 0
        assert mp + mm == pytest.approx(2 * 3 - 2)
        assert mp * mm == pytest.approx(-5.0)

    def test_threshold_eigenvalue(self):
        for m in (2, 3, 4):
            spec = indicial_spectrum(m, [2 * m - 1.0])
            assert max(spec.mu_pairs[0]) == pytest.approx(2 * m - 1.0)

    def test_exceptional_weights_sorted_unique(self):
        spec = indicial_spectrum(3, [0.0, 5.0, 5.0, 12.0])
        w = spec.exceptional_weights
        assert list(w) == sorted(set(w))
        assert 0.0 in w and (2 * 3 - 2) in w

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            indicial_spectrum(1, [1.0])
        with pytest.raises(DomainError):
            indicial_spectrum(3, [-1.0])


class TestCoveringConstants:
    def test_cell_constant_scale_free(self):
        cone = build_cone(CircleLink(TWO_PI), 0.1, 9.0, 120,
                          angular_steps=32, spacing="geometric")
        vals = {}
        for R in (1.0, 2.0):
            region = [v for v in range(cone.n_vertices)
                      if R <= cone.radii[v] <= 2 * R]
            cov = net_covering(cone, region, 0.35 * R)
            vals[R] = covering_cell_constant(cov, cone) / R ** 2
        assert vals[2.0] == pytest.approx(vals[1.0], rel=0.25)

    @pytest.mark.parametrize("n", [1.5, 2.0, True, np.float64(3.0)])
    def test_scan_sample_count_must_be_an_integer(self, n):
        # 1.5 drew 2 records
        cone = build_cone(CircleLink(TWO_PI), 0.0, 3.0, 12, angular_steps=8)
        with pytest.raises(DomainError, match="n_samples must be an integer"):
            scale_invariant_poincare_scan(cone, n_samples=n)

    def test_scan_deterministic(self):
        cone = build_cone(CircleLink(TWO_PI), 0.0, 6.0, 72, angular_steps=36)
        s1 = scale_invariant_poincare_scan(cone, n_samples=6, seed=3)
        s2 = scale_invariant_poincare_scan(cone, n_samples=6, seed=3)
        assert [r.value for r in s1.records] == [r.value for r in s2.records]
        assert math.isfinite(s1.c_max)


def loop_cell_constant(cov, net):
    """Reference: both pencils of every cell, with no congruence classes."""
    worst = 0.0
    for c in cov.cells:
        worst = max(worst, poincare_constant(net, c.U, c.Ustar))
        worst = max(worst, poincare_constant(net, c.Ustar, c.Usharp,
                                             mean_set=c.U))
    return worst


def count_pencils(monkeypatch):
    """Count the poincare_constant calls made through conelab.spectral."""
    calls = []
    exact = conelab.spectral.poincare_constant

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return exact(*args, **kwargs)
    monkeypatch.setattr(conelab.spectral, "poincare_constant", counted)
    return calls


def band_covering(cone, lo, hi, s):
    region = np.flatnonzero((cone.radii >= lo) & (cone.radii <= hi))
    return net_covering(cone, region.tolist(), s)


def dilated(cone, vertices, steps):
    """The sorted vertex array grown by ``steps`` grid edges."""
    inside = np.zeros(cone.n_vertices, dtype=bool)
    inside[vertices] = True
    a, b = cone.edges.T
    for _ in range(steps):
        grown = inside.copy()
        grown[b[inside[a]]] = grown[a[inside[b]]] = True
        inside = grown
    return np.flatnonzero(inside)


def proper_subset(a, b):
    """Whether the sorted vertex array a is a proper subset of b."""
    return bool(np.isin(a, b).all()) and len(a) < len(b)


#: coverings built by conelab.cones, all with U* = U#
BUILT = ["annulus", "apex", "sphere", "annular"]


def rotated(cone, vertices, shift, reflect=False):
    """Image of a sorted vertex array under (k, a) -> (k, +-a + shift mod
    A), sorted."""
    A = cone.link_nodes
    off = 0 if cone.apex is None else 1
    k, a = np.divmod(vertices - off, A)
    image = off + k * A + ((-a if reflect else a) + shift) % A
    return np.sort(np.where(vertices == cone.apex, vertices, image))


def rotated_cell(cone, cell, shift, reflect=False):
    return Cell(*(rotated(cone, s, shift, reflect)
                  for s in (cell.U, cell.Ustar, cell.Usharp)))


class TestCongruenceClasses:
    """covering_cell_constant solves the pencils once per congruence class,
    only the one on U* when U* = U#, and equals the per-cell loop; on a cone
    it first checks that the link rotation is an automorphism."""

    def annulus(self):
        return build_cone(CircleLink(TWO_PI), 0.3, 3.0, 16, angular_steps=24,
                          spacing="geometric")

    def covering(self, case):
        if case in ("annulus", "middle"):
            cone = self.annulus()
            cov = band_covering(cone, 1.0, 2.0, 0.35)
            if case == "annulus":
                return cone, cov
            # hand-built: U* shrunk to U dilated by two grid edges
            cells = [Cell(c.U, np.intersect1d(dilated(cone, c.U, 2),
                                              c.Usharp), c.Usharp)
                     for c in cov.cells]
            assert all(proper_subset(c.U, c.Ustar)
                       and proper_subset(c.Ustar, c.Usharp) for c in cells)
            return cone, GoodCovering.from_arrays(
                cov.atom_ids, cov.atom_measures, cells, cov.A, cov.Asharp,
                cov.adjacency)
        if case == "apex":
            cone = build_cone(CircleLink(1.5 * math.pi), 0.0, 2.5, 12,
                              angular_steps=18)
            return cone, band_covering(cone, 0.0, 1.2, 0.4)
        if case == "sphere":
            cone = build_cone(sphere_link(3, 6), 0.5, 2.5, 8)
            return cone, band_covering(cone, 1.5, 2.0, 0.5)
        cone = build_cone(CircleLink(TWO_PI), 0.05, 8.0, 30,
                          angular_steps=12, spacing="geometric")
        return cone, annular_covering(cone, R=1.0, kappa=2.0, levels=2)

    @pytest.mark.parametrize("case", BUILT + ["middle"])
    def test_matches_cell_loop(self, case, monkeypatch):
        cone, cov = self.covering(case)
        assert all(np.array_equal(c.Ustar, c.Usharp)
                   for c in cov.cells) == (case in BUILT)
        want = loop_cell_constant(cov, cone)
        calls = count_pencils(monkeypatch)
        got = covering_cell_constant(cov, cone)
        assert got == pytest.approx(want, rel=1e-12, abs=0)
        key = conelab.spectral._cell_key
        sizes = Counter(key(cone, c) for c in cov.cells)
        pencils = {key(cone, c): 1 if np.array_equal(c.Ustar, c.Usharp)
                   else 2 for c in cov.cells}
        # one solved member per class: one pencil when U* = U#, else two
        assert len(calls) == sum(pencils[k] for k in sizes)
        assert {u.tobytes() for u, _ in calls} <= (
            {c.Ustar.tobytes() for c in cov.cells}
            | {c.U.tobytes() for c in cov.cells
               if not np.array_equal(c.Ustar, c.Usharp)})
        if case in ("annulus", "apex", "middle"):
            assert len(sizes) < len(cov.cells)
        else:
            assert len(sizes) == len(cov.cells)

    @pytest.mark.parametrize("case", BUILT)
    def test_pencil_on_ustar_bounds_the_pencil_on_u(self, case):
        """The inequality the skip rests on: with U* = U#, the pencil on U*
        (mean over U) is at least the pencil on U, cell by cell."""
        cone, cov = self.covering(case)
        for c in cov.cells:
            assert (poincare_constant(cone, c.U, c.Ustar)
                    <= poincare_constant(cone, c.Ustar, c.Usharp,
                                         mean_set=c.U))

    def test_key_invariant_under_rotations(self):
        for cone in (self.annulus(),
                     build_cone(CircleLink(TWO_PI), 0.0, 2.0, 8,
                                angular_steps=10)):
            cov = band_covering(cone, 0.0, 1.5, 0.4)
            for cell in (cov.cells[0], cov.cells[-1]):
                key = conelab.spectral._cell_key(cone, cell)
                for shift in range(cone.link_nodes):
                    image = rotated_cell(cone, cell, shift)
                    assert conelab.spectral._cell_key(cone, image) == key

    def test_key_separates_reflection_and_outer_set(self):
        cone = self.annulus()
        A = cone.link_nodes

        def v(k, a):
            return k * A + a % A
        def cell_of(*sets):
            return Cell(*(np.sort(s) for s in sets))
        U = [v(2, 0), v(2, 1), v(3, 0)]
        Ustar = U + [v(2, 2), v(3, 1)]
        cell = cell_of(U, Ustar, Ustar + [v(4, 0)])
        key = conelab.spectral._cell_key
        mirror = rotated_cell(cone, cell, 0, reflect=True)
        assert all(key(cone, rotated_cell(cone, mirror, s)) != key(cone, cell)
                   for s in range(A))
        wider = cell_of(U, Ustar, Ustar + [v(4, 1)])
        assert key(cone, wider) != key(cone, cell)
        assert key(cone, rotated_cell(cone, cell, 5)) == key(cone, cell)
        # U* = U#, as two equal arrays in the rotated image
        same = cell_of(U, Ustar, Ustar)
        assert key(cone, same) != key(cone, cell)
        assert key(cone, rotated_cell(cone, same, 7)) == key(cone, same)

    @pytest.mark.parametrize("case, broken", [
        (case, broken) for case in ("annulus", "apex")
        for broken in ("conductance", "measure", "inverse")])
    def test_broken_rotation_raises(self, case, broken):
        """One tangential conductance, or one ring vertex's measure, off by
        one ulp breaks the rotation at the cone level while every cell key
        stays as it was; so does a link automorphism other than the
        a -> a + 1 that the key assumes.  The network with the cone's own
        arrays passes and gives the cone's value to the last bit."""
        cone, cov = self.covering(case)
        names = ("measures", "edges", "conductances", "link_automorphism",
                 "link_nodes", "ring_of", "link_index")

        def net(**arrays):
            return types.SimpleNamespace(**{
                name: arrays.get(name, getattr(cone, name))
                for name in names})
        assert covering_cell_constant(cov, net()) == covering_cell_constant(
            cov, cone)
        if broken == "conductance":
            ring = cone.ring_of[cone.edges]
            i = np.flatnonzero((ring[:, 0] == ring[:, 1])
                               & (ring[:, 0] >= 0))[5]
            arrays = {"conductances": cone.conductances.copy()}
            arrays["conductances"][i] = np.nextafter(
                cone.conductances[i], np.inf)
        elif broken == "measure":
            i = np.flatnonzero(cone.ring_of >= 0)[5]
            arrays = {"measures": cone.measures.copy()}
            arrays["measures"][i] = np.nextafter(cone.measures[i], np.inf)
        else:
            # a -> a - 1: an automorphism too, but not the key's rotation
            arrays = {"link_automorphism": np.argsort(
                cone.link_automorphism)}
        with pytest.raises(InternalFault, match="not an automorphism"):
            covering_cell_constant(cov, net(**arrays))

    @pytest.mark.parametrize("R", [1.0, 2.0, 4.0])
    def test_criterion_2_pencil_count(self, R, monkeypatch):
        """Structural guard: each criterion-2 covering has 6 congruence
        classes of its 66 cells, and U* = U#: 6 pencils."""
        cone = build_cone(CircleLink(TWO_PI), 0.15, 16.0, 168,
                          angular_steps=48, spacing="geometric")
        cov = band_covering(cone, R, 2.0 * R, 0.3 * R)
        assert len(cov.cells) == 66
        calls = count_pencils(monkeypatch)
        covering_cell_constant(cov, cone)
        assert len(calls) == 6
