import math
import types

import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import splu

import conelab.spectral
from conelab import (CapacityError, CircleLink, DomainError, build_cone,
                     covering_cell_constant, gaussian_fit,
                     green_by_time_integration, greens_function, heat_kernel,
                     indicial_spectrum, net_covering, poincare_constant,
                     scale_invariant_poincare_scan, sphere_link)
from conelab.graphs import dirichlet_laplacian
from conelab.spectral import HeatKernelSample

TWO_PI = 2.0 * math.pi


def path_net(n, h):
    """Uniform finite-volume discretization of the unit interval."""
    net = types.SimpleNamespace()
    net.measures = [h] * n
    net.edges = [(i, i + 1) for i in range(n - 1)]
    net.conductances = [1.0 / h] * (n - 1)
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

    def test_dense_and_iterative_agree(self):
        # same pair solved below and above the dense-solver cutoff
        n_small, n_big = 300, 600
        lam_s = poincare_constant(path_net(n_small, 1.0 / n_small),
                                  range(n_small // 4, 3 * n_small // 4),
                                  range(n_small))
        lam_b = poincare_constant(path_net(n_big, 1.0 / n_big),
                                  range(n_big // 4, 3 * n_big // 4),
                                  range(n_big))
        assert lam_b == pytest.approx(lam_s, rel=1e-3)

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

    def test_singleton_zero(self):
        net = path_net(5, 1.0)
        assert poincare_constant(net, [2], [1, 2, 3]) == 0.0

    def test_mean_set_must_be_inside(self):
        net = path_net(5, 1.0)
        with pytest.raises(DomainError):
            poincare_constant(net, [1, 2], [0, 1, 2, 3], mean_set=[3])

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
    """Pairs above the 400-vertex dense cutoff, solved by Lanczos."""

    def test_unit_interval_oracle(self):
        # U = U' = the whole path: the constant is 1 / gap of the path
        # graph, h^2 / (4 sin^2(pi / 2n)), and tends to 1/pi^2
        n = 1000
        lam = poincare_constant(path_net(n, 1.0 / n), range(n), range(n))
        exact = 1.0 / (4 * n * n * math.sin(math.pi / (2 * n)) ** 2)
        assert lam == pytest.approx(exact, rel=1e-10)
        assert lam == pytest.approx(1.0 / math.pi ** 2, rel=1e-5)

    def test_criterion_2_region_matches_schur_reference(self):
        cone = build_cone(CircleLink(TWO_PI), 0.15, 16.0, 168,
                          angular_steps=48, spacing="geometric")
        R = 2.0
        region = np.flatnonzero((cone.radii >= R)
                                & (cone.radii <= 2 * R)).tolist()
        Up = sorted(net_covering(cone, region, 0.3 * R).Asharp)
        assert len(Up) > 400
        lam = poincare_constant(cone, region, Up)
        assert lam == pytest.approx(schur_reference(cone, region, Up),
                                    rel=1e-9)

    def test_no_convergence_raises(self, monkeypatch):
        eigsh = conelab.spectral.eigsh
        monkeypatch.setattr(conelab.spectral, "eigsh",
                            lambda *a, **k: eigsh(*a, maxiter=1, ncv=3, **k))
        n = 1000
        with pytest.raises(CapacityError):
            poincare_constant(path_net(n, 1.0 / n), range(n), range(n))


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

    def test_scan_deterministic(self):
        cone = build_cone(CircleLink(TWO_PI), 0.0, 6.0, 72, angular_steps=36)
        s1 = scale_invariant_poincare_scan(cone, n_samples=6, seed=3)
        s2 = scale_invariant_poincare_scan(cone, n_samples=6, seed=3)
        assert [r.value for r in s1.records] == [r.value for r in s2.records]
        assert math.isfinite(s1.c_max)
