import itertools
import json
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError

import conelab.toric
from conelab import (DomainError, InternalFault, PreconditionError,
                     ToricConeData, UnsupportedError, cross_section,
                     gorenstein_covector, invariant_A, kahler_class,
                     maximal_triangulation, support_function_check)
from conelab.toric import (_as_fraction, _contains_line, _det,
                           _divisor_facet, _hull2d, _kernel_basis,
                           _poly_vertices, _polygon_points, _primitive,
                           _smith_normal_form, _solve, integer_solve)


def a1_cone():
    """Quadric cone C^2 / Z_2: rays (1,0) and (1,2)."""
    return ToricConeData(2, [(1, 0), (1, 2)])


def z3_cone():
    """C^3 / Z_3 with diagonal weights: rays e1, e2 and (-1,-1,3)."""
    return ToricConeData(3, [(1, 0, 0), (0, 1, 0), (-1, -1, 3)])


#: Pointed cones with many rays and no Gorenstein covector: 29 rays on the
#: level <(1, 0, ...), u> = 1 and one ray far below it.
MANY_RAYS = {
    3: tuple((1, a % 5, a // 5) for a in range(29)) + ((-30, 1, 0),),
    4: tuple((1, a % 3, (a // 3) % 3, a // 9) for a in range(25))
    + ((-26, 1, 0, 0),)}


def default_values(tri, interior=1):
    return {r: (0 if i < tri.n_boundary else interior)
            for i, r in enumerate(tri.rays)}


def triangulate(cone):
    return maximal_triangulation(
        cross_section(cone, gorenstein_covector(cone).gamma), cone)


def dot(u, y):
    return sum(Fraction(a) * b for a, b in zip(u, y))


def fraction_vertices(ineqs, dim):
    """The vertices of :func:`_poly_vertices` as sorted Fraction tuples."""
    return sorted(tuple(Fraction(x, v[-1]) for x in v[:-1])
                  for v in _poly_vertices(ineqs, dim)[1])


def enumerated_facets(tri, vals):
    """Divisor facets by brute force: the vertices of C_h, cut by a cap
    beyond its bounded vertices, that lie on <u_j, y> = lambda_j, for every
    interior ray j with lambda_j != 0."""
    m = tri.cone.dim
    h_ineqs = [(u, vals[j]) for j, u in enumerate(tri.rays)]
    w = tuple(sum(u[i] for u in tri.rays) for i in range(m))
    wmax = max(dot(w, v) for v in fraction_vertices(h_ineqs, m))
    cap = (tuple(-x for x in w), -(2 * wmax + 1))
    verts = fraction_vertices(h_ineqs + [cap], m)
    return {j: [v for v in verts if dot(tri.rays[j], v) == vals[j]]
            for j in range(tri.n_boundary, len(tri.rays)) if vals[j] != 0}


def hull_volume(verts, dim):
    """Qhull's volume of the convex hull of ``verts``; 0 if degenerate."""
    if len(verts) < dim + 1:
        return 0.0
    try:
        return float(ConvexHull(np.array(verts, dtype=float)).volume)
    except QhullError:
        return 0.0


def face_relative_volume(verts, u, dim):
    """Euclidean volume of the face conv(verts) on a hyperplane with normal
    u, over |u|, in floats: in 3d the face is projected to an orthonormal
    basis of the hyperplane."""
    norm = math.sqrt(sum(float(x) ** 2 for x in u))
    pts = np.array(verts, dtype=float)
    if dim == 2:
        return float(np.max(np.linalg.norm(pts[:, None] - pts[None], axis=2))
                     ) / norm
    n = np.array(u, dtype=float) / norm
    e1 = np.cross(n, [0.0, 1.0, 0.0] if abs(n[0]) > 0.9 else [1.0, 0.0, 0.0])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    return hull_volume(np.c_[pts @ e1, pts @ e2], 2) / norm


def enumerated_invariant(tri, vals, omega):
    """(divisor_sum, polytope_volume, excised_volume) in floats, the float
    oracle of the exact routes: Qhull volumes of C and C_h, both bounded
    by every triangulation ray and capped, with the cap doubled until the
    excised volume is stable, and Qhull areas of the enumerated facets."""
    m = tri.cone.dim
    rays = tri.rays
    w = tuple(sum(u[i] for u in rays) for i in range(m))
    h_ineqs = [(u, vals[j]) for j, u in enumerate(rays)]
    T = 2 * max(dot(w, v) for v in fraction_vertices(h_ineqs, m)) + 1

    def excised(Tcap):
        cap = (tuple(-x for x in w), -Tcap)
        return (hull_volume(fraction_vertices(
                    [(u, Fraction(0)) for u in rays] + [cap], m), m)
                - hull_volume(fraction_vertices(h_ineqs + [cap], m), m))

    vol, vol2 = excised(T), excised(2 * T)
    while abs(vol - vol2) > 1e-12 * max(abs(vol), 1.0):
        T, vol, vol2 = 2 * T, vol2, excised(4 * T)
    total = 0.0
    for j, face in enumerated_facets(tri, vals).items():
        total += float(vals[j]) * face_relative_volume(face, rays[j], m)
    return (-(2 * math.pi) ** m * total / ((m - 1) * m * omega),
            -(2 * math.pi) ** m * vol / ((m - 1) * omega), vol)


@st.composite
def a_fan_values(draw):
    """A_{k-1} fan with integer support values j -> sum_i g_i k G(j, i), G
    the path's Green function: second differences -k g_i < 0."""
    k = draw(st.integers(2, 12))
    g = draw(st.lists(st.integers(1, 20), min_size=k - 1, max_size=k - 1))
    h = [sum(gi * min(j, i) * (k - max(j, i))
             for i, gi in enumerate(g, start=1)) for j in range(k + 1)]
    tri = triangulate(ToricConeData(2, [(1, 0), (1, k)]))
    return tri, {u: h[u[1]] for u in tri.rays}, 2.0 * math.pi


@st.composite
def z3_values(draw):
    """C^3 / Z_3 with a positive integer or fractional interior value."""
    x = draw(st.one_of(st.integers(1, 1000),
                       st.fractions(min_value=Fraction(1, 100), max_value=100,
                                    max_denominator=100)))
    tri = triangulate(z3_cone())
    return tri, default_values(tri, interior=x), 4.0 * math.pi ** 2 / 3.0


class TestConeData:
    def test_rejects_non_primitive_ray(self):
        with pytest.raises(DomainError):
            ToricConeData(2, [(2, 0), (1, 2)])

    def test_rejects_duplicate_rays(self):
        with pytest.raises(DomainError):
            ToricConeData(2, [(1, 0), (1, 0)])

    def test_rejects_non_pointed(self):
        with pytest.raises(DomainError):
            ToricConeData(2, [(1, 0), (-1, 0)])

    @pytest.mark.parametrize("dim, rays", [
        (2, ((1.6, 0), (1, 2))),   # constructed, with gamma = (1, 0) unique
        (2, ((1.0, 0), (1, 2))),
        (2, ((True, 0), (1, 2))),
        (2.0, ((1, 0), (1, 2))),
        (True, ((1,), (-1,))),
        (np.float64(2), ((1, 0), (1, 2)))])
    def test_rejects_non_integers(self, dim, rays):
        with pytest.raises(DomainError, match="must be an integer"):
            ToricConeData(dim, rays)

    def test_stores_python_ints(self):
        cone = ToricConeData(np.int64(2), [np.array([1, 0]), (1, 2)])
        assert cone == ToricConeData(2, ((1, 0), (1, 2)))
        assert all(type(x) is int for x in (cone.dim, *sum(cone.rays, ())))

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(st.integers(2, 4).flatmap(lambda dim: st.lists(
        st.tuples(*[st.integers(-3, 3)] * dim).filter(any),
        min_size=1, max_size=dim + 3)))
    def test_circuit_test_matches_linprog(self, rays):
        # the cone is pointed iff the rays lie in an open half space,
        # <u, y> >= 1 for some y (Gordan)
        dim = len(rays[0])
        res = linprog(np.zeros(dim), A_ub=-np.array(rays, dtype=float),
                      b_ub=-np.ones(len(rays)),
                      bounds=[(None, None)] * dim, method="highs")
        assert _contains_line(rays) == (not res.success)

    @pytest.mark.parametrize("dim, kernels", [(3, 436), (4, 2601)])
    def test_dual_ray_test_kernel_count(self, monkeypatch, dim, kernels):
        # C(n, rank - 1) + 1 kernels for n rays; enumerating every subset of
        # 2 .. dim + 1 rays, as a circuit search does, needs 31,900 and 83,655
        calls = []

        def counted(A):
            calls.append(len(A))
            return _kernel_basis(A)

        monkeypatch.setattr(conelab.toric, "_kernel_basis", counted)
        assert ToricConeData(dim, MANY_RAYS[dim]).rays == MANY_RAYS[dim]
        assert len(calls) == kernels

    def test_many_rays_with_a_line_rejected(self):
        # (1, 1, 1) is already a ray (a = 6): its opposite closes the line
        assert (1, 1, 1) in MANY_RAYS[3]
        rays = MANY_RAYS[3] + ((-1, -1, -1),)
        with pytest.raises(DomainError,
                           match="do not span a strictly convex cone"):
            ToricConeData(3, rays)

    @pytest.mark.parametrize("x, want", [
        (0.1, Fraction(1, 10)), (1e-13, Fraction(1, 10 ** 13)),
        (3e-12, Fraction(3, 10 ** 12)), (1e90, Fraction(10 ** 90)),
        (-0.0, Fraction(0))])
    def test_float_support_values_read_as_decimals(self, x, want):
        assert _as_fraction(x) == want

    @pytest.mark.parametrize("x", [True, False])
    def test_boolean_support_value_refused(self, x):
        with pytest.raises(DomainError, match="is not a number"):
            _as_fraction(x)


class TestIntegerLinearAlgebra:
    def test_snf_diagonal_divisibility(self):
        A = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
        D, U, V = _smith_normal_form(A)
        for i in range(len(D) - 1):
            if D[i + 1][i + 1] != 0:
                assert D[i + 1][i + 1] % D[i][i] == 0

    def test_integer_solve(self):
        x, reason = integer_solve([[2, 1], [1, 1]], [3, 2])
        assert reason is None
        assert [2 * x[0] + x[1], x[0] + x[1]] == [3, 2]

    def test_integer_solve_infeasible(self):
        x, reason = integer_solve([[2, 0], [0, 2]], [1, 1])
        assert x is None and reason

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                 min_size=n, max_size=n),
        st.lists(st.fractions(max_denominator=50), min_size=n,
                 max_size=n))))
    def test_cramer_solve_is_exact(self, system):
        A, b = system
        x = _solve(A, b)
        assert (x is None) == bool(_kernel_basis(A))
        if x is not None:
            assert [sum(a * c for a, c in zip(row, x)) for row in A] == b


def cofactor_det(M):
    """Determinant by cofactor expansion along the first row."""
    if len(M) == 1:
        return M[0][0]
    return sum((-1) ** j * a * cofactor_det([row[:j] + row[j + 1:]
                                             for row in M[1:]])
               for j, a in enumerate(M[0]))


entries = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                    st.fractions(max_denominator=50))


class TestClosedFormDeterminant:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_matches_cofactor_expansion(self, M):
        got = _det(M)
        assert got == cofactor_det(M)
        assert isinstance(got, (int, Fraction))

    def test_larger_matrix_is_a_fault(self):
        with pytest.raises(InternalFault, match="4 x 4"):
            _det([[int(i == j) for j in range(4)] for i in range(4)])


class TestGorenstein:
    def test_a1(self):
        res = gorenstein_covector(a1_cone())
        assert res.gamma == (1, 0)
        assert res.unique

    def test_z3(self):
        res = gorenstein_covector(z3_cone())
        assert res.gamma == (1, 1, 1)
        assert res.unique

    def test_non_gorenstein(self):
        # rays not on a common lattice hyperplane gamma . u = 1
        res = gorenstein_covector(ToricConeData(2, [(1, 0), (2, 3)]))
        if res.gamma is not None:
            # gamma must evaluate to 1 on every ray; (1,0),(1,3) forbid it
            assert False, "unexpected covector"
        assert res.certificate


class TestCrossSection:
    def test_a1_segment(self):
        cone = a1_cone()
        sec = cross_section(cone, gorenstein_covector(cone).gamma)
        assert len(sec.points2d) == 3
        assert len(sec.interior2d) == 1

    def test_z3_triangle(self):
        cone = z3_cone()
        sec = cross_section(cone, gorenstein_covector(cone).gamma)
        assert len(sec.interior2d) == 1
        assert len(sec.boundary2d) == 3

    def test_high_dimension_unsupported(self):
        cone = ToricConeData(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                                 (-1, -1, -1, 4)])
        res = gorenstein_covector(cone)
        with pytest.raises(UnsupportedError):
            cross_section(cone, res.gamma)


class TestTriangulation:
    @pytest.mark.parametrize("make", [a1_cone, z3_cone])
    def test_maximal_and_basic(self, make):
        cone = make()
        sec = cross_section(cone, gorenstein_covector(cone).gamma)
        tri = maximal_triangulation(sec, cone)
        assert tri.maximal      # every lattice point of the section is a ray
        assert tri.basic        # every simplex has determinant +-1

    def test_a1_structure(self):
        cone = a1_cone()
        tri = maximal_triangulation(
            cross_section(cone, (1, 0)), cone)
        assert (1, 1) in tri.rays
        assert len(tri.simplices) == 2

    def test_z3_structure(self):
        cone = z3_cone()
        tri = maximal_triangulation(
            cross_section(cone, (1, 1, 1)), cone)
        assert (0, 0, 1) in tri.rays
        assert len(tri.simplices) == 3
        assert tri.n_boundary == 3


class TestSupportAndKahler:
    def test_strict_convexity(self):
        cone = z3_cone()
        tri = maximal_triangulation(
            cross_section(cone, (1, 1, 1)), cone)
        chk = support_function_check(tri, default_values(tri))
        assert chk.strictly_convex
        assert chk.compactly_supported

    def test_zero_class_not_kahler(self):
        cone = z3_cone()
        tri = maximal_triangulation(
            cross_section(cone, (1, 1, 1)), cone)
        kc = kahler_class(tri, {r: 0 for r in tri.rays})
        assert not kc.is_kahler

    def test_kahler_positive_interior(self):
        cone = a1_cone()
        tri = maximal_triangulation(cross_section(cone, (1, 0)), cone)
        kc = kahler_class(tri, default_values(tri))
        assert kc.is_kahler

    def test_nonconvex_values_rejected_for_invariant(self):
        cone = a1_cone()
        tri = maximal_triangulation(cross_section(cone, (1, 0)), cone)
        vals = default_values(tri, interior=-1)   # concave support function
        with pytest.raises(PreconditionError):
            invariant_A(tri, vals, omega_link=math.pi)


FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def fixture_fan(name):
    """The fan of a fixture and its support values as the CLI reads them."""
    doc = json.loads((FIXTURES / name).read_text())
    tri = triangulate(ToricConeData(doc["dim"],
                                    tuple(map(tuple, doc["rays"]))))
    raw = doc.get("support_values", {})
    vals = [Fraction(raw.get(json.dumps(list(u)),
                             0 if i < tri.n_boundary else 1))
            for i, u in enumerate(tri.rays)]
    return tri, vals


FIXTURE_FANS = {name: fixture_fan(name)
                for name in ("toric.json", "a9.json", "z5.json")}


def support_check_by_fractions(tri, vals):
    """(strict, witnesses, forms) with every form evaluated in Fractions."""
    forms, witnesses = [], []
    for si, s in enumerate(tri.simplices):
        l = _solve([tri.rays[i] for i in s], [vals[i] for i in s])
        forms.append(l)
        witnesses += [(si, u) for j, u in enumerate(tri.rays)
                      if j not in s and dot(u, l) <= vals[j]]
    return not witnesses, witnesses, forms


class TestSupportCheckInIntegers:
    """The strictness test in integers against one in Fractions, on the
    fixture fans with convex and non-convex support values."""

    @pytest.mark.parametrize("name", sorted(FIXTURE_FANS))
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_fraction_reference(self, name, data):
        tri, _ = FIXTURE_FANS[name]
        vals = data.draw(st.lists(
            st.one_of(st.integers(-6, 30),
                      st.fractions(min_value=-6, max_value=30,
                                   max_denominator=12)),
            min_size=len(tri.rays), max_size=len(tri.rays)))
        vals = [Fraction(v) for v in vals]
        chk = support_function_check(tri, vals)
        strict, witnesses, forms = support_check_by_fractions(tri, vals)
        assert chk.strictly_convex == strict
        assert list(chk.witnesses) == witnesses
        assert list(chk.linear_forms) == forms
        assert all(isinstance(c, Fraction) for l in chk.linear_forms
                   for c in l)

    @pytest.mark.parametrize("name", sorted(FIXTURE_FANS))
    @pytest.mark.parametrize("scale", [1, Fraction(1, 3), 0, -1])
    def test_scaled_fixture_values(self, name, scale):
        tri, vals = FIXTURE_FANS[name]
        vals = [scale * v for v in vals]
        chk = support_function_check(tri, vals)
        strict, witnesses, forms = support_check_by_fractions(tri, vals)
        assert (chk.strictly_convex, list(chk.witnesses),
                list(chk.linear_forms)) == (strict, witnesses, forms)
        # the fixtures' classes are strictly convex; flat or concave
        # multiples fail somewhere
        assert bool(witnesses) == (scale <= 0)


class TestInvariantA:
    def test_a1_value(self):
        cone = a1_cone()
        tri = maximal_triangulation(cross_section(cone, (1, 0)), cone)
        vals = default_values(tri)
        # excised region between the support graph and the section has
        # lattice volume 1; with omega = 2 pi: A = -(2 pi)^2 * 1 / (1 * 2 pi)
        inv = invariant_A(tri, vals, omega_link=2.0 * math.pi)
        assert inv.value == pytest.approx(-2.0 * math.pi)
        assert inv.excised_volume == pytest.approx(1.0)
        assert inv.divisor_sum == pytest.approx(inv.polytope_volume,
                                                rel=1e-12)

    def test_z3_value(self):
        cone = z3_cone()
        tri = maximal_triangulation(cross_section(cone, (1, 1, 1)), cone)
        vals = default_values(tri)
        omega = 4.0 * math.pi ** 2 / 3.0
        inv = invariant_A(tri, vals, omega_link=omega)
        assert inv.value < 0
        assert inv.excised_volume == pytest.approx(1.5)
        assert inv.divisor_sum == pytest.approx(inv.polytope_volume,
                                                rel=1e-9)
        want = -(2 * math.pi) ** 3 * 1.5 / (2 * omega)
        assert inv.value == pytest.approx(want)

    @pytest.mark.parametrize("t", [2, 3])
    def test_homogeneity(self, t):
        cone = z3_cone()
        tri = maximal_triangulation(cross_section(cone, (1, 1, 1)), cone)
        vals = default_values(tri)
        base = invariant_A(tri, vals, omega_link=1.0).value
        scaled = invariant_A(tri, {k: t * v for k, v in vals.items()},
                             omega_link=1.0).value
        assert scaled == pytest.approx(t ** 3 * base, rel=1e-12)

    def test_methods_agree(self):
        cone = z3_cone()
        tri = maximal_triangulation(cross_section(cone, (1, 1, 1)), cone)
        vals = default_values(tri, interior=Fraction(3, 2))
        a = invariant_A(tri, vals, omega_link=2.0, method="divisor_sum")
        b = invariant_A(tri, vals, omega_link=2.0, method="polytope_volume")
        assert a.value == pytest.approx(b.value, rel=1e-12)


class TestFacetsFromTheFan:
    """The divisor route reads its facets from the support forms; these
    gate it against brute-force enumeration."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(case=st.one_of(a_fan_values(), z3_values()))
    def test_forms_match_enumeration(self, case):
        tri, vals, omega = case
        fracs = [Fraction(vals[u]) for u in tri.rays]
        forms = support_function_check(tri, vals).linear_forms
        for j, face in enumerated_facets(tri, fracs).items():
            assert _divisor_facet(tri, forms, j) == face
        inv = invariant_A(tri, vals, omega_link=omega)
        assert inv.divisor_sum == inv.polytope_volume == inv.value
        want = enumerated_invariant(tri, fracs, omega)
        got = (inv.divisor_sum, inv.polytope_volume, inv.excised_volume)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("make", [a1_cone, z3_cone])
    def test_one_vertex_enumeration_per_volume(self, make, monkeypatch):
        # C and C_h, each under the one cap
        calls = []
        enumerate_ = conelab.toric._poly_vertices

        def counted(ineqs, dim):
            calls.append(len(ineqs))
            return enumerate_(ineqs, dim)

        monkeypatch.setattr(conelab.toric, "_poly_vertices", counted)
        cone = make()
        tri = triangulate(cone)
        invariant_A(tri, default_values(tri), omega_link=1.0)
        # C is bounded by the cone's own rays and the cap, C_h by every
        # ray of the triangulation and the cap
        assert calls == [len(cone.rays) + 1, len(tri.rays) + 1]


class TestOmegaLink:
    @pytest.mark.parametrize("omega", [0.0, -1.0, math.inf, math.nan, 1e308,
                                       1e-320])
    def test_rejected_by_name(self, omega):
        tri = triangulate(a1_cone())
        with pytest.raises(DomainError, match="omega_link must be positive"):
            invariant_A(tri, default_values(tri), omega_link=omega)


class TestOverflow:
    @pytest.mark.parametrize("method",
                             ["both", "divisor_sum", "polytope_volume"])
    def test_infinite_values_rejected(self, method):
        # A1 with Omega = 1e-300: the scale (2 pi)^2 / Omega is finite, but
        # times the volume of a class 10^12 times the unit one it is not
        tri = triangulate(a1_cone())
        with pytest.raises(DomainError, match="invariant A overflows"):
            invariant_A(tri, default_values(tri, interior=10 ** 12),
                        omega_link=1e-300, method=method)

    def test_exact_value_beyond_float_range(self):
        tri = triangulate(a1_cone())
        with pytest.raises(DomainError, match="invariant A overflows"):
            invariant_A(tri, default_values(tri, interior="1e400"),
                        omega_link=1.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_support_value(self, value):
        tri = triangulate(a1_cone())
        with pytest.raises(DomainError, match="not finite"):
            invariant_A(tri, default_values(tri, interior=value),
                        omega_link=1.0)


def poly_vertices_by_fractions(ineqs, dim):
    """Vertices of {y : <u, y> >= rhs}, every solve and test in Fractions."""
    verts = set()
    for combo in itertools.combinations(ineqs, dim):
        y = _solve([u for u, _ in combo], [rhs for _, rhs in combo])
        if y is not None and all(dot(u, y) >= rhs for u, rhs in ineqs):
            verts.add(y)
    return sorted(verts)


@st.composite
def inequality_systems(draw):
    """dim 2 or 3, dim to dim + 4 rows with small integer normals and
    integer or fractional right-hand sides."""
    dim = draw(st.sampled_from([2, 3]))
    rhs = st.one_of(st.integers(-5, 5),
                    st.fractions(min_value=-5, max_value=5,
                                 max_denominator=12))
    rows = draw(st.lists(st.tuples(
        st.tuples(*[st.integers(-3, 3)] * dim), rhs),
        min_size=dim, max_size=dim + 4))
    return rows, dim


class TestPolyVertices:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(system=inequality_systems())
    def test_matches_fraction_enumeration(self, system):
        ineqs, dim = system
        assert fraction_vertices(ineqs, dim) == \
            poly_vertices_by_fractions(ineqs, dim)
        # each vertex carries exactly the rows it lies on
        rows, verts = _poly_vertices(ineqs, dim)
        for v, on in verts.items():
            assert on == {i for i, (u, p) in enumerate(rows) if any(u)
                          and sum(a * x for a, x in zip(u, v)) == p * v[-1]}

    def test_capped_cone(self):
        # the capped C of the C^3 / Z_3 cone: the simplex of the rays' dual
        ineqs = [(u, 0) for u in z3_cone().rays] + [((-1, -1, -1), -3)]
        rows, verts = _poly_vertices(ineqs, 3)
        assert fraction_vertices(ineqs, 3) == \
            poly_vertices_by_fractions(ineqs, 3)
        assert all(isinstance(x, int) for v in verts for x in v)
        assert len(verts) == 4
        assert rows == ineqs
        # a simplex: each vertex lies on three of the four rows
        assert sorted(map(sorted, verts.values())) == [
            [0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]


class TestPolygonPoints:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                    min_size=3, max_size=8))
    def test_pick_theorem(self, verts):
        hull = _hull2d(verts)
        if len(hull) < 3:
            return
        edges = list(zip(hull, hull[1:] + hull[:1]))
        twice_area = sum(a[0] * b[1] - a[1] * b[0] for a, b in edges)
        points, boundary, interior = _polygon_points(verts)
        assert len(boundary) == sum(_primitive((b[0] - a[0], b[1] - a[1]))
                                    for a, b in edges)
        assert twice_area == 2 * len(interior) + len(boundary) - 2
        assert sorted(points) == sorted(boundary + interior)
