"""Toric Gorenstein cones: cross-sections, triangulations and the volume
invariant of compactly supported Kahler classes.

Everything up to the invariant's value is exact integer/rational
arithmetic: Gorenstein covectors, lattice points, triangulations,
closed-form determinants, support function convexity and the volumes of
both routes to the invariant.  Floats enter only in the final
(2 pi)^m / Omega scaling.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (DomainError, InternalFault, PreconditionError,
                     UnsupportedError, _count)

Vec = tuple


# ---------------------------------------------------------------------------
# exact integer linear algebra


def _smith_normal_form(A):
    """Return (D, U, V) with U A V = D diagonal, U, V unimodular.

    Plain elimination over the integers; fine for the tiny matrices that
    arise from fans (a handful of rays in dimension <= 3).
    """
    A = [list(map(int, row)) for row in A]
    rows, cols = len(A), len(A[0])
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, q):
        A[dst] = [a + q * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(dst, src, q):
        for r in A:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    t = 0
    while t < min(rows, cols):
        # find a pivot
        piv = None
        for i in range(t, rows):
            for j in range(t, cols):
                if A[i][j] != 0:
                    if piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]]):
                        piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, rows):
                if A[i][t] != 0:
                    add_row(i, t, -(A[i][t] // A[t][t]))
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, cols):
                if A[t][j] != 0:
                    add_col(j, t, -(A[t][j] // A[t][t]))
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        done = False
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return A, U, V


def integer_solve(A, b):
    """Solve A x = b over the integers; return (x, None) or (None, reason)."""
    D, U, V = _smith_normal_form(A)
    rows, cols = len(D), len(D[0])
    c = [sum(U[i][k] * b[k] for k in range(rows)) for i in range(rows)]
    y = [0] * cols
    for i in range(rows):
        d = D[i][i] if i < cols else 0
        if d == 0:
            if c[i] != 0:
                return None, f"inconsistent: row {i} requires 0 = {c[i]}"
        else:
            if c[i] % d != 0:
                return None, (f"no integral solution: row {i} requires "
                              f"{c[i]} divisible by {d}")
            y[i] = c[i] // d
    x = [sum(V[i][k] * y[k] for k in range(cols)) for i in range(cols)]
    return tuple(x), None


def _kernel_basis(A):
    """Integer basis of the kernel lattice of A (rows = equations)."""
    D, _, V = _smith_normal_form(A)
    rows, cols = len(D), len(D[0])
    rank = sum(1 for i in range(min(rows, cols)) if D[i][i] != 0)
    return [tuple(V[i][k] for i in range(cols)) for k in range(rank, cols)]


def _det(M):
    """Exact determinant of a 1 x 1, 2 x 2 or 3 x 3 matrix of integers or
    Fractions, in closed form.  The systems of a fan are m x m, and
    :func:`cross_section` admits m <= 3 only."""
    n = len(M)
    if n == 1:
        return M[0][0]
    if n == 2:
        (a, b), (c, d) = M
        return a * d - b * c
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = M
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    raise InternalFault(f"{n} x {n} determinant; only m <= 3 is supported")


def _solve(A, b):
    """Exact solve of a square system by Cramer's rule; None if singular."""
    d = _det(A)
    if d == 0:
        return None
    return tuple(Fraction(_det([[*row[:i], x, *row[i + 1:]]
                                for row, x in zip(A, b)]), d)
                 for i in range(len(A)))


def _primitive(v):
    """The gcd of an integer vector's entries (0 for the zero vector)."""
    return math.gcd(*v)


# ---------------------------------------------------------------------------
# cone data and the Gorenstein covector


@dataclass(frozen=True)
class ToricConeData:
    """Rational polyhedral cone given by its primitive ray generators, with
    integer ``dim`` (>= 2) and coordinates (DomainError for floats)."""
    dim: int
    rays: tuple

    def __post_init__(self):
        # frozen: the checked ints replace the given values
        object.__setattr__(self, "dim", _count(self.dim, 2,
                                               "a toric cone's dim"))
        object.__setattr__(self, "rays", tuple(
            tuple(_count(x, None, "a ray coordinate") for x in u)
            for u in self.rays))
        if len(self.rays) < self.dim:
            raise DomainError("need at least dim rays")
        for u in self.rays:
            if len(u) != self.dim:
                raise DomainError(f"ray {u} has wrong dimension")
            if _primitive(u) != 1:
                raise DomainError(f"ray {u} is not primitive")
        if len(set(self.rays)) != len(self.rays):
            raise DomainError("duplicate rays")
        if _contains_line(self.rays):
            raise DomainError("rays do not span a strictly convex cone")


def _contains_line(rays):
    """Whether the cone C spanned by ``rays`` contains a line, from the rays
    of its dual cone.  P, the kernel of the rays, spans C's orthogonal
    complement, and C has rank r = dim - |P|.  Within span C the dual cone
    is pointed; its rays are the y orthogonal to P and to r - 1 independent
    rays with <u, y> of one sign on every ray u.  C is pointed exactly when
    their sum is positive on every ray (Gordan): a line in C is orthogonal
    to every dual ray.  C(n, r - 1) + 1 kernels for n rays."""
    P = _kernel_basis(rays)
    total = [0] * len(rays)
    for subset in itertools.combinations(rays, len(rays[0]) - len(P) - 1):
        kernel = _kernel_basis([*subset, *P])
        if len(kernel) == 1:
            vals = [sum(map(operator.mul, u, kernel[0])) for u in rays]
            sign = (min(vals) >= 0) - (max(vals) <= 0)
            total = [t + sign * v for t, v in zip(total, vals)]
    return min(total) <= 0


@dataclass(frozen=True)
class GorensteinResult:
    gamma: Optional[Vec]
    certificate: Optional[str]
    unique: bool


def gorenstein_covector(cone: ToricConeData) -> GorensteinResult:
    """Integer covector gamma with <gamma, u_j> = 1 for every ray, if any.

    When absent, ``certificate`` names the obstruction.  The covector is
    unique iff the rays span the ambient space over Q.
    """
    A = [list(u) for u in cone.rays]
    x, reason = integer_solve(A, [1] * len(cone.rays))
    rank = cone.dim - len(_kernel_basis(A))
    if x is None:
        return GorensteinResult(None, reason, rank == cone.dim)
    return GorensteinResult(tuple(int(v) for v in x), None, rank == cone.dim)


# ---------------------------------------------------------------------------
# cross-section polytope


def _orient(a, b, p):
    return ((b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]))


def _hull2d(points):
    """Convex hull of integer points (monotone chain), counterclockwise."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lo, hi = [], []
    for p in pts:
        while len(lo) >= 2 and _orient(lo[-2], lo[-1], p) <= 0:
            lo.pop()
        lo.append(p)
    for p in reversed(pts):
        while len(hi) >= 2 and _orient(hi[-2], hi[-1], p) <= 0:
            hi.pop()
        hi.append(p)
    return lo[:-1] + hi[:-1]


@dataclass
class CrossSection:
    gamma: Vec
    origin: Vec                 # lattice point with <gamma, origin> = 1
    basis: tuple                # lattice basis of ker(gamma)
    rays: tuple                 # the defining rays (all on the gamma=1 level)
    dim: int                    # dimension of the polytope (lattice rank)
    points2d: tuple             # all lattice points, hyperplane coordinates
    boundary2d: tuple
    interior2d: tuple

    def to_ambient(self, q) -> Vec:
        v = list(self.origin)
        for c, bvec in zip(q, self.basis):
            for i in range(len(v)):
                v[i] += c * bvec[i]
        return tuple(v)


def cross_section(cone: ToricConeData, gamma) -> CrossSection:
    """Lattice polytope cut out of the cone by the level <gamma, .> = 1.

    Its vertices are the rays (all of which must satisfy <gamma, u> = 1) and
    its lattice points are enumerated and classified as boundary or interior.
    The rays must span R^m, so the polytope has dimension m - 1; polytopes of
    dimension > 2 are out of scope.
    """
    gamma = tuple(int(g) for g in gamma)
    for u in cone.rays:
        if sum(g * x for g, x in zip(gamma, u)) != 1:
            raise PreconditionError(f"<gamma, {u}> != 1")
    m = cone.dim
    # the affine rank of the rays is the same in ambient and in hyperplane
    # coordinates; it is checked first, since _solve takes m <= 3 only
    rank = _point_rank(cone.rays)
    if rank != m - 1:
        raise UnsupportedError(
            f"the rays do not span R^{m} (cross-section of dimension {rank}, "
            f"not {m - 1}); only full-dimensional cones are supported")
    if rank > 2:
        raise UnsupportedError("cross-sections of dimension > 2 are out of scope")
    # gamma V = (+-1, 0, ..., 0) for the unimodular V, so the columns of V
    # after the first are a lattice basis of ker(gamma) and V^-1 gives
    # integral coordinates in it
    V = _smith_normal_form([list(gamma)])[2]
    kernel = tuple(tuple(V[i][k] for i in range(m)) for k in range(1, m))
    origin = cone.rays[0]

    def to2d(x):
        q = _solve(V, [x[i] - origin[i] for i in range(m)])
        return tuple(int(c) for c in q[1:])

    verts2d = [to2d(u) for u in cone.rays]
    if rank == 1:
        pts, boundary, interior = _segment_points(verts2d)
    else:
        pts, boundary, interior = _polygon_points(verts2d)
    return CrossSection(gamma, origin, kernel, cone.rays, rank,
                        tuple(pts), tuple(boundary), tuple(interior))


def _point_rank(pts):
    base = pts[0]
    M = [[p[i] - base[i] for i in range(len(base))] for p in pts[1:]]
    return len(M[0]) - len(_kernel_basis(M))


def _segment_points(verts2d):
    # all points are collinear in Z^2 (or Z^1); walk the primitive direction
    pts = sorted(set(verts2d))
    a, b = pts[0], pts[-1]
    d = tuple(x - y for x, y in zip(b, a))
    g = _primitive(d)
    step = tuple(x // g for x in d)
    points = [tuple(a[i] + k * step[i] for i in range(len(a)))
              for k in range(g + 1)]
    return points, [points[0], points[-1]], points[1:-1]


def _polygon_points(verts2d):
    """Lattice points of the polygon; a point is on the boundary when no edge
    sees it on its right and one sees it on its line."""
    hull = _hull2d(verts2d)
    xs = [p[0] for p in verts2d]
    ys = [p[1] for p in verts2d]
    points, boundary, interior = [], [], []
    edges = list(zip(hull, hull[1:] + hull[:1]))
    for x in range(min(xs), max(xs) + 1):
        for y in range(min(ys), max(ys) + 1):
            sides = [_orient(a, b, (x, y)) for a, b in edges]
            if min(sides) < 0:
                continue
            points.append((x, y))
            (boundary if 0 in sides else interior).append((x, y))
    return points, boundary, interior


# ---------------------------------------------------------------------------
# maximal (unimodular) triangulation


@dataclass
class FanTriangulation:
    """Triangulation of a cross-section; ``maximal`` is a class constant."""
    cone: ToricConeData
    section: CrossSection
    rays: tuple         # ambient lattice points: boundary first, then interior
    n_boundary: int
    simplices: tuple    # tuples of ray indices (m per simplex)
    basic: bool         # every simplex has determinant +-1
    maximal = True      # not a field: no simplex holds another point

    @property
    def interior_rays(self):
        return self.rays[self.n_boundary:]


def _tri_extra_points(tri, all_pts):
    """Lattice points of ``all_pts`` inside the closed triangle, not vertices."""
    a, b, c = tri
    out = []
    for p in all_pts:
        if p in (a, b, c):
            continue
        d1 = _orient(a, b, p)
        d2 = _orient(b, c, p)
        d3 = _orient(c, a, p)
        if (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0):
            out.append(p)
    return sorted(out)


def maximal_triangulation(section: CrossSection,
                          cone: ToricConeData) -> FanTriangulation:
    """Triangulate the cross-section using every lattice point as a vertex.

    :func:`cross_section` admits dimension <= 2 only, where such a maximal
    triangulation is automatically basic (each simplex spans the lattice,
    determinant +-1), which is verified.
    """
    pts = list(section.points2d)
    if section.dim == 1:
        ordered = sorted(pts)
        simpl2d = [(ordered[k], ordered[k + 1]) for k in range(len(ordered) - 1)]
    else:
        hull = _hull2d(pts)
        stack = [(hull[0], hull[k], hull[k + 1])
                 for k in range(1, len(hull) - 1)]
        simpl2d = []
        while stack:
            tri = stack.pop()
            extras = _tri_extra_points(tri, pts)
            if not extras:
                simpl2d.append(tri)
                continue
            q = extras[0]
            a, b, c = tri
            if _orient(a, b, q) == 0:
                stack += [(a, q, c), (q, b, c)]
            elif _orient(b, c, q) == 0:
                stack += [(b, q, a), (q, c, a)]
            elif _orient(c, a, q) == 0:
                stack += [(c, q, b), (q, a, b)]
            else:
                stack += [(a, b, q), (b, c, q), (c, a, q)]
        simpl2d.sort()
    boundary = sorted(section.boundary2d)
    interior = sorted(section.interior2d)
    coords = boundary + interior
    index = {p: k for k, p in enumerate(coords)}
    rays = tuple(section.to_ambient(p) for p in coords)
    simplices = tuple(tuple(index[p] for p in s) for s in simpl2d)
    # every 2D triangle was split until it held no further lattice point
    basic = all(abs(_det([rays[i] for i in s])) == 1 for s in simplices)
    return FanTriangulation(cone, section, rays, len(boundary), simplices,
                            basic)


# ---------------------------------------------------------------------------
# support functions and Kahler classes


def _as_fraction(x):
    """A support value as an exact Fraction: a float by its shortest decimal
    repr, a string like ``"3/2"`` parsed.  A boolean is refused, not read
    as 0 or 1."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise DomainError(f"support value {x!r} is not a number")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"support value {x!r} is not finite")
        return Fraction(repr(x))
    if isinstance(x, str):
        return Fraction(x)
    raise DomainError(f"cannot interpret support value {x!r}")


def _support_values(tri: FanTriangulation, values):
    if isinstance(values, dict):
        vals = []
        for u in tri.rays:
            if u not in values:
                raise DomainError(f"missing support value for ray {u}")
            vals.append(_as_fraction(values[u]))
        return vals
    vals = [_as_fraction(x) for x in values]
    if len(vals) != len(tri.rays):
        raise DomainError("support value list does not match the rays")
    return vals


@dataclass
class SupportCheck:
    strictly_convex: bool
    compactly_supported: bool
    linear_forms: tuple      # l_sigma per simplex, Fractions
    witnesses: tuple         # (simplex index, ray) pairs where strictness fails


def support_function_check(tri: FanTriangulation, values) -> SupportCheck:
    """Check strict convexity of the piecewise-linear support function h with
    h(u_j) = values[j]: on each top cone sigma, the linear form l_sigma agrees
    with h on sigma and must dominate it strictly off sigma.  Compact support
    means h vanishes on the boundary rays.

    The forms are solved in Fractions; the test is in integers.  With D the
    common denominator of l_sigma and values[j] = p_j / q_j (q_j > 0),
    <u_j, l_sigma> <= values[j] reads <u_j, D l_sigma> q_j <= p_j D.  The
    rays of sigma itself are skipped before anything is computed."""
    vals = _support_values(tri, values)
    fracs = [(v.numerator, v.denominator) for v in vals]
    forms = []
    witnesses = []
    strict = True
    for si, s in enumerate(tri.simplices):
        l = _solve([tri.rays[i] for i in s], [vals[i] for i in s])
        if l is None:
            raise DomainError(f"simplex {s} is degenerate")
        forms.append(l)
        D = math.lcm(*(c.denominator for c in l))
        Dl = [c.numerator * (D // c.denominator) for c in l]
        for j, u in enumerate(tri.rays):
            if j in s:
                continue
            p, q = fracs[j]
            if sum(map(operator.mul, u, Dl)) * q <= p * D:
                strict = False
                witnesses.append((si, u))
    compact = all(vals[j] == 0 for j in range(tri.n_boundary))
    return SupportCheck(strict, compact, tuple(forms), tuple(witnesses))


@dataclass
class KahlerClass:
    lambdas: dict            # interior ray -> lambda_j (float)
    coefficients: dict       # interior ray -> class coefficient -2 pi lambda_j
    strictly_convex: bool
    compactly_supported: bool
    is_kahler: bool


def _checked_class(tri: FanTriangulation, values):
    """Support values, their check and whether any is nonzero, for a class
    that is compactly supported and, unless zero, strictly convex."""
    vals = _support_values(tri, values)
    chk = support_function_check(tri, vals)
    if not chk.compactly_supported:
        raise PreconditionError("support values must vanish on boundary rays")
    nonzero = any(v != 0 for v in vals)
    if nonzero and not chk.strictly_convex:
        raise PreconditionError(
            "support function is not strictly convex: " +
            ", ".join(f"simplex {s} / ray {u}" for s, u in chk.witnesses[:3]))
    return vals, chk, nonzero


def kahler_class(tri: FanTriangulation, values) -> KahlerClass:
    """Compactly supported class [omega_h] = -2 pi sum_j lambda_j c_j over the
    exceptional divisors (interior rays).  A class with every lambda_j = 0 is
    flagged as not Kahler; nonzero values failing strict convexity are
    rejected."""
    vals, chk, nonzero = _checked_class(tri, values)
    lambdas = {u: float(vals[tri.n_boundary + k])
               for k, u in enumerate(tri.interior_rays)}
    coeffs = {u: -2.0 * math.pi * lam for u, lam in lambdas.items()}
    return KahlerClass(lambdas, coeffs, chk.strictly_convex,
                       chk.compactly_supported, nonzero and chk.strictly_convex)


# ---------------------------------------------------------------------------
# the volume invariant


def _poly_vertices(ineqs, dim):
    """(rows, verts): the inequalities {<u, y> >= rhs for (u, rhs) in ineqs}
    scaled to integers, and the exact vertices of the polyhedron they cut
    out, each with the indices of the rows it lies on; dim 2 or 3, in
    integer arithmetic.

    Each inequality is scaled by the common denominator of its row to
    integers (u, p).  Each dim rows A with right-hand side b solve to
    y = x / det with x = adj(A) b, in closed form (in 3d the columns of
    adj(A) are the cross products of the rows), and det > 0 after a sign
    flip, so <u, y> >= p reads <u, x> >= p det, one unrolled integer dot
    product per row.  A vertex is the tuple (x, det) divided by its gcd,
    and ``verts`` maps it to the rows of every choice that solves to it:
    the normals of the rows a vertex lies on span R^dim, so each of them
    is in a nonsingular choice of dim of them.
    """
    rows = []
    for u, rhs in ineqs:
        q = math.lcm(*(c.denominator for c in (*u, rhs)))
        rows.append((tuple(c.numerator * (q // c.denominator) for c in u),
                     rhs.numerator * (q // rhs.denominator)))
    verts = {}
    if dim == 2:
        for (i, ((a0, a1), pa)), (j, ((b0, b1), pb)) in \
                itertools.combinations(enumerate(rows), 2):
            det = a0 * b1 - a1 * b0
            if det == 0:
                continue
            x0, x1 = pa * b1 - a1 * pb, a0 * pb - pa * b0
            if det < 0:
                det, x0, x1 = -det, -x0, -x1
            for (u0, u1), p in rows:
                if u0 * x0 + u1 * x1 < p * det:
                    break
            else:
                g = math.gcd(x0, x1, det)
                verts.setdefault((x0 // g, x1 // g, det // g),
                                 set()).update((i, j))
    elif dim == 3:
        for ((i, ((a0, a1, a2), pa)), (j, ((b0, b1, b2), pb)),
             (k, ((c0, c1, c2), pc))) in \
                itertools.combinations(enumerate(rows), 3):
            bc0, bc1, bc2 = (b1 * c2 - b2 * c1, b2 * c0 - b0 * c2,
                             b0 * c1 - b1 * c0)
            det = a0 * bc0 + a1 * bc1 + a2 * bc2
            if det == 0:
                continue
            ca0, ca1, ca2 = (c1 * a2 - c2 * a1, c2 * a0 - c0 * a2,
                             c0 * a1 - c1 * a0)
            ab0, ab1, ab2 = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2,
                             a0 * b1 - a1 * b0)
            x0 = pa * bc0 + pb * ca0 + pc * ab0
            x1 = pa * bc1 + pb * ca1 + pc * ab1
            x2 = pa * bc2 + pb * ca2 + pc * ab2
            if det < 0:
                det, x0, x1, x2 = -det, -x0, -x1, -x2
            for (u0, u1, u2), p in rows:
                if u0 * x0 + u1 * x1 + u2 * x2 < p * det:
                    break
            else:
                g = math.gcd(x0, x1, x2, det)
                verts.setdefault((x0 // g, x1 // g, x2 // g, det // g),
                                 set()).update((i, j, k))
    else:
        raise InternalFault(f"vertex enumeration in dimension {dim}; "
                            f"only 2 and 3 are supported")
    return rows, verts


def _facet_volume(verts, u):
    """Lattice-normalized volume vol(F) / |u| of the facet F = conv(verts)
    on a hyperplane with normal u, exact: the length (m = 2) or area
    (m = 3) of F projected along the coordinate k of largest |u_k|, which
    is vol(F) |u_k| / |u|, divided by |u_k|."""
    k = max(range(len(u)), key=lambda i: abs(u[i]))
    pts = [v[:k] + v[k + 1:] for v in verts]
    if len(u) == 2:
        return Fraction(max(pts)[0] - min(pts)[0], abs(u[k]))
    hull = _hull2d(pts)
    twice_area = sum(a[0] * b[1] - a[1] * b[0]
                     for a, b in zip(hull, hull[1:] + hull[:1]))
    return Fraction(twice_area, 2 * abs(u[k]))


def _polytope_volume(ineqs, dim):
    """Exact volume of the bounded polytope {y : <u, y> >= rhs}: pyramids
    from its first vertex a over its facets F, sum_F (<u, a> - rhs)
    vol(F) / (|u| dim), on the scaled rows and the (x, det) vertices of
    :func:`_poly_vertices`, whose row sets give the facets."""
    rows, verts = _poly_vertices(ineqs, dim)
    faces = [[] for _ in rows]
    for v, on in verts.items():
        y = tuple(Fraction(x, v[-1]) for x in v[:-1])
        for i in on:
            faces[i].append(y)
    apex = min(verts)
    total = Fraction(0)
    for i, (u, p) in enumerate(rows):
        if i not in verts[apex] and len(faces[i]) >= dim:
            height = sum(map(operator.mul, u, apex)) - p * apex[-1]
            total += Fraction(height, apex[-1]) * _facet_volume(faces[i], u)
    return total / dim


@dataclass
class InvariantA:
    value: float
    divisor_sum: Optional[float]
    polytope_volume: Optional[float]
    excised_volume: float             # vol(C \ C_h), lattice normalization
    m: int
    is_kahler: bool                   # nonzero; strict convexity is checked


def _divisor_facet(tri: FanTriangulation, forms, j):
    """Sorted vertices of the bounded facet F_j of C_h: the forms l_sigma of
    the top cones sigma that contain ray j (normal-fan correspondence)."""
    return sorted({forms[k] for k, s in enumerate(tri.simplices) if j in s})


def _excised_volume(tri: FanTriangulation, vals, forms):
    """vol(C \\ C_h) = vol(C) - vol(C_h), both under the one cap
    <w, y> <= T with T = max <w, l_sigma> + 1: C \\ C_h has the vertices 0
    and the forms l_sigma, so it lies below the cap."""
    m = tri.cone.dim
    # cap direction: interior of the span of the rays
    w = tuple(sum(u[i] for u in tri.rays) for i in range(m))
    cap = (tuple(-x for x in w),
           -max(sum(map(operator.mul, w, l)) for l in forms) - 1)
    return (_polytope_volume([(u, 0) for u in tri.cone.rays] + [cap], m)
            - _polytope_volume([(u, vals[j]) for j, u in enumerate(tri.rays)]
                               + [cap], m))


def _facet_sum(tri: FanTriangulation, vals, forms):
    """sum_j lambda_j vol(F_j) over the interior rays with lambda_j != 0."""
    return sum((vals[j] * _facet_volume(_divisor_facet(tri, forms, j),
                                        tri.rays[j])
                for j in range(tri.n_boundary, len(tri.rays))
                if vals[j] != 0), Fraction(0))


def invariant_A(tri: FanTriangulation, values, omega_link: float,
                method: str = "both") -> InvariantA:
    """Volume invariant of a compactly supported Kahler class on the
    resolution, computed from the dual cone C = {y : <u, y> >= 0} over the
    cone's rays u:

      divisor_sum:      A = -(2 pi)^m / ((m-1) m Omega) sum_j lambda_j vol(F_j)
      polytope_volume:  A = -(2 pi)^m / ((m-1) Omega) vol(C \\ C_h)

    where C_h = {y : <u_j, y> >= lambda_j} over the triangulation rays and
    facet volumes are lattice-normalized.  The divisor route reads the
    bounded facet F_j of C_h on <u_j, y> = lambda_j from the fan: its
    vertices are the forms l_sigma of the top cones sigma that contain ray
    j.  The polytope route enumerates the vertices of C and C_h under one
    cap beyond the forms and sums pyramids over their facets.  Both
    volumes are exact Fractions; with ``method='both'`` they must be equal
    (vol(C \\ C_h) = facet sum / m), and the one exact volume is scaled to
    a float once, so both fields carry the same value.  Negative for every
    nonzero class.
    """
    m = tri.cone.dim
    if not (omega_link > 0 and math.isfinite((m - 1) * m * omega_link)
            and math.isfinite((2 * math.pi) ** m
                              / ((m - 1) * m * omega_link))):
        raise DomainError(f"omega_link must be positive with (m-1) m "
                          f"omega_link and (2 pi)^m / ((m-1) m omega_link) "
                          f"finite (m = {m}), got {omega_link!r}")
    if method not in ("both", "divisor_sum", "polytope_volume"):
        raise DomainError(f"unknown method {method!r}")
    vals, chk, nonzero = _checked_class(tri, values)
    vol = None
    if method != "divisor_sum":
        vol = _excised_volume(tri, vals, chk.linear_forms)
    if method != "polytope_volume":
        facets = _facet_sum(tri, vals, chk.linear_forms) / m
        if vol is not None and facets != vol:
            raise InternalFault(f"excised volume {vol} and facet sum / m "
                                f"{facets} differ")
        vol = facets
    try:
        excised = float(vol)
    except OverflowError as exc:
        raise DomainError(f"invariant A overflows a float: {exc}") from exc
    value = -(2 * math.pi) ** m * excised / ((m - 1) * omega_link)
    if not math.isfinite(value):
        raise DomainError(f"invariant A overflows a float: {value}; the "
                          f"support values or omega_link are out of range")
    return InvariantA(value, None if method == "polytope_volume" else value,
                      None if method == "divisor_sum" else value, excised, m,
                      nonzero)
