"""Finite-volume discretizations of metric cones C(S) with g = dr^2 + r^2 g_S.

A cone is discretized as a product of a radial subdivision and a mesh of the
link S.  Each vertex carries the measure of its grid cell; each edge carries
the conductance (dual face measure over distance) of the finite-volume
Laplacian, so that

    sum_edges c_e |f(i) - f(j)|^2  ~  int |grad f|^2 dmu.

Distances between vertices use the exact cone metric: with d_S the link
distance, d((r1,x),(r2,y)) = sqrt(r1^2 + r2^2 - 2 r1 r2 cos(min(d_S, pi))).
On flat model cones this is the true distance at every resolution, which is
what the heat-kernel and Green comparisons require.

A cone stores its vertex arrays (radii, measures, ring and link indices)
and the product factors of its measures and conductances.  Its edges come
in blocks of a few rings (:meth:`DiscretizedCone._edge_blocks`); the
edge arrays ``edges``, ``conductances`` and ``edge_lengths`` are built from
them on first read and kept.  The heat, Green and doubling computations
never read them: the heat and Green solves run on the product factors, and
their vertex-basis checks sum the edges block by block.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .covering import Cell, GoodCovering
from .errors import DomainError, UnsupportedError, _count, _real
from .graphs import _vertex_ids

#: Longest accepted circle link (see :class:`CircleLink`).
MAX_CIRCLE_LENGTH = 1e100

#: Rings per block of :meth:`DiscretizedCone._edge_blocks`.
_RING_BLOCK = 16

#: Radius of a net covering's buffers U* = U#, in units of the separation,
#: before the grid slack is added (see :func:`net_covering`).
BUFFER_FACTOR = 3.0

#: The epsilon of remote balls (:func:`classify_ball`), in both ball scans.
EPSILON = 0.5


# ---------------------------------------------------------------------------
# links


@dataclass(frozen=True)
class CircleLink:
    """Circle of circumference ``length``; the cone over it is a 2d cone of
    total angle ``length`` (flat plane when length = 2*pi).  Its dimension
    ``dim`` is 1, a class constant."""
    length: float
    dim = 1   # not a field: a circle has no other dimension

    def __post_init__(self):
        # the link spectrum scales as length^-2, and past ~1e150 it
        # underflows: the constant mode is then lost among the others
        if not 0 < self.length <= MAX_CIRCLE_LENGTH:
            raise DomainError(f"circle length must lie in "
                              f"(0, {MAX_CIRCLE_LENGTH:g}]")


@dataclass(frozen=True)
class GraphLink:
    """Generic (n-1)-dimensional link given as a measured conductance mesh.

    ``measures`` are the cell volumes on (S, g_S), ``conductances`` the
    coefficients of a Dirichlet form approximating int_S |grad f|^2, and
    ``lengths`` the geodesic edge lengths.  ``directions`` (optional unit
    vectors) switch the link distance from Dijkstra to exact arccos form.
    """
    measures: tuple
    edges: tuple          # pairs of node indices
    conductances: tuple
    lengths: tuple
    dim: int = 2
    directions: Optional[tuple] = None

    def __post_init__(self):
        if len(self.measures) == 0:
            raise DomainError("link needs at least one node")
        if any(m <= 0 for m in self.measures):
            raise DomainError("link cell measures must be positive")
        # frozen: the checked int replaces the given value
        object.__setattr__(self, "dim", _count(self.dim, 1,
                                               "a graph link's dim"))
        data = [self.measures, self.conductances, self.lengths]
        if self.directions is not None:
            data.append(self.directions)
        if not all(np.all(np.isfinite(np.asarray(x, dtype=float)))
                   for x in data):
            raise DomainError("link measures, conductances, lengths and "
                              "directions must be finite")
        if any(c < 0 for c in self.conductances):
            raise DomainError("link conductances must be non-negative")
        if not all(x > 0 for x in self.lengths):
            raise DomainError("link edge lengths must be positive")


def sphere_link(n_theta: int, n_phi: int) -> GraphLink:
    """Latitude/longitude finite-volume mesh of the round unit 2-sphere.

    Cells are centered at theta_i = (i+1/2) pi/n_theta, phi_j = j 2pi/n_phi;
    the first and last rings own the polar caps.  Geodesic distances come
    from the stored unit direction vectors.
    """
    n_theta = _count(n_theta, 2, "a sphere link's n_theta")
    n_phi = _count(n_phi, 3, "a sphere link's n_phi")
    dth = math.pi / n_theta
    dph = 2.0 * math.pi / n_phi
    measures, directions = [], []
    for i in range(n_theta):
        lo = 0.0 if i == 0 else i * dth
        hi = math.pi if i == n_theta - 1 else (i + 1) * dth
        cell = (math.cos(lo) - math.cos(hi)) * dph
        th = (i + 0.5) * dth
        for j in range(n_phi):
            ph = j * dph
            measures.append(cell)
            directions.append((math.sin(th) * math.cos(ph),
                               math.sin(th) * math.sin(ph),
                               math.cos(th)))
    edges, cond, lengths = [], [], []
    idx = lambda i, j: i * n_phi + (j % n_phi)
    for i in range(n_theta):
        th = (i + 0.5) * dth
        for j in range(n_phi):
            # parallel edge
            edges.append((idx(i, j), idx(i, j + 1)))
            cond.append(dth / (math.sin(th) * dph))
            lengths.append(math.sin(th) * dph)
            # meridian edge
            if i + 1 < n_theta:
                edges.append((idx(i, j), idx(i + 1, j)))
                cond.append(math.sin((i + 1) * dth) * dph / dth)
                lengths.append(dth)
    return GraphLink(tuple(measures), tuple(edges), tuple(cond),
                     tuple(lengths), dim=2, directions=tuple(directions))


def _link_mesh(link, angular_steps):
    """Uniform internal representation: measures, edges, conductances, and a
    full link geodesic distance matrix.  ``angular_steps``, the node count
    of a circle link's mesh, must be None for any other link."""
    if isinstance(link, CircleLink):
        A = _count(angular_steps, 3, "a circle link's angular_steps")
        dth = link.length / A
        theta = (np.arange(A) + 0.5) * dth
        measures = np.full(A, dth)
        edges = np.array([(a, (a + 1) % A) for a in range(A)])
        cond = np.full(A, 1.0 / dth)
        diff = np.abs(theta[:, None] - theta[None, :])
        dist = np.minimum(diff, link.length - diff)
        return measures, edges, cond, dist
    if isinstance(link, GraphLink):
        if angular_steps is not None:
            raise DomainError("angular_steps applies to circle links only; "
                              "a graph or sphere link brings its own nodes")
        A = len(link.measures)
        measures = np.asarray(link.measures, dtype=float)
        edges = np.asarray(link.edges, dtype=int).reshape(-1, 2)
        cond = np.asarray(link.conductances, dtype=float)
        if link.directions is not None:
            D = np.asarray(link.directions, dtype=float)
            dist = np.arccos(np.clip(D @ D.T, -1.0, 1.0))
        else:
            import scipy.sparse as sp
            from scipy.sparse.csgraph import dijkstra

            lengths = np.asarray(link.lengths, dtype=float)
            W = sp.csr_matrix((lengths, (edges[:, 0], edges[:, 1])),
                              shape=(A, A))
            dist = dijkstra(W + W.T, directed=False)
            if not np.all(np.isfinite(dist)):
                raise DomainError("link graph must be connected")
        return measures, edges, cond, dist
    raise DomainError(f"unknown link type {type(link).__name__}")


# ---------------------------------------------------------------------------
# the cone


@dataclass
class BallVolume:
    volume: float
    clipped: bool


@dataclass(frozen=True, eq=False)
class ProductFactors:
    """The factors of a cone's measures and conductances.

    Away from the apex a cone over A link nodes with K rings is a product:
    the measures are ``shell (x) link_measures`` and the Laplacian is

        L = L_r (x) diag(link_measures) + diag(T) (x) L_S.

    L_S is the link Laplacian (``link_edges``, ``link_conductances``), L_r
    the radial path Laplacian with gap weights w_k = hi_k^(n-1) / dr_k
    (``radial_weights``) and T_k = r_k^(n-3) (hi_k - lo_k)
    (``ring_factors``).  An apex is joined to link node a of ring 0 by the
    conductance ``apex_conductance * link_measures[a]``.  Numerators and
    denominators are kept apart because the conductances divide
    (numerator * link factor) by the denominator, which is what keeps them
    bitwise equal to the edge-by-edge formulas.
    """
    link_measures: np.ndarray
    link_edges: np.ndarray          # (E_S, 2) node pairs
    link_conductances: np.ndarray
    shell: np.ndarray               # int r^(n-1) dr over each ring's cell
    face_powers: np.ndarray         # hi_k^(n-1), face between ring k and k+1
    gaps: np.ndarray                # dr_k = r_(k+1) - r_k
    ring_powers: np.ndarray         # r_k^(n-3)
    widths: np.ndarray              # hi_k - lo_k
    apex_power: Optional[float]     # apex_hi^(n-1); None without an apex
    apex_gap: Optional[float]       # r_0, the apex-to-ring-0 distance

    @property
    def radial_weights(self) -> np.ndarray:
        return self.face_powers / self.gaps

    @property
    def ring_factors(self) -> np.ndarray:
        return self.ring_powers * self.widths

    @property
    def apex_conductance(self) -> Optional[float]:
        if self.apex_power is None:
            return None
        return self.apex_power / self.apex_gap


class DiscretizedCone:
    """Product discretization of a truncated cone over a link.

    ``radial_steps`` (an integer >= 2) is the number of rings K.  A circle
    link is meshed by ``angular_steps`` nodes (an integer >= 3); any other
    link brings its own nodes and takes no ``angular_steps``.

    Vertex (k, a), ring k over link node a, has index off + k*A + a, with
    off = 1 when the apex is vertex 0.  ``link_automorphism`` is the
    rotation sigma(a) = (a+1) mod A of the nodes of a circle link, whose
    mesh has equal node measures and equal conductances on the edges
    a -> a+1 (:func:`_link_mesh`), and None for any other link.  Since the
    measures and conductances are ring factors times link factors,
    (k, a) -> (k, sigma(a)) with the apex fixed is then an automorphism of
    the whole weighted cone; :func:`conelab.spectral._check_rotation`
    verifies that bit for bit wherever the rotation is used.
    """

    def __init__(self, link, r_min, r_max, radial_steps, angular_steps=None,
                 spacing="uniform"):
        if not (math.isfinite(r_min) and math.isfinite(2.0 * r_max * r_max)):
            raise DomainError("r_min and r_max must be finite, and so must "
                              "2 r_max^2, the largest squared distance")
        if r_min < 0 or r_min >= r_max:
            raise DomainError("need 0 <= r_min < r_max")
        radial_steps = _count(radial_steps, 2, "radial_steps")
        if spacing not in ("uniform", "geometric"):
            raise DomainError(f"unknown spacing {spacing!r}")
        if r_min == 0 and spacing == "geometric":
            raise DomainError("geometric spacing requires r_min > 0")
        if r_min == 0 and not isinstance(link, CircleLink):
            raise UnsupportedError(
                "apex vertices are only supported over circle links")
        self.link = link
        self.r_min, self.r_max = float(r_min), float(r_max)
        self.radial_steps = radial_steps
        self.spacing = spacing
        self._edge_arrays = None
        try:
            self._assemble(link, angular_steps)
        except (FloatingPointError, OverflowError) as exc:
            raise DomainError(f"cone measures, conductances or edge "
                              f"lengths leave the floating-point range: "
                              f"{exc}") from exc

    @np.errstate(over="raise", divide="raise", invalid="raise")
    def _assemble(self, link, angular_steps):
        """Link mesh, rings and measures; FloatingPointError or
        OverflowError where one of them, a conductance or an edge length
        overflows.  The edge blocks are computed here for that check
        only, and not kept."""
        lm, ledges, lcond, ldist = _link_mesh(link, angular_steps)
        self._link_dist = ldist
        A = len(lm)
        self.link_nodes = A
        self.link_automorphism = ((np.arange(A) + 1) % A
                                  if isinstance(link, CircleLink) else None)
        n = link.dim + 1
        self.dimension = n
        K = self.radial_steps

        apex_hi = None
        if self.r_min == 0:
            ring_r = (np.arange(1, K + 1)) * (self.r_max / K)
            cell_lo = np.r_[0.5 * self.r_max / K,
                            (np.arange(2, K + 1) - 0.5) * (self.r_max / K)]
            cell_hi = np.r_[(np.arange(1, K) + 0.5) * (self.r_max / K),
                            self.r_max]
            self.apex = 0
            apex_hi = 0.5 * self.r_max / K
        else:
            if self.spacing == "uniform":
                faces = np.linspace(self.r_min, self.r_max, K + 1)
            else:
                faces = self.r_min * (self.r_max / self.r_min) ** (
                    np.arange(K + 1) / K)
            ring_r = 0.5 * (faces[:-1] + faces[1:])
            cell_lo, cell_hi = faces[:-1], faces[1:]
            self.apex = None

        self.ring_radii = ring_r
        off = 1 if self.apex is not None else 0
        self.n_vertices = off + K * A

        # Per-ring powers are scalar pow calls: array ** takes fast paths for
        # some exponents that can differ in the last bit.
        f = ProductFactors(
            link_measures=lm, link_edges=ledges, link_conductances=lcond,
            shell=(cell_hi ** n - cell_lo ** n) / n,
            face_powers=np.array([h ** (n - 1) for h in cell_hi[:-1]]),
            gaps=ring_r[1:] - ring_r[:-1],
            ring_powers=np.array([r ** (n - 3) for r in ring_r]),
            widths=cell_hi - cell_lo,
            apex_power=None if apex_hi is None else apex_hi ** (n - 1),
            apex_gap=None if apex_hi is None else ring_r[0])
        self.factors = f
        rings = np.arange(K)
        nodes = np.arange(A)
        self.radii = np.repeat(ring_r, A)
        self.link_index = np.tile(nodes, K)
        self.ring_of = np.repeat(rings, A)
        self.measures = np.kron(f.shell, lm)
        if self.apex is not None:
            self.radii = np.r_[0.0, self.radii]
            self.link_index = np.r_[-1, self.link_index]
            self.ring_of = np.r_[-1, self.ring_of]
            self.measures = np.r_[lm.sum() * apex_hi ** n / n, self.measures]

        self.is_outer = self.ring_of == K - 1
        for _ in self._edge_blocks():
            pass

    def _edge_blocks(self):
        """The cone's edges as ``(edges, conductances, lengths)`` blocks of
        at most _RING_BLOCK rings, in edge order: the radial edges between
        consecutive rings (across their shared face), the apex edges, then
        the tangential edges within each ring."""
        f = self.factors
        lm, ledges = f.link_measures, f.link_edges
        A, K = self.link_nodes, self.radial_steps
        off = 0 if self.apex is None else 1
        for k0 in range(0, K - 1, _RING_BLOCK):
            k = slice(k0, min(k0 + _RING_BLOCK, K - 1))
            inner = off + np.arange(k.start * A, k.stop * A)
            yield (np.c_[inner, inner + A],
                   (f.face_powers[k, None] * lm / f.gaps[k, None]).ravel(),
                   np.repeat(f.gaps[k], A))
        if off:
            yield (np.c_[np.zeros(A, dtype=int), off + np.arange(A)],
                   f.apex_power * lm / f.apex_gap, np.full(A, f.apex_gap))
        link_lengths = self._link_dist[ledges[:, 0], ledges[:, 1]]
        for k0 in range(0, K, _RING_BLOCK):
            k = slice(k0, min(k0 + _RING_BLOCK, K))
            rings = np.arange(k.start, k.stop)
            yield ((off + rings[:, None, None] * A + ledges).reshape(-1, 2),
                   (f.ring_powers[k, None] * f.link_conductances
                    * f.widths[k, None]).ravel(),
                   (self.ring_radii[k, None] * link_lengths).ravel())

    def _materialize_edges(self):
        """``(edges, conductances, lengths)``, filled block by block from
        :meth:`_edge_blocks` on first call and kept read-only."""
        if self._edge_arrays is None:
            A, K = self.link_nodes, self.radial_steps
            n_edges = ((K - 1) * A + (A if self.apex is not None else 0)
                       + K * len(self.factors.link_edges))
            arrays = (np.empty((n_edges, 2), dtype=int),
                      np.empty(n_edges), np.empty(n_edges))
            i = 0
            for block in self._edge_blocks():
                j = i + len(block[1])
                for a, b in zip(arrays, block):
                    a[i:j] = b
                i = j
            for a in arrays:
                a.setflags(write=False)
            self._edge_arrays = arrays
        return self._edge_arrays

    @property
    def edges(self) -> np.ndarray:
        """(E, 2) vertex pairs, in the order of :meth:`_edge_blocks`."""
        return self._materialize_edges()[0]

    @property
    def conductances(self) -> np.ndarray:
        """The conductance of each edge."""
        return self._materialize_edges()[1]

    @property
    def edge_lengths(self) -> np.ndarray:
        """The cone length of each edge."""
        return self._materialize_edges()[2]

    # -- geometry ---------------------------------------------------------
    def base_point(self) -> int:
        """The apex when present, else a vertex on the innermost ring."""
        return self.apex if self.apex is not None else 0

    @property
    def total_measure(self) -> float:
        return float(self.measures.sum())

    def distances_from(self, v: int) -> np.ndarray:
        """Exact cone distances from vertex v to every vertex.

        The grid is a product, so these come from one (rings x link nodes)
        broadcast: vertex off + k*A + a lies at

            sqrt(max(r1^2 + rho_k^2 - 2 r1 rho_k cos(theta_a), 0))

        from v, with r1 the radius of v, rho_k = ``ring_radii[k]`` and
        theta_a = min(d_S(a_v, a), pi) the link distance from v's node.
        The cosine runs once per link node, not once per vertex.
        """
        r1 = self.radii[v]
        if v == self.apex:
            return self.radii.copy()
        off = 0 if self.apex is None else 1
        cs = np.cos(np.minimum(self._link_dist[self.link_index[v]], math.pi))
        rr = self.ring_radii[:, None]
        d = np.empty(self.n_vertices)
        sq = r1 * r1 + rr * rr - 2.0 * r1 * rr * cs
        np.sqrt(np.maximum(sq, 0.0, out=sq),
                out=d[off:].reshape(self.radial_steps, self.link_nodes))
        if off:
            d[self.apex] = r1
        d[v] = 0.0
        return d

    def boundary_distance(self, v=slice(None)):
        """Distance from vertex v (by default every vertex, as an array) to
        the truncation boundary of the grid."""
        d = self.r_max - self.radii[v]
        if self.r_min > 0:
            d = np.minimum(d, self.radii[v] - self.r_min)
        return d

    # -- measures of balls --------------------------------------------------
    def ball_volume(self, v: int, r: float) -> BallVolume:
        if r <= 0:
            raise DomainError("ball radius must be positive")
        return BallVolume(self._ball_measure(self.distances_from(v), r),
                          self._clipped(v, r))

    def _ball_measure(self, d, r) -> float:
        """Measure of the ball of radius r whose distances from the centre
        are ``d``."""
        return float(self.measures[d <= r * (1 + 1e-12)].sum())

    def _clipped(self, v, r) -> bool:
        """Whether the ball of radius r at v reaches the truncation
        boundary."""
        return bool(r > self.boundary_distance(v) * (1 + 1e-12))


def build_cone(link, r_min, r_max, radial_steps, angular_steps=None,
               spacing="uniform") -> DiscretizedCone:
    """Convenience constructor for :class:`DiscretizedCone`."""
    return DiscretizedCone(link, r_min, r_max, radial_steps,
                           angular_steps=angular_steps, spacing=spacing)


# ---------------------------------------------------------------------------
# ball classification and parameter bookkeeping


def classify_ball(cone: DiscretizedCone, v: int, r: float,
                  epsilon: float = EPSILON) -> str:
    """'anchored' if centered at the base point o of the cone, 'remote' if
    r <= epsilon * d(o, x) / 2, else 'neither'."""
    o = cone.base_point()
    return _ball_case(cone.distances_from(o), o, v, r, epsilon)


def _ball_case(d_o, o: int, v: int, r: float, epsilon: float) -> str:
    """:func:`classify_ball` with ``d_o`` the distances from the base
    point o."""
    if not 0 < epsilon:
        raise DomainError("epsilon must be positive")
    if v == o:
        return "anchored"
    return ("remote" if r <= 0.5 * epsilon * d_o[v] * (1 + 1e-12)
            else "neither")


def combine_parameter(epsilon: float, delta0: float) -> float:
    """Remote-to-anchored combination parameter delta = epsilon delta0^2 / 8."""
    if not (0 < epsilon <= 1) or not (0 < delta0 <= 1):
        raise DomainError("epsilon and delta0 must lie in (0, 1]")
    return epsilon * delta0 ** 2 / 8.0


@dataclass
class DoublingRecord:
    """An unclipped ball's V(x, 2r) / V(x, r) and :func:`classify_ball`."""
    vertex: int
    radius: float
    ratio: float
    case: str


@dataclass
class DoublingScan:
    records: list
    ratio_max: float
    worst: Optional[DoublingRecord]
    n_clipped: int


def doubling_scan(cone: DiscretizedCone, n_samples: int = 100,
                  r_bounds=(0.5, 1.5), seed: int = 0,
                  anchored: bool = False) -> DoublingScan:
    """Sample balls and record V(x, 2r)/V(x, r) and the ball's case (with
    ``EPSILON``); a clipped double is counted in ``n_clipped``, not kept.

    With ``anchored=True`` all samples are centered at the base point.  The
    base point's distance array is computed once; it measures the anchored
    balls and classifies every ball.  Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    lo, hi = r_bounds
    if not 0 < lo < hi < math.inf:
        raise DomainError("need 0 < r_lo < r_hi < inf")
    if _count(n_samples, None, "n_samples") < 1:
        raise DomainError("need at least one sample")
    records, n_clipped = [], 0
    tries = 0
    base = cone.base_point()
    d_base = cone.distances_from(base)
    while len(records) < n_samples and tries < 50 * n_samples:
        tries += 1
        r = float(rng.uniform(lo, hi))
        v = base if anchored else int(rng.integers(0, cone.n_vertices))
        if cone._clipped(v, 2 * r):
            n_clipped += 1
            continue
        d = d_base if anchored else cone.distances_from(v)
        ratio = cone._ball_measure(d, 2 * r) / cone._ball_measure(d, r)
        case = _ball_case(d_base, base, v, r, EPSILON)
        records.append(DoublingRecord(v, r, ratio, case))
    worst = max(records, key=lambda rec: rec.ratio) if records else None
    return DoublingScan(records, worst.ratio if worst else math.nan, worst,
                        n_clipped)


# ---------------------------------------------------------------------------
# nets and coverings on a cone


def separated_net(cone: DiscretizedCone, region, s: float) -> list:
    """Greedy maximal s-separated subset of ``region`` (vertex indices).

    Pairwise distances are >= s and every region vertex lies within s of the
    net.  Deterministic: vertices are visited in index order.
    """
    region = _vertex_ids(region, cone.n_vertices, "region").tolist()
    return _net(cone, region, s)[0]


def _net(cone: DiscretizedCone, region: list, s: float, cut=None):
    """``separated_net`` of the sorted, distinct ``region``, what ``cut``
    keeps of the distance array of each net point (the array itself is
    dropped), and the distance of each vertex to the net."""
    if not s > 0:
        raise DomainError(f"separation must be positive, not {s!r}")
    mindist = np.full(cone.n_vertices, np.inf)
    net, kept = [], []
    for v in region:
        if mindist[v] >= s:
            d = cone.distances_from(v)
            net.append(v)
            if cut is not None:
                kept.append(cut(d))
            np.minimum(mindist, d, out=mindist)
    return net, kept, mindist


def _longest_edge(cone: DiscretizedCone, mask) -> float:
    """Length of the longest edge with an end in ``mask``; 0.0 if none."""
    e = cone.edges
    touch = mask[e[:, 0]] | mask[e[:, 1]]
    return float(cone.edge_lengths[touch].max(initial=0.0))


def net_covering(cone: DiscretizedCone, region, s: float) -> GoodCovering:
    """Good covering of ``region`` by balls around a maximal s-separated net.

    U_i = B(x_i, s) and U*_i = U#_i = B(x_i, BUFFER_FACTOR*s + h) where h is
    the longest grid edge; the slack h makes the witness k(i,j) = i valid on
    a discrete grid (cells that touch have centers within 2s + h).  Cells
    and regions are vertex-index arrays (U* and U# one array), the atoms the
    vertices of A# and the region, and the adjacency the cone's edges
    between them.
    """
    region = _vertex_ids(region, cone.n_vertices, "region").tolist()
    small = s * (1 + 1e-12)
    # grid slack h: touching cells have centers within 2s + (longest edge
    # incident to a small ball), so that much is added to the buffer
    # radius.  h is known once the net is; a ball B(x, s) keeps within s of
    # x's radius, so the longest edge at a vertex within 2s of the region's
    # radii bounds it, and each net point's distances are kept only up to
    # the buffer radius of that bound.
    r = cone.radii[region]
    h_up = _longest_edge(cone, (cone.radii >= r.min() - 2 * s)
                         & (cone.radii <= r.max() + 2 * s))
    reach = (BUFFER_FACTOR * s + h_up) * (1 + 1e-12)

    def cut(d):
        near = np.flatnonzero(d <= reach)
        return np.flatnonzero(d <= small), near, d[near]

    _, kept, mindist = _net(cone, region, s, cut)
    h = _longest_edge(cone, mindist <= small)
    big = (BUFFER_FACTOR * s + h) * (1 + 1e-12)
    cells = []
    for i, (U, near, d) in enumerate(kept):
        kept[i] = None   # the distances go once the cell is cut
        Us = near[d <= big]
        cells.append(Cell(U, Us, Us))
    inside = mindist <= big
    Asharp = np.flatnonzero(inside)
    inside[region] = True
    atoms = np.flatnonzero(inside)
    return GoodCovering.from_arrays(
        atoms, cone.measures[atoms], cells, region, Asharp,
        cone.edges[inside[cone.edges].all(axis=1)])


def annular_covering(cone: DiscretizedCone, R: float, kappa: float,
                     levels: int) -> GoodCovering:
    """Covering by the disk D_R and annuli A_i = A(kappa^(i-1) R, kappa^i R),
    with buffers U*_i = U#_i = union of the neighbors at distance <= 1.

    The outermost annulus must fit inside the truncated grid.
    """
    if kappa <= 1:
        raise DomainError("kappa must exceed 1")
    if levels < 1:
        raise DomainError("need at least one annulus")
    outer = R * kappa ** levels
    if outer > cone.r_max * (1 + 1e-12):
        raise DomainError(
            f"annuli reach radius {outer:g} beyond the grid r_max {cone.r_max:g}")
    r = cone.radii
    # level of each vertex: 0 in D_R, i in A_i, -1 outside
    level = np.full(cone.n_vertices, -1)
    level[r <= R] = 0
    for i in range(1, levels + 1):
        level[(r > R * kappa ** (i - 1)) & (r <= R * kappa ** i)] = i
    cells = []
    for i in range(levels + 1):
        U = np.flatnonzero(level == i)
        if len(U) == 0:
            raise DomainError(f"annulus {i} contains no grid vertices")
        Us = np.flatnonzero((level >= max(i - 1, 0)) & (level <= i + 1))
        cells.append(Cell(U, Us, Us))
    inside = level >= 0
    A = np.flatnonzero(inside)
    return GoodCovering.from_arrays(A, cone.measures[A], cells, A, A,
                                    cone.edges[inside[cone.edges].all(axis=1)])


# ---------------------------------------------------------------------------
# radius field


@dataclass
class RadiusField:
    values: np.ndarray
    base: int

    def equivalence_constant(self, cone: DiscretizedCone) -> float:
        """Smallest c >= 1 with rho/c <= sqrt(1 + d(o, x)^2) <= c rho."""
        d = cone.distances_from(self.base)
        ref = np.sqrt(1.0 + d * d)
        return float(max((self.values / ref).max(), (ref / self.values).max()))


def radius_field(cone: DiscretizedCone) -> RadiusField:
    """Regularized radius rho = max(1, r); rho >= 1 everywhere and rho = r on
    the exact-cone region {r >= 1}; ``base`` is the cone's base point."""
    return RadiusField(np.maximum(1.0, cone.radii), cone.base_point())


# ---------------------------------------------------------------------------
# JSON wire format


def cone_from_json(text: str) -> DiscretizedCone:
    """Build a cone from its JSON description.

    {"link": {"kind": "circle", "length": 6.2832}
           | {"kind": "sphere", "n_theta": 12, "n_phi": 24}
           | {"kind": "graph", "nodes": [...], "edges": [...], "dim": 2},
     "r_min": 0.0, "r_max": 8.0, "radial_steps": 256, "angular_steps": 256,
     "spacing": "uniform"}  -- self-contained: no other file is read.
    ``angular_steps`` is for circle links only.  Both step counts, a
    sphere link's ``n_theta`` and ``n_phi`` and a graph link's ``dim`` must
    be integers: floats and booleans are refused, not truncated.  Lengths,
    radii, measures and conductances must be JSON numbers: strings and
    booleans are refused, not converted.  Edge lengths must be positive.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed cone JSON: {exc}") from exc
    try:
        spec = doc["link"]
        kind = spec["kind"]
        if kind == "circle":
            link = CircleLink(_real(spec["length"], "a circle's length"))
        elif kind == "sphere":
            link = sphere_link(spec["n_theta"], spec["n_phi"])
        elif kind == "graph":
            nodes = spec["nodes"]
            edges = [(e["i"], e["j"]) for e in spec["edges"]]
            measures = [_real(nd["measure"], "a node's measure")
                        for nd in nodes]
            lengths = [_real(e["length"], "an edge's length")
                       for e in spec["edges"]]
            # a missing conductance is divided by its edge's length
            if not all(x > 0 for x in lengths):
                raise DomainError("link edge lengths must be positive")
            cond = [_real(e["conductance"], "an edge's conductance")
                    if "conductance" in e else
                    max(measures[e["i"]], measures[e["j"]]) / length
                    for e, length in zip(spec["edges"], lengths)]
            link = GraphLink(tuple(measures),
                             tuple(edges), tuple(cond), tuple(lengths),
                             dim=spec.get("dim", 2))
        else:
            raise DomainError(f"unknown link kind {kind!r}")
        return build_cone(link, _real(doc["r_min"], "r_min"),
                          _real(doc["r_max"], "r_max"),
                          doc["radial_steps"],
                          angular_steps=doc.get("angular_steps"),
                          spacing=doc.get("spacing", "uniform"))
    except (KeyError, TypeError, IndexError) as exc:
        raise DomainError(f"malformed cone JSON: {exc}") from exc
