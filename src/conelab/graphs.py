"""Finite weighted graphs and their isoperimetric / spectral constants.

A weighted graph carries a strictly positive measure ``m(i)`` on each vertex.
The measure of an edge ``{i, j}`` is always ``max(m(i), m(j))`` and is never
stored independently.  The boundary of a vertex set consists of the edges with
exactly one endpoint inside.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterable

import numpy as np

from .errors import CapacityError, DomainError, _real

#: Largest vertex count for which subset enumeration is attempted.
DEFAULT_ENUM_CAP = 22

#: Vertex count above which the spectral gap is the reciprocal of the
#: sparse Poincare constant of the whole vertex set: about where the band
#: pencil overtakes the dense O(n^3) solve on paths, rings with chords and
#: grids (1 BLAS thread).
DENSE_EIG_LIMIT = 150

#: Largest accepted null eigenvalue of the dense pencil, relative to the
#: gap and per vertex.  The pencil's exact null eigenvalue is 0, so what
#: LAPACK returns for it samples the rounding error of the eigenvalues
#: next to it; that error's bound grows with the vertex count n, and so
#: does the tolerance: n * GAP_NULL_TOL times the gap.
GAP_NULL_TOL = 1e-9


def dirichlet_laplacian(n, edges, weights) -> scipy.sparse.csr_matrix:
    """Matrix of the Dirichlet form sum_e w_e |f(i) - f(j)|^2 on n vertices.

    ``edges`` is an (E, 2) array of vertex indices aligned with ``weights``.
    Every edge is stored, zero weights included, so the sparsity pattern is
    the graph and ``connected_components`` may run on the matrix itself.
    """
    import scipy.sparse as sp

    e = np.asarray(edges, dtype=int).reshape(-1, 2)
    w = np.asarray(weights, dtype=float)
    a, b = e[:, 0], e[:, 1]
    return sp.csr_matrix((np.r_[-w, -w, w, w],
                          (np.r_[a, b, a, b], np.r_[b, a, a, b])),
                         shape=(n, n))


def _dense_laplacian(n, edges, weights) -> np.ndarray:
    """:func:`dirichlet_laplacian` as a dense array, bit for bit (loops
    aside) where scipy sums a row's duplicate entries in input order.
    ``np.bincount`` adds the diagonal in the same order as that matrix, all
    edges by their first end, then all by their second, and ``np.add.at``
    the off-diagonal entries, so parallel edges add up and a loop adds 0."""
    a, b = np.asarray(edges, dtype=int).reshape(-1, 2).T
    w = np.asarray(weights, dtype=float)
    L = np.diag(np.bincount(np.concatenate((a, b)),
                            np.concatenate((w, w)), n))
    np.add.at(L, (a, b), -w)
    np.add.at(L, (b, a), -w)
    return L


def _vertex_ids(vs, n, what) -> np.ndarray:
    """Sorted distinct vertex ids from an array or any iterable; DomainError
    unless they are a nonempty set of integers in 0..n-1.  Floats and
    booleans are refused, not truncated or read as a mask."""
    vs = vs if isinstance(vs, np.ndarray) else list(vs)
    a = np.asarray(vs)
    if not a.size:
        raise DomainError(f"{what} is empty")
    # numpy reads a boolean among integers as 0 or 1
    if (a.ndim != 1 or a.dtype.kind not in "iu" or (isinstance(vs, list)
            and not {bool, np.bool_}.isdisjoint(map(type, vs)))):
        raise DomainError(f"{what} must be a flat collection of integer "
                          f"vertex ids, not floats or booleans")
    a = a if np.all(a[1:] > a[:-1]) else np.unique(a)
    for v in (a[0], a[-1]):
        if not 0 <= v < n:
            raise DomainError(f"{what} holds {v}, not a vertex of the "
                              f"network (0..{n - 1})")
    return a.astype(int, copy=False)


class WeightedGraph:
    """Finite simple graph with positive vertex measures.

    Parameters
    ----------
    vertices : iterable of ``(id, measure)`` pairs
    edges : iterable of ``(i, j)`` id pairs, unordered, no self loops
    """

    def __init__(self, vertices, edges=()):
        ids = []
        measures = []
        for vid, m in vertices:
            m = _real(m, f"vertex {vid!r}'s measure")
            if not m > 0.0 or not math.isfinite(m):
                raise DomainError(f"vertex {vid!r} has non-positive measure {m}")
            ids.append(vid)
            measures.append(m)
        if not ids:
            raise DomainError("graph must have at least one vertex")
        try:
            self._index = {vid: k for k, vid in enumerate(ids)}
        except TypeError as exc:
            raise DomainError(f"vertex ids must be hashable: {exc}") from exc
        if len(self._index) != len(ids):
            raise DomainError("duplicate vertex ids")
        self.ids = tuple(ids)
        self.measures = np.asarray(measures, dtype=float)
        seen = set()
        norm_edges = []
        for i, j in edges:
            try:
                known = i in self._index and j in self._index
            except TypeError as exc:
                raise DomainError(f"edge ({i!r}, {j!r}): vertex ids must be "
                                  f"hashable") from exc
            if not known:
                raise DomainError(f"edge ({i!r}, {j!r}) references unknown vertex")
            if i == j:
                raise DomainError(f"self loop at vertex {i!r}")
            key = (min(self._index[i], self._index[j]),
                   max(self._index[i], self._index[j]))
            if key in seen:
                continue
            seen.add(key)
            norm_edges.append(key)
        norm_edges.sort()
        # positions into self.ids, shape (E, 2)
        self.edge_pos = np.asarray(norm_edges, dtype=int).reshape(-1, 2)
        self.edges = tuple((self.ids[a], self.ids[b]) for a, b in norm_edges)
        # bounds every subset and boundary measure and every Laplacian entry
        with np.errstate(over="ignore"):
            totals = (self.total_measure, float(self.edge_measures.sum()))
        if not all(map(math.isfinite, totals)):
            raise DomainError(f"total vertex measure {totals[0]} and total "
                              f"edge measure {totals[1]} must be finite")

    def __len__(self):
        return len(self.ids)

    def index(self, vid):
        return self._index[vid]

    @property
    def edge_measures(self):
        """Array of max-endpoint measures aligned with ``edge_pos``."""
        if len(self.edge_pos) == 0:
            return np.zeros(0)
        return np.maximum(self.measures[self.edge_pos[:, 0]],
                          self.measures[self.edge_pos[:, 1]])

    @property
    def total_measure(self):
        return float(self.measures.sum())

    def is_connected(self):
        """Whether the edges join every vertex: union-find over
        ``edge_pos``, with path halving."""
        parent = list(range(len(self)))

        def root(x):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            return x

        components = len(self)
        for a, b in self.edge_pos.tolist():
            ra, rb = root(a), root(b)
            if ra != rb:
                parent[ra] = rb
                components -= 1
        return components == 1

    def with_edges(self, extra_edges):
        """New graph with additional edges (same vertices)."""
        return WeightedGraph(zip(self.ids, self.measures),
                             list(self.edges) + list(extra_edges))

    def scaled(self, a):
        """New graph with all vertex measures multiplied by ``a > 0``."""
        if not a > 0:
            raise DomainError("scale factor must be positive")
        return WeightedGraph(zip(self.ids, self.measures * a), self.edges)


# ---------------------------------------------------------------------------
# subset enumeration


#: Subsets per chunk of the subset enumeration; a power of two.
_CHUNK = 1 << 15


def _chunk_tables(x0, low, measures, edges):
    """Measures and boundary measures of the subsets without the top vertex
    whose bitmasks run from ``x0`` over ``len(low)`` values: two arrays
    indexed by the low bits.

    ``low`` holds the measures of the subsets of the low bits, and every
    higher vertex of ``x0`` adds its measure in increasing bit order, as
    one pass over a whole table would.  Boundary measures are summed edge
    by edge, in edge order: edge (a, b), a < b, adds its measure to the
    entries where bits a and b differ.  The bits above the low ones are
    those of ``x0`` across the chunk, so an edge with one end there is
    cut where the other end's bit differs from it, and an edge with both
    ends there is cut on the whole chunk or nowhere.
    """
    k = len(low).bit_length() - 1
    m = low.copy()
    for pos in range(k, len(measures)):
        if x0 >> pos & 1:
            m += measures[pos]
    bnd = np.zeros(len(low))
    for a, b, w in edges:
        if b < k:
            v = bnd.reshape(-1, 2, 1 << (b - a - 1), 2, 1 << a)
            v[:, 1, :, 0, :] += w
            v[:, 0, :, 1, :] += w
        elif a < k:
            bnd.reshape(-1, 2, 1 << a)[:, 1 - (x0 >> b & 1), :] += w
        elif (x0 >> a ^ x0 >> b) & 1:
            bnd += w
    return m, bnd


def _subset_chunks(g: WeightedGraph, cap: int):
    """Yield ``(first, measures, boundaries)`` for every nonempty subset,
    at most ``_CHUNK`` subsets at a time; a chunk holds the subsets with
    bitmasks ``first``, ``first + 1``, ...

    The chunks of the subsets without vertex n-1 are built by
    :func:`_chunk_tables`, one pair at a time: chunk c of H with its
    mirror H-1-c.  A subset S + {n-1} has measure ``m(S) + m(n-1)``, and
    the boundary of its complement, a subset of the mirror chunk: its
    boundaries are the mirror's read backwards.  Every entry is summed as
    by one pass over the 2^n subsets, and nothing of that size is held.
    A yielded array may be changed by the next step.
    """
    n = len(g)
    if n > cap:
        raise CapacityError(f"{n} vertices exceeds enumeration cap {cap}")
    k = min(n - 1, _CHUNK.bit_length() - 1)
    low = np.zeros(1 << k)
    for pos in range(k):
        h = 1 << pos
        np.add(low[:h], g.measures[pos], out=low[h:2 * h])
    edges = [(a, b, w) for (a, b), w in zip(g.edge_pos.tolist(),
                                             g.edge_measures.tolist())]
    half, size, top = 1 << (n - 1), len(low), g.measures[-1]
    for x0 in range(0, half, size):
        x1 = half - size - x0
        if x1 < x0:
            break
        pair = [(x0, *_chunk_tables(x0, low, g.measures, edges))]
        if x1 != x0:
            pair.append((x1, *_chunk_tables(x1, low, g.measures, edges)))
        for x, m, bnd in pair:
            skip = int(x == 0)  # the empty set
            if len(m) > skip:
                yield x + skip, m[skip:], bnd[skip:]
        for (x, m, _), (_, _, bnd) in zip(pair, pair[::-1]):
            m += top
            yield half + x, m, bnd[::-1]


def cheeger_constant(g: WeightedGraph, cap: int = DEFAULT_ENUM_CAP) -> float:
    """inf m(boundary U) / m(U) over subsets with 0 < m(U) <= m(V)/2.

    Exact, by subset enumeration: a minimum over the chunks of
    :func:`_subset_chunks`, so a few tables of ``_CHUNK`` floats are held
    at a time, whatever n.  Returns 0 iff the graph is
    disconnected.  Raises CapacityError above ``cap`` vertices.
    """
    if len(g) == 1:
        return math.inf  # no admissible subset: m(U) <= m/2 forces U empty
    limit = g.total_measure / 2.0 * (1 + 1e-12)
    best = math.inf
    # a ratio too large for a float is inf, its correctly rounded value
    with np.errstate(over="ignore"):
        for _, m, b in _subset_chunks(g, cap):
            ok = m <= limit
            if ok.any():
                best = min(best, float(np.min(b[ok] / m[ok])))
    return best


def isoperimetric_constant(g: WeightedGraph, nu: float = math.inf,
                           mode: str = "dirichlet",
                           subsets: Iterable[Iterable] | None = None,
                           cap: int = DEFAULT_ENUM_CAP) -> float:
    """Best constant in the discrete isoperimetric inequality.

    ``dirichlet``: sup m(U)^((nu-1)/nu) / m(boundary U) over nonempty U.
    ``neumann``:   sup m(U) / m(boundary U) over 0 < m(U) <= m(V)/2
    (the reciprocal of the Cheeger constant).

    Subsets with empty boundary (e.g. the whole vertex set, or a full
    connected component) make the supremum infinite.  ``subsets`` restricts
    the supremum to an explicit family of vertex-id collections; without
    it the supremum is a maximum over the chunks of :func:`_subset_chunks`.
    """
    if mode not in ("dirichlet", "neumann"):
        raise DomainError(f"unknown mode {mode!r}")
    if not (nu > 1):
        raise DomainError("nu must exceed 1")
    expo = 1.0 if math.isinf(nu) else (nu - 1.0) / nu
    if subsets is not None:
        best = 0.0
        for s in subsets:
            cut = subset_cut(g, s)
            msub, mbnd = cut.interior_measure, cut.boundary_measure
            if mode == "neumann" and msub > g.total_measure / 2.0 * (1 + 1e-12):
                continue
            ratio = math.inf if mbnd == 0 else (
                msub ** expo if mode == "dirichlet" else msub) / mbnd
            best = max(best, ratio)
        return best
    limit = g.total_measure / 2.0 * (1 + 1e-12)
    best = 0.0
    with np.errstate(over="ignore"):
        for _, m, b in _subset_chunks(g, cap):
            if mode == "neumann":
                keep = m <= limit
                m, b = m[keep], b[keep]
                if len(m) == 0:
                    continue
                num = m
            else:
                num = m ** expo
            if np.any(b == 0):
                return math.inf
            best = max(best, float(np.max(num / b)))
    return best


@dataclass(frozen=True)
class SubsetCut:
    subset: frozenset
    interior_measure: float
    boundary_measure: float


def subset_cut(g: WeightedGraph, subset) -> SubsetCut:
    """Measure of a vertex set and of its edge boundary.  The boundary's
    edge measures are summed one after another, in edge order."""
    pos = frozenset(g.index(v) for v in subset)
    msub = float(sum(g.measures[p] for p in pos))
    inside = np.zeros(len(g), dtype=bool)
    inside[list(pos)] = True
    cut = inside[g.edge_pos[:, 0]] != inside[g.edge_pos[:, 1]]
    mbnd = float(np.cumsum(np.r_[0.0, g.edge_measures[cut]])[-1])
    return SubsetCut(frozenset(subset), msub, mbnd)


# ---------------------------------------------------------------------------
# spectral gap


def spectral_gap(g: WeightedGraph) -> float:
    """Smallest nonzero eigenvalue of L f = lambda M f, M = diag(m).

    Equals the infimum of sum m(i,j)|f(i)-f(j)|^2 / sum m(i)|f(i)-mean|^2
    over nonconstant f.  Returns 0 for disconnected graphs and +inf for a
    single vertex (no nonconstant test functions).  Up to
    ``DENSE_EIG_LIMIT`` vertices L is assembled as a dense array
    (:func:`_dense_laplacian`), scaled to M^-1/2 L M^-1/2 and solved by
    numpy's LAPACK (``dsyevd``); no sparse matrix is built, no scipy is
    loaded, and a scaled matrix that overflows a float, or a null
    eigenvalue further from 0 than n * ``GAP_NULL_TOL`` times the gap,
    raises CapacityError.  Above it the
    gap is 1 / Lambda(V, V), the Poincare constant of the whole vertex set
    with the edge measures as conductances, and it raises what
    :func:`conelab.spectral.poincare_constant` raises.
    """
    n = len(g)
    if n == 1:
        return math.inf
    if not g.is_connected():
        return 0.0
    if n <= DENSE_EIG_LIMIT:
        L = _dense_laplacian(n, g.edge_pos, g.edge_measures)
        b = np.sqrt(g.measures)
        # M^-1/2 L M^-1/2, rounded as LAPACK dsygs2 forms it from the
        # Cholesky factor diag(b) of M: an off-diagonal entry L_ik * (1/b_k)
        # / b_i, a diagonal one L_kk / (b_k * b_k); only the lower triangle
        # is read
        with np.errstate(over="ignore"):
            C = L * (1.0 / b) / b[:, None]
            np.fill_diagonal(C, np.diag(L) / (b * b))
        if not np.isfinite(C).all():
            raise CapacityError(f"spectral gap on {n} vertices: the pencil "
                                f"scaled by the vertex measures overflows "
                                f"a float")
        try:
            w = np.linalg.eigvalsh(C, UPLO="L")
        except np.linalg.LinAlgError as exc:
            raise CapacityError(
                f"spectral gap on {n} vertices: {exc}") from exc
        if not abs(w[0]) <= GAP_NULL_TOL * n * w[1]:
            raise CapacityError(f"spectral gap {w[1]:.6e} on {n} vertices "
                                f"is lost to rounding: the null eigenvalue "
                                f"reads {w[0]:.2e}")
        return float(w[1])
    from .spectral import poincare_constant   # spectral imports graphs

    net = SimpleNamespace(measures=g.measures, edges=g.edge_pos,
                          conductances=g.edge_measures)
    return 1.0 / poincare_constant(net, np.arange(n), np.arange(n))


def degree_bound_m0(g: WeightedGraph) -> float:
    """max over vertices of (1/m(i)) * sum over incident edges of m(i,j)."""
    tot = np.zeros(len(g))
    # np.add.at adds repeated indices one by one, in edge order
    np.add.at(tot, g.edge_pos.ravel(), np.repeat(g.edge_measures, 2))
    return float(np.max(tot / g.measures))


@dataclass(frozen=True)
class CheegerGapReport:
    h: float
    gap: float
    m0: float
    lower_ok: bool   # h^2 / (8 m0) <= gap
    upper_ok: bool   # gap <= h  (reported, can fail: two-vertex graph)


def cheeger_gap_report(g: WeightedGraph,
                       cap: int = DEFAULT_ENUM_CAP) -> CheegerGapReport:
    """Cheeger constant, spectral gap, and the comparison between them.

    The lower bound h^2/(8 m0) <= gap is a theorem for connected graphs;
    ``upper_ok`` merely records whether gap <= h held (it fails e.g. for the
    two-vertex graph, where gap = 2 and h = 1).
    """
    h = cheeger_constant(g, cap=cap)
    gap = spectral_gap(g)
    m0 = degree_bound_m0(g) if len(g.edge_pos) else math.inf
    if math.isinf(h) or math.isinf(gap):
        lower_ok = True
        upper_ok = gap <= h
    else:
        lo = h * h / (8.0 * m0) if m0 > 0 else 0.0
        lower_ok = lo <= gap * (1 + 1e-9) + 1e-12
        upper_ok = gap <= h * (1 + 1e-9) + 1e-12
    return CheegerGapReport(h, gap, m0, bool(lower_ok), bool(upper_ok))


# ---------------------------------------------------------------------------
# JSON wire format


def graph_to_json(g: WeightedGraph) -> str:
    doc = {
        "vertices": [{"id": vid, "measure": float(m)}
                     for vid, m in zip(g.ids, g.measures)],
        "edges": [[i, j] for i, j in g.edges],
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def graph_from_json(text: str) -> WeightedGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed graph JSON: {exc}") from exc
    try:
        vertices = [(v["id"], v["measure"]) for v in doc["vertices"]]
        edges = [tuple(e) for e in doc.get("edges", [])]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed graph JSON: {exc}") from exc
    return WeightedGraph(vertices, edges)


def random_connected_graph(rng: np.random.Generator, max_vertices: int = 12,
                           measure_range=(0.1, 10.0)) -> WeightedGraph:
    """Seeded random connected graph: random spanning tree plus extra edges."""
    n = int(rng.integers(2, max_vertices + 1))
    measures = rng.uniform(*measure_range, size=n)
    edges = set()
    order = rng.permutation(n)
    for k in range(1, n):
        a = int(order[k])
        b = int(order[int(rng.integers(0, k))])
        edges.add((min(a, b), max(a, b)))
    n_extra = int(rng.integers(0, n))
    for _ in range(n_extra):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return WeightedGraph(enumerate(measures), sorted(edges))
