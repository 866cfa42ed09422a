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
from typing import Iterable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .errors import CapacityError, DomainError

#: Largest vertex count for which subset enumeration is attempted.
DEFAULT_ENUM_CAP = 22

#: Vertex count above which the spectral gap switches to a sparse solver.
DENSE_EIG_LIMIT = 3000

#: Largest accepted residual bound of the sparse spectral gap, relative to
#: the gap.
GAP_RESIDUAL_TOL = 1e-6

#: Largest accepted null eigenvalue of the dense pencil, relative to the
#: gap and per vertex.  The pencil's exact null eigenvalue is 0, so what
#: LAPACK returns for it samples the rounding error of the eigenvalues
#: next to it; that error's bound grows with the vertex count n, and so
#: does the tolerance: n * GAP_NULL_TOL times the gap.
GAP_NULL_TOL = 1e-9


def dirichlet_laplacian(n, edges, weights) -> sp.csr_matrix:
    """Matrix of the Dirichlet form sum_e w_e |f(i) - f(j)|^2 on n vertices.

    ``edges`` is an (E, 2) array of vertex indices aligned with ``weights``.
    Every edge is stored, zero weights included, so the sparsity pattern is
    the graph and ``connected_components`` may run on the matrix itself.
    """
    e = np.asarray(edges, dtype=int).reshape(-1, 2)
    w = np.asarray(weights, dtype=float)
    a, b = e[:, 0], e[:, 1]
    return sp.csr_matrix((np.r_[-w, -w, w, w],
                          (np.r_[a, b, a, b], np.r_[b, a, a, b])),
                         shape=(n, n))


def _dense_laplacian(n, edges, weights) -> np.ndarray:
    """:func:`dirichlet_laplacian` as a dense array, bit for bit where
    scipy sums a row's duplicate entries in input order.  Each off-diagonal
    entry is one edge's; ``np.bincount`` adds the diagonal in the same
    order as that matrix, all edges by their first end, then all by their
    second."""
    a, b = np.asarray(edges, dtype=int).reshape(-1, 2).T
    w = np.asarray(weights, dtype=float)
    L = np.diag(np.bincount(np.concatenate((a, b)),
                            np.concatenate((w, w)), n))
    L[a, b] = L[b, a] = -w
    return L


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
            try:
                m = float(m)
            except (TypeError, ValueError) as exc:
                raise DomainError(f"vertex {vid!r} has a non-numeric "
                                  f"measure {m!r}") from exc
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


#: Entries per step of the chunked reductions over the subset tables.
_CHUNK = 1 << 15


def _enum_tables(g: WeightedGraph, cap: int):
    """Measures and boundary measures of the subsets without the top vertex
    n-1: two tables of 2^(n-1) entries, indexed by bitmask, the empty set
    at 0.

    A subset's measure is its top vertex's measure added to the measure of
    the rest, so every table entry is the sum of its vertices' measures in
    increasing bit order.  Boundary measures are summed edge by edge: edge
    (a, b), a < b, adds its measure to the two strided views of the table
    where bits a and b differ.  The other half is never stored; see
    :func:`_subset_chunks`.
    """
    n = len(g)
    if n > cap:
        raise CapacityError(f"{n} vertices exceeds enumeration cap {cap}")
    m_lo = np.zeros(1 << (n - 1))
    for pos in range(n - 1):
        h = 1 << pos
        np.add(m_lo[:h], g.measures[pos], out=m_lo[h:2 * h])
    b_lo = np.zeros(len(m_lo))
    w = g.edge_measures
    for k, (a, b) in enumerate(g.edge_pos.tolist()):
        if b == n - 1:
            # bit b is clear in this half: the edge is cut iff bit a is set
            b_lo.reshape(-1, 2, 1 << a)[:, 1, :] += w[k]
        else:
            v = b_lo.reshape(-1, 2, 1 << (b - a - 1), 2, 1 << a)
            v[:, 1, :, 0, :] += w[k]
            v[:, 0, :, 1, :] += w[k]
    return m_lo, b_lo


def _subset_chunks(g: WeightedGraph, cap: int):
    """Yield ``(measures, boundaries)`` of every nonempty subset, at most
    ``_CHUNK`` subsets at a time, in bitmask order.

    The subsets without vertex n-1 are read from :func:`_enum_tables`.  A
    subset S + {n-1} has measure ``m_lo[S] + m(n-1)``, and the same
    boundary as its complement, a set of the first half: its boundaries
    are the first table read backwards.  A yielded array may be reused by
    the next step.
    """
    m_lo, b_lo = _enum_tables(g, cap)
    h = len(m_lo)
    for lo in range(1, h, _CHUNK):
        hi = min(lo + _CHUNK, h)
        yield m_lo[lo:hi], b_lo[lo:hi]
    top = g.measures[-1]
    buf = np.empty(min(h, _CHUNK))
    for lo in range(0, h, _CHUNK):
        hi = min(lo + _CHUNK, h)
        m = np.add(m_lo[lo:hi], top, out=buf[:hi - lo])
        yield m, b_lo[h - hi:h - lo][::-1]


def cheeger_constant(g: WeightedGraph, cap: int = DEFAULT_ENUM_CAP) -> float:
    """inf m(boundary U) / m(U) over subsets with 0 < m(U) <= m(V)/2.

    Exact, by subset enumeration: a minimum over the chunks of
    :func:`_subset_chunks`, so besides the two half tables of 2^(n-1)
    floats nothing of size 2^n is allocated.  Returns 0 iff the graph is
    disconnected.  Raises CapacityError above ``cap`` vertices.
    """
    if len(g) == 1:
        return math.inf  # no admissible subset: m(U) <= m/2 forces U empty
    limit = g.total_measure / 2.0 * (1 + 1e-12)
    best = math.inf
    # a ratio too large for a float is inf, its correctly rounded value
    with np.errstate(over="ignore"):
        for m, b in _subset_chunks(g, cap):
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
        for m, b in _subset_chunks(g, cap):
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
    """Measure of a vertex set and of its edge boundary."""
    pos = frozenset(g.index(v) for v in subset)
    msub = float(sum(g.measures[p] for p in pos))
    mbnd = 0.0
    w = g.edge_measures
    for k in range(len(g.edge_pos)):
        a, b = g.edge_pos[k]
        if (a in pos) != (b in pos):
            mbnd += float(w[k])
    return SubsetCut(frozenset(subset), msub, mbnd)


# ---------------------------------------------------------------------------
# spectral gap


def spectral_gap(g: WeightedGraph) -> float:
    """Smallest nonzero eigenvalue of L f = lambda M f, M = diag(m).

    Equals the infimum of sum m(i,j)|f(i)-f(j)|^2 / sum m(i)|f(i)-mean|^2
    over nonconstant f.  Returns 0 for disconnected graphs and +inf for a
    single vertex (no nonconstant test functions).  Up to
    ``DENSE_EIG_LIMIT`` vertices L is assembled as a dense array
    (:func:`_dense_laplacian`) and the pencil is solved by LAPACK; no
    sparse matrix is built, and a null eigenvalue further from 0 than
    n * ``GAP_NULL_TOL`` times the gap raises CapacityError.  Above it the gap
    is found by shift-invert Lanczos (ARPACK) just below 0, and a residual
    check raises CapacityError instead of returning an unconverged value.
    """
    n = len(g)
    if n == 1:
        return math.inf
    if not g.is_connected():
        return 0.0
    if n <= DENSE_EIG_LIMIT:
        L = _dense_laplacian(n, g.edge_pos, g.edge_measures)
        w = scipy.linalg.eigh(L, np.diag(g.measures), eigvals_only=True)
        if not abs(w[0]) <= GAP_NULL_TOL * n * w[1]:
            raise CapacityError(f"spectral gap {w[1]:.6e} on {n} vertices "
                                f"is lost to rounding: the null eigenvalue "
                                f"reads {w[0]:.2e}")
        return float(w[1])
    L = dirichlet_laplacian(n, g.edge_pos, g.edge_measures)
    # large graphs: shift-invert Lanczos just below 0 finds the two
    # smallest eigenvalues (0 and the gap)
    M = sp.diags(g.measures)
    sigma = -1e-6 * float(np.max(L.diagonal() / g.measures))
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals, vecs = eigsh(L, k=2, M=M, sigma=sigma, which="LM", v0=v0)
    except ArpackNoConvergence as exc:
        raise CapacityError(f"Lanczos solve for the spectral gap on {n} "
                            f"vertices did not converge") from exc
    k = int(np.argmax(vals))
    lam, v = float(vals[k]), vecs[:, k]
    # some eigenvalue lies within |M^(-1/2) (L v - lam M v)| / |v|_M of lam
    res = (L @ v - lam * g.measures * v) / np.sqrt(g.measures)
    bound = np.linalg.norm(res) / math.sqrt(np.dot(v, g.measures * v))
    if not bound <= GAP_RESIDUAL_TOL * lam:
        raise CapacityError(f"spectral gap {lam:.6e} on {n} vertices has "
                            f"relative residual {bound / lam:.2e}")
    return lam


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
