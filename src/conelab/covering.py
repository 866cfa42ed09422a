"""Good coverings of a region by triples of cells, and patching constants.

A covering consists of cells (U_i, U*_i, U#_i) made of atoms (measured grid
cells or vertices).  The conditions checked by :func:`validate_covering`:

  (i)   A subset of union(U_i) subset of union(U#_i) subset of A#
  (ii)  U_i subset of U*_i subset of U#_i for each i
  (iii) every U#_i meets at most Q1 of the U#_j (including itself)
  (iv)  whenever the closures of U_i and U_j intersect there is a witness
        k(i, j) with U_i union U_j subset of U*_{k(i,j)}
  (v)   mu(U*_{k(i,j)}) <= Q2 * min(mu(U_i), mu(U_j))

Closures are modelled combinatorially: the closure of a set of atoms is the
set dilated by the atom adjacency relation, so cells that merely touch count
as having intersecting closures.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, PreconditionError
from .graphs import WeightedGraph


@dataclass(frozen=True)
class Cell:
    U: frozenset
    Ustar: frozenset
    Usharp: frozenset


class GoodCovering:
    """Atoms with positive measures, cells, region A and enlarged region A#.

    ``adjacency`` is a collection of atom-id pairs; two cells are considered
    to have touching closures when some atom of one is equal or adjacent to
    an atom of the other.
    """

    def __init__(self, atom_measures: dict, cells, A, Asharp, adjacency=()):
        if not atom_measures:
            raise DomainError("covering needs at least one atom")
        try:
            self.atom_ids = tuple(sorted(atom_measures))
        except TypeError:
            kinds = " and ".join(sorted({type(a).__name__
                                         for a in atom_measures}))
            raise DomainError(f"atom ids must be all integers or all "
                              f"strings, not a mix of {kinds}") from None
        self._index = {a: k for k, a in enumerate(self.atom_ids)}
        self.atom_measures = np.array(
            [float(atom_measures[a]) for a in self.atom_ids])
        if not np.all(self.atom_measures > 0):
            raise DomainError("atom measures must be positive")
        # bounds the measure of every cell
        with np.errstate(over="ignore"):
            total = float(self.atom_measures.sum())
        if not math.isfinite(total):
            raise DomainError(f"total atom measure {total} must be finite")
        self.cells = tuple(
            c if isinstance(c, Cell) else Cell(frozenset(c[0]),
                                               frozenset(c[1]),
                                               frozenset(c[2]))
            for c in cells)
        if not self.cells:
            raise DomainError("covering needs at least one cell")
        self.A = frozenset(A)
        self.Asharp = frozenset(Asharp)
        self.adjacency = tuple(adjacency)
        masks = np.zeros((3, len(self.cells), len(self.atom_ids)), dtype=bool)
        for i, c in enumerate(self.cells):
            for j, s in enumerate((c.U, c.Ustar, c.Usharp)):
                masks[j, i, self._positions(s, "cell")] = True
        self._cell_bits = np.packbits(masks, axis=-1)
        self._positions(self.A | self.Asharp, "region")
        if any(len(e) != 2 for e in self.adjacency):
            raise DomainError("adjacency entries must be pairs of atom ids")
        self._adjacency_index = self._positions(
            [a for e in self.adjacency for a in e], "adjacency").reshape(-1, 2)

    # -- boolean mask helpers -------------------------------------------
    def _positions(self, atoms, what="set") -> np.ndarray:
        """Indices of the atom ids; DomainError naming an unknown one."""
        try:
            return np.fromiter(map(self._index.__getitem__, atoms), dtype=int)
        except KeyError as exc:
            raise DomainError(f"{what} references unknown atom "
                              f"{exc.args[0]!r}") from None

    def _mask(self, atoms) -> np.ndarray:
        m = np.zeros(len(self.atom_ids), dtype=bool)
        m[self._positions(atoms)] = True
        return m

    def _cell_masks(self):
        """U, U*, U# of every cell as boolean atom masks, (cells, atoms)
        each; kept packed between calls."""
        return np.unpackbits(self._cell_bits, axis=-1,
                             count=len(self.atom_ids)).view(bool)

    def _adj_matrix(self):
        """Sparse atom adjacency (with the identity), for closure dilation,
        in the COO layout of :func:`~conelab.graphs.dirichlet_laplacian`."""
        n = len(self.atom_ids)
        a, b = self._adjacency_index.T
        d = np.arange(n)
        rows, cols = np.r_[a, b, d], np.r_[b, a, d]
        return sp.csr_matrix((np.ones(len(rows), dtype=np.float32),
                              (rows, cols)), shape=(n, n))


@dataclass
class CoveringReport:
    q1: int
    q2: float
    witnesses: dict
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_covering(cov: GoodCovering) -> CoveringReport:
    """Check conditions (i)-(v); report Q1, Q2, witnesses and violations."""
    U, Us, Uh = cov._cell_masks()
    mA, mAh = cov._mask(cov.A), cov._mask(cov.Asharp)
    mu = cov.atom_measures
    violations = []

    union_U = U.any(axis=0)
    union_Uh = Uh.any(axis=0)
    if np.any(mA & ~union_U):
        violations.append("(i) region A is not covered by the cells U_i")
    if np.any(union_Uh & ~mAh):
        violations.append("(i) union of U#_i leaves the enlarged region A#")
    for i in range(len(cov.cells)):
        if np.any(U[i] & ~Us[i]) or np.any(Us[i] & ~Uh[i]):
            violations.append(f"(ii) cell {i}: U <= U* <= U# fails")
        if not U[i].any():
            violations.append(f"(ii) cell {i}: U_i is empty")

    # (iii) overlap multiplicity of the U# cells
    Uhf = Uh.astype(np.float32)
    inter = (Uhf @ Uhf.T) > 0
    q1 = int(inter.sum(axis=1).max())

    # touching pairs: dilate U_i by adjacency, intersect with U_j
    Uf = U.astype(np.float32)
    closU = (Uf @ cov._adj_matrix()) > 0
    touch = (closU.astype(np.float32) @ Uf.T) > 0
    touch |= touch.T

    muU = U @ mu
    muUs = Us @ mu
    witnesses = {}
    q2 = 0.0
    nc = len(cov.cells)
    for i in range(nc):
        for j in range(i, nc):
            if not touch[i, j]:
                continue
            target = U[i] | U[j]
            k_found = None
            for k in [i, j] + list(range(nc)):
                if not np.any(target & ~Us[k]):
                    k_found = k
                    break
            if k_found is None:
                violations.append(
                    f"(iv) no cell U*_k contains U_{i} union U_{j}")
                continue
            witnesses[(i, j)] = k_found
            # Python floats: an overflow gives inf, without a numpy warning
            q2 = max(q2, float(muUs[k_found]) / float(min(muU[i], muU[j])))
    if math.isinf(q2):
        raise DomainError("the measure ratio Q2 overflows a float")
    return CoveringReport(q1, q2, witnesses, violations)


def associated_graph(cov: GoodCovering,
                     report: CoveringReport | None = None) -> WeightedGraph:
    """Weighted graph on the cells: m(i) = mu(U_i), edges between cells with
    touching closures.  Requires a valid covering."""
    if report is None:
        report = validate_covering(cov)
    if not report.ok:
        raise PreconditionError(
            "covering is not good: " + "; ".join(report.violations))
    U, _, _ = cov._cell_masks()
    muU = U @ cov.atom_measures
    # a good covering has a witness for every touching pair (i, j), i <= j
    edges = [(i, j) for i, j in report.witnesses if i < j]
    return WeightedGraph(enumerate(muU), edges)


# ---------------------------------------------------------------------------
# patching constants


@dataclass(frozen=True)
class PatchingInput:
    s_cell: float   # per-cell Poincare/Sobolev constant S_c
    s_graph: float  # discrete constant of the associated graph S_d
    q1: float
    q2: float
    p: float = 2.0
    nu: float = math.inf


def _check_patch_input(inp: PatchingInput):
    for name in ("s_cell", "s_graph", "q1", "q2"):
        if getattr(inp, name) < 0:
            raise DomainError(f"{name} must be nonnegative")
    if inp.p < 1:
        raise DomainError("p must be >= 1")
    if not math.isinf(inp.nu) and inp.nu <= inp.p:
        raise DomainError("nu must exceed p (or be infinite)")


def patch_dirichlet(inp: PatchingInput) -> float:
    """Global Dirichlet constant assembled from per-cell and graph data:

        S = S_c Q1 2^(p-1+p/nu)
            (1 + S_d Q2 (2^p Q1^2)^(nu/(nu-p)))^((nu-p)/nu)

    with the exponents read in the limit sense when nu = inf.
    """
    _check_patch_input(inp)
    p, nu = inp.p, inp.nu
    if math.isinf(nu):
        p_over_nu, nu_frac, inv_nu_frac = 0.0, 1.0, 1.0
    else:
        p_over_nu = p / nu
        nu_frac = (nu - p) / nu
        inv_nu_frac = nu / (nu - p)
    inner = 1.0 + inp.s_graph * inp.q2 * (2.0 ** p * inp.q1 ** 2) ** inv_nu_frac
    return (inp.s_cell * inp.q1 * 2.0 ** (p - 1.0 + p_over_nu)
            * inner ** nu_frac)


def patch_neumann(inp: PatchingInput) -> float:
    """Neumann variant; exactly 2^p times the Dirichlet constant:

        S = S_c Q1 2^(2p-1+p/nu) (1 + S_d Q2 (2^p Q1^2)^(nu/(nu-p)))^((nu-p)/nu)
    """
    return 2.0 ** inp.p * patch_dirichlet(inp)


# ---------------------------------------------------------------------------
# JSON wire format


def covering_to_json(cov: GoodCovering) -> str:
    doc = {
        "atoms": [{"id": a, "measure": float(m)}
                  for a, m in zip(cov.atom_ids, cov.atom_measures)],
        "cells": [{"U": sorted(c.U), "Ustar": sorted(c.Ustar),
                   "Usharp": sorted(c.Usharp)} for c in cov.cells],
        "A": sorted(cov.A),
        "Asharp": sorted(cov.Asharp),
        "adjacency": [sorted(e) for e in cov.adjacency],
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def covering_from_json(text: str) -> GoodCovering:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed covering JSON: {exc}") from exc
    try:
        atoms = {a["id"]: a["measure"] for a in doc["atoms"]}
        cells = [(c["U"], c["Ustar"], c["Usharp"]) for c in doc["cells"]]
        A = doc["A"]
        Asharp = doc["Asharp"]
        adjacency = [tuple(e) for e in doc.get("adjacency", [])]
        # unhashable atom ids and non-numeric measures fail in here
        return GoodCovering(atoms, cells, A, Asharp, adjacency)
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed covering JSON: {exc}") from exc
