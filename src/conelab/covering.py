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
        self.atom_ids = tuple(sorted(atom_measures))
        self._index = {a: k for k, a in enumerate(self.atom_ids)}
        self.atom_measures = np.array(
            [float(atom_measures[a]) for a in self.atom_ids])
        if not np.all(self.atom_measures > 0):
            raise DomainError("atom measures must be positive")
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
        for c in self.cells:
            for s in (c.U, c.Ustar, c.Usharp):
                for a in s:
                    if a not in self._index:
                        raise DomainError(f"cell references unknown atom {a!r}")
        for a in self.A | self.Asharp:
            if a not in self._index:
                raise DomainError(f"region references unknown atom {a!r}")

    # -- boolean mask helpers -------------------------------------------
    def _mask(self, atoms) -> np.ndarray:
        m = np.zeros(len(self.atom_ids), dtype=bool)
        for a in atoms:
            m[self._index[a]] = True
        return m

    def _cell_masks(self):
        U = np.stack([self._mask(c.U) for c in self.cells])
        Us = np.stack([self._mask(c.Ustar) for c in self.cells])
        Uh = np.stack([self._mask(c.Usharp) for c in self.cells])
        return U, Us, Uh

    def _adj_matrix(self):
        """Sparse atom adjacency (with the identity), for closure dilation."""
        import scipy.sparse as sp
        n = len(self.atom_ids)
        rows, cols = [], []
        for i, j in self.adjacency:
            a, b = self._index[i], self._index[j]
            rows += [a, b]
            cols += [b, a]
        adj = sp.csr_matrix((np.ones(len(rows), dtype=np.float32),
                             (rows, cols)), shape=(n, n))
        return adj + sp.eye(n, dtype=np.float32, format="csr")

    def measure(self, atoms) -> float:
        return float(self.atom_measures[self._mask(atoms)].sum())


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
            q2 = max(q2, muUs[k_found] / min(muU[i], muU[j]))
    return CoveringReport(q1, float(q2), witnesses, violations)


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
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed covering JSON: {exc}") from exc
    return GoodCovering(atoms, cells, A, Asharp, adjacency)
