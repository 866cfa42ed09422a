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

Every set of atoms is kept as a sorted, read-only numpy array of distinct
atom ids, from the moment the covering is built: the cells' U, U* and U#
(one array may serve as both U* and U#), the regions A and A#, and the
adjacency as one (E, 2) array of id pairs.  The arrays hold atom ids, never
positions in the atom table: on a cone the ids are vertex indices, so
``cov.Asharp`` can be handed to :func:`~conelab.spectral.poincare_constant`
as it is.  Atom ids are all integers or all strings.

Each cell's U, U* and U# are also packed, as they are built, into bit rows
over the atom table (the bytes of ``np.packbits`` of their masks), and
:func:`validate_covering` runs on those rows: unions, nesting and overlaps
by bitwise OR, AND and AND-NOT, the closure of U_i by marking both ends of
each adjacency edge with an end in U_i.  No dense (cells x atoms) mask is
built, except for the measures: mu(U_i) and mu(U*_i) are each one float64
matrix-vector product over the unpacked rows, so that every sum is the
same BLAS call's.  The report carries mu(U_i) as ``cell_measures``, and
:func:`associated_graph` takes its vertex measures from there.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, PreconditionError, _real
from .graphs import WeightedGraph


@dataclass(frozen=True, eq=False)
class Cell:
    """Sorted, read-only arrays of the atom ids of U, U* and U#.  Arrays
    have no truth value, so cells compare by identity; compare their fields
    with ``np.array_equal``."""
    U: np.ndarray
    Ustar: np.ndarray
    Usharp: np.ndarray


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, or a view of it, that cannot be written."""
    if a.flags.writeable:
        a = a.view()
        a.flags.writeable = False
    return a


class GoodCovering:
    """Atoms with positive measures, cells, region A and enlarged region A#.

    ``atom_measures`` maps each atom id to its measure (see
    :meth:`from_arrays` for a table already in arrays).  A cell is a
    :class:`Cell` or a triple (U, U*, U#); it, A, A# and ``adjacency``, a
    collection of atom-id pairs, may hold arrays or any iterables of ids.
    Two cells have touching closures when some atom of one is equal or
    adjacent to an atom of the other.

    The covering keeps ``atom_ids`` (sorted) and ``atom_measures`` as arrays
    in one order, every set of atoms as a sorted read-only array of ids
    (:class:`Cell`, ``A``, ``Asharp``) and ``adjacency`` as an (E, 2) id
    array.  Ids are mapped to positions in the atom table once, here, and
    DomainError names an id that is not an atom.
    """

    def __init__(self, atom_measures: dict, cells, A, Asharp, adjacency=()):
        if not atom_measures:
            raise DomainError("covering needs at least one atom")
        try:
            ids = sorted(atom_measures)
        except TypeError:
            kinds = " and ".join(sorted({type(a).__name__
                                         for a in atom_measures}))
            raise DomainError(f"atom ids must be all integers or all "
                              f"strings, not a mix of {kinds}") from None
        measures = np.array([_real(atom_measures[a], f"atom {a!r}'s measure")
                             for a in ids])
        self._build(np.array(ids), measures, cells, A, Asharp, adjacency)

    @classmethod
    def from_arrays(cls, atom_ids, atom_measures, cells, A, Asharp,
                    adjacency=()) -> "GoodCovering":
        """The covering of the atoms ``atom_ids`` (sorted and distinct)
        with ``atom_measures`` in the same order; the rest as for the
        constructor."""
        cov = cls.__new__(cls)
        cov._build(np.asarray(atom_ids), np.asarray(atom_measures, float),
                   cells, A, Asharp, adjacency)
        return cov

    def _build(self, atom_ids, atom_measures, cells, A, Asharp, adjacency):
        if atom_ids.dtype.kind not in "iU" or atom_ids.ndim != 1:
            raise DomainError("atom ids must be all 64-bit integers or all "
                              "strings")
        if not np.all(atom_ids[1:] > atom_ids[:-1]):
            raise DomainError("atom ids must be sorted and distinct")
        self.atom_ids = _frozen(atom_ids)
        self.atom_measures = _frozen(atom_measures)
        if not np.all(self.atom_measures > 0):
            raise DomainError("atom measures must be positive")
        # bounds the measure of every cell
        with np.errstate(over="ignore"):
            total = float(self.atom_measures.sum())
        if not math.isfinite(total):
            raise DomainError(f"total atom measure {total} must be finite")
        cells = tuple(cells)
        if not cells:
            raise DomainError("covering needs at least one cell")
        self._cell_bits = np.zeros((3, len(cells), (len(atom_ids) + 7) // 8),
                                   dtype=np.uint8)
        out = []
        for i, c in enumerate(cells):
            U, Us, Uh = (c.U, c.Ustar, c.Usharp) if isinstance(c, Cell) else c
            # U* = U# given as one set is mapped once and kept as one array
            row = [self._sorted_ids(U, "cell"), self._sorted_ids(Us, "cell")]
            row.append(row[1] if Uh is Us else self._sorted_ids(Uh, "cell"))
            for bits, (_, index) in zip(self._cell_bits[:, i], row):
                bits[:] = _packed(index, len(atom_ids))
            out.append(Cell(*(ids for ids, _ in row)))
        self.cells = tuple(out)
        self.A, self._A_index = self._sorted_ids(A, "region")
        self.Asharp, self._Asharp_index = self._sorted_ids(Asharp, "region")
        if isinstance(adjacency, np.ndarray):
            pairs = adjacency.size == 0 or (adjacency.ndim == 2
                                            and adjacency.shape[1] == 2)
            flat = adjacency.ravel()
        else:
            adjacency = list(adjacency)
            pairs = all(len(e) == 2 for e in adjacency)
            flat = [a for e in adjacency for a in e]
        if not pairs:
            raise DomainError("adjacency entries must be pairs of atom ids")
        flat, index = self._positions(flat, "adjacency")
        self.adjacency = _frozen(flat.reshape(-1, 2))
        self._adjacency_index = index.reshape(-1, 2)

    # -- id arrays and boolean masks ------------------------------------
    def _positions(self, ids, what):
        """The ids as an array (a list of ids is converted) and their
        positions in the atom table, by ``np.searchsorted``.  DomainError
        names the first id that is not an atom, or not of the atom ids'
        type; TypeError unless the ids form a flat list."""
        table = self.atom_ids
        items = None
        if isinstance(ids, np.ndarray) and ids.dtype != object:
            arr = ids
        else:
            items = list(ids)
            try:
                arr = np.asarray(items)
            except ValueError:
                arr = None
        if arr is None or arr.ndim != 1:
            raise TypeError(f"{what} ids must be a flat list of atom ids")
        if not len(arr):
            arr = table[:0]
        # numpy turns mixed ints and strings into strings
        same = (arr.dtype.kind in ("iu" if table.dtype.kind == "i" else "U")
                and (arr.dtype.kind != "U" or items is None
                     or all(isinstance(v, str) for v in items)))
        if same:
            pos = np.minimum(np.searchsorted(table, arr), len(table) - 1)
            bad = np.flatnonzero(table[pos] != arr)
            if not len(bad):
                return arr, pos
            unknown = arr[bad[0]].item()
        else:
            kind, known = type(table[0].item()), set(table.tolist())
            unknown = next(v for v in (arr.tolist() if items is None
                                       else items)
                           if type(v) is not kind or v not in known)
        raise DomainError(f"{what} references unknown atom {unknown!r}")

    def _sorted_ids(self, ids, what):
        """The ids as a sorted, read-only array of distinct atom ids, and
        their positions in the atom table."""
        arr, pos = self._positions(ids, what)
        if not np.all(pos[1:] > pos[:-1]):
            pos = np.unique(pos)
            arr = self.atom_ids[pos]
        elif arr.dtype != self.atom_ids.dtype:
            arr = self.atom_ids[pos]
        return _frozen(arr), pos


def _packed(index, n_atoms) -> np.ndarray:
    """The atoms at table positions ``index`` (distinct) as a packed bit row:
    the bytes ``np.packbits`` makes of their boolean mask over n_atoms."""
    return np.bincount(index >> 3, 128 >> (index & 7),
                       (n_atoms + 7) // 8).astype(np.uint8)


def _row_measures(bits, mu) -> np.ndarray:
    """mu of the atom set of each packed row: one matrix-vector product of
    all the rows, unpacked into float64 row by row, with ``mu``.  A product
    per row, or a sum over each row's indices, can round differently."""
    rows = np.empty((len(bits), len(mu)))
    for row, b in zip(rows, bits):
        row[:] = np.unpackbits(b, count=len(mu))
    return rows @ mu


@dataclass(eq=False)
class CoveringReport:
    """Reports hold an array, so they compare by identity, as cells do."""
    q1: int
    q2: float
    witnesses: dict
    cell_measures: np.ndarray   # mu(U_i) of each cell
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_covering(cov: GoodCovering) -> CoveringReport:
    """Check conditions (i)-(v); report Q1, Q2, witnesses, violations and
    the measure mu(U_i) of each cell."""
    n = len(cov.atom_ids)
    U, Us, Uh = cov._cell_bits
    violations = []
    if np.any(_packed(cov._A_index, n) & ~np.bitwise_or.reduce(U)):
        violations.append("(i) region A is not covered by the cells U_i")
    if np.any(np.bitwise_or.reduce(Uh) & ~_packed(cov._Asharp_index, n)):
        violations.append("(i) union of U#_i leaves the enlarged region A#")
    unnested = (U & ~Us).any(axis=1) | (Us & ~Uh).any(axis=1)
    empty = ~U.any(axis=1)
    for i in range(len(cov.cells)):
        if unnested[i]:
            violations.append(f"(ii) cell {i}: U <= U* <= U# fails")
        if empty[i]:
            violations.append(f"(ii) cell {i}: U_i is empty")

    # row i: the U#_j that U#_i meets (iii), the U_j that the closure of
    # U_i meets (U_i dilated by adjacency) and the U*_k that hold U_i
    meets = np.empty((len(U), len(U)), dtype=bool)
    touch, inside = np.empty_like(meets), np.empty_like(meets)
    a, b = cov._adjacency_index.T
    outside_Us = ~Us
    for i in range(len(U)):
        meets[i] = (Uh & Uh[i]).any(axis=1)
        closure = np.unpackbits(U[i], count=n).view(bool)
        near = closure[a] | closure[b]
        closure[a[near]] = True
        closure[b[near]] = True
        touch[i] = (U & np.packbits(closure)).any(axis=1)
        inside[i] = ~(outside_Us & U[i]).any(axis=1)
    q1 = int(meets.sum(axis=1).max())
    touch |= touch.T

    # witness of a touching pair i <= j: the first k of i, j, 0, 1, ...
    # with U_i and U_j in U*_k
    I, J = np.nonzero(np.triu(touch))
    fits = inside[I] & inside[J]
    rows = np.arange(len(I))
    K = np.where(fits[rows, I], I,
                 np.where(fits[rows, J], J, fits.argmax(axis=1)))
    found = fits.any(axis=1)
    for i, j in zip(I[~found].tolist(), J[~found].tolist()):
        violations.append(f"(iv) no cell U*_k contains U_{i} union U_{j}")
    I, J, K = I[found], J[found], K[found]
    witnesses = dict(zip(zip(I.tolist(), J.tolist()), K.tolist()))
    muU = _row_measures(U, cov.atom_measures)
    muUs = _row_measures(Us, cov.atom_measures)
    with np.errstate(over="ignore"):
        q2 = float(np.max(muUs[K] / np.minimum(muU[I], muU[J]),
                          initial=0.0))
    if math.isinf(q2):
        raise DomainError("the measure ratio Q2 overflows a float")
    return CoveringReport(q1, q2, witnesses, muU, violations)


def associated_graph(cov: GoodCovering,
                     report: CoveringReport | None = None) -> WeightedGraph:
    """Weighted graph on the cells: m(i) = mu(U_i), edges between cells with
    touching closures.  Requires a valid covering."""
    if report is None:
        report = validate_covering(cov)
    if not report.ok:
        raise PreconditionError(
            "covering is not good: " + "; ".join(report.violations))
    # a good covering has a witness for every touching pair (i, j), i <= j
    edges = [(i, j) for i, j in report.witnesses if i < j]
    return WeightedGraph(enumerate(report.cell_measures), edges)


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
        "atoms": [{"id": a, "measure": m} for a, m in
                  zip(cov.atom_ids.tolist(), cov.atom_measures.tolist())],
        "cells": [{"U": c.U.tolist(), "Ustar": c.Ustar.tolist(),
                   "Usharp": c.Usharp.tolist()} for c in cov.cells],
        "A": cov.A.tolist(),
        "Asharp": cov.Asharp.tolist(),
        "adjacency": np.sort(cov.adjacency, axis=1).tolist(),
    }
    return json.dumps(doc, sort_keys=True, indent=2)


def covering_from_json(text: str) -> GoodCovering:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"malformed covering JSON: {exc}") from exc
    try:
        atoms = {a["id"]: _real(a["measure"], "malformed covering JSON: "
                                f"atom {a['id']!r}'s measure")
                 for a in doc["atoms"]}
        if len(atoms) != len(doc["atoms"]):
            raise DomainError("duplicate atom ids")
        cells = [(c["U"], c["Ustar"], c["Usharp"]) for c in doc["cells"]]
        A = doc["A"]
        Asharp = doc["Asharp"]
        adjacency = [tuple(e) for e in doc.get("adjacency", [])]
        # unhashable atom ids fail in here
        return GoodCovering(atoms, cells, A, Asharp, adjacency)
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed covering JSON: {exc}") from exc
