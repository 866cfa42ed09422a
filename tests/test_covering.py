import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest

from conelab import (CircleLink, GoodCovering, PatchingInput,
                     PreconditionError, associated_graph, build_cone,
                     net_covering, patch_dirichlet, patch_neumann,
                     validate_covering)
from conelab.covering import covering_from_json, covering_to_json
from conelab.errors import DomainError


def three_intervals():
    """Three consecutive unit-measure intervals on the atom path 0..4;
    each buffered/outer set is the union with both neighbours."""
    atoms = {a: 1.0 for a in range(5)}
    cells = [([i], [i - 1, i, i + 1], [i - 1, i, i + 1]) for i in (1, 2, 3)]
    adjacency = [(a, a + 1) for a in range(4)]
    return GoodCovering(atoms, cells, A=[1, 2, 3], Asharp=list(range(5)),
                        adjacency=adjacency)


class TestValidation:
    def test_three_intervals_valid(self):
        cov = three_intervals()
        rep = validate_covering(cov)
        assert rep.ok
        assert rep.violations == []
        assert rep.q1 == 3          # every outer set meets every other
        assert rep.q2 == pytest.approx(3.0)
        # first admissible witness is the lower cell index
        assert rep.witnesses[(0, 1)] == 0
        assert rep.witnesses[(1, 2)] == 1

    @pytest.mark.parametrize("measure", [True, "1.5"])
    def test_rejects_non_real_measure(self, measure):
        atoms = dict.fromkeys(range(3), 1.0) | {1: measure}
        with pytest.raises(DomainError,
                           match="atom 1's measure must be a real number"):
            GoodCovering(atoms, [([1], [0, 1, 2], [0, 1, 2])], [1],
                         range(3), [(0, 1), (1, 2)])

    def test_validation_order_independent(self):
        cov = three_intervals()
        atoms = {a: 1.0 for a in range(5)}
        cells = [([i], [i - 1, i, i + 1], [i - 1, i, i + 1])
                 for i in (3, 1, 2)]
        cov2 = GoodCovering(atoms, cells, A=[1, 2, 3],
                            Asharp=list(range(5)),
                            adjacency=[(a, a + 1) for a in range(4)])
        r1, r2 = validate_covering(cov), validate_covering(cov2)
        assert (r1.ok, r1.q1, r1.q2) == (r2.ok, r2.q1, r2.q2)

    def test_containment_violation(self):
        atoms = {a: 1.0 for a in range(3)}
        # U not inside Ustar
        cov = GoodCovering(atoms, [([0, 1], [1], [0, 1, 2])],
                           A=[0, 1], Asharp=[0, 1, 2],
                           adjacency=[(0, 1), (1, 2)])
        rep = validate_covering(cov)
        assert not rep.ok
        assert any(v.startswith("(ii)") for v in rep.violations)

    def test_missing_witness_violation(self):
        atoms = {a: 1.0 for a in range(2)}
        # two touching cells, but neither buffered set contains the union
        cov = GoodCovering(atoms, [([0], [0], [0]), ([1], [1], [1])],
                           A=[0, 1], Asharp=[0, 1], adjacency=[(0, 1)])
        rep = validate_covering(cov)
        assert not rep.ok
        assert any(v.startswith("(iv)") for v in rep.violations)

    def test_cover_violation(self):
        atoms = {a: 1.0 for a in range(3)}
        cov = GoodCovering(atoms, [([0], [0, 1], [0, 1])],
                           A=[0, 2], Asharp=[0, 1, 2],
                           adjacency=[(0, 1), (1, 2)])
        rep = validate_covering(cov)
        assert not rep.ok


def reference_report(cov):
    """Conditions (i)-(v) on Python sets of atom ids, pair by pair: q1, q2,
    the witnesses, the violations in validate_covering's order, and
    mu(U_i), the measures summed with math.fsum."""
    mu = dict(zip(cov.atom_ids.tolist(), cov.atom_measures.tolist()))
    U, Us, Uh = ([set(getattr(c, f).tolist()) for c in cov.cells]
                 for f in ("U", "Ustar", "Usharp"))
    nbr = {a: {a} for a in mu}
    for a, b in cov.adjacency.tolist():
        nbr[a].add(b)
        nbr[b].add(a)
    violations = []
    if not set(cov.A.tolist()) <= set().union(*U):
        violations.append("(i) region A is not covered by the cells U_i")
    if not set().union(*Uh) <= set(cov.Asharp.tolist()):
        violations.append("(i) union of U#_i leaves the enlarged region A#")
    n = len(U)
    for i in range(n):
        if not U[i] <= Us[i] <= Uh[i]:
            violations.append(f"(ii) cell {i}: U <= U* <= U# fails")
        if not U[i]:
            violations.append(f"(ii) cell {i}: U_i is empty")
    q1 = max(sum(1 for j in range(n) if Uh[i] & Uh[j]) for i in range(n))
    closure = [set().union(*(nbr[a] for a in u)) for u in U]
    measure = [math.fsum(mu[a] for a in u) for u in U]
    witnesses, q2 = {}, 0.0
    for i in range(n):
        for j in range(i, n):
            if not (closure[i] & U[j] or closure[j] & U[i]):
                continue
            ks = [k for k in (i, j, *range(n)) if U[i] | U[j] <= Us[k]]
            if not ks:
                violations.append(
                    f"(iv) no cell U*_k contains U_{i} union U_{j}")
                continue
            witnesses[i, j] = k = ks[0]
            q2 = max(q2, math.fsum(mu[a] for a in Us[k])
                     / min(measure[i], measure[j]))
    return q1, q2, witnesses, violations, measure


def random_covering(rng, string_ids):
    """Cells of consecutive atoms on a path with a few chords, buffered by
    random widths (U* = U# as one set when the second width is 0), with
    gaps between cells; the regions sometimes leave an atom out or take
    one in, so that each condition is violated on some seeds."""
    n = int(rng.integers(6, 40))
    ids = np.sort(rng.choice(1000, n, replace=False))
    if string_ids:
        ids = np.sort([f"a{v}" for v in ids])
    at = ids[rng.permutation(n)]   # the atom at each path position
    edges = [(p, p + 1) for p in range(n - 1)]
    edges += [tuple(rng.choice(n, 2, replace=False))
              for _ in range(rng.integers(0, 3))]
    cells, lo = [], 0
    while lo < n:
        hi = min(n, lo + int(rng.integers(0, 5)))
        star = int(rng.choice([0, 1, 2, 5]))
        sharp = int(rng.choice([0, 0, 1]))
        U = list(range(lo, hi))
        Us = list(range(max(lo - star, 0), min(hi + star, n)))
        Uh = list(range(max(lo - star - sharp, 0),
                        min(hi + star + sharp, n)))
        if U and rng.random() < 0.05:
            Us.remove(U[0])
        cells.append((U, Us, Us if sharp == 0 else Uh))
        lo = hi + int(rng.random() < 0.2)
    A = sorted({p for c in cells for p in c[0]})
    Asharp = sorted({p for c in cells for p in c[2]})
    gaps = sorted(set(range(n)) - set(A))
    if gaps and rng.random() < 0.3:
        A.append(int(rng.choice(gaps)))
    if Asharp and rng.random() < 0.1:
        Asharp.remove(Asharp[int(rng.integers(len(Asharp)))])

    def atoms(ps):
        return [at[p].item() for p in ps]

    triples = []
    for U, Us, Uh in cells:
        Us_ids = atoms(Us)
        triples.append((atoms(U), Us_ids, Us_ids if Uh is Us else atoms(Uh)))
    measures = rng.uniform(0.1, 3.0, n)
    return GoodCovering(
        {a: float(m) for a, m in zip(atoms(range(n)), measures)}, triples,
        atoms(A), atoms(Asharp), [(at[a].item(), at[b].item())
                                  for a, b in edges])


class TestOracle:
    """validate_covering against reference_report on seeded random
    coverings with integer and string atom ids."""

    @pytest.mark.parametrize("string_ids", [False, True])
    def test_random_coverings_match_the_set_reference(self, string_ids):
        kinds = set()
        for seed in range(120):
            cov = random_covering(np.random.default_rng(seed), string_ids)
            rep = validate_covering(cov)
            q1, q2, witnesses, violations, measure = reference_report(cov)
            assert (rep.q1, rep.witnesses, rep.violations) == (
                q1, witnesses, violations), seed
            assert rep.q2 == pytest.approx(q2, rel=1e-12, abs=0), seed
            np.testing.assert_allclose(rep.cell_measures, measure,
                                       rtol=1e-12, atol=0)
            kinds.update(re.sub(r"\d+", "n", v) for v in violations)
            kinds.add("good" if rep.ok else "not good")
            kinds.update("U* != U#" for c in cov.cells
                         if not np.array_equal(c.Ustar, c.Usharp))
            kinds.update("k not in (i, j)" for (i, j), k in witnesses.items()
                         if k not in (i, j))
        assert kinds == {
            "good", "not good", "U* != U#", "k not in (i, j)",
            "(i) region A is not covered by the cells U_i",
            "(i) union of U#_i leaves the enlarged region A#",
            "(ii) cell n: U <= U* <= U# fails",
            "(ii) cell n: U_i is empty",
            "(iv) no cell U*_k contains U_n union U_n"}


def traced_peak(fn, *args):
    """The traced heap peak of fn(*args), in bytes, after one warm call."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def criterion_2_covering():
    """The net covering of the criterion-2 annulus at R = 4, the largest of
    its three: 66 cells on 7,556 atoms."""
    cone = build_cone(CircleLink(2 * math.pi), 0.15, 16.0, 168,
                      angular_steps=48, spacing="geometric")
    region = np.flatnonzero((cone.radii >= 4.0) & (cone.radii <= 8.0))
    return net_covering(cone, region, 1.2)


class TestMemory:
    def test_validation_holds_one_float_matrix(self, criterion_2_covering):
        """Below one float64 (cells x atoms) array, the rows of the measure
        product, plus 16 arrays of atoms floats: the conditions run on the
        packed rows."""
        cov = criterion_2_covering
        n = len(cov.atom_ids)
        peak = traced_peak(validate_covering, cov)
        assert peak < 8 * n * (len(cov.cells) + 16)

    def test_building_makes_no_dense_masks(self, criterion_2_covering):
        """Below the bytes of one (3, cells, atoms) boolean array."""
        cov = criterion_2_covering
        peak = traced_peak(GoodCovering.from_arrays, cov.atom_ids,
                           cov.atom_measures, cov.cells, cov.A, cov.Asharp,
                           cov.adjacency)
        assert peak < 3 * len(cov.cells) * len(cov.atom_ids)

    def test_associated_graph_reads_the_report(self, criterion_2_covering):
        """Below the bytes of one boolean (cells x atoms) mask: the cell
        measures come from the report, not from unpacked masks."""
        cov = criterion_2_covering
        rep = validate_covering(cov)
        peak = traced_peak(associated_graph, cov, rep)
        assert peak < len(cov.cells) * len(cov.atom_ids)


class TestAssociatedGraph:
    def test_nerve_of_intervals(self):
        cov = three_intervals()
        g = associated_graph(cov)
        assert len(g) == 3
        assert list(g.measures) == [1.0, 1.0, 1.0]
        # consecutive intervals touch; the end cells do not
        assert sorted(map(tuple, g.edges)) == [(0, 1), (1, 2)]

    def test_invalid_covering_rejected(self):
        atoms = {a: 1.0 for a in range(2)}
        cov = GoodCovering(atoms, [([0], [0], [0]), ([1], [1], [1])],
                           A=[0, 1], Asharp=[0, 1], adjacency=[(0, 1)])
        with pytest.raises(PreconditionError):
            associated_graph(cov)


class TestPatching:
    def test_unit_inputs_p1(self):
        inp = PatchingInput(1.0, 1.0, 1, 1.0, p=1.0, nu=math.inf)
        assert patch_dirichlet(inp) == pytest.approx(3.0)
        assert patch_neumann(inp) == pytest.approx(6.0)

    def test_q1_two_p2(self):
        inp = PatchingInput(1.0, 1.0, 2, 1.0, p=2.0, nu=math.inf)
        assert patch_dirichlet(inp) == pytest.approx(68.0)
        assert patch_neumann(inp) == pytest.approx(4.0 * 68.0)

    def test_finite_nu(self):
        inp = PatchingInput(1.0, 1.0, 1, 1.0, p=1.0, nu=2.0)
        assert patch_dirichlet(inp) == pytest.approx(math.sqrt(10.0))
        assert patch_neumann(inp) == pytest.approx(2.0 * math.sqrt(10.0))

    def test_neumann_dirichlet_ratio(self):
        for p in (1.0, 2.0, 3.0):
            inp = PatchingInput(1.3, 0.7, 4, 2.5, p=p, nu=math.inf)
            assert patch_neumann(inp) == pytest.approx(
                2.0 ** p * patch_dirichlet(inp))

    def test_monotonicity(self):
        base = dict(s_cell=1.0, s_graph=1.0, q1=2, q2=1.5, p=2.0,
                    nu=math.inf)
        ref = patch_neumann(PatchingInput(**base))
        for key, val in (("s_cell", 2.0), ("s_graph", 2.0), ("q1", 3),
                         ("q2", 3.0)):
            cfg = dict(base)
            cfg[key] = val
            assert patch_neumann(PatchingInput(**cfg)) >= ref

    def test_requires_p_below_nu(self):
        with pytest.raises(DomainError):
            patch_dirichlet(PatchingInput(1.0, 1.0, 1, 1.0, p=2.0, nu=2.0))


class TestArrays:
    def test_sets_are_sorted_id_arrays(self):
        atoms = {a: 1.0 for a in range(5)}
        cov = GoodCovering(atoms, [({3, 1}, [3, 1, 1, 2], range(5))],
                           A=(2, 1), Asharp=range(5), adjacency=[(1, 0)])
        (c,) = cov.cells
        for got, want in ((c.U, [1, 3]), (c.Ustar, [1, 2, 3]),
                          (c.Usharp, range(5)), (cov.A, [1, 2]),
                          (cov.atom_ids, range(5)), (cov.adjacency, [[1, 0]])):
            np.testing.assert_array_equal(got, want)

    def test_arrays_are_read_only(self):
        cov = three_intervals()
        c = cov.cells[0]
        for arr in (c.U, c.Ustar, c.Usharp, cov.A, cov.Asharp,
                    cov.adjacency, cov.atom_ids, cov.atom_measures):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 4

    def test_input_arrays_stay_writable(self):
        U = np.array([1])
        GoodCovering({a: 1.0 for a in range(2)}, [(U, U, U)], A=U,
                     Asharp=U, adjacency=[])
        U[0] = 0

    def test_cells_are_packed_boolean_rows(self):
        cov = GoodCovering({a: 1.0 for a in range(19)},
                           [([1], [0, 1, 18], range(19)), ([8, 9], [8, 9],
                                                           [7, 8, 9, 10])],
                           A=[1, 8, 9], Asharp=range(19))
        masks = np.zeros((3, 2, 19), dtype=bool)
        for i, c in enumerate(cov.cells):
            for j, ids in enumerate((c.U, c.Ustar, c.Usharp)):
                masks[j, i, ids] = True
        np.testing.assert_array_equal(cov._cell_bits,
                                      np.packbits(masks, axis=-1))

    def test_shared_set_is_kept_once(self):
        atoms = {a: 1.0 for a in range(3)}
        U, Us = np.array([1]), np.array([0, 1, 2])
        (c,) = GoodCovering(atoms, [(U, Us, Us)], A=U, Asharp=Us).cells
        assert c.Ustar is c.Usharp
        assert c.U is not c.Ustar

    def test_from_arrays_matches_the_mapping(self):
        cov = three_intervals()
        cov2 = GoodCovering.from_arrays(
            np.arange(5), np.ones(5), cov.cells, cov.A, cov.Asharp,
            cov.adjacency)
        r1, r2 = validate_covering(cov), validate_covering(cov2)
        assert (r1.q1, r1.q2, r1.witnesses) == (r2.q1, r2.q2, r2.witnesses)

    @pytest.mark.parametrize("ids", [[2, 1], [1, 1], [0.5, 1.5]])
    def test_from_arrays_needs_sorted_integer_or_string_ids(self, ids):
        with pytest.raises(DomainError, match="atom ids"):
            GoodCovering.from_arrays(np.array(ids), np.ones(2),
                                     [([ids[0]], ids, ids)], ids, ids, [])


class TestJson:
    def test_round_trip(self):
        cov = three_intervals()
        cov2 = covering_from_json(covering_to_json(cov))
        r1, r2 = validate_covering(cov), validate_covering(cov2)
        assert (r1.ok, r1.q1, r1.q2) == (r2.ok, r2.q1, r2.q2)

    def test_fixture_round_trip_is_byte_identical(self):
        path = os.path.join(os.path.dirname(__file__), "fixtures",
                            "cover.json")
        with open(path) as fh:
            text = fh.read()
        # the file ends with a newline; covering_to_json writes none
        assert covering_to_json(covering_from_json(text)) == text[:-1]

    def test_string_ids_round_trip_is_byte_identical(self):
        ids = ["p", "q", "r", "s", "t"]
        cells = [([ids[i]], ids[i - 1:i + 2], ids[i - 1:i + 2])
                 for i in (1, 2, 3)]
        text = covering_to_json(GoodCovering(
            dict.fromkeys(ids, 0.5), cells, ids[1:4], ids,
            list(zip(ids[1:], ids))))
        doc = json.loads(text)
        assert doc["atoms"][0]["id"] == "p"
        assert doc["adjacency"][0] == ["p", "q"]   # each pair sorted
        assert covering_to_json(covering_from_json(text)) == text

    def test_malformed(self):
        with pytest.raises(DomainError):
            covering_from_json("[oops")

    def test_duplicate_atom_ids(self):
        # the second atom 0 silently replaced the first, measure 1 by 5
        doc = json.loads(covering_to_json(three_intervals()))
        doc["atoms"][0]["measure"] = 1.0
        doc["atoms"].append({"id": 0, "measure": 5.0})
        with pytest.raises(DomainError, match="duplicate atom ids"):
            covering_from_json(json.dumps(doc))
