import json
import math
import os

import numpy as np
import pytest

from conelab import (GoodCovering, PatchingInput, PreconditionError,
                     associated_graph, patch_dirichlet, patch_neumann,
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
