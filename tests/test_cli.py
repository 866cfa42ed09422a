import contextlib
import copy
import functools
import io
import json
import math
import operator
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse.linalg
from scipy.sparse.linalg import ArpackNoConvergence

import conelab
import conelab.cli
import conelab.graphs
import conelab.toric
from conelab import GoodCovering, WeightedGraph, bp_table_csv
from conelab.cli import build_parser, main
from conelab.covering import covering_to_json
from conelab.graphs import graph_to_json

TWO_PI = 2.0 * math.pi

CONE_DOC = {"link": {"kind": "circle", "length": 6.283185307179586},
            "r_min": 0.0, "r_max": 3.0, "radial_steps": 24,
            "angular_steps": 16}


#: A cone over a two-node graph link, every real field given.
GRAPH_CONE_DOC = {"link": {"kind": "graph", "dim": 2,
                           "nodes": [{"measure": 1.0}, {"measure": 1.0}],
                           "edges": [{"i": 0, "j": 1, "length": 1.0,
                                      "conductance": 1.0}]},
                  "r_min": 1.0, "r_max": 10.0, "radial_steps": 9}


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestGraphCommand:
    def test_report_and_determinism(self, tmp_path):
        g = WeightedGraph([(0, 1.0), (1, 1.0), (2, 1.0)], [(0, 1), (1, 2)])
        inp = write(tmp_path, "g.json", graph_to_json(g))
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["graph", "--in", inp, "--out", out1]) == 0
        assert main(["graph", "--in", inp, "--out", out2]) == 0
        assert open(out1).read() == open(out2).read()
        doc = json.load(open(out1))
        assert doc["tool"] == "graph"
        assert doc["results"]["cheeger_constant"] == pytest.approx(1.0)
        assert doc["results"]["spectral_gap"] == pytest.approx(1.0)
        assert doc["results"]["lower_ok"] is True

    def test_one_sided_warning(self, tmp_path, capsys):
        g = WeightedGraph([(0, 1.0), (1, 1.0)], [(0, 1)])
        inp = write(tmp_path, "g.json", graph_to_json(g))
        out = str(tmp_path / "r.json")
        assert main(["graph", "--in", inp, "--out", out]) == 0
        assert "WARNING" in capsys.readouterr().err
        doc = json.load(open(out))
        assert doc["results"]["upper_ok"] is False
        assert doc["warnings"]

    def test_missing_file(self, tmp_path):
        assert main(["graph", "--in", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("argv", [
        ["graph", "--in", "{dir}"],
        ["graph", "--in", "{fixtures}/graph.json", "--out", "{dir}"],
        ["bp", "--m", "3", "--k-range", "3..5", "--out", "{dir}"],
    ])
    def test_directory_path_exits_2(self, tmp_path, capsys, argv):
        # IsADirectoryError printed a traceback and exited 1
        fixtures = pathlib.Path(__file__).parent / "fixtures"
        argv = [a.format(dir=tmp_path, fixtures=fixtures) for a in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error: ")
        assert "Traceback" not in err

    def test_malformed_input(self, tmp_path):
        inp = write(tmp_path, "bad.json", "{oops")
        assert main(["graph", "--in", inp]) == 2

    def test_capacity_exhausted(self, tmp_path):
        g = WeightedGraph([(i, 1.0) for i in range(6)],
                          [(i, i + 1) for i in range(5)])
        inp = write(tmp_path, "g.json", graph_to_json(g))
        assert main(["graph", "--in", inp, "--enum-cap", "4"]) == 2

    @pytest.mark.parametrize("doc, message", [
        ({"vertices": [{"id": [0], "measure": 1}], "edges": []},
         "hashable"),
        ({"vertices": [{"id": 0, "measure": 1e308},
                       {"id": 1, "measure": 1e308}], "edges": [[0, 1]]},
         "must be finite"),
    ])
    def test_bad_graph_exits_2(self, tmp_path, capsys, doc, message):
        inp = write(tmp_path, "g.json", json.dumps(doc))
        assert main(["graph", "--in", inp]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and message in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("eps", [1e-300, 1e-305, 1e-310, 1e-320])
    def test_tiny_measure_gives_the_gap_or_exits_2(self, tmp_path, capsys,
                                                   eps):
        """Unit path on 4 vertices, vertex 1 of measure eps: the gap tends
        to (3 - sqrt 3)/2.  Where rounding loses it the run exits 2 with
        its error line, naming the spectral gap, alone on stderr; any
        warning fails the test."""
        doc = {"vertices": [{"id": i, "measure": eps if i == 1 else 1.0}
                            for i in range(4)],
               "edges": [[0, 1], [1, 2], [2, 3]]}
        inp = write(tmp_path, "g.json", json.dumps(doc))
        out = tmp_path / "r.json"
        code = main(["graph", "--in", inp, "--out", str(out)])
        err = capsys.readouterr().err
        if eps == 1e-300:
            assert (code, err) == (0, "")
            gap = json.loads(out.read_text())["results"]["spectral_gap"]
            assert gap == pytest.approx((3.0 - math.sqrt(3.0)) / 2.0,
                                        rel=0, abs=1e-12)
        else:
            assert code == 2 and not out.exists()
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "spectral gap" in err

    def test_failed_parse_leaves_the_parser_as_built(self, tmp_path, capsys):
        g = WeightedGraph([(0, 1.0), (1, 2.0), (2, 1.0)], [(0, 1), (1, 2)])
        inp = write(tmp_path, "g.json", graph_to_json(g))
        good = ["graph", "--in", inp, "--seed", "3"]
        build_parser.cache_clear()
        assert main(good) == 0
        alone = capsys.readouterr().out
        build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["graph", "--in", inp, "--enum-cap", "4", "--seed", "x"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(good) == 0
        assert capsys.readouterr().out == alone
        assert build_parser() is build_parser()


class TestCoverCommand:
    def test_valid_covering(self, tmp_path):
        atoms = {a: 1.0 for a in range(5)}
        cells = [([i], [i - 1, i, i + 1], [i - 1, i, i + 1])
                 for i in (1, 2, 3)]
        cov = GoodCovering(atoms, cells, [1, 2, 3], range(5),
                           [(a, a + 1) for a in range(4)])
        inp = write(tmp_path, "c.json", covering_to_json(cov))
        out = str(tmp_path / "r.json")
        assert main(["cover", "--in", inp, "--out", out]) == 0
        doc = json.load(open(out))
        assert doc["results"]["ok"] is True
        assert doc["results"]["q1"] == 3
        assert "graph_spectral_gap" in doc["results"]

    def test_solver_failure_exits_2(self, tmp_path, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("forced", None, None)
        monkeypatch.setattr(conelab.graphs, "DENSE_EIG_LIMIT", 1)
        monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
        atoms = {a: 1.0 for a in range(5)}
        cells = [([i], [i - 1, i, i + 1], [i - 1, i, i + 1])
                 for i in (1, 2, 3)]
        cov = GoodCovering(atoms, cells, [1, 2, 3], range(5),
                           [(a, a + 1) for a in range(4)])
        inp = write(tmp_path, "c.json", covering_to_json(cov))
        assert main(["cover", "--in", inp,
                     "--out", str(tmp_path / "r.json")]) == 2

    @staticmethod
    def chain(ids):
        """test_valid_covering's three-interval chain over the atom ids."""
        return {"atoms": [{"id": a, "measure": 1.0} for a in ids],
                "cells": [{"U": [ids[i]], "Ustar": ids[i - 1:i + 2],
                           "Usharp": ids[i - 1:i + 2]} for i in (1, 2, 3)],
                "A": ids[1:4], "Asharp": ids,
                "adjacency": [[a, b] for a, b in zip(ids, ids[1:])]}

    def run_chain(self, tmp_path, doc):
        inp = write(tmp_path, "c.json", json.dumps(doc))
        return main(["cover", "--in", inp, "--out", str(tmp_path / "r.json")])

    def test_string_atom_ids(self, tmp_path):
        assert self.run_chain(tmp_path, self.chain(list("abcde"))) == 0
        doc = json.load(open(tmp_path / "r.json"))
        assert doc["results"]["ok"] is True
        assert doc["results"]["q1"] == 3

    def test_mixed_atom_ids_exit_2(self, tmp_path, capsys):
        assert self.run_chain(tmp_path, self.chain([0, 1, "2", 3, 4])) == 2
        err = capsys.readouterr().err
        assert "all integers or all strings" in err
        assert "int and str" in err

    def test_unknown_adjacency_atom_exit_2(self, tmp_path, capsys):
        doc = self.chain(list(range(5)))
        doc["adjacency"].append([4, 7])
        assert self.run_chain(tmp_path, doc) == 2
        assert "adjacency references unknown atom 7" in capsys.readouterr().err

    @pytest.mark.parametrize("ids, unknown", [(list(range(5)), 7),
                                              (list("abcde"), "z")])
    @pytest.mark.parametrize("field, what", [
        ("Ustar", "cell"), ("A", "region"), ("Asharp", "region"),
        ("adjacency", "adjacency")])
    def test_unknown_atom_is_named(self, tmp_path, capsys, ids, unknown,
                                   field, what):
        doc = self.chain(list(ids))
        if field == "Ustar":
            doc["cells"][1]["Ustar"].append(unknown)
        elif field == "adjacency":
            doc["adjacency"].append([ids[0], unknown])
        else:
            doc[field].append(unknown)
        assert self.run_chain(tmp_path, doc) == 2
        assert (f"{what} references unknown atom {unknown!r}"
                in capsys.readouterr().err)

    def test_integer_id_among_string_atoms_exit_2(self, tmp_path, capsys):
        # numpy would turn [0, "1"] into the strings "0" and "1"
        doc = self.chain([str(a) for a in range(5)])
        doc["cells"][0]["U"] = [0, "1"]
        assert self.run_chain(tmp_path, doc) == 2
        assert "cell references unknown atom 0" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["cell atom", "measure"])
    def test_malformed_atom_exit_2(self, tmp_path, capsys, field):
        doc = self.chain(list(range(5)))
        if field == "cell atom":
            doc["cells"][0]["U"] = [[1]]
        else:
            doc["atoms"][0]["measure"] = None
        assert self.run_chain(tmp_path, doc) == 2
        assert "malformed covering JSON" in capsys.readouterr().err


    @pytest.mark.parametrize("measures, message", [
        ([math.inf, 1.0], "total atom measure inf must be finite"),
        ([1e308, 1e308], "total atom measure inf must be finite"),
        ([1e-320, 1.0], "the measure ratio Q2 overflows a float")])
    def test_measures_out_of_float_range_exit_2(self, tmp_path, capsys,
                                                measures, message):
        doc = self.chain(list(range(5)))
        for atom, m in zip(doc["atoms"][1:], measures):
            atom["measure"] = m
        assert self.run_chain(tmp_path, doc) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestConeCommand:
    def test_scan_with_csv(self, tmp_path):
        inp = write(tmp_path, "cone.json", json.dumps(CONE_DOC))
        out = str(tmp_path / "r.json")
        csvf = str(tmp_path / "scan.csv")
        assert main(["cone", "--in", inp, "--samples", "10",
                     "--out", out, "--csv", csvf]) == 0
        doc = json.load(open(out))
        assert doc["results"]["n_samples"] == 10
        lines = open(csvf).read().splitlines()
        assert lines[0] == "vertex,radius,ratio,case"
        assert len(lines) == 11

    @pytest.mark.parametrize("r_hi", ["inf", "nan"])
    def test_radius_bound_not_finite_exits_2(self, tmp_path, capsys, r_hi):
        # numpy's uniform(0.5, inf) raised OverflowError: exit 1
        inp = write(tmp_path, "cone.json", json.dumps(CONE_DOC))
        assert main(["cone", "--in", inp, "--r-hi", r_hi]) == 2
        assert capsys.readouterr().err == \
            "error: need 0 < r_lo < r_hi < inf\n"

    def test_seeded_runs_identical(self, tmp_path):
        inp = write(tmp_path, "cone.json", json.dumps(CONE_DOC))
        o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["cone", "--in", inp, "--seed", "9", "--out", o1]) == 0
        assert main(["cone", "--in", inp, "--seed", "9", "--out", o2]) == 0
        assert open(o1).read() == open(o2).read()


class TestNonFiniteInput:
    """A NaN radius used to pass validation: ``cone`` wrote a NaN token and
    ``heat`` died on a singular factorization."""

    @pytest.mark.parametrize("command", ["cone", "heat"])
    def test_nan_radius_exits_2(self, tmp_path, capsys, command):
        text = json.dumps(dict(CONE_DOC, r_max=float("nan")))
        assert "NaN" in text
        inp = write(tmp_path, "cone.json", text)
        out = tmp_path / "r.json"
        assert main([command, "--in", inp, "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_report_with_nan_is_refused(self, tmp_path, capsys):
        # every doubled ball is clipped, so there is no ratio to report
        inp = write(tmp_path, "cone.json", json.dumps(CONE_DOC))
        out = tmp_path / "r.json"
        assert main(["cone", "--in", inp, "--samples", "5", "--r-lo", "5",
                     "--r-hi", "6", "--out", str(out)]) == 2
        # 50 tries per requested sample, every one clipped
        err = capsys.readouterr().err
        assert "all 250 sampled 2r-balls are clipped" in err
        assert not out.exists()
        assert main(["cone", "--in", inp, "--samples", "0",
                     "--out", str(out)]) == 2
        assert "at least one sample" in capsys.readouterr().err


class TestRealInputs:
    """Every real-valued input field is a JSON number: a boolean or a string
    is refused with exit 2, not read through float()."""

    FIXTURES = pathlib.Path(__file__).parent / "fixtures"
    READERS = {
        "circle-length": ("cone", CONE_DOC, ("link", "length")),
        "r_min": ("cone", CONE_DOC, ("r_min",)),
        "r_max": ("cone", CONE_DOC, ("r_max",)),
        "node-measure": ("cone", GRAPH_CONE_DOC,
                         ("link", "nodes", 0, "measure")),
        "edge-length": ("cone", GRAPH_CONE_DOC,
                        ("link", "edges", 0, "length")),
        "conductance": ("cone", GRAPH_CONE_DOC,
                        ("link", "edges", 0, "conductance")),
        "vertex-measure": ("graph", "graph.json", ("vertices", 0, "measure")),
        "atom-measure": ("cover", "cover.json", ("atoms", 0, "measure")),
        "omega_link": ("toric", "toric.json", ("omega_link",)),
    }

    def document(self, doc):
        if isinstance(doc, str):
            return json.loads((self.FIXTURES / doc).read_text())
        return copy.deepcopy(doc)

    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_valid_document_runs(self, tmp_path, reader):
        command, doc, _ = self.READERS[reader]
        inp = write(tmp_path, "in.json", json.dumps(self.document(doc)))
        out = str(tmp_path / "r.json")
        assert main([command, "--in", inp, "--out", out]) == 0

    @pytest.mark.parametrize("value, message", [
        (True, "must be a real number, not True"),
        ("1.5", "must be a real number, not '1.5'"),
        # an integer beyond the float range
        (10 ** 400, "is too large for a float")],
        ids=["true", "string", "huge-integer"])
    @pytest.mark.parametrize("reader", sorted(READERS))
    def test_non_float_value_exits_2(self, tmp_path, capsys, reader, value,
                                     message):
        command, doc, path = self.READERS[reader]
        doc = self.document(doc)
        *head, last = path
        target = functools.reduce(operator.getitem, head, doc)
        assert isinstance(target[last], float)
        target[last] = value
        inp = write(tmp_path, "in.json", json.dumps(doc))
        out = tmp_path / "r.json"
        assert main([command, "--in", inp, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert message in err
        assert not out.exists()


class TestLinkEdgeLengths:
    """A graph link's edge lengths must be positive: a missing conductance
    is the larger end measure over the length, and the link distance is
    a shortest path over the lengths."""

    @pytest.mark.parametrize("length", [0, 0.0, -1.0])
    @pytest.mark.parametrize("conductance", [None, 1.0])
    def test_non_positive_length_exits_2(self, tmp_path, capsys, length,
                                         conductance):
        doc = copy.deepcopy(GRAPH_CONE_DOC)
        edge = doc["link"]["edges"][0]
        edge["length"] = length
        if conductance is None:
            del edge["conductance"]
        inp = write(tmp_path, "in.json", json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["cone", "--in", inp, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: link edge lengths must be positive\n"
        assert not out.exists()


class TestHeatCommand:
    def test_fit_report(self, tmp_path):
        inp = write(tmp_path, "cone.json", json.dumps(
            dict(CONE_DOC, radial_steps=48, angular_steps=24)))
        out = str(tmp_path / "r.json")
        assert main(["heat", "--in", inp, "--times", "0.2",
                     "--out", out]) == 0
        doc = json.load(open(out))
        assert doc["results"]["mass"][0] == pytest.approx(1.0, abs=1e-9)
        assert "c2" in doc["results"]["fit"]

    def test_unsorted_times_pair_with_their_masses(self, tmp_path):
        # the samples come back sorted; the report paired them with the
        # times in input order
        inp = write(tmp_path, "cone.json", json.dumps(CONE_DOC))
        out = str(tmp_path / "r.json")
        assert main(["heat", "--in", inp, "--times", "1.0,0.1",
                     "--out", out]) == 0
        doc = json.load(open(out))
        assert doc["config"]["times"] == [1.0, 0.1]
        assert doc["results"]["times"] == [0.1, 1.0]
        cone = conelab.cones.cone_from_json(json.dumps(CONE_DOC))
        want = [s.mass(cone) for s in conelab.heat_kernel(
            cone, cone.base_point(), [0.1, 1.0])]
        assert doc["results"]["mass"] == want

    def test_thin_shell_exits_2(self, tmp_path, capsys):
        # lambda_max is ~5e11 here, and the eigen-solver's rounding
        # eps * lambda_max moves the mass by more than its tolerance
        inp = write(tmp_path, "shell.json", json.dumps(
            {"link": {"kind": "sphere", "n_theta": 4, "n_phi": 6},
             "r_min": 2.0, "r_max": 2.00001, "radial_steps": 5}))
        out = tmp_path / "r.json"
        assert main(["heat", "--in", inp, "--source", "0", "--times",
                     "0.1,0.25", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "eigen-solver's rounding" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestCsvRows:
    def test_chunks_match_per_row_formatting(self, tmp_path):
        """Rows written in chunks, across two chunk boundaries, by printf
        formats, equal the per-row f-string formatting kept here as the
        reference."""
        n = 2 * conelab.cli._CSV_CHUNK + 7
        rng = np.random.default_rng(0)
        d = rng.random(n) * 10.0
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
        values[:6] = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]
        t = 0.25
        path = tmp_path / "rows.csv"
        with open(path, "w") as fh:
            conelab.cli._write_rows(fh, f"{t:.12g}," + "%d,%.12g,%.12g\n",
                                    np.arange(n), d, values)
        want = [f"{t:.12g},{v},{d[v]:.12g},{values[v]:.12g}\n"
                for v in range(n)]
        assert path.read_text().splitlines(keepends=True) == want


class TestRemovedOptions:
    @pytest.mark.parametrize("argv", [
        ["cone", "--in", "cone.json", "--workers", "2"],
        ["graph", "--in", "g.json", "--tol-rel", "0.1"],
        ["heat", "--in", "cone.json", "--tol-rel", "0.01"],
    ])
    def test_rejected_by_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestGreenCommand:
    def test_two_dimensional_cone_rejected(self, tmp_path):
        inp = write(tmp_path, "cone.json", json.dumps(CONE_DOC))
        assert main(["green", "--in", inp]) == 2

    def test_source_out_of_range(self, tmp_path):
        doc = {"link": {"kind": "sphere", "n_theta": 4, "n_phi": 8},
               "r_min": 0.05, "r_max": 3.0, "radial_steps": 8}
        inp = write(tmp_path, "cone.json", json.dumps(doc))
        assert main(["green", "--in", inp, "--source", "256"]) == 2

    def test_sphere_cone(self, tmp_path):
        doc = {"link": {"kind": "sphere", "n_theta": 6, "n_phi": 12},
               "r_min": 0.05, "r_max": 3.0, "radial_steps": 24}
        inp = write(tmp_path, "cone.json", json.dumps(doc))
        out = str(tmp_path / "r.json")
        assert main(["green", "--in", inp, "--out", out]) == 0
        res = json.load(open(out))["results"]
        assert res["positive"] is True
        assert res["dimension"] == 3


class TestToricCommand:
    def test_a1_pipeline(self, tmp_path):
        doc = {"dim": 2, "rays": [[1, 0], [1, 2]],
               "omega_link": 6.283185307179586}
        inp = write(tmp_path, "fan.json", json.dumps(doc))
        out = str(tmp_path / "r.json")
        assert main(["toric", "--in", inp, "--out", out]) == 0
        res = json.load(open(out))["results"]
        assert res["gamma"] == [1, 0]
        assert res["basic"] and res["maximal"]
        assert res["invariant_A"] == pytest.approx(-6.283185307179586)

    @pytest.mark.parametrize("rays", [
        [[1, a % 5, a // 5] for a in range(29)] + [[-30, 1, 0]],
        [[1, a % 3, (a // 3) % 3, a // 9] for a in range(25)]
        + [[-26, 1, 0, 0]],
    ], ids=["30-rays-3d", "26-rays-4d"])
    def test_many_pointed_rays_have_no_covector(self, tmp_path, capsys, rays):
        # pointed, so the cone is built; its rays lie on no level set
        doc = {"dim": len(rays[0]), "rays": rays, "omega_link": 1.0}
        inp = write(tmp_path, "fan.json", json.dumps(doc))
        assert main(["toric", "--in", inp]) == 2
        assert "error: no Gorenstein covector" in capsys.readouterr().err

    def test_non_gorenstein_rejected(self, tmp_path):
        doc = {"dim": 2, "rays": [[1, 0], [2, 3]], "omega_link": 1.0}
        inp = write(tmp_path, "fan.json", json.dumps(doc))
        assert main(["toric", "--in", inp]) == 2

    @pytest.mark.parametrize("text", [
        '{"dim": 2, "rays": [[1, [0]], [1, 2]], "omega_link": 1.0}',
        '{"dim": 2, "rays": [[1, 0], [1, 2]], "omega_link": null}',
        '{"dim": 2, "rays": 5, "omega_link": 1.0}',
        '[{"dim": 2, "rays": [[1, 0], [1, 2]], "omega_link": 1.0}]',
    ])
    def test_malformed_document(self, tmp_path, capsys, text):
        inp = write(tmp_path, "fan.json", text)
        assert main(["toric", "--in", inp]) == 2
        err = capsys.readouterr().err
        assert "error: malformed toric JSON: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("change", [
        {"rays": [[1, 0, 0], [0, 1, 0], [-1.6, -1, 3]]},
        {"rays": [[1, 0, 0], [0, 1, 0], [-1, -1, 3.0]]},
        {"rays": [[True, 0, 0], [0, 1, 0], [-1, -1, 3]]},
        {"dim": 3.9},
        {"dim": 3.0},
        {"dim": True},
    ], ids=["ray-float", "ray-integral-float", "ray-bool", "dim-float",
            "dim-integral-float", "dim-bool"])
    def test_non_integers_refused(self, tmp_path, capsys, change):
        # the ray (-1.6, -1, 3) ran as (-1, -1, 3) and "dim": 3.9 as 3
        fixture = pathlib.Path(__file__).parent / "fixtures" / "toric.json"
        doc = dict(json.loads(fixture.read_text()), **change)
        inp = write(tmp_path, "fan.json", json.dumps(doc))
        assert main(["toric", "--in", inp]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: malformed toric JSON: ")
        assert "must be an integer" in err

    @pytest.mark.parametrize("omega", ["1e308", "Infinity", "1e-320"])
    def test_bad_omega_link(self, tmp_path, capsys, omega):
        inp = write(tmp_path, "fan.json", '{"dim": 2, "rays": [[1, 0], '
                    '[1, 2]], "omega_link": ' + omega + '}')
        assert main(["toric", "--in", inp]) == 2
        err = capsys.readouterr().err
        assert "error: omega_link must be positive" in err
        assert "Traceback" not in err

    def test_omega_link_checked_before_the_class(self, tmp_path, capsys):
        doc = {"dim": 2, "rays": [[1, 0], [1, 2]], "omega_link": 0.0,
               "interior_value": -1}
        inp = write(tmp_path, "fan.json", json.dumps(doc))
        assert main(["toric", "--in", inp]) == 2
        assert capsys.readouterr().err.startswith(
            "error: omega_link must be positive")

    @pytest.mark.parametrize("rays", [
        [[1, 0, 0], [1, 1, 0], [1, 2, 0]],
        [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 0]],
    ])
    def test_rays_not_spanning(self, tmp_path, capsys, rays):
        doc = {"dim": len(rays[0]), "rays": rays, "omega_link": 1.0}
        inp = write(tmp_path, "fan.json", json.dumps(doc))
        assert main(["toric", "--in", inp]) == 2
        err = capsys.readouterr().err
        assert f"error: the rays do not span R^{len(rays[0])}" in err
        assert "Traceback" not in err

    @staticmethod
    def assert_scales_as_cube(tmp_path, interior):
        """C^3 / Z_3 with the given interior value exits 0, and A is
        interior^3 times the unit class's to 1e-15."""
        res = {}
        for v in (1, interior):
            doc = {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [-1, -1, 3]],
                   "omega_link": 1.0, "interior_value": v}
            inp = write(tmp_path, "fan.json", json.dumps(doc))
            out = str(tmp_path / "r.json")
            assert main(["toric", "--in", inp, "--out", out]) == 0
            res[v] = json.load(open(out))["results"]
        assert res[interior]["is_kahler"]
        for key in ("invariant_A", "divisor_sum", "polytope_volume"):
            assert res[interior][key] == pytest.approx(
                interior ** 3 * res[1][key], rel=1e-15)

    def test_large_interior_value_exits_0(self, tmp_path):
        # vertex coordinates of order 1e90, far from any float tolerance
        self.assert_scales_as_cube(tmp_path, 1e90)

    @pytest.mark.parametrize("interior", [1e-13, 3e-12, 1e-3])
    def test_small_interior_value_exits_0(self, tmp_path, interior):
        # volumes far below those of the cone itself, which a float
        # difference of two capped volumes would lose; 1e-13 must not be
        # read as the zero class
        self.assert_scales_as_cube(tmp_path, interior)

    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_interior_value_exits_2(self, tmp_path, capsys, value):
        # a boolean was read as the support value 1 or 0
        doc = {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [-1, -1, 3]],
               "omega_link": 1.0, "interior_value": value}
        inp = write(tmp_path, "fan.json", json.dumps(doc))
        out = tmp_path / "r.json"
        assert main(["toric", "--in", inp, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: support value {value!r} is not a number\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", [2, 2.0, "2", "3/2"])
    def test_numeric_interior_value_exits_0(self, tmp_path, value):
        doc = {"dim": 3, "rays": [[1, 0, 0], [0, 1, 0], [-1, -1, 3]],
               "omega_link": 1.0, "interior_value": value}
        inp = write(tmp_path, "fan.json", json.dumps(doc))
        assert main(["toric", "--in", inp, "--out",
                     str(tmp_path / "r.json")]) == 0

    def test_overflowing_invariant_exits_2(self, tmp_path, capsys):
        doc = {"dim": 2, "rays": [[1, 0], [1, 2]], "omega_link": 1e-300,
               "interior_value": 1000000000000}
        inp = write(tmp_path, "fan.json", json.dumps(doc))
        assert main(["toric", "--in", inp]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invariant A overflows a float: ")

    def test_no_scipy_optimize_or_spatial(self, tmp_path):
        # the toric pipeline is exact: no LP for pointedness, no Qhull
        code = ("import sys\n"
                "from conelab.cli import main\n"
                "assert main(sys.argv[1:]) == 0\n"
                "print(sorted(m for m in sys.modules if m.startswith("
                "('scipy.optimize', 'scipy.spatial'))))\n")
        fixture = pathlib.Path(__file__).parent / "fixtures" / "toric.json"
        src = str(pathlib.Path(conelab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", code, "toric", "--in", str(fixture),
             "--out", str(tmp_path / "r.json")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_one_class_check_per_run(self, tmp_path, monkeypatch):
        calls = []
        check = conelab.toric.support_function_check

        def counted(tri, values):
            calls.append(len(tri.rays))
            return check(tri, values)

        monkeypatch.setattr(conelab.toric, "support_function_check", counted)
        doc = {"dim": 3, "rays": [[0, 0, 1], [2, 1, 1], [1, 3, 1]],
               "omega_link": 1.0}
        inp = write(tmp_path, "fan.json", json.dumps(doc))
        assert main(["toric", "--in", inp, "--out",
                     str(tmp_path / "r.json")]) == 0
        assert calls == [5]


@st.composite
def toric_documents(draw):
    """dim 2 or 3 fans: distinct small integer rays, mostly on the level
    x_m = 1 so that a Gorenstein covector exists, with an edge-case
    omega_link and an optional interior value."""
    dim = draw(st.sampled_from([2, 3]))
    level = draw(st.sampled_from([1, 1, 1, 0, 2, -1]))
    rays = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=dim - 1, max_size=dim - 1)
        .map(lambda r: r + [level]), min_size=dim, max_size=6,
        unique_by=tuple))
    doc = {"dim": dim, "rays": rays, "omega_link": draw(st.sampled_from(
        [1.0, 1e-300, 1e308, 1e-320, 0.0, -1.0]))}
    interior = draw(st.one_of(st.none(), st.integers(-2, 20),
                              st.sampled_from([0.5, "3/2"])))
    if interior is not None:
        doc["interior_value"] = interior
    return doc


class TestToricFuzz:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(doc=toric_documents())
    def test_exit_code_and_strict_json(self, tmp_path_factory, doc):
        inp = write(tmp_path_factory.mktemp("fuzz"), "fan.json",
                    json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["toric", "--in", inp])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 0:
            def reject(token):
                raise ValueError(f"non-strict JSON token {token}")
            json.loads(out, parse_constant=reject)
        else:
            assert out == "" and err.startswith("error: ")


@st.composite
def graph_documents(draw):
    """One to six vertices, mostly with distinct integer ids and positive
    measures, some with edge-case ids and measures; edges mostly between
    them, some malformed; and a few documents of the wrong shape."""
    ids = st.one_of(*[st.integers(0, 9)] * 4,
                    st.sampled_from(["a", "", None, 1.5, [0]]))
    measures = st.one_of(
        *[st.floats(0.1, 10.0)] * 4,
        st.sampled_from([0.0, -1.0, 1e308, 1e307, 1e-320, math.nan, math.inf,
                         "2", "x", None, [1.0]]))
    vertices = draw(st.lists(
        st.fixed_dictionaries({"id": ids, "measure": measures}),
        min_size=1, max_size=6, unique_by=lambda v: json.dumps(v["id"])))
    ends = st.sampled_from([v["id"] for v in vertices])
    pair = st.lists(ends, min_size=2, max_size=2)
    edges = draw(st.lists(st.one_of(
        pair, pair, pair, st.lists(ends, max_size=3),
        st.sampled_from(["ab", 3, [[0], 1]])), max_size=8))
    doc = {"vertices": vertices, "edges": edges}
    return draw(st.sampled_from([doc] * 12 + [
        {"vertices": vertices}, {"edges": edges}, [doc], 5,
        {"vertices": {"x": 1}}, {"vertices": [1, 2]}]))


class TestGraphFuzz:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(doc=graph_documents())
    def test_exit_code_and_strict_json(self, tmp_path_factory, doc):
        inp = write(tmp_path_factory.mktemp("fuzz"), "g.json",
                    json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["graph", "--in", inp])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 0:
            def reject(token):
                raise ValueError(f"non-strict JSON token {token}")
            json.loads(out, parse_constant=reject)
        else:
            assert out == "" and err.startswith("error: ")


def mostly(valid, bad):
    """Draw from ``valid`` seven times in eight, else one of ``bad``."""
    return st.sampled_from([valid] * 7 + [st.sampled_from(bad)]).flatmap(
        lambda strategy: strategy)


@st.composite
def cover_documents(draw):
    """One to six atoms, mostly with distinct integer ids and positive
    measures, and one to four cells of nested atom sets, some out of order,
    missing or naming an unknown or malformed atom; with regions, adjacency
    pairs and a few documents of the wrong shape."""
    ids = draw(st.lists(mostly(st.integers(0, 9),
                               ["a", None, 1.5, [0], True]),
                        min_size=1, max_size=6, unique_by=json.dumps))
    measures = mostly(st.floats(0.1, 10.0),
                      [0.0, -1.0, 1e308, 1e-320, math.nan, math.inf, "2",
                       None, [1.0]])
    atoms = [{"id": a, "measure": draw(measures)} for a in ids]
    known = st.sampled_from(ids)
    more = st.lists(mostly(known, [99, "z", [1], None]), max_size=3)

    def cell():
        U = draw(st.lists(known, min_size=1, max_size=3))
        Ustar = U + draw(more)
        Usharp = Ustar + draw(more)
        return draw(mostly(st.just({"U": U, "Ustar": Ustar,
                                    "Usharp": Usharp}), [
            {"U": U, "Ustar": U, "Usharp": U}, {"U": U},
            {"U": 3, "Ustar": Ustar, "Usharp": Usharp},
            {"U": Usharp, "Ustar": U, "Usharp": Ustar},
            {"U": [], "Ustar": Ustar, "Usharp": Usharp}]))
    doc = {"atoms": atoms,
           "cells": [cell() for _ in range(draw(st.integers(1, 4)))],
           "A": draw(mostly(st.lists(known, max_size=4),
                            [[99], "A", None])),
           "Asharp": draw(mostly(st.just(ids), [[], [99], 5])),
           "adjacency": draw(st.lists(mostly(
               st.lists(known, min_size=2, max_size=2),
               [[0], [0, 1, 2], "ab", 3, [[0], 1], [0, 99]]), max_size=6))}
    return draw(mostly(st.just(doc), [
        {"atoms": atoms}, [doc], 5, {**doc, "atoms": []},
        {**doc, "cells": []}, {**doc, "atoms": {"x": 1}},
        {**doc, "cells": [[1, 2, 3]]}]))


class TestCoverFuzz:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(doc=cover_documents())
    def test_exit_code_and_strict_json(self, tmp_path_factory, doc):
        inp = write(tmp_path_factory.mktemp("fuzz"), "cover.json",
                    json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["cover", "--in", inp])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 0:
            def reject(token):
                raise ValueError(f"non-strict JSON token {token}")
            json.loads(out, parse_constant=reject)
        else:
            assert out == "" and err.startswith("error: ")


@st.composite
def cone_documents(draw):
    """A tiny cone document, mostly well formed, with edge-case links,
    radii and step counts."""
    circle = draw(st.booleans())
    if circle:
        link = {"kind": "circle", "length": draw(mostly(
            st.floats(0.5, 7.0), [0.0, -1.0, 1e101, 1e308, math.inf, "x"]))}
    else:
        link = {"kind": "sphere",
                "n_theta": draw(mostly(st.integers(2, 4), [1, 0, "3"])),
                "n_phi": draw(mostly(st.integers(3, 6), [2, -1, 4.5]))}
    link = draw(mostly(st.just(link),
                       [{"kind": "torus"}, {"kind": "sphere"}, {}, "circle"]))
    doc = {"link": link,
           "r_min": draw(mostly(st.just(0.0 if circle else 0.05),
                                [0.5, -1.0, 2.0, 1e308, math.nan, "0"])),
           "r_max": draw(mostly(st.floats(1.0, 3.0),
                                [0.5, 0.0, 1e120, 1e200, math.inf])),
           "radial_steps": draw(mostly(st.integers(2, 6),
                                       [1, -1, 1.5, "4", None]))}
    if circle or draw(st.booleans()):
        doc["angular_steps"] = draw(mostly(st.integers(3, 8),
                                           [2, -1, 2.5, "6", None]))
    if draw(st.booleans()):
        doc["spacing"] = draw(mostly(st.just("uniform"),
                                     ["geometric", "log", 1]))
    return draw(mostly(st.just(doc), [{"link": link}, [doc], 5]))


@st.composite
def cone_runs(draw):
    """A document of :func:`cone_documents` and ``heat`` or ``green``
    arguments with valid and malformed sources and times."""
    doc = draw(cone_documents())
    command = draw(st.sampled_from(["heat", "green"]))
    argv = [command, "--source", draw(mostly(
        st.sampled_from(["apex", "0", "1"]),
        ["-1", "999", "x", "1.5", ""]))]
    if command == "heat":
        argv += ["--times", draw(mostly(
            st.sampled_from(["0.1", "0.1,0.25", "0.3,0.1"]),
            ["0", "-1", "nan", "inf", "1e308", "1e-308", "x", "",
             "0.1,,0.2"]))]
    return doc, argv


class TestConeFuzz:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(run=cone_runs())
    def test_exit_code_and_strict_json(self, tmp_path_factory, run):
        doc, argv = run
        tmp = tmp_path_factory.mktemp("fuzz")
        inp = write(tmp, "cone.json", json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--in", inp, "--csv", str(tmp / "t.csv")])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 0:
            def reject(token):
                raise ValueError(f"non-strict JSON token {token}")
            json.loads(out, parse_constant=reject)
        else:
            assert out == "" and err.startswith("error: ")


@st.composite
def doubling_runs(draw):
    """A document of :func:`cone_documents` and ``cone`` arguments with
    valid and malformed sample counts, radius bounds and seeds."""
    doc = draw(cone_documents())
    bad = ["0", "-1", "nan", "inf", "-inf", "1e308", "1e-308", "5e-324"]
    r_lo = draw(mostly(st.floats(0.02, 0.5).map(repr), bad))
    r_hi = draw(mostly(st.floats(0.5, 1.0).map(repr), bad))
    samples = draw(mostly(st.integers(1, 20), [0, -1, 400]))
    seed = draw(mostly(st.integers(0, 2 ** 31), [-1, 2 ** 64, 2 ** 200]))
    # "--opt=value", so that argparse reads "-inf" as a value
    return doc, ["cone", f"--samples={samples}", f"--r-lo={r_lo}",
                 f"--r-hi={r_hi}", f"--seed={seed}"]


class TestDoublingFuzz:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(run=doubling_runs())
    def test_exit_code_and_strict_json(self, tmp_path_factory, run):
        doc, argv = run
        tmp = tmp_path_factory.mktemp("fuzz")
        inp = write(tmp, "cone.json", json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + ["--in", inp, "--csv", str(tmp / "s.csv")])
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 0:
            def reject(token):
                raise ValueError(f"non-strict JSON token {token}")
            json.loads(out, parse_constant=reject)
        else:
            assert out == "" and err.startswith("error: ")


class TestBpCommand:
    def test_csv_matches_library(self, tmp_path, capsys):
        assert main(["bp", "--m", "3", "--k-range", "3..12"]) == 0
        assert capsys.readouterr().out == bp_table_csv(3, range(3, 13))

    def test_json_report(self, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["bp", "--m", "2", "--k-range", "2..5",
                     "--format", "json", "--out", out]) == 0
        doc = json.load(open(out))
        assert doc["tool"] == "bp"
        assert [row["k"] for row in doc["results"]["rows"]] == [2, 3, 4, 5]


class TestReportCommand:
    def test_round_trip_validation(self, tmp_path, capsys):
        g = WeightedGraph([(0, 1.0), (1, 1.0)], [(0, 1)])
        inp = write(tmp_path, "g.json", graph_to_json(g))
        out = str(tmp_path / "r.json")
        assert main(["graph", "--in", inp, "--out", out]) == 0
        capsys.readouterr()
        assert main(["report", "--in", out]) == 0
        assert "valid report" in capsys.readouterr().out

    def test_rejects_foreign_document(self, tmp_path):
        inp = write(tmp_path, "x.json", json.dumps({"hello": 1}))
        assert main(["report", "--in", inp]) == 2

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_rejects_nan_and_infinity(self, tmp_path, capsys, token):
        # the schema cannot see these tokens: json.load reads them as floats
        golden = pathlib.Path(__file__).parent / "fixtures" / "golden"
        text, n = re.subn(r'"spectral_gap": [^,\n]+',
                          f'"spectral_gap": {token}',
                          (golden / "graph.json").read_text())
        assert n == 1
        inp = write(tmp_path, "r.json", text)
        assert main(["report", "--in", inp]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: {token} is not strict JSON; reports hold "
                       f"no NaN or Infinity\n")

    @pytest.mark.parametrize("option", [["--out", "r.json"], ["--seed", "3"]])
    def test_takes_no_out_or_seed(self, tmp_path, capsys, option):
        # report only reads its input: an output path or a seed is refused
        g = WeightedGraph([(0, 1.0), (1, 1.0)], [(0, 1)])
        inp = write(tmp_path, "g.json", graph_to_json(g))
        out = str(tmp_path / "r.json")
        assert main(["graph", "--in", inp, "--out", out]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["report", "--in", out, *option])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestImportFloor:
    """Each subcommand loads only the modules it runs: in a fresh process,
    after ``main`` on the subcommand's fixture, no module of the forbidden
    packages is in ``sys.modules``."""

    CODE = ("import json, sys\n"
            "from conelab.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print(json.dumps(sorted(sys.modules)))\n")

    @pytest.mark.parametrize("argv, forbidden", [
        (["bp", "--m", "3", "--k-range", "3..8", "--format", "json"],
         ("numpy", "scipy")),
        (["bp", "--m", "3", "--k-range", "3..8"],
         ("numpy", "scipy", "jsonschema")),
        (["toric", "--in", "toric.json"], ("numpy", "scipy")),
        (["report", "--in", "golden/graph.json"], ("numpy", "scipy")),
        (["graph", "--in", "graph.json"], ("scipy",)),
        (["cover", "--in", "cover.json"], ("scipy",)),
        (["cone", "--in", "cone.json", "--samples", "20", "--csv", "c.csv"],
         ("scipy",)),
        (["heat", "--in", "heat.json", "--times", "0.2,0.4",
          "--csv", "h.csv"], ("scipy.sparse",)),
        (["green", "--in", "green.json", "--csv", "g.csv"],
         ("scipy.sparse",)),
    ], ids=lambda v: v[0] if isinstance(v, list) else "-".join(v))
    def test_fresh_process_modules(self, argv, forbidden, tmp_path):
        fixtures = pathlib.Path(__file__).parent / "fixtures"
        argv = [str(fixtures / a) if a.endswith(".json") else
                str(tmp_path / a) if a.endswith(".csv") else a for a in argv]
        if argv[0] != "report":
            argv += ["--out", str(tmp_path / "r.json")]
        proc = self.fresh_process(self.CODE, argv)
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert [m for m in loaded if any(
            m == p or m.startswith(p + ".") for p in forbidden)] == []

    @staticmethod
    def fresh_process(code, argv):
        src = str(pathlib.Path(conelab.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        return subprocess.run([sys.executable, "-c", code, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    def test_indicial_roots_load_no_numpy(self):
        proc = self.fresh_process(
            "import json, sys\n"
            "import conelab\n"
            "spec = conelab.indicial_spectrum(3, [5.0])\n"
            "assert spec.mu_pairs == ((-1.0, 5.0),)\n"
            "print(json.dumps(sorted(sys.modules)))\n", [])
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert [m for m in loaded if m.split(".")[0] in ("numpy", "scipy")
                ] == []

    def test_schema_error_exits_2_in_a_fresh_process(self, tmp_path):
        # jsonschema loads inside the validation that raises the error
        inp = write(tmp_path, "x.json", json.dumps({"hello": 1}))
        proc = self.fresh_process(
            "import sys\n"
            "from conelab.cli import main\n"
            "assert 'jsonschema' not in sys.modules\n"
            "sys.exit(main(sys.argv[1:]))\n", ["report", "--in", inp])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
