import json

import pytest
from scipy.sparse.linalg import ArpackNoConvergence

import conelab.graphs
from conelab import GoodCovering, WeightedGraph, bp_table_csv
from conelab.cli import main
from conelab.covering import covering_to_json
from conelab.graphs import graph_to_json

CONE_DOC = {"link": {"kind": "circle", "length": 6.283185307179586},
            "r_min": 0.0, "r_max": 3.0, "radial_steps": 24,
            "angular_steps": 16}


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

    def test_malformed_input(self, tmp_path):
        inp = write(tmp_path, "bad.json", "{oops")
        assert main(["graph", "--in", inp]) == 2

    def test_capacity_exhausted(self, tmp_path):
        g = WeightedGraph([(i, 1.0) for i in range(6)],
                          [(i, i + 1) for i in range(5)])
        inp = write(tmp_path, "g.json", graph_to_json(g))
        assert main(["graph", "--in", inp, "--enum-cap", "4"]) == 2


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
        monkeypatch.setattr(conelab.graphs, "eigsh", no_convergence)
        atoms = {a: 1.0 for a in range(5)}
        cells = [([i], [i - 1, i, i + 1], [i - 1, i, i + 1])
                 for i in (1, 2, 3)]
        cov = GoodCovering(atoms, cells, [1, 2, 3], range(5),
                           [(a, a + 1) for a in range(4)])
        inp = write(tmp_path, "c.json", covering_to_json(cov))
        assert main(["cover", "--in", inp,
                     "--out", str(tmp_path / "r.json")]) == 2


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

    def test_seeded_runs_identical(self, tmp_path):
        inp = write(tmp_path, "cone.json", json.dumps(CONE_DOC))
        o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["cone", "--in", inp, "--seed", "9", "--out", o1]) == 0
        assert main(["cone", "--in", inp, "--seed", "9", "--out", o2]) == 0
        assert open(o1).read() == open(o2).read()


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


    def test_tol_rel_recorded(self, tmp_path):
        inp = write(tmp_path, "cone.json", json.dumps(CONE_DOC))
        out = str(tmp_path / "r.json")
        assert main(["heat", "--in", inp, "--times", "0.2",
                     "--tol-rel", "0.01", "--out", out]) == 0
        assert json.load(open(out))["config"]["tol_rel"] == 0.01


class TestRemovedOptions:
    @pytest.mark.parametrize("argv", [
        ["cone", "--in", "cone.json", "--workers", "2"],
        ["graph", "--in", "g.json", "--tol-rel", "0.1"],
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

    def test_non_gorenstein_rejected(self, tmp_path):
        doc = {"dim": 2, "rays": [[1, 0], [2, 3]], "omega_link": 1.0}
        inp = write(tmp_path, "fan.json", json.dumps(doc))
        assert main(["toric", "--in", inp]) == 2


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
