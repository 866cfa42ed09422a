"""Golden reports: every CLI subcommand on a fixed input must reproduce the
committed report byte for byte.

The inputs live in ``tests/fixtures`` and the expected outputs in
``tests/fixtures/golden``.  Each case runs in a temporary working directory
with a relative ``--in`` path, because the report config records the path.
After an intended change of a report, rewrite the expected files with

    PYTHONPATH=src python tests/test_golden.py

and explain the change.
"""
import os
import pathlib
import shutil
import tempfile

import pytest

from conelab.cli import main

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

#: case name -> (input file or None, extra arguments, side outputs); a case
#: is named after its subcommand, with an optional ``_variant`` suffix
CASES = {
    "graph": ("graph.json", [], []),
    "cover": ("cover.json", [], []),
    "cone": ("cone.json", ["--samples", "20", "--seed", "3",
                           "--csv", "cone.csv"], ["cone.csv"]),
    "heat": ("heat.json", ["--times", "0.2,0.4", "--csv", "heat.csv"],
             ["heat.csv"]),
    "green": ("green.json", ["--csv", "green.csv"], ["green.csv"]),
    "toric": ("toric.json", [], []),
    "toric_a9": ("a9.json", [], []),
    "toric_z5": ("z5.json", [], []),
    "bp": (None, ["--m", "3", "--k-range", "3..8", "--format", "json"], []),
}


def run_case(name, workdir):
    """Run one case inside ``workdir``; return {output file: bytes}."""
    infile, extra, side = CASES[name]
    argv = [name.partition("_")[0]]
    if infile is not None:
        shutil.copy(FIXTURES / infile, workdir / infile)
        argv += ["--in", infile]
    report = f"{name}.json"
    argv += extra + ["--out", report]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        assert main(argv) == 0
    finally:
        os.chdir(cwd)
    return {f: (workdir / f).read_bytes() for f in [report] + side}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name, tmp_path):
    for fname, data in run_case(name, tmp_path).items():
        assert data == (GOLDEN / fname).read_bytes(), fname


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            for fname, data in run_case(case, pathlib.Path(tmp)).items():
                (GOLDEN / fname).write_bytes(data)
