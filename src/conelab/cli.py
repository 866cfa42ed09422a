"""Command line front end.

Subcommands: graph | cover | cone | heat | green | toric | bp | report.
Reports are JSON documents validated against the schema shipped with the
package; runs are deterministic for a fixed seed (byte-identical output).
Exit codes: 0 success, 2 invalid input or infeasible configuration,
1 internal fault.
"""
from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import math
import sys

from . import __version__
from .errors import (CapacityError, DomainError, InternalFault,
                     PreconditionError, UnsupportedError, _count, _real)


@functools.cache
def _validator():
    """The report schema's validator, built and checked once."""
    import jsonschema

    ref = importlib.resources.files("conelab.schemas") / "report.schema.json"
    schema = json.loads(ref.read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


def _validate(doc):
    """``jsonschema.validate(doc, schema)`` with the compiled validator."""
    import jsonschema

    error = jsonschema.exceptions.best_match(_validator().iter_errors(doc))
    if error is not None:
        raise error


def write_report(tool, config, results, args, warnings=()):
    doc = {
        "tool": tool,
        "version": __version__,
        "seed": int(getattr(args, "seed", 0)),
        "config": config,
        "results": results,
    }
    if warnings:
        doc["warnings"] = list(warnings)
    _validate(doc)
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _num(x):
    """JSON-safe float (inf -> string, numpy -> python)."""
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


#: Rows converted to Python scalars at a time by :func:`_write_rows`.
_CSV_CHUNK = 1024


def _write_rows(fh, fmt, *columns):
    """Write ``fmt % row`` for each row of the equal-length arrays
    ``columns``.  Python scalars format faster than numpy ones, and
    converting _CSV_CHUNK rows at a time keeps the text of a large table
    out of memory."""
    for lo in range(0, len(columns[0]), _CSV_CHUNK):
        rows = (c[lo:lo + _CSV_CHUNK].tolist() for c in columns)
        fh.write("".join(map(fmt.__mod__, zip(*rows))))


# ---------------------------------------------------------------------------
# subcommands; each imports the modules it runs, so a process loads no
# more than its subcommand needs


def run_graph(args):
    from . import graphs

    cap = graphs.DEFAULT_ENUM_CAP if args.enum_cap is None else args.enum_cap
    with open(args.infile) as fh:
        g = graphs.graph_from_json(fh.read())
    rep = graphs.cheeger_gap_report(g, cap=cap)
    warnings = []
    if not rep.upper_ok:
        warnings.append(
            "spectral gap exceeds the Cheeger constant; the one-sided "
            "comparison gap <= h does not hold for this graph")
        print("WARNING: " + warnings[-1], file=sys.stderr)
    results = {
        "n_vertices": len(g),
        "cheeger_constant": _num(rep.h),
        "spectral_gap": _num(rep.gap),
        "degree_bound_m0": _num(rep.m0),
        "lower_ok": rep.lower_ok,
        "upper_ok": rep.upper_ok,
    }
    write_report("graph", {"in": args.infile, "enum_cap": cap},
                 results, args, warnings)
    return 0


def run_cover(args):
    from . import covering, graphs

    with open(args.infile) as fh:
        cov = covering.covering_from_json(fh.read())
    rep = covering.validate_covering(cov)
    results = {
        "ok": rep.ok,
        "q1": rep.q1,
        "q2": _num(rep.q2),
        "violations": rep.violations,
        "n_cells": len(cov.cells),
    }
    if rep.ok:
        ag = covering.associated_graph(cov, rep)
        results["graph_spectral_gap"] = _num(graphs.spectral_gap(ag))
    write_report("cover", {"in": args.infile}, results, args)
    return 0


def run_cone(args):
    from . import cones

    with open(args.infile) as fh:
        cone = cones.cone_from_json(fh.read())
    scan = cones.doubling_scan(cone, n_samples=args.samples,
                               r_bounds=(args.r_lo, args.r_hi),
                               seed=args.seed)
    if not scan.records:
        raise PreconditionError(
            f"all {scan.n_clipped} sampled 2r-balls are clipped by the "
            f"truncation boundary (r in [{args.r_lo:g}, {args.r_hi:g}]); "
            f"no doubling ratio to report")
    results = {
        "dimension": cone.dimension,
        "n_vertices": cone.n_vertices,
        "total_measure": _num(cone.total_measure),
        "doubling_ratio_max": _num(scan.ratio_max),
        "n_samples": len(scan.records),
        "n_clipped": scan.n_clipped,
        "cases": {c: sum(1 for r in scan.records if r.case == c)
                  for c in ("anchored", "remote", "neither")},
    }
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("vertex,radius,ratio,case\n")
            for r in scan.records:
                fh.write(f"{r.vertex},{r.radius:.12g},{r.ratio:.12g},{r.case}\n")
    write_report("cone", {"in": args.infile, "samples": args.samples,
                          "r_lo": args.r_lo, "r_hi": args.r_hi},
                 results, args)
    return 0


def run_heat(args):
    import numpy as np

    from . import cones, spectral

    with open(args.infile) as fh:
        cone = cones.cone_from_json(fh.read())
    source = cone.base_point() if args.source == "apex" else int(args.source)
    times = [float(t) for t in args.times.split(",")]
    samples = spectral.heat_kernel(cone, source, times)
    fit = spectral.gaussian_fit(samples, cone)
    results = {
        "source": source,
        "times": [s.t for s in samples],
        "mass": [_num(s.mass(cone)) for s in samples],
        "fit": {"c1": _num(fit.c1), "C1": _num(fit.C1), "c2": _num(fit.c2),
                "C2": _num(fit.C2), "passed": fit.passed,
                "n_points": fit.n_points,
                "max_rel_residual": _num(fit.max_rel_residual)},
    }
    if args.csv:
        d = cone.distances_from(source)
        vertex = np.arange(cone.n_vertices)
        with open(args.csv, "w") as fh:
            fh.write("t,vertex,distance,value\n")
            for s in samples:
                _write_rows(fh, f"{s.t:.12g}," + "%d,%.12g,%.12g\n",
                            vertex, d, s.values)
    write_report("heat", {"in": args.infile, "times": times,
                          "source": args.source}, results, args)
    return 0


def run_green(args):
    import numpy as np

    from . import cones, spectral

    with open(args.infile) as fh:
        cone = cones.cone_from_json(fh.read())
    source = cone.base_point() if args.source == "apex" else int(args.source)
    res = spectral.greens_function(cone, source)
    results = {
        "source": source,
        "dimension": cone.dimension,
        "bound_constant": _num(res.bound_constant),
        "positive": res.positive,
    }
    if args.csv:
        d = cone.distances_from(source)
        with open(args.csv, "w") as fh:
            fh.write("vertex,distance,value\n")
            _write_rows(fh, "%d,%.12g,%.12g\n",
                        np.arange(cone.n_vertices), d, res.values)
    write_report("green", {"in": args.infile, "source": args.source},
                 results, args)
    return 0


def run_toric(args):
    from . import toric

    with open(args.infile) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
        dim = _count(doc["dim"], None, "dim")
        rays = tuple(tuple(_count(x, None, "a ray coordinate") for x in r)
                     for r in doc["rays"])
        omega = _real(doc["omega_link"], "omega_link")
        raw = dict(doc.get("support_values", {}))
        interior = doc.get("interior_value", 1)
    except (ValueError, KeyError, TypeError) as exc:
        raise DomainError(f"malformed toric JSON: {exc}") from exc
    cone = toric.ToricConeData(dim, rays)
    gres = toric.gorenstein_covector(cone)
    if gres.gamma is None:
        raise PreconditionError(
            f"no Gorenstein covector: {gres.certificate}")
    section = toric.cross_section(cone, gres.gamma)
    tri = toric.maximal_triangulation(section, cone)
    values = {u: raw.get(json.dumps(list(u)),
                         0 if i < tri.n_boundary else interior)
              for i, u in enumerate(tri.rays)}
    inv = toric.invariant_A(tri, values, omega, method="both")
    results = {
        "gamma": list(gres.gamma),
        "gamma_unique": gres.unique,
        "n_boundary_rays": tri.n_boundary,
        "n_interior_rays": len(tri.interior_rays),
        "n_simplices": len(tri.simplices),
        "maximal": tri.maximal,
        "basic": tri.basic,
        "is_kahler": inv.is_kahler,
        "invariant_A": _num(inv.value),
        "divisor_sum": _num(inv.divisor_sum),
        "polytope_volume": _num(inv.polytope_volume),
        "excised_volume": _num(inv.excised_volume),
    }
    write_report("toric", {"in": args.infile, "omega_link": omega},
                 results, args)
    return 0


def run_bp(args):
    from . import hypersurface

    lo, hi = (int(x) for x in args.k_range.split(".."))
    ks = list(range(lo, hi + 1))
    if args.format == "csv":
        text = hypersurface.bp_table_csv(args.m, ks)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return 0
    rows = []
    for k in ks:
        rec = hypersurface.bp_crepant_chain(args.m, k)
        rows.append({"k": k, "se_ok": rec.se_ok, "resolvable": rec.resolvable,
                     "blowup_count": rec.blowup_count})
    write_report("bp", {"m": args.m, "k_range": args.k_range},
                 {"rows": rows}, args)
    return 0


def _not_strict_json(name):
    raise DomainError(f"{name} is not strict JSON; reports hold no NaN or "
                      f"Infinity")


def run_report(args):
    with open(args.infile) as fh:
        doc = json.load(fh, parse_constant=_not_strict_json)
    _validate(doc)
    print(f"valid report: tool={doc['tool']} version={doc['version']}")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser():
    """The command line parser, built once per process."""
    p = argparse.ArgumentParser(prog="conelab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, infile=True):
        if infile:
            sp.add_argument("--in", dest="infile", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("graph", help="Cheeger/spectral gap comparison")
    common(sp)
    # None stands for graphs.DEFAULT_ENUM_CAP, read in run_graph: the
    # parser of every subcommand would load graphs to read it here
    sp.add_argument("--enum-cap", dest="enum_cap", type=int, default=None)
    sp.set_defaults(func=run_graph)

    sp = sub.add_parser("cover", help="validate a good covering")
    common(sp)
    sp.set_defaults(func=run_cover)

    sp = sub.add_parser("cone", help="build a cone and scan volume doubling")
    common(sp)
    sp.add_argument("--samples", type=int, default=100)
    sp.add_argument("--r-lo", dest="r_lo", type=float, default=0.5)
    sp.add_argument("--r-hi", dest="r_hi", type=float, default=1.5)
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=run_cone)

    sp = sub.add_parser("heat", help="heat kernel and Gaussian bounds")
    common(sp)
    sp.add_argument("--times", default="0.1,0.25,0.5,1.0")
    sp.add_argument("--source", default="apex")
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=run_heat)

    sp = sub.add_parser("green", help="Green's function on a cone (n > 2)")
    common(sp)
    sp.add_argument("--source", default="apex")
    sp.add_argument("--csv", default=None)
    sp.set_defaults(func=run_green)

    sp = sub.add_parser("toric", help="toric cross-section and invariant A")
    common(sp)
    sp.set_defaults(func=run_toric)

    sp = sub.add_parser("bp", help="Brieskorn-Pham crepant chain table")
    common(sp, infile=False)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--k-range", dest="k_range", required=True,
                    help="inclusive range, e.g. 3..12")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=run_bp)

    sp = sub.add_parser("report", help="validate a report JSON")
    sp.add_argument("--in", dest="infile", required=True)
    sp.set_defaults(func=run_report)
    return p


def _input_errors():
    """The exceptions that exit 2.  ValueError covers DomainError,
    PreconditionError and json.JSONDecodeError; OSError covers a file that
    cannot be read or written (missing, a directory, no permission).
    jsonschema's ValidationError is one of them once a report was
    validated; jsonschema is not loaded before, so a subcommand that
    validates nothing does not load it."""
    errors = (ValueError, OSError, KeyError, CapacityError, UnsupportedError)
    jsonschema = sys.modules.get("jsonschema")
    if jsonschema is None:
        return errors
    return errors + (jsonschema.ValidationError,)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _input_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalFault as exc:
        print(f"internal fault: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
