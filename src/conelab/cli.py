"""Command line front end.

Subcommands: graph | cover | cone | heat | green | toric | bp | report.
Reports are JSON objects with the keys tool, version, seed, config,
results and optionally warnings, checked by :func:`_check_report`; runs
are deterministic for a fixed seed (byte-identical output).
Exit codes: 0 success, 2 invalid input or infeasible configuration,
1 internal fault.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

from . import __version__
from .errors import (CapacityError, DomainError, InternalFault,
                     PreconditionError, UnsupportedError, _count, _real)

#: The subcommands that write a report, one of which a report's tool names.
_TOOLS = ("graph", "cover", "cone", "heat", "green", "toric", "bp")
#: The keys every report has; the only other key allowed is warnings.
_ENVELOPE = ("tool", "version", "seed", "config", "results")


def _check_report(doc):
    """DomainError unless ``doc`` is a report: an object with every key of
    _ENVELOPE and no other key but warnings; tool one of _TOOLS, version a
    string, seed an integer (as in JSON Schema, a float with no fractional
    part counts), config and results objects, and warnings a list of
    strings."""
    if not isinstance(doc, dict):
        raise DomainError(f"a report is a JSON object, not {doc!r:.60}")
    for key in _ENVELOPE:
        if key not in doc:
            raise DomainError(f"the report has no {key!r}")
    for key in doc:
        if key not in _ENVELOPE and key != "warnings":
            raise DomainError(f"the report has an unknown key {key!r:.60}")
    seed, warnings = doc["seed"], doc.get("warnings", [])
    for key, ok, want in [
        ("tool", doc["tool"] in _TOOLS, "one of " + ", ".join(_TOOLS)),
        ("version", isinstance(doc["version"], str), "a string"),
        ("seed", not isinstance(seed, bool) and (
            isinstance(seed, int)
            or isinstance(seed, float) and seed.is_integer()), "an integer"),
        ("config", isinstance(doc["config"], dict), "an object"),
        ("results", isinstance(doc["results"], dict), "an object"),
        ("warnings", isinstance(warnings, list)
         and all(isinstance(w, str) for w in warnings), "a list of strings"),
    ]:
        if not ok:
            raise DomainError(f"the report's {key} must be {want}, not "
                              f"{doc[key]!r:.60}")


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
    _check_report(doc)
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


def _support_ray(key):
    """The ray that a support_values key names: a JSON list of integers,
    such as "[1, 2]"."""
    try:
        ray = json.loads(key)
    except (TypeError, ValueError):
        ray = None
    if not isinstance(ray, list):
        raise DomainError(f"support_values key {key!r:.60} is not a JSON "
                          f"list of integers")
    return tuple(_count(x, None, "a support_values ray coordinate")
                 for x in ray)


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
        support = {}
        for key, value in dict(doc.get("support_values", {})).items():
            ray = _support_ray(key)
            if ray in support:
                raise DomainError(f"support_values names the ray "
                                  f"{list(ray)} twice")
            support[ray] = value
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
    unknown = sorted(support.keys() - set(tri.rays))
    if unknown:
        raise DomainError(f"support_values names {list(unknown[0])}, which "
                          f"is not a ray of the triangulation")
    values = {u: support.get(u, 0 if i < tri.n_boundary else interior)
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

    bounds = re.fullmatch(r"([0-9]+)\.\.([0-9]+)", args.k_range)
    if bounds is None:
        raise DomainError(f"--k-range must read LO..HI, two decimal "
                          f"integers, not {args.k_range!r}")
    lo, hi = map(int, bounds.groups())
    if lo > hi:
        raise DomainError(f"empty k-range {args.k_range}: {lo} > {hi}")
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


def _finite_float(text):
    """``float(text)``, refusing a literal such as 1e400 that reads as an
    infinity."""
    x = float(text)
    if math.isinf(x):
        _not_strict_json(text)
    return x


def run_report(args):
    with open(args.infile) as fh:
        doc = json.load(fh, parse_constant=_not_strict_json,
                        parse_float=_finite_float)
    _check_report(doc)
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


#: The exceptions that exit 2.  ValueError covers DomainError,
#: PreconditionError and json.JSONDecodeError; OSError covers a file that
#: cannot be read or written (missing, a directory, no permission).
_INPUT_ERRORS = (ValueError, OSError, KeyError, CapacityError,
                 UnsupportedError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalFault as exc:
        print(f"internal fault: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
