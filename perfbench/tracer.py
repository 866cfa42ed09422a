"""Outside-in tracer for conelab.

The tracer wraps conelab's public functions from outside: it replaces module
attributes (and the matching ``conelab`` re-exports) with timing shims and
puts the originals back on ``uninstall``.  The package itself is unchanged.

Each span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at the root).  Spans stay in memory and are summarised at
the end.  A span directly inside a span of the same name is not recorded
separately (``patch_neumann`` calls ``patch_dirichlet``, ``bp_table_csv``
calls ``bp_crepant_chain``), so ``calls`` counts entries into a layer.
"""
from __future__ import annotations

import time
from collections import defaultdict

#: Layer spans: (span name, module, attribute).  A module of ``None`` means
#: the attribute is a method of ``cones.DiscretizedCone``.
LAYER_SPANS = [
    ("spectral.poincare", "spectral", "poincare_constant"),
    ("spectral.cell_constant", "spectral", "covering_cell_constant"),
    ("spectral.heat_kernel", "spectral", "heat_kernel"),
    ("spectral.gaussian_fit", "spectral", "gaussian_fit"),
    ("spectral.greens", "spectral", "greens_function"),
    ("spectral.green_time_int", "spectral", "green_by_time_integration"),
    ("cones.build", "cones", "build_cone"),
    ("cones.distances", None, "distances_from"),
    ("cones.ball_volume", None, "ball_volume"),
    ("cones.doubling_scan", "cones", "doubling_scan"),
    ("cones.net_covering", "cones", "net_covering"),
    ("graphs.cheeger", "graphs", "cheeger_constant"),
    ("graphs.spectral_gap", "graphs", "spectral_gap"),
    ("covering.validate", "covering", "validate_covering"),
    ("covering.associated_graph", "covering", "associated_graph"),
    ("covering.patch", "covering", "patch_neumann"),
    ("covering.patch", "covering", "patch_dirichlet"),
    ("toric.gorenstein", "toric", "gorenstein_covector"),
    ("toric.cross_section", "toric", "cross_section"),
    ("toric.triangulation", "toric", "maximal_triangulation"),
    ("toric.support_check", "toric", "support_function_check"),
    ("toric.invariant_A", "toric", "invariant_A"),
    ("hypersurface.bp", "hypersurface", "bp_crepant_chain"),
    ("hypersurface.bp", "hypersurface", "bp_table_csv"),
    ("cli.main", "cli", "main"),
    ("cli.write_report", "cli", "write_report"),
    ("cli.parse_input", "graphs", "graph_from_json"),
    ("cli.parse_input", "cones", "cone_from_json"),
    ("cli.parse_input", "covering", "covering_from_json"),
]

#: Sparse-solver kernels called from ``spectral``; reported as total time.
KERNEL_SPANS = ["spectral.factor", "spectral.solve", "spectral.eigh"]

#: Counters recorded at span boundaries.
COUNTERS = ["spectral.factor.fill_nnz", "cones.build.vertices",
            "graphs.cheeger.subsets"]


class _Proxy:
    """Stands in for a module: the given attributes override, the rest
    delegate to the wrapped object."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class _TracedLU:
    """A SuperLU factor whose ``solve`` is traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.skipped = []       # patch targets missing from the package
        self._stack = []
        self._saved = []

    def reset(self):
        """Drop recorded spans and counters; patches stay installed."""
        self.spans = []
        self.counts = defaultdict(int)

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as a span called ``name``; ``after(result, args)``
        may count something and returns the value handed to the caller."""
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and self.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            return out if after is None else after(out, args)

        traced.__wrapped__ = fn
        return traced

    # -- installing the shims -------------------------------------------
    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import conelab
        from conelab import cli, cones, covering, graphs, hypersurface
        from conelab import spectral, toric
        modules = {"cli": cli, "cones": cones, "covering": covering,
                   "graphs": graphs, "hypersurface": hypersurface,
                   "spectral": spectral, "toric": toric}
        replaced = {}
        afters = {"cones.build": self._count_vertices,
                  "graphs.cheeger": self._count_subsets}
        for name, mod, attr in LAYER_SPANS:
            owner = cones.DiscretizedCone if mod is None else modules[mod]
            orig = getattr(owner, attr, None)
            if orig is None:
                self.skipped.append(f"{mod}.{attr}")
                continue
            fn = self.wrap(name, orig, afters.get(name))
            self._set(owner, attr, fn)
            replaced[id(orig)] = fn
        if hasattr(spectral, "splu"):
            self._set(spectral, "splu",
                      self.wrap("spectral.factor", spectral.splu,
                                self._traced_lu))
        else:
            self.skipped.append("spectral.splu")
        scipy_mod = getattr(spectral, "scipy", None)
        if scipy_mod is not None and hasattr(scipy_mod, "linalg"):
            eigh = self.wrap("spectral.eigh", scipy_mod.linalg.eigh)
            self._set(spectral, "scipy",
                      _Proxy(scipy_mod,
                             linalg=_Proxy(scipy_mod.linalg, eigh=eigh)))
        else:
            self.skipped.append("spectral.scipy.linalg.eigh")
        for attr, value in list(vars(conelab).items()):
            if id(value) in replaced:
                self._set(conelab, attr, replaced[id(value)])
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- counters -------------------------------------------------------
    def _count_vertices(self, cone, args):
        self.counts["cones.build.vertices"] += int(cone.n_vertices)
        return cone

    def _count_subsets(self, h, args):
        n = len(args[0])
        if n > 1:
            self.counts["graphs.cheeger.subsets"] += (1 << n) - 1
        return h

    def _traced_lu(self, lu, args):
        self.counts["spectral.factor.fill_nnz"] += int(lu.nnz)
        return _TracedLU(lu, self.wrap("spectral.solve", lu.solve))


# ---------------------------------------------------------------------------
# self-time arithmetic


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def summarize(spans):
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the part of it that its child spans
    cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        children[parent].append((start, end))
    out = {}
    for idx, (name, start, end, _) in enumerate(spans):
        rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["s"] += end - start
        rec["self_s"] += (end - start) - _covered(children.get(idx, ()))
    return out


def unspanned_share(spans, wall_s):
    """Share of ``wall_s`` that no root span covers: the benchmark's glue."""
    roots = [(s, e) for _, s, e, parent in spans if parent == -1]
    return (wall_s - _covered(roots)) / wall_s
