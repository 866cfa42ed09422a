"""Discrete functional inequalities, heat kernels and resolutions on
manifolds with conical ends.

The submodules and the names re-exported here load on first access
(PEP 562), so a process imports only what it uses.  A re-export is looked
up in its submodule on every access and never cached here.
"""
import importlib

__version__ = "0.1.0"

from .errors import (CapacityError, DomainError, InternalFault,
                     PreconditionError, UnsupportedError)

#: Re-exported names, by the submodule that defines them.
_EXPORTS = {
    "graphs": ("WeightedGraph", "cheeger_constant", "spectral_gap",
               "degree_bound_m0", "cheeger_gap_report",
               "isoperimetric_constant"),
    "covering": ("GoodCovering", "Cell", "validate_covering",
                 "associated_graph", "PatchingInput", "patch_dirichlet",
                 "patch_neumann"),
    "cones": ("CircleLink", "GraphLink", "sphere_link", "DiscretizedCone",
              "build_cone", "classify_ball", "combine_parameter",
              "doubling_scan", "separated_net", "net_covering",
              "annular_covering", "radius_field"),
    "spectral": ("heat_kernel", "gaussian_fit", "greens_function",
                 "green_by_time_integration", "poincare_constant",
                 "scale_invariant_poincare_scan", "covering_cell_constant"),
    "toric": ("ToricConeData", "gorenstein_covector", "cross_section",
              "maximal_triangulation", "support_function_check",
              "kahler_class", "invariant_A"),
    "hypersurface": ("WeightedPolynomial", "weighted_degree",
                     "cy_link_condition", "bp_crepant_chain", "bp_table_csv",
                     "blowup_discrepancy", "indicial_spectrum"),
}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}
_ORIGIN = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = ["CapacityError", "DomainError", "InternalFault",
           "PreconditionError", "UnsupportedError", *_ORIGIN]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        module = importlib.import_module(f"{__name__}.{_ORIGIN[name]}")
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SUBMODULES | set(_ORIGIN))
