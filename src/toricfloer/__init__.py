"""Disc instantons and Floer cohomology of torus fibers in toric manifolds.

Moment-polytope combinatorics is exact; the Floer vanishing criterion,
balanced-fiber search and mirror superpotential critical points are
verified against each other at the T^{2pi} = e^{-1} specialization.

Each exported name is imported from its submodule on first access, so
that the exact commands never load numpy: only `oracle` and the batched
floating-point searches need it.
"""

import importlib

_EXPORTS = {
    "discs": ("BlaschkeLift", "DiscClass", "FiberPoint", "disc_area",
              "disc_area_exact", "evaluate_lift", "index_two_classes",
              "lift_fiber", "make_lift", "maslov_index",
              "torus_coordinate_form", "winding_maslov"),
    "floer": ("AreaPartition", "BalancedDescription", "BalancedSolution",
              "HolonomyVector", "NovikovTerm", "NovikovVector",
              "UnsupportedRegimeError", "UnsupportedRegimeWarning",
              "balanced_fibers_novikov", "delta2_point", "delta_k_vanishing",
              "describe_balanced", "equal_area_certificate", "hf_rank",
              "spectral_rank_check"),
    "lattice": ("Cone", "Fan", "FanError", "KernelLattice", "Polytope",
                "PolytopeError", "PrimitiveCollection", "chart_coordinates",
                "euler_characteristic", "is_fano", "is_smooth",
                "kernel_lattice", "normal_fan", "parse_polytope",
                "primitive_collections", "serialize_polytope"),
    "mirror": ("CriticalPoint", "LevelTest", "MirrorCoordinates",
               "MirrorPoint", "Superpotential",
               "balanced_fibers_with_holonomy", "build_superpotential",
               "check_delta2_equals_gradW", "check_o_equals_W",
               "constraint_residuals_exact", "critical_points", "gradient_W",
               "holonomy_balanced", "mirror_coordinates",
               "mirror_coordinates_exact", "obstruction_class"),
    "oracle": ("balanced_oracle",),
}
_MODULE_OF = {name: mod for mod, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value
