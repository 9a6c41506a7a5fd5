"""Singularity analysis toolkit for integrable Hamiltonian systems.

Submodules:
    expr          polynomial/rational expression DSL; exact jets as one JetStack type
    phasespace    Poisson structures, brackets, fields, flows, model files
    canonical     canonical local models, disguises, quotient-model data
    classify      rank, linearization, Williamson types, non-degeneracy
    bifurcation   scanning, Newton refinement, arclength continuation
    atoms         almost-direct products, twisting groups, stability
    kovalevskaya  the reference system on e(3)*
    cli           the `intsing` command-line entry point
"""

from .canonical import CanonicalSpec, build_canonical, randomized_disguise, verify_periodicity
from .classify import WilliamsonType, classify_point, is_nondegenerate, rank_at, williamson_type
from .expr import Expression, JetStack, parse
from .kovalevskaya import build_kovalevskaya, classify_vertices, involution_fixed_points, regime
from .phasespace import (
    IntegrableModel,
    PhasePoint,
    PoissonStructure,
    check_commutation,
    flow_integrate,
    load_model,
    save_model,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalSpec",
    "Expression",
    "IntegrableModel",
    "JetStack",
    "PhasePoint",
    "PoissonStructure",
    "WilliamsonType",
    "build_canonical",
    "build_kovalevskaya",
    "check_commutation",
    "classify_point",
    "classify_vertices",
    "flow_integrate",
    "involution_fixed_points",
    "is_nondegenerate",
    "load_model",
    "parse",
    "randomized_disguise",
    "rank_at",
    "regime",
    "save_model",
    "verify_periodicity",
    "williamson_type",
]
