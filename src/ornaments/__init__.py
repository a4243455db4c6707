"""Exact piecewise-linear ornaments of three closed oriented manifolds in
R^{3k-1} and their integer triple-point invariant, computed two independent
ways: as a mapping degree by ray-preimage counting, and as the algebraic
number of triple points swept out by a homotopy to the trivial ornament."""

from .geometry import (
    DimensionMismatch,
    Rat,
    format_rational,
    parse_rational,
    random_rational_perturbation,
)
from .model import (
    Ornament,
    PLMap,
    TriangulatedManifold,
    ValidationReport,
    perturb_ornament,
    validate_manifold,
    validate_ornament,
)
from .degree import (
    NonGenericDirection,
    PreimageSolution,
    degree_sign,
    mu_via_degree,
    mu_via_degree_auto,
    ray_direction,
)
from .sweep import (
    HomotopyTrack,
    NonGenericTrack,
    PrismCell,
    SignedTriplePoint,
    detect_triple_points,
    mu_via_sweep,
    pair_opposite_signs,
)
from .constructions import (
    CrossPolytopeSphere,
    cross_polytope_sphere,
    make_borromean,
    make_random_ornament,
    make_trivial,
)

__all__ = [name for name in dir() if not name.startswith("_")]
