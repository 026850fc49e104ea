"""curv2x: exact curvature invariants of branched 2-complexes and
origami certificates for pi1-injectivity of graph maps.

The usual workflow is `from_presentation` (or `parse_complex`) to build
a complex, `invariants` or `extremize` for the curvature extremes, and
`certify_pi1_injective` for graph-map certificates.  Everything is
exact: rational arithmetic throughout, no floating point.
"""

from .blocks import (
    VertexBlock,
    block_census,
    enumerate_catalogues,
    enumerate_vertex_blocks,
    factor_through_origami,
    induced_vertex_block,
    validate_vertex_block,
)
from .branched_complex import (
    BranchedComplex,
    BranchedMap,
    compose_branched,
    curvature_quantities,
    from_presentation,
    identity_branched_map,
    is_branched_immersion,
    link_predicate,
    quotient_complex,
    validate_complex,
)
from .cli import cli_main
from .errors import CurvError, EnumerationBudgetExceeded
from .formats import (
    DocumentModel,
    canonical_complex,
    parse_certificate,
    parse_complex,
    parse_graph,
    parse_morphism,
    parse_report,
    serialize_certificate,
    serialize_complex,
    serialize_graph,
    serialize_morphism,
    serialize_report,
)
from .origami import (
    Origami,
    certify_pi1_injective,
    is_compatible,
    quotient_graph,
    trivial_origami,
    unfold_origami,
)
from .pipeline import (
    INVARIANTS,
    ConeSystem,
    ExtremumReport,
    GluingRow,
    RealizedComplex,
    block_area,
    block_chi,
    build_cone,
    build_cones,
    extremize,
    invariants,
    reconstruct,
    verify_realizer,
)
from .rational_lp import (
    LPProblem,
    LPResult,
    check_solution,
    scale_to_integer,
    solve,
    to_fraction,
)
from .serre_graph import (
    GraphMorphism,
    SerreGraph,
    compose,
    cycle,
    identity_morphism,
    make_graph,
    rose,
    stallings_fold,
    theta,
)

__version__ = "0.1.0"

__all__ = [
    "BranchedComplex", "BranchedMap", "ConeSystem", "CurvError",
    "DocumentModel", "EnumerationBudgetExceeded",
    "ExtremumReport", "GluingRow", "GraphMorphism", "INVARIANTS",
    "LPProblem", "LPResult", "Origami", "RealizedComplex", "SerreGraph",
    "VertexBlock", "block_area", "block_census", "block_chi", "build_cone",
    "build_cones", "canonical_complex", "certify_pi1_injective",
    "check_solution", "cli_main", "compose", "compose_branched",
    "curvature_quantities", "cycle", "enumerate_catalogues", "enumerate_vertex_blocks",
    "extremize",
    "factor_through_origami", "from_presentation",
    "identity_branched_map", "identity_morphism",
    "induced_vertex_block", "invariants",
    "is_branched_immersion", "is_compatible",
    "link_predicate", "make_graph",
    "parse_certificate",
    "parse_complex", "parse_graph", "parse_morphism", "parse_report",
    "quotient_complex", "quotient_graph",
    "reconstruct", "rose", "scale_to_integer",
    "serialize_certificate", "serialize_complex", "serialize_graph",
    "serialize_morphism", "serialize_report", "solve", "stallings_fold",
    "theta", "to_fraction", "trivial_origami", "unfold_origami",
    "validate_complex", "validate_vertex_block", "verify_realizer",
]
