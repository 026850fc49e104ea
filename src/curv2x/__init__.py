"""curv2x: exact curvature invariants of branched 2-complexes and
origami certificates for pi1-injectivity of graph maps.

The usual workflow is `from_presentation` (or `parse_complex`) to build
a complex, `invariants` or `extremize` for the curvature extremes, and
`certify_pi1_injective` for graph-map certificates.  Everything is
exact: rational arithmetic throughout, no floating point.
"""

from .blocks import (
    EdgeBlock,
    VertexBlock,
    block_census,
    canonical_block_key,
    enumerate_vertex_blocks,
    factor_through_origami,
    induced_edge_block,
    induced_vertex_block,
    opposite_edge_block,
    validate_vertex_block,
)
from .branched_complex import (
    BranchedComplex,
    BranchedMap,
    compose_branched,
    curvature_quantities,
    fold_complex,
    from_presentation,
    identity_branched_map,
    is_branched_immersion,
    is_compatible_complex,
    link_predicate,
    quotient_complex,
    validate_complex,
)
from .cli import cli_main
from .errors import CurvError, EnumerationBudgetExceeded
from .formats import (
    DocumentModel,
    canonical_complex,
    parse_block_vector,
    parse_certificate,
    parse_complex,
    parse_graph,
    parse_morphism,
    parse_report,
    serialize_block_vector,
    serialize_certificate,
    serialize_complex,
    serialize_graph,
    serialize_morphism,
    serialize_report,
)
from .origami import (
    Origami,
    certify_pi1_injective,
    fold_origami,
    is_compatible,
    origami_isomorphic,
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
    extremize,
    integer_cone_points,
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
    fibre_product,
    identity_morphism,
    make_graph,
    pi1_injective_oracle,
    rose,
    stallings_fold,
    theta,
)

__version__ = "0.1.0"

__all__ = [
    "BranchedComplex", "BranchedMap", "ConeSystem", "CurvError",
    "DocumentModel", "EdgeBlock", "EnumerationBudgetExceeded",
    "ExtremumReport", "GluingRow", "GraphMorphism", "INVARIANTS",
    "LPProblem", "LPResult", "Origami", "RealizedComplex", "SerreGraph",
    "VertexBlock", "block_area", "block_census", "block_chi", "build_cone",
    "canonical_block_key", "canonical_complex", "certify_pi1_injective",
    "check_solution", "cli_main", "compose", "compose_branched",
    "curvature_quantities", "cycle", "enumerate_vertex_blocks", "extremize",
    "factor_through_origami", "fibre_product", "fold_complex",
    "fold_origami", "from_presentation",
    "identity_branched_map", "identity_morphism", "induced_edge_block",
    "induced_vertex_block", "integer_cone_points", "invariants",
    "is_branched_immersion", "is_compatible", "is_compatible_complex",
    "link_predicate", "make_graph", "opposite_edge_block",
    "origami_isomorphic", "parse_block_vector", "parse_certificate",
    "parse_complex", "parse_graph", "parse_morphism", "parse_report",
    "pi1_injective_oracle", "quotient_complex", "quotient_graph",
    "reconstruct", "rose", "scale_to_integer", "serialize_block_vector",
    "serialize_certificate", "serialize_complex", "serialize_graph",
    "serialize_morphism", "serialize_report", "solve", "stallings_fold",
    "theta", "to_fraction", "trivial_origami", "unfold_origami",
    "validate_complex", "validate_vertex_block", "verify_realizer",
]
