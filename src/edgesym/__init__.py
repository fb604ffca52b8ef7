"""Edge-preserving symmetry analysis for convex 3-polytopes and convex
plane graphs."""

from .errors import EdgesymError
from .gallery import gallery, gallery_names, twisted_squares
from .geom import (
    DEFAULT_TOLERANCE,
    CircleFit,
    Isometry,
    LabelledPoints,
    Tolerance,
    best_fit_isometry,
    circumradius_from_sides,
    diameter_of,
    is_inscribed,
    reconstruct_inscribed_polygon,
)
from .maps import CombinatorialMap, combinatorially_equivalent
from .planegraph import (
    ConvexPlaneGraph,
    assemble_congruence,
    boundary_decomposition,
    build_plane_graph,
)
from .polytope import IndexedPolytope, build_polytope, congruent, face_map
from .symmetry import (
    SymmetryRecord,
    SymmetryReport,
    VertexPermutation,
    analyze,
    enumerate_symmetries,
    is_edge_preserving,
    realize,
)
from .verify import (
    TheoremVerdict,
    TwistedSquaresReport,
    random_inscribed_polytope,
    random_triangulation,
    twisted_squares_check,
    verify_graph_theorem,
    verify_polytope_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "CircleFit",
    "CombinatorialMap",
    "ConvexPlaneGraph",
    "DEFAULT_TOLERANCE",
    "EdgesymError",
    "IndexedPolytope",
    "Isometry",
    "LabelledPoints",
    "SymmetryRecord",
    "SymmetryReport",
    "TheoremVerdict",
    "Tolerance",
    "TwistedSquaresReport",
    "VertexPermutation",
    "analyze",
    "assemble_congruence",
    "best_fit_isometry",
    "boundary_decomposition",
    "build_plane_graph",
    "build_polytope",
    "circumradius_from_sides",
    "combinatorially_equivalent",
    "congruent",
    "diameter_of",
    "enumerate_symmetries",
    "face_map",
    "gallery",
    "gallery_names",
    "is_edge_preserving",
    "is_inscribed",
    "random_inscribed_polytope",
    "random_triangulation",
    "realize",
    "reconstruct_inscribed_polygon",
    "twisted_squares",
    "twisted_squares_check",
    "verify_graph_theorem",
    "verify_polytope_theorem",
]
