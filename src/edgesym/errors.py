"""Exception types shared across the package."""


class EdgesymError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(EdgesymError):
    """Coordinates or operators of incompatible dimensions."""


class CollinearPoints(EdgesymError):
    """No finite circle passes near collinear points."""


class NonCoplanarPoints(EdgesymError):
    """3D circle fit requested for points that do not lie in a plane."""


class DegeneratePolygon(EdgesymError):
    """Polygon with (numerically) zero area."""


class PolygonInequality(EdgesymError):
    """Longest side is at least the sum of the others."""


class DuplicateLabel(EdgesymError):
    """Two input points carry the same index label."""


class NonFiniteCoordinate(EdgesymError):
    """An input point has a NaN or infinite coordinate, or one so large that
    squared distances overflow."""


class NotFullDimensional(EdgesymError):
    """Point set has affine dimension below 3."""


class NonExtremePoint(EdgesymError):
    """A labelled point is not a vertex of the convex hull."""


class IndexSetMismatch(EdgesymError):
    """Congruence requested for instances indexed by different label sets."""


class DegenerateFaceMerge(EdgesymError):
    """Coplanar-facet merging produced a face without one simple boundary cycle."""


class EdgeCrossing(EdgesymError):
    """Two edges of a straight-line embedding intersect away from shared endpoints."""


class NonConvexBoundedFace(EdgesymError):
    """A bounded face is not a strictly convex simple polygon."""


class Disconnected(EdgesymError):
    """The graph is not connected."""


class NonSimpleOuterBoundary(EdgesymError):
    """The outer face walk revisits a vertex."""


class FaceNotOnBoundary(EdgesymError):
    """Decomposition face shares no edge with the outer face."""


class DecompositionError(EdgesymError):
    """A decomposition piece violates the expected boundary structure."""


class InvalidTolerance(EdgesymError, ValueError):
    """A tolerance component that is not positive and finite."""


class InvalidPlaneGraph(EdgesymError, ValueError):
    """Too few vertices, an edge at an unknown label or a self-loop, or a
    face index that names no bounded face."""


class InvalidMap(EdgesymError, ValueError):
    """Face cycles that do not form a sphere map (see CombinatorialMap)."""


class NotCombinatoriallyEquivalent(EdgesymError):
    """Identity on labels does not extend to a map isomorphism."""


class PermutationNotASymmetry(EdgesymError):
    """Permutation maps an edge to a non-edge."""


class UnknownGalleryName(EdgesymError):
    """Requested gallery instance does not exist."""


class InvalidGalleryParameter(EdgesymError):
    """Gallery parameters outside their validity range."""


class InputFormatError(EdgesymError):
    """Malformed input file; message carries line/field diagnostics."""
