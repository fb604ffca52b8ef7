"""Indexed convex 3-polytopes.

Construction from labelled vertex coordinates (with extremality and
dimension validation), face-lattice extraction as a combinatorial map,
and label-respecting congruence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateFaceMerge,
    DimensionMismatch,
    IndexSetMismatch,
    NonExtremePoint,
    NotFullDimensional,
)
from .geom import DEFAULT_TOLERANCE, Isometry, LabelledPoints, Tolerance, best_fit_isometry
from .maps import CombinatorialMap, _walk_cycles

__all__ = [
    "IndexedPolytope",
    "build_polytope",
    "congruent",
    "face_map",
]


@dataclass(frozen=True, eq=False)
class IndexedPolytope:
    """Vertex coordinates keyed by index labels, as a LabelledPoints;
    insertion order is kept so file round-trips stay stable."""

    vertices: LabelledPoints

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", LabelledPoints.of(self.vertices))

    @cached_property
    def hull(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``simplices``, ``neighbors`` and ``equations`` of the convex hull,
        computed once, like the diameter; a Qhull failure is NotFullDimensional."""
        from scipy.spatial import ConvexHull, QhullError  # here: scipy.spatial loads slowly

        try:
            hull = ConvexHull(self.vertices.array)
        except QhullError as exc:
            raise NotFullDimensional(f"Qhull failed: {str(exc).splitlines()[0]}") from exc
        return hull.simplices, hull.neighbors, hull.equations


def build_polytope(points, tol: Tolerance = DEFAULT_TOLERANCE) -> IndexedPolytope:
    """Validate labelled points as the vertex set of a convex 3-polytope.

    Every point must be an extreme point of the hull (labels index
    vertices, nothing else), the affine dimension must be exactly 3, and
    labels must be unique.
    """
    vertices = LabelledPoints(points)
    coords = vertices.array
    if coords.ndim != 2 or coords.shape[1] != 3:
        raise DimensionMismatch(f"expected (n, 3) coordinates, got shape {coords.shape}")
    if len(coords) < 4:
        raise NotFullDimensional(f"a 3-polytope needs at least 4 vertices, got {len(coords)}")
    sing = np.linalg.svd(coords - coords.mean(axis=0), compute_uv=False)
    if sing[2] <= 1e-10 * sing[0]:
        raise NotFullDimensional("points have affine dimension below 3")
    P = IndexedPolytope(vertices)
    hull_vertices = set(np.unique(P.hull[0]).tolist())
    interior = sorted(l for i, l in enumerate(vertices.labels) if i not in hull_vertices)
    if interior:
        raise NonExtremePoint(
            f"labelled point(s) {interior} are not vertices of the convex hull"
        )
    return P


def face_map(P: IndexedPolytope, tol: Tolerance = DEFAULT_TOLERANCE) -> CombinatorialMap:
    """Extract the face lattice of P as a combinatorial map.

    The hull, cached on P, comes as triangles with outward normals, and
    with the neighbour across the edge opposite each triangle vertex. Every
    triangle is turned counterclockwise viewed from outside. Neighbours
    whose normals deviate by less than ``fit_eps`` radians fall into one
    group, chains of them included. Each group's face cycle walks the
    triangle edges whose neighbour lies in another group, so it inherits
    their orientation; all groups are walked at once, on arrays, and the
    integer cycles go to the map's array core. The result is independent of
    the input point order. A group without one simple boundary cycle, such
    as one covering the whole hull when ``fit_eps`` is coarse, raises
    DegenerateFaceMerge.
    """
    labels, pts = P.vertices.labels, P.vertices.array
    simplices, neighbors, equations = P.hull
    tris, nbrs = simplices.copy(), neighbors.copy()
    normals = equations[:, :3]
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    cw = (np.cross(b - a, c - a) * normals).sum(axis=1) < 0
    # neighbour k lies opposite vertex k, so both swap columns 1 and 2
    tris[cw, 1:], nbrs[cw, 1:] = tris[cw, :0:-1], nbrs[cw, :0:-1]

    # the chord between unit normals at fit_eps radians; one (1, 3) @ (3, 1)
    # matmul per pair rounds as np.linalg.norm(normals[i] - normals[j])
    diff = normals[:, None, :] - normals[nbrs]
    chord = np.sqrt((diff[..., None, :] @ diff[..., None])[..., 0, 0])
    merged = chord <= 2 * math.sin(min(tol.fit_eps, math.pi) / 2)
    # each triangle takes the smallest triangle index of its group
    group = np.arange(len(tris))
    while True:
        low = np.minimum(group, np.where(merged, group[nbrs], len(tris)).min(axis=1))
        low = low[low]
        if np.array_equal(low, group):
            break
        group = low

    # the edge opposite vertex k of a counterclockwise (t0, t1, t2) runs
    # from t[k+1] to t[k+2]
    cut = group[nbrs] != group[:, None]
    ids = np.unique(group)
    cycles, sizes, bad = _walk_cycles(np.repeat(np.searchsorted(ids, group), cut.sum(axis=1)),
                                      tris[:, [1, 2, 0]][cut], tris[:, [2, 0, 1]][cut], len(ids))
    if bad.any():
        raise DegenerateFaceMerge(
            f"hull triangles merged with triangle {int(ids[np.argmax(bad)])} (normals "
            f"within fit_eps={tol.fit_eps:g} rad) have no simple boundary cycle"
        )
    by_label = sorted(range(len(labels)), key=labels.__getitem__)
    return CombinatorialMap._from_cycles(tuple(map(labels.__getitem__, by_label)),
                                         np.argsort(by_label)[cycles], sizes)


def congruent(P, Q, tol: Tolerance = DEFAULT_TOLERANCE) -> Isometry | None:
    """Label-respecting congruence: the best-fit isometry matching equal
    labels, if its residual is within tolerance, else None.

    Works for any two objects exposing ``vertices`` as a label-to-point
    mapping (a LabelledPoints, or any mapping, read through
    ``LabelledPoints.of``) of equal dimension and equal label sets. The
    threshold is ``fit_eps`` times the larger diameter.
    """
    va, vb = LabelledPoints.of(P.vertices), LabelledPoints.of(Q.vertices)
    if set(va.index) != set(vb.index):
        raise IndexSetMismatch(
            f"index sets differ: {sorted(set(va.index) ^ set(vb.index))} not shared"
        )
    order = sorted(va.labels)
    iso, rmsd = best_fit_isometry(va.take(order), vb.take(order))
    return iso if rmsd <= tol.fit_threshold(max(va.diameter, vb.diameter)) else None
