"""Indexed convex 3-polytopes.

Construction from labelled vertex coordinates (with extremality and
dimension validation), face-lattice extraction as a combinatorial map,
and label-respecting congruence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateFaceMerge,
    DimensionMismatch,
    IndexSetMismatch,
    NonExtremePoint,
    NotFullDimensional,
)
from .geom import DEFAULT_TOLERANCE, Isometry, LabelledPoints, Tolerance, best_fit_isometry
from .maps import CombinatorialMap

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
    from scipy.spatial import ConvexHull  # imported here: scipy.spatial loads slowly

    hull = ConvexHull(coords)
    hull_vertices = set(hull.vertices.tolist())
    interior = sorted(l for i, l in enumerate(vertices.labels) if i not in hull_vertices)
    if interior:
        raise NonExtremePoint(
            f"labelled point(s) {interior} are not vertices of the convex hull"
        )
    return IndexedPolytope(vertices)


def _chain_boundary(bound_edges: list[tuple[int, int]], group: list[int]) -> list[int]:
    adj: dict[int, list[int]] = {}
    for u, v in bound_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for u, nbrs in adj.items():
        if len(nbrs) != 2:
            raise DegenerateFaceMerge(
                f"merged facet group {sorted(group)} has a non-simple boundary at point {u}"
            )
    start = min(adj)
    cycle = [start]
    prev, cur = None, start
    while True:
        a, b = adj[cur]
        nxt = b if a == prev else a
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt
        if len(cycle) > len(adj):
            raise DegenerateFaceMerge(
                f"merged facet group {sorted(group)} has a disconnected boundary"
            )
    if len(cycle) != len(adj):
        raise DegenerateFaceMerge(
            f"merged facet group {sorted(group)} has a disconnected boundary"
        )
    return cycle


def face_map(P: IndexedPolytope, tol: Tolerance = DEFAULT_TOLERANCE) -> CombinatorialMap:
    """Extract the face lattice of P as a combinatorial map.

    Hull facets are computed as triangles, adjacent coplanar triangles
    (normal deviation below ``fit_eps`` radians) are merged into polygonal
    faces, and each face cycle is oriented counterclockwise viewed from
    outside. The result is independent of the input point order.
    """
    labels, pts = P.vertices.labels, P.vertices.array
    from scipy.spatial import ConvexHull

    hull = ConvexHull(pts)
    tris = hull.simplices
    normals = hull.equations[:, :3]
    merge_cos = math.cos(tol.fit_eps)

    group_of = list(range(len(tris)))

    def find(i: int) -> int:
        while group_of[i] != i:
            group_of[i] = group_of[group_of[i]]
            i = group_of[i]
        return i

    for i in range(len(tris)):
        for j in hull.neighbors[i]:
            if j > i and float(normals[i] @ normals[j]) >= merge_cos:
                group_of[find(int(j))] = find(i)

    groups: dict[int, list[int]] = {}
    for i in range(len(tris)):
        groups.setdefault(find(i), []).append(i)

    faces = []
    for members in groups.values():
        edge_count: dict[tuple[int, int], int] = {}
        for ti in members:
            a, b, c = (int(x) for x in tris[ti])
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                edge_count[key] = edge_count.get(key, 0) + 1
        boundary = [e for e, cnt in edge_count.items() if cnt == 1]
        cycle = _chain_boundary(boundary, members)
        # orient counterclockwise viewed from outside: the cycle's Newell
        # normal must point along the outward facet normal
        outward = normals[members].mean(axis=0)
        ref = pts[cycle].mean(axis=0)
        rel = pts[cycle] - ref
        newell = np.cross(rel, np.roll(rel, -1, axis=0)).sum(axis=0)
        if float(newell @ outward) < 0:
            cycle.reverse()
        faces.append([labels[i] for i in cycle])
    return CombinatorialMap(faces, outer_face=None)


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
    iso, rmsd = best_fit_isometry(va.take(order), vb.take(order), tol=tol)
    return iso if rmsd <= tol.fit_threshold(max(va.diameter, vb.diameter)) else None
