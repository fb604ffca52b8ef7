"""Indexed convex 3-polytopes.

Construction from labelled vertex coordinates (with extremality and
dimension validation), face-lattice extraction as a combinatorial map,
and label-respecting congruence.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
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
from .geom import DEFAULT_TOLERANCE, Isometry, LabelledPoints, Tolerance, _as_points, _procrustes
from .maps import CombinatorialMap, _components, _walk_cycles

__all__ = [
    "IndexedPolytope",
    "build_polytope",
    "congruent",
    "face_map",
]


def _qhull():
    """scipy's Qhull extension, loaded from its own file: ``import scipy.spatial``
    would load about 175 scipy modules (0.4 s) for it. ``cython_lapack``, loaded
    first, keeps its cimport from running the ``scipy.linalg`` package. A later
    ``import scipy.spatial`` reuses both, but does not bind them as attributes."""
    if "scipy.spatial._qhull" in sys.modules:
        return sys.modules["scipy.spatial._qhull"]
    for name in ("scipy.linalg.cython_lapack", "scipy.spatial._qhull"):
        if name in sys.modules:  # cython_lapack, after an import of scipy.linalg
            continue
        package = importlib.util.find_spec(name.rpartition(".")[0])
        spec = importlib.machinery.PathFinder.find_spec(name, package.submodule_search_locations)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[name]
            raise
    return module


@dataclass(frozen=True, eq=False)
class IndexedPolytope:
    """Vertex coordinates keyed by index labels, as a LabelledPoints;
    insertion order is kept so file round-trips stay stable."""

    vertices: LabelledPoints

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", LabelledPoints.of(self.vertices))

    @cached_property
    def hull(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``simplices``, ``neighbors`` and ``equations`` of the convex hull of
        the vertices less the first, computed once; a Qhull failure is NotFullDimensional."""
        qhull = _qhull()
        try:
            hull = qhull.ConvexHull(self.vertices.array - self.vertices.array[:1])
        except qhull.QhullError as exc:
            raise NotFullDimensional(f"Qhull failed: {str(exc).splitlines()[0]}") from exc
        return hull.simplices, hull.neighbors, hull.equations


def build_polytope(points) -> IndexedPolytope:
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
        raise NonExtremePoint(f"labelled point(s) {interior} are not vertices of the convex hull")
    return P


def face_map(P: IndexedPolytope, tol: Tolerance = DEFAULT_TOLERANCE) -> CombinatorialMap:
    """Extract the face lattice of P as a combinatorial map.

    The hull, cached on P, comes as triangles with outward normals, and
    with the neighbour across the edge opposite each triangle vertex. Every
    triangle is turned counterclockwise viewed from outside. Neighbours
    whose normals deviate by less than ``fit_eps`` radians fall into one
    group, chains of them included: the groups are the components of the
    merged neighbour pairs, from the map's integer component kernel. Each
    group's face cycle walks the triangle edges whose neighbour lies in
    another group, so it inherits their orientation; all groups are walked
    at once, on arrays, and the integer cycles go to the map's array core.
    The result is independent of the input point order. A group without
    one simple boundary cycle, such as one covering the whole hull when
    ``fit_eps`` is coarse, raises DegenerateFaceMerge.
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
    # each triangle takes the smallest triangle of its group
    group = _components(len(tris), np.nonzero(merged)[0], nbrs[merged])

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
    ``LabelledPoints.of``) of equal dimension, 2 or 3, and equal label
    sets. The threshold is ``fit_eps`` times the larger diameter.
    """
    va, vb = LabelledPoints.of(P.vertices), LabelledPoints.of(Q.vertices)
    if set(va.index) != set(vb.index):
        raise IndexSetMismatch(
            f"index sets differ: {sorted(set(va.index) ^ set(vb.index))} not shared"
        )
    order = sorted(va.labels)
    A, B = _as_points(va.take(order)), _as_points(vb.take(order))
    if A.shape != B.shape:
        raise DimensionMismatch(f"point sets of shapes {A.shape} and {B.shape} cannot be matched")
    linear, translation, rmsd = _procrustes(A, B[None])
    ok = rmsd[0] <= tol.fit_threshold(max(va.diameter, vb.diameter))
    return Isometry(linear[0], translation[0]) if ok else None
