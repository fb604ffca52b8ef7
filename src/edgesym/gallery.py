"""Built-in instances with exact closed-form coordinates.

Polytope labelings follow one convention: for box-like solids the top face
is (1 2 3 4) counterclockwise seen from above and vertex i+4 sits below
vertex i. Parameterized families are requested as "prism:6",
"antiprism:4", or "twisted_squares:4:2:10" (angle in degrees).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    EdgesymError,
    InvalidGalleryParameter,
    UnknownGalleryName,
)
from .geom import DEFAULT_TOLERANCE, Tolerance
from .planegraph import ConvexPlaneGraph, build_plane_graph
from .polytope import IndexedPolytope, build_polytope

__all__ = ["gallery", "gallery_names", "twisted_squares"]

_SQ2 = math.sqrt(2.0)
_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _polytope(points, tol=DEFAULT_TOLERANCE) -> IndexedPolytope:
    return build_polytope([(str(i + 1), p) for i, p in enumerate(points)], tol)


def _box_like(a, b, c) -> IndexedPolytope:
    # spanned by vectors a, b, c from the origin; labels in the box pattern
    a, b, c = (np.asarray(v, dtype=float) for v in (a, b, c))
    o = np.zeros(3)
    top = [c, a + c, a + b + c, b + c]
    bottom = [o, a, a + b, b]
    return _polytope(top + bottom)


def cube() -> IndexedPolytope:
    return _box_like((1, 0, 0), (0, 1, 0), (0, 0, 1))


def box_1_2_3() -> IndexedPolytope:
    return _box_like((1, 0, 0), (0, 2, 0), (0, 0, 3))


def oblique_parallelepiped() -> IndexedPolytope:
    return _box_like((1, 0, 0), (0, 1, 0), (0.2, 0.3, 1))


def tetrahedron() -> IndexedPolytope:
    return _polytope([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)])


def octahedron() -> IndexedPolytope:
    r = 1.0 / _SQ2  # unit edges
    return _polytope(
        [(r, 0, 0), (0, r, 0), (0, 0, r), (-r, 0, 0), (0, -r, 0), (0, 0, -r)]
    )


def icosahedron() -> IndexedPolytope:
    pts = []
    for s1 in (-1.0, 1.0):
        for s2 in (-_PHI, _PHI):
            pts += [(s1, s2, 0.0), (0.0, s1, s2), (s2, 0.0, s1)]
    return _polytope(pts)


def dodecahedron() -> IndexedPolytope:
    pts = [(x, y, z) for x in (-1.0, 1.0) for y in (-1.0, 1.0) for z in (-1.0, 1.0)]
    for s1 in (-1.0 / _PHI, 1.0 / _PHI):
        for s2 in (-_PHI, _PHI):
            pts += [(0.0, s1, s2), (s1, s2, 0.0), (s2, 0.0, s1)]
    return _polytope(pts)


def _ring(n: int, edge: float, z: float, turn: float = 0.0) -> list:
    """Regular n-gon of side ``edge`` at height z, turned by ``turn`` rad."""
    radius = edge / (2.0 * math.sin(math.pi / n))
    angles = [2 * math.pi * k / n + turn for k in range(n)]
    return [(radius * math.cos(a), radius * math.sin(a), z) for a in angles]


def prism(n: int, edge: float = 1.0, height: float = 1.0) -> IndexedPolytope:
    if n < 3:
        raise InvalidGalleryParameter(f"prism needs n >= 3, got {n}")
    return _polytope(_ring(n, edge, height) + _ring(n, edge, 0.0))


def antiprism(n: int, edge: float = 1.0, height: float = 1.0) -> IndexedPolytope:
    if n < 3:
        raise InvalidGalleryParameter(f"antiprism needs n >= 3, got {n}")
    return _polytope(_ring(n, edge, height, math.pi / n) + _ring(n, edge, 0.0))


def hex_prism() -> IndexedPolytope:
    return prism(6, edge=1.0, height=2.0)


def frustum() -> IndexedPolytope:
    # square frustum: base side 2, top side 1, height 1; labels 1..4 top, 5..8 base
    top = [(-0.5, -0.5, 1), (0.5, -0.5, 1), (0.5, 0.5, 1), (-0.5, 0.5, 1)]
    base = [(-1, -1, 0), (1, -1, 0), (1, 1, 0), (-1, 1, 0)]
    return _polytope(top + base)


def octa_tetra_glue() -> IndexedPolytope:
    """Octahedron with a regular tetrahedron glued onto the face (1 2 3);
    all edges unit length. Three coplanar triangle pairs fuse into rhombi
    with acute angle pi/3."""
    r = 1.0 / _SQ2
    pts = [(r, 0, 0), (0, r, 0), (0, 0, r), (-r, 0, 0), (0, -r, 0), (0, 0, -r), (r, r, r)]
    return _polytope(pts)


def square_graph(tol=DEFAULT_TOLERANCE) -> ConvexPlaneGraph:
    points = [("1", (0, 0)), ("2", (1, 0)), ("3", (1, 1)), ("4", (0, 1))]
    edges = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]
    return build_plane_graph(points, edges, tol)


def parallelogram(tol=DEFAULT_TOLERANCE) -> ConvexPlaneGraph:
    points = [("1", (0, 0)), ("2", (2, 0)), ("3", (3, 1)), ("4", (1, 1))]
    edges = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]
    return build_plane_graph(points, edges, tol)


def hex_three_rhombi(tol=DEFAULT_TOLERANCE) -> ConvexPlaneGraph:
    """Regular unit hexagon (labels 1..6) with center 7 joined to the
    alternating corners 1, 3, 5: three rhombic faces with acute angle pi/3."""
    points = [
        (str(k + 1), (math.cos(math.pi * k / 3), math.sin(math.pi * k / 3)))
        for k in range(6)
    ]
    points.append(("7", (0.0, 0.0)))
    edges = [(str(k + 1), str((k + 1) % 6 + 1)) for k in range(6)]
    edges += [("7", "1"), ("7", "3"), ("7", "5")]
    return build_plane_graph(points, edges, tol)


def twisted_squares(s_out: float, s_in: float, alpha_deg: float,
                    tol: Tolerance = DEFAULT_TOLERANCE) -> ConvexPlaneGraph:
    """Two concentric squares (1 2 3 4) and (5 6 7 8) joined by the spokes
    (15), (26), (37), (48), the inner square turned by alpha_deg."""
    if not all(map(math.isfinite, (s_out, s_in, alpha_deg))):
        raise InvalidGalleryParameter(
            f"need finite parameters, got s_out={s_out}, s_in={s_in}, alpha_deg={alpha_deg}"
        )
    if s_in <= 0 or s_out <= s_in:
        raise InvalidGalleryParameter(
            f"need 0 < s_in < s_out, got s_in={s_in}, s_out={s_out}"
        )
    r_out = s_out / _SQ2
    r_in = s_in / _SQ2
    alpha = math.radians(alpha_deg)
    points = []
    for k in range(4):
        ang = math.pi / 4 + k * math.pi / 2
        points.append((str(k + 1), (r_out * math.cos(ang), r_out * math.sin(ang))))
    for k in range(4):
        ang = math.pi / 4 + k * math.pi / 2 + alpha
        points.append((str(k + 5), (r_in * math.cos(ang), r_in * math.sin(ang))))
    edges = [(str(k + 1), str((k + 1) % 4 + 1)) for k in range(4)]
    edges += [(str(k + 5), str((k + 1) % 4 + 5)) for k in range(4)]
    edges += [(str(k + 1), str(k + 5)) for k in range(4)]
    try:
        return build_plane_graph(points, edges, tol)
    except EdgesymError as exc:
        raise InvalidGalleryParameter(
            f"twisted_squares({s_out}, {s_in}, {alpha_deg}) is not a convex "
            f"plane graph: {exc}"
        ) from exc


_FIXED = {
    "cube": cube,
    "box_1_2_3": box_1_2_3,
    "oblique_parallelepiped": oblique_parallelepiped,
    "tetrahedron": tetrahedron,
    "octahedron": octahedron,
    "icosahedron": icosahedron,
    "dodecahedron": dodecahedron,
    "hex_prism": hex_prism,
    "frustum": frustum,
    "octa_tetra_glue": octa_tetra_glue,
    "square": square_graph,
    "parallelogram": parallelogram,
    "hex_three_rhombi": hex_three_rhombi,
}

_PARAMETRIC = {
    "prism": (prism, (int,)),
    "antiprism": (antiprism, (int,)),
    "twisted_squares": (twisted_squares, (float, float, float)),
}


def gallery_names() -> list[str]:
    return sorted(_FIXED) + [f"{n}:<args>" for n in sorted(_PARAMETRIC)]


def gallery(spec: str):
    """Look up a gallery instance by name, e.g. "cube", "prism:6", or
    "twisted_squares:4:2:10". Returns an IndexedPolytope or a
    ConvexPlaneGraph."""
    name, *raw_args = str(spec).split(":")
    if name in _FIXED:
        if raw_args:
            raise InvalidGalleryParameter(f"{name} takes no parameters")
        return _FIXED[name]()
    if name in _PARAMETRIC:
        builder, types = _PARAMETRIC[name]
        if len(raw_args) != len(types):
            raise InvalidGalleryParameter(
                f"{name} takes {len(types)} parameter(s), got {len(raw_args)}"
            )
        try:
            args = [t(a) for t, a in zip(types, raw_args)]
        except ValueError as exc:
            raise InvalidGalleryParameter(f"bad parameters for {name}: {raw_args}") from exc
        return builder(*args)
    raise UnknownGalleryName(
        f"unknown gallery name {name!r}; available: {', '.join(gallery_names())}"
    )
