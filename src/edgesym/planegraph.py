"""Convex plane graphs.

Straight-line embeddings whose bounded faces are convex polygons and whose
outer boundary is a simple polygon. Faces are derived from the rotation
system, never supplied. Also implements the boundary decomposition of such
a graph along a face touching the outer boundary, and the recursive
assembly deciding whether two combinatorially equivalent graphs with
congruent faces are congruent as a whole.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import (
    DecompositionError,
    DimensionMismatch,
    Disconnected,
    EdgeCrossing,
    FaceNotOnBoundary,
    NonConvexBoundedFace,
    NonSimpleOuterBoundary,
    NotCombinatoriallyEquivalent,
)
from .geom import DEFAULT_TOLERANCE, Isometry, LabelledPoints, Tolerance, best_fit_isometry
from .maps import CombinatorialMap, Edge, chain_cycle, combinatorially_equivalent, edge_key

__all__ = [
    "ConvexPlaneGraph",
    "assemble_congruence",
    "boundary_decomposition",
    "build_plane_graph",
]

_MIN_TURN = 1e-9  # rad; flatter corners are rejected as degenerate


@dataclass(frozen=True, eq=False)
class ConvexPlaneGraph:
    """2D embedded graph with convex bounded faces and a distinguished
    outer face."""

    vertices: LabelledPoints
    edges: tuple[tuple[str, str], ...]
    map: CombinatorialMap

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", LabelledPoints.of(self.vertices))

    def bounded_faces(self) -> list[int]:
        return [i for i in range(len(self.map.faces)) if i != self.map.outer_face]

    def face_polygon(self, fi: int) -> np.ndarray:
        return self.vertices.take(self.map.faces[fi])


def _signed_area(poly: np.ndarray) -> float:
    nxt = np.roll(poly, -1, axis=0)
    return 0.5 * float((poly[:, 0] * nxt[:, 1] - poly[:, 1] * nxt[:, 0]).sum())


_PAIR_BLOCK = 1 << 16  # candidate pairs tested at once; bounds the temporaries
_MAX_CELLS = 16  # grid cells a short edge's box may cover


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The runs start[k], ..., start[k] + count[k] - 1, concatenated."""
    return np.repeat(start - (np.cumsum(count) - count), count) + np.arange(int(count.sum()))


def _first_bad_pair(coords: np.ndarray, ea: np.ndarray, eb: np.ndarray,
                    vec: np.ndarray, length: np.ndarray, ii: np.ndarray,
                    jj: np.ndarray, eps: float):
    """The first pair (ii[k], jj[k]) of edges without a shared endpoint that
    cross or touch, or None. Edge e runs from coords[ea[e]] along vec[e],
    of length length[e]."""
    shared = (
        (ea[ii] == ea[jj]) | (ea[ii] == eb[jj]) | (eb[ii] == ea[jj]) | (eb[ii] == eb[jj])
    )
    ii, jj = ii[~shared], jj[~shared]
    if len(ii) == 0:
        return None
    p1, p2 = coords[ea[ii]], coords[eb[ii]]
    q1, q2 = coords[ea[jj]], coords[eb[jj]]

    def against(pt, a, e):
        # side of pt relative to edge e starting at a, and whether pt lies
        # within eps of the edge
        ab, seg_len = vec[e], length[e]
        ap = pt - a
        side = ab[:, 0] * ap[:, 1] - ab[:, 1] * ap[:, 0]
        t = np.clip((ap * ab).sum(axis=1) / np.maximum(seg_len**2, 1e-300), 0.0, 1.0)
        closest = a + t[:, None] * ab
        return side, np.linalg.norm(pt - closest, axis=1) <= eps * np.maximum(seg_len, 1.0)

    d1, hit1 = against(p1, q1, jj)
    d2, hit2 = against(p2, q1, jj)
    d3, hit3 = against(q1, p1, ii)
    d4, hit4 = against(q2, p1, ii)
    tq = eps * length[jj]
    tp = eps * length[ii]
    proper = (
        (((d1 > tq) & (d2 < -tq)) | ((d1 < -tq) & (d2 > tq)))
        & (((d3 > tp) & (d4 < -tp)) | ((d3 < -tp) & (d4 > tp)))
    )
    bad = proper | hit1 | hit2 | hit3 | hit4
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    return int(ii[k]), int(jj[k])


def _check_crossings(coords: np.ndarray, edges: list[tuple[int, int]],
                     names: list[str], eps: float) -> None:
    # Two edges can only cross or touch if their boxes meet once each is
    # padded by its edge's hit radius eps·max(length, 1). The boxes are
    # binned on a uniform grid with cells of the median padded box size. A
    # box covering more than _MAX_CELLS cells stays off the grid, and its
    # edge is paired with every edge, so the grid holds at most
    # _MAX_CELLS·E entries. Each candidate pair (i, j), i < j, lies in a run:
    # the short edges after i in a cell they share, every edge after a long
    # i, or the long edges after a short i. Runs are expanded in blocks of
    # whole rows i holding about _PAIR_BLOCK pairs, then sorted and deduped,
    # so the first bad pair is the first in pair order and memory stays
    # O(E + _PAIR_BLOCK). With one cell, every pair is tested.
    m = len(edges)
    ea = np.array([e[0] for e in edges])
    eb = np.array([e[1] for e in edges])
    vec = coords[eb] - coords[ea]
    length = np.linalg.norm(vec, axis=1)
    pad = eps * np.maximum(length, 1.0)[:, None]
    lo = np.minimum(coords[ea], coords[eb]) - pad
    hi = np.maximum(coords[ea], coords[eb]) + pad
    origin = lo.min(axis=0)
    span = float((hi.max(axis=0) - origin).max())
    cell = max(float(np.median((hi - lo).max(axis=1))), span / 2**26)  # keys below 2**53
    c0 = np.floor((lo - origin) / cell).astype(np.int64)
    c1 = np.floor((hi - origin) / cell).astype(np.int64)
    width = c1 - c0 + 1
    covered = width[:, 0] * width[:, 1]
    short = np.flatnonzero(covered <= _MAX_CELLS)
    long_ = np.flatnonzero(covered > _MAX_CELLS)

    # grid entries of the short edges, sorted by cell, then by edge
    edge = np.repeat(short, covered[short])
    t = _ranges(np.zeros_like(short), covered[short])
    cx = c0[edge, 0] + t % width[edge, 0]
    cy = c0[edge, 1] + t // width[edge, 0]
    key = cx * (int(c1[:, 1].max()) + 1) + cy
    order = np.argsort(key, kind="stable")
    key, edge = key[order], edge[order]
    k = np.arange(len(edge))
    cell_end = np.searchsorted(key, key, side="right")

    # runs (row, start, count) into seq = grid entries | all edges | long edges
    seq = np.concatenate([edge, np.arange(m), long_])
    later_long = np.searchsorted(long_, short, side="right")
    row = np.concatenate([edge, long_, short])
    start = np.concatenate([k + 1, len(edge) + long_ + 1, len(edge) + m + later_long])
    count = np.concatenate([cell_end - k - 1, m - 1 - long_, len(long_) - later_long])
    order = np.argsort(row, kind="stable")
    row, start, count = row[order], start[order], count[order]
    row_ends = np.cumsum(np.bincount(row, weights=count, minlength=m)).astype(np.int64)
    first_run = np.searchsorted(row, np.arange(m + 1))
    r0 = 0
    while r0 < m:
        done = int(row_ends[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(row_ends, done + _PAIR_BLOCK, side="right")))
        runs = slice(first_run[r0], first_run[r1])
        ii = np.repeat(row[runs], count[runs])
        code = np.sort(ii * m + seq[_ranges(start[runs], count[runs])])
        code = code[np.diff(code, prepend=-1) != 0]
        pair = _first_bad_pair(coords, ea, eb, vec, length, code // m, code % m, eps)
        if pair is not None:
            e1, e2 = edges[pair[0]], edges[pair[1]]
            n1 = (names[e1[0]], names[e1[1]])
            n2 = (names[e2[0]], names[e2[1]])
            raise EdgeCrossing(f"edges {n1} and {n2} intersect away from shared endpoints")
        r0 = r1


def _trace_faces(adj: dict[str, list[str]]) -> list[list[str]]:
    # adj: neighbors in counterclockwise angular order. Walking to the
    # predecessor of the incoming direction keeps the face on the left,
    # so bounded faces come out counterclockwise and the outer face clockwise.
    index_of = {v: {u: i for i, u in enumerate(nbrs)} for v, nbrs in adj.items()}
    visited: set[tuple[str, str]] = set()
    cycles = []
    for u in sorted(adj):
        for v in adj[u]:
            if (u, v) in visited:
                continue
            cycle = []
            a, b = u, v
            while True:
                visited.add((a, b))
                cycle.append(a)
                nbrs = adj[b]
                c = nbrs[(index_of[b][a] - 1) % len(nbrs)]
                a, b = b, c
                if (a, b) == (u, v):
                    break
            cycles.append(cycle)
    return cycles


def build_plane_graph(points, edges, tol: Tolerance = DEFAULT_TOLERANCE) -> ConvexPlaneGraph:
    """Build and validate a convex plane graph from labelled points and edges.

    The rotation system is derived by sorting incident edges by angle at
    each vertex; faces are traced from it, the outer face is the unique
    cycle of negative signed area, and all convexity/simplicity invariants
    are checked.
    """
    vertices = LabelledPoints(points)
    labels, index, coords = vertices.labels, vertices.index, vertices.array
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise DimensionMismatch(f"expected (n, 2) coordinates, got shape {coords.shape}")
    if len(coords) < 3:
        raise ValueError(f"a plane graph needs at least 3 vertices, got {len(coords)}")

    edge_set: set[tuple[str, str]] = set()
    for u, v in edges:
        u, v = str(u), str(v)
        if u not in index or v not in index:
            raise ValueError(f"edge ({u}, {v}) references an unknown vertex label")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        edge_set.add(edge_key(u, v))
    if not edge_set:
        raise Disconnected("graph has no edges")

    # connectivity
    neighbor_lists: dict[str, list[str]] = {l: [] for l in labels}
    for u, v in edge_set:
        neighbor_lists[u].append(v)
        neighbor_lists[v].append(u)
    stack = [labels[0]]
    reached = {labels[0]}
    while stack:
        cur = stack.pop()
        for nb in neighbor_lists[cur]:
            if nb not in reached:
                reached.add(nb)
                stack.append(nb)
    if len(reached) != len(labels):
        missing = sorted(set(labels) - reached)
        raise Disconnected(f"vertices {missing} are not connected to {labels[0]!r}")

    eps = tol.length_eps(vertices.diameter)
    int_edges = [(index[u], index[v]) for u, v in sorted(edge_set)]
    _check_crossings(coords, int_edges, labels, eps)

    # rotation system: counterclockwise by angle, with a tie meaning two
    # overlapping collinear edges at a vertex
    adj: dict[str, list[str]] = {}
    for v, nbrs in neighbor_lists.items():
        offsets = (vertices.take(nbrs) - coords[index[v]]).tolist()
        angles = sorted((math.atan2(y, x), u) for u, (x, y) in zip(nbrs, offsets))
        for (a1, u1), (a2, u2) in zip(angles, angles[1:]):
            if a2 - a1 < 1e-12:
                raise EdgeCrossing(f"edges ({v},{u1}) and ({v},{u2}) overlap at vertex {v}")
        adj[v] = [u for _, u in angles]

    cycles = _trace_faces(adj)
    areas = [_signed_area(vertices.take(cyc)) for cyc in cycles]
    negative = [i for i, a in enumerate(areas) if a < 0]
    if len(negative) != 1:
        raise NonSimpleOuterBoundary(
            f"expected exactly one outer walk, found {len(negative)}"
        )
    outer = negative[0]

    if len(set(cycles[outer])) != len(cycles[outer]):
        raise NonSimpleOuterBoundary(
            f"outer boundary revisits a vertex: {cycles[outer]}"
        )
    for i, cyc in enumerate(cycles):
        if i == outer:
            continue
        if len(set(cyc)) != len(cyc):
            raise NonConvexBoundedFace(f"bounded face walk {cyc} revisits a vertex")
        poly = vertices.take(cyc)
        vecs = np.roll(poly, -1, axis=0) - poly
        for t in range(len(cyc)):
            a = vecs[t - 1]
            b = vecs[t]
            turn = math.atan2(a[0] * b[1] - a[1] * b[0], float(a @ b))
            if not (_MIN_TURN <= turn <= math.pi - _MIN_TURN):
                raise NonConvexBoundedFace(
                    f"face {tuple(cyc)} is not strictly convex at vertex {cyc[t]}"
                )

    cmap = CombinatorialMap(cycles, outer_face=outer)
    return ConvexPlaneGraph(vertices=vertices, edges=tuple(sorted(edge_set)), map=cmap)


class _Regions:
    """The faces of a validated convex plane graph with the edge set of
    each, computed once. A region is a sorted tuple of bounded-face indices
    of this graph; the whole graph is the region of all bounded faces, and
    splitting along a boundary face yields regions again, each a disk
    bounded by a simple cycle."""

    def __init__(self, G: ConvexPlaneGraph):
        self.graph = G
        self.faces = G.map.faces
        self.edges = [frozenset(G.map.face_edges(fi)) for fi in range(len(self.faces))]

    def boundary(self, region) -> set[Edge]:
        """Edges lying in exactly one face of the region."""
        counts = Counter(e for fi in region for e in self.edges[fi])
        return {e for e, c in counts.items() if c == 1}

    def vertices(self, region) -> list[str]:
        return sorted({v for fi in region for v in self.faces[fi]})

    def split(self, region, face: int) -> list[tuple[tuple[int, ...], frozenset[Edge]]]:
        """Regions and edge sets of the pieces left when `face` and its
        boundary edges are cut from `region`, ordered by smallest face cycle."""
        faces, edges = self.faces, self.edges
        if not edges[face] & self.boundary(region):
            raise FaceNotOnBoundary(f"face {faces[face]} shares no edge with the outer boundary")
        edge_faces: dict[Edge, list[int]] = {}
        for fi in region:
            for e in edges[fi]:
                edge_faces.setdefault(e, []).append(fi)
        reached = {face}
        components = []
        for start in region:
            if start in reached:
                continue
            reached.add(start)
            component = [start]
            for cur in component:  # grows while it is walked
                for e in edges[cur]:
                    for nb in edge_faces[e]:
                        if nb not in reached:
                            reached.add(nb)
                            component.append(nb)
            components.append(component)

        pieces = []
        for fis in sorted(components, key=lambda fs: min(faces[f] for f in fs)):
            edge_union = frozenset().union(*(edges[fi] for fi in fis))
            if not edge_union & edges[face]:
                raise DecompositionError(
                    f"decomposition piece {sorted(fis)} shares no edge with face "
                    f"{faces[face]}; such graphs are outside the supported class"
                )
            pieces.append((tuple(sorted(fis)), edge_union))
        return pieces  # no edge in two pieces: its two faces would be one component


def boundary_decomposition(G: ConvexPlaneGraph, face: int) -> list[ConvexPlaneGraph]:
    """Split G along a bounded face touching the outer boundary.

    Deletes the edges the face shares with the outer face and returns the
    pieces given by the connected components of the dual graph without the
    chosen face and the outer face. Pieces may share vertices but never
    edges, and each must share an edge with the removed face. The pieces
    are derived from the validated G, not rebuilt and validated again:
    each keeps G's points in sorted label order, and its map holds its
    faces of G plus the outer walk around them.
    """
    M = G.map
    if M.outer_face is None or not 0 <= face < len(M.faces) or face == M.outer_face:
        raise ValueError(f"face {face} is not a bounded face of the graph")
    regions = _Regions(G)
    pieces = []
    for region, edges in regions.split(G.bounded_faces(), face):
        cycles = [M.faces[fi] for fi in region]
        boundary = regions.boundary(region)
        # bounded faces run counterclockwise, so the clockwise outer walk
        # reads each boundary edge backwards
        walk = chain_cycle((b, a) for cyc in cycles for a, b in zip(cyc, cyc[1:] + cyc[:1])
                           if edge_key(a, b) in boundary)
        labels = regions.vertices(region)
        pieces.append(ConvexPlaneGraph(
            vertices=LabelledPoints(zip(labels, G.vertices.take(labels))),
            edges=tuple(sorted(edges)),
            map=CombinatorialMap(cycles + [walk], outer_face=len(cycles)),
        ))
    return pieces


def _assemble(g: _Regions, h: _Regions, rg, rh, threshold: float) -> Isometry | None:
    # rg and rh are regions of g and h with the same edges
    G, H = g.graph, h.graph
    if len(rg) == 1:
        labels = g.vertices(rg)
        iso, rmsd = best_fit_isometry(G.vertices.take(labels), H.vertices.take(labels))
        return iso if rmsd <= threshold else None

    boundary = g.boundary(rg)
    candidates = [fi for fi in rg if g.edges[fi] & boundary]
    fg = min(candidates, key=lambda fi: g.faces[fi])
    fg_key = G.map.face_keys()[fg]
    fh = next((fi for fi in rh if H.map.face_keys()[fi] == fg_key), None)
    if fh is None:
        return None

    face = g.faces[fg]
    rho, rmsd = best_fit_isometry(G.vertices.take(face), H.vertices.take(face))
    if rmsd > threshold:
        return None

    pieces_g = g.split(rg, fg)
    pieces_h = h.split(rh, fh)
    by_edges = {edges: region for region, edges in pieces_h}
    if len(pieces_g) != len(pieces_h):
        return None
    for region, edges in pieces_g:
        region_h = by_edges.get(edges)
        if region_h is None:
            return None
        sub = _assemble(g, h, region, region_h, threshold)
        if sub is None:
            return None
        pts = G.vertices.take(g.vertices(region))
        gap = np.linalg.norm(rho.apply(pts) - sub.apply(pts), axis=1).max()
        if gap > threshold:
            return None
    return rho


def assemble_congruence(G: ConvexPlaneGraph, H: ConvexPlaneGraph,
                        tol: Tolerance = DEFAULT_TOLERANCE) -> Isometry | None:
    """Decide congruence of two combinatorially equivalent convex plane
    graphs by recursive assembly.

    With a single bounded face the faces are aligned directly. Otherwise a
    boundary face is aligned to its partner, the graphs are decomposed
    along it, each piece is assembled recursively, and every piece's
    isometry must agree with the face alignment on the piece's vertices.
    The graphs are validated once, here; the pieces are face regions of G
    and H, so no level rebuilds a graph. The returned isometry is
    cross-checked against the direct whole-graph fit.
    """
    if not combinatorially_equivalent(G.map, H.map):
        raise NotCombinatoriallyEquivalent(
            "identity on labels does not extend to a map isomorphism"
        )
    diam = max(G.vertices.diameter, H.vertices.diameter)
    threshold = tol.fit_threshold(diam)
    rho = _assemble(_Regions(G), _Regions(H), tuple(G.bounded_faces()),
                    tuple(H.bounded_faces()), threshold)
    if rho is None:
        return None
    order = sorted(G.vertices)
    src, dst = G.vertices.take(order), H.vertices.take(order)
    if np.linalg.norm(rho.apply(src) - dst, axis=1).max() > threshold:
        return None
    direct, _ = best_fit_isometry(src, dst, allow_reflection=True)
    gap = np.linalg.norm(rho.apply(src) - direct.apply(src), axis=1).max()
    if gap > threshold:
        raise AssertionError(
            f"assembled isometry deviates from the direct fit by {gap:g}"
        )
    return rho
