"""Convex plane graphs.

Straight-line embeddings whose bounded faces are convex polygons and whose
outer boundary is a simple polygon. Faces are derived from the embedding,
never supplied: the darts (directed edges) are numbered counterclockwise
around each vertex, and the faces are the orbits of the dart permutation
(a, b) -> (b, the predecessor of a around b). Also implements the
boundary decomposition of such a graph along a face touching the outer
boundary, and the recursive assembly deciding whether two combinatorially
equivalent graphs with congruent faces are congruent as a whole.
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
from .maps import (CombinatorialMap, Edge, _ranges, _walk_cycles, combinatorially_equivalent,
                   edge_key)

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
        return [i for i in range(len(self.map.face_sizes)) if i != self.map.outer_face]


_PAIR_BLOCK = 1 << 16  # candidate pairs tested at once; bounds the temporaries
_MAX_CELLS = 16  # grid cells a short edge's box may cover


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


def build_plane_graph(points, edges, tol: Tolerance = DEFAULT_TOLERANCE) -> ConvexPlaneGraph:
    """Build and validate a convex plane graph from labelled points and edges.

    Past the edge, connectivity and crossing checks, the build runs on
    arrays of the 2E darts: one lexsort by (tail, angle, head), vertices
    numbered in sorted label order, numbers them counterclockwise around
    each tail, and each face is read from its smallest dart. The outer face
    is the one walk of negative signed area; every walk must be simple and
    every bounded one strictly convex. An error names the first bad face in
    dart order, and its first bad corner.
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
    stack, reached = [labels[0]], {labels[0]}
    while stack:
        for nb in neighbor_lists[stack.pop()]:
            if nb not in reached:
                reached.add(nb)
                stack.append(nb)
    if len(reached) != len(labels):
        missing = sorted(set(labels) - reached)
        raise Disconnected(f"vertices {missing} are not connected to {labels[0]!r}")

    eps = tol.length_eps(vertices.diameter)
    edge_list = sorted(edge_set)
    int_edges = [(index[u], index[v]) for u, v in edge_list]
    _check_crossings(coords, int_edges, labels, eps)

    # rotation system: darts 2e and 2e + 1 run both ways along edge e. The
    # angles come from math.atan2: np.arctan2 rounds some inputs differently
    by_label = np.array(sorted(range(len(labels)), key=labels.__getitem__))
    names, xy = tuple(labels[i] for i in by_label.tolist()), coords[by_label]
    ends = np.argsort(by_label)[np.array(int_edges)]
    tail, head = ends.ravel(), ends[:, ::-1].ravel()
    vec = xy[head] - xy[tail]
    angle = np.array(list(map(math.atan2, vec[:, 1].tolist(), vec[:, 0].tolist())))
    perm = np.lexsort((head, angle, tail))
    tail, head, angle, vec = tail[perm], head[perm], angle[perm], vec[perm]
    tie = np.flatnonzero((tail[1:] == tail[:-1]) & (angle[1:] - angle[:-1] < 1e-12))
    if len(tie):
        d = tie[np.argmin(by_label[tail[tie]])]  # at the first such vertex in input order
        v, u1, u2 = names[tail[d]], names[head[d]], names[head[d + 1]]
        raise EdgeCrossing(f"edges ({v},{u1}) and ({v},{u2}) overlap at vertex {v}")

    # faces: each dart takes the smallest dart of its orbit by doubling the
    # steps taken, and _walk_cycles reads each orbit from that dart
    darts, first = np.arange(len(tail)), np.searchsorted(tail, tail)
    prev = first + (darts - first - 1) % np.bincount(tail)[tail]  # around the tail
    succ = prev[np.argsort(perm)[perm ^ 1]]  # prev of the reverse dart
    low, jump = darts, succ
    while not np.array_equal(low, nxt := np.minimum(low, low[jump])):
        low, jump = nxt, jump[jump]
    smallest, orbit = np.unique(low, return_inverse=True)
    walk, sizes, _ = _walk_cycles(orbit, darts, succ, len(smallest))
    cycles, starts = tail[walk], np.cumsum(sizes) - sizes

    def cycle(fi):
        return [names[i] for i in cycles[starts[fi]:starts[fi] + sizes[fi]].tolist()]

    # signed areas in one stack per face size: numpy sums each row of a stack
    # as it sums that face alone, so the signs of rounding-level areas agree
    terms = xy[cycles, 0] * xy[head[walk], 1] - xy[cycles, 1] * xy[head[walk], 0]
    area = np.empty(len(sizes))
    for k in np.unique(sizes).tolist():
        fs = np.flatnonzero(sizes == k)
        area[fs] = 0.5 * terms[starts[fs, None] + np.arange(k)].sum(axis=1)
    negative = np.flatnonzero(area < 0)
    if len(negative) != 1:
        raise NonSimpleOuterBoundary(f"expected exactly one outer walk, found {len(negative)}")
    outer = int(negative[0])

    key = np.sort(orbit[walk] * len(names) + cycles)
    revisits = np.bincount(key[1:][key[1:] == key[:-1]] // len(names), minlength=len(sizes)) > 0
    if revisits[outer]:
        raise NonSimpleOuterBoundary(f"outer boundary revisits a vertex: {cycle(outer)}")
    a, b = vec[np.argsort(succ)[walk]], vec[walk]  # into and out of each corner
    turn = np.arctan2(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0], a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1])
    sharp = ~((_MIN_TURN <= turn) & (turn <= math.pi - _MIN_TURN))
    bad = revisits | (np.bincount(orbit[walk][sharp], minlength=len(sizes)) > 0)
    bad[outer] = False
    if bad.any():
        fi = int(np.argmax(bad))
        if revisits[fi]:
            raise NonConvexBoundedFace(f"bounded face walk {cycle(fi)} revisits a vertex")
        t = int(np.argmax(sharp[starts[fi]:starts[fi] + sizes[fi]]))
        raise NonConvexBoundedFace(
            f"face {tuple(cycle(fi))} is not strictly convex at vertex {cycle(fi)[t]}"
        )

    cmap = CombinatorialMap._from_cycles(names, cycles, sizes, outer_face=outer)
    return ConvexPlaneGraph(vertices=vertices, edges=tuple(edge_list), map=cmap)


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
        index, names = G.vertices.index, G.vertices.labels
        ends = np.array([(index[b], index[a]) for cyc in cycles
                         for a, b in zip(cyc, cyc[1:] + cyc[:1]) if edge_key(a, b) in boundary])
        walk = _walk_cycles(np.zeros(len(ends), dtype=np.intp), ends[:, 0], ends[:, 1], 1)[0]
        labels = regions.vertices(region)
        pieces.append(ConvexPlaneGraph(
            vertices=LabelledPoints(zip(labels, G.vertices.take(labels))),
            edges=tuple(sorted(edges)),
            map=CombinatorialMap(cycles + [[names[i] for i in walk.tolist()]],
                                 outer_face=len(cycles)),
        ))
    return pieces


def _assemble(g: _Regions, H: ConvexPlaneGraph, region, threshold: float) -> Isometry | None:
    # H carries G's faces, so every region of G is one of H, fitted by G's labels
    G = g.graph
    if len(region) == 1:
        labels = g.vertices(region)
        iso, rmsd = best_fit_isometry(G.vertices.take(labels), H.vertices.take(labels))
        return iso if rmsd <= threshold else None

    boundary = g.boundary(region)
    face = min((fi for fi in region if g.edges[fi] & boundary), key=g.faces.__getitem__)
    rho, rmsd = best_fit_isometry(G.vertices.take(g.faces[face]), H.vertices.take(g.faces[face]))
    if rmsd > threshold:
        return None

    for piece, _ in g.split(region, face):
        sub = _assemble(g, H, piece, threshold)
        if sub is None:
            return None
        pts = G.vertices.take(g.vertices(piece))
        gap = np.linalg.norm(rho.apply(pts) - sub.apply(pts), axis=1).max()
        if gap > threshold:
            return None
    return rho


def assemble_congruence(G: ConvexPlaneGraph, H: ConvexPlaneGraph,
                        tol: Tolerance = DEFAULT_TOLERANCE) -> Isometry | None:
    """Decide congruence of two combinatorially equivalent convex plane
    graphs by recursive assembly.

    With a single bounded face the faces are aligned directly. Otherwise a
    boundary face is aligned to its partner, G is decomposed along it, each
    piece is assembled recursively, and every piece's isometry must agree
    with the face alignment on the piece's vertices. The graphs are
    validated once, here: H has G's vertices, edges and faces, so the face
    regions of G are regions of H too, and each fit reads both by G's
    labels. The returned isometry is cross-checked against the direct
    whole-graph fit.
    """
    if not combinatorially_equivalent(G.map, H.map):
        raise NotCombinatoriallyEquivalent(
            "identity on labels does not extend to a map isomorphism"
        )
    diam = max(G.vertices.diameter, H.vertices.diameter)
    threshold = tol.fit_threshold(diam)
    rho = _assemble(_Regions(G), H, tuple(G.bounded_faces()), threshold)
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
