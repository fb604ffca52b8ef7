"""Convex plane graphs.

Straight-line embeddings whose bounded faces are convex polygons and whose
outer boundary is a simple polygon. Faces are derived from the embedding,
never supplied: the darts (directed edges) are numbered counterclockwise
around each vertex, and the faces are the orbits of the dart permutation
(a, b) -> (b, the predecessor of a around b). Also implements the
boundary decomposition of such a graph along a face touching the outer
boundary, and the assembly along a tree of such decompositions deciding
whether two combinatorially equivalent graphs with congruent faces are
congruent as a whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush

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
from .geom import (DEFAULT_TOLERANCE, Isometry, LabelledPoints, Tolerance, _procrustes,
                   best_fit_isometry)
from .maps import CombinatorialMap, _ranges, _walk_cycles, combinatorially_equivalent, edge_key

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
        t = np.clip((ap * ab).sum(axis=1) / np.maximum(seg_len**2, np.finfo(float).tiny), 0.0, 1.0)
        closest = a + t[:, None] * ab
        return side, np.linalg.norm(pt - closest, axis=1) <= eps

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
    # padded by the hit radius eps, a length. The boxes are binned on a
    # uniform grid with cells of the median padded box size. A box covering
    # more than _MAX_CELLS cells stays off the grid, and its edge is paired
    # with every edge, so the grid holds at most _MAX_CELLS·E entries. Each
    # candidate pair (i, j), i < j, lies in a run: the short edges after i
    # in a cell they share, every edge after a long i, or the long edges
    # after a short i. Runs are expanded in blocks of whole rows i holding
    # about _PAIR_BLOCK pairs, then sorted and deduped, so the first bad
    # pair is the first in pair order and memory stays O(E + _PAIR_BLOCK).
    # With one cell, every pair is tested.
    m = len(edges)
    ea = np.array([e[0] for e in edges])
    eb = np.array([e[1] for e in edges])
    vec = coords[eb] - coords[ea]
    length = np.linalg.norm(vec, axis=1)
    lo = np.minimum(coords[ea], coords[eb]) - eps
    hi = np.maximum(coords[ea], coords[eb]) + eps
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


def _neighbours(M: CombinatorialMap) -> list[list[int]]:
    """For each face of M, the faces across its edges in cycle order."""
    across, ends = M.flag_face[M.s2[0::2]].tolist(), np.cumsum(M.face_sizes).tolist()
    return [across[e - n:e] for e, n in zip(ends, M.face_sizes.tolist())]


def _absorb(neighbours: list[list[int]], order: list[int]) -> list[int]:
    """Add the faces of ``order`` one by one, each merging the components
    of its neighbours added before it into one, which it heads. Returns for
    each face the face whose addition merged the component it headed, or
    -1: a forest, each face below faces added later."""
    n = len(neighbours)
    link, up, added = list(range(n)), [-1] * n, [False] * n
    for p in order:
        for y in neighbours[p]:
            if added[y]:
                while link[y] != y:  # to the latest face of y's component
                    link[y] = link[link[y]]
                    y = link[y]
                if y != p:
                    link[y] = up[y] = p
        added[p] = True
    return up


def boundary_decomposition(G: ConvexPlaneGraph, face: int) -> list[ConvexPlaneGraph]:
    """Split G along a bounded face touching the outer boundary.

    Deletes the edges the face shares with the outer face and returns the
    pieces given by the connected components of the dual graph without the
    chosen face and the outer face, ordered by smallest face. Pieces may
    share vertices but never edges, and each must share an edge with the
    removed face. The pieces are derived from the validated G, not rebuilt
    and validated again: each keeps G's points in sorted label order, and
    its map holds its faces of G plus the outer walk around them.
    """
    M = G.map
    if M.outer_face is None or not 0 <= face < len(M.faces) or face == M.outer_face:
        raise ValueError(f"face {face} is not a bounded face of the graph")
    neighbours = _neighbours(M)
    if M.outer_face not in neighbours[face]:
        raise FaceNotOnBoundary(f"face {M.faces[face]} shares no edge with the outer boundary")
    rest = [fi for fi in range(len(neighbours)) if fi not in (face, M.outer_face)]
    up, head, members = _absorb(neighbours, rest + [face]), {}, {}
    for fi in reversed(rest):  # the latest face of each component, then its faces
        head[fi] = fi if up[fi] in (face, -1) else head[up[fi]]
        members.setdefault(head[fi], []).append(fi)
    found = sorted((sorted(fis), h) for h, fis in members.items())
    for fis, h in found:
        if up[h] != face:
            raise DecompositionError(
                f"decomposition piece {fis} shares no edge with face "
                f"{M.faces[face]}; such graphs are outside the supported class"
            )

    sizes, fv, across = M.face_sizes, M.face_vertices, M.flag_face[M.s2[0::2]]
    starts, step = np.cumsum(sizes) - sizes, M.s1[1::2] // 2  # the next position in the face
    pieces = []
    for fis, _ in found:
        at = _ranges(starts[fis], sizes[fis])
        # bounded faces run counterclockwise, so the clockwise outer walk
        # reads each boundary edge backwards
        rim = at[~np.isin(across[at], fis)]
        walk = _walk_cycles(np.zeros(len(rim), dtype=np.intp), fv[step[rim]], fv[rim], 1)[0]
        cmap = CombinatorialMap._from_cycles(M.vertices, np.concatenate([fv[at], walk]),
                                             np.append(sizes[fis], len(walk)), len(fis))
        points = LabelledPoints(zip(cmap.vertices, G.vertices.take(cmap.vertices)))
        pieces.append(ConvexPlaneGraph(vertices=points, edges=cmap.edges, map=cmap))
    return pieces


def assemble_congruence(G: ConvexPlaneGraph, H: ConvexPlaneGraph,
                        tol: Tolerance = DEFAULT_TOLERANCE) -> Isometry | None:
    """Decide congruence of two combinatorially equivalent convex plane
    graphs by assembly along a decomposition tree of G's faces.

    A region, at first all bounded faces, takes out its smallest face next
    to the outer face or to a face taken out, and its children are the
    components of the rest. Faces of two regions share no edge, so the
    tree is built once, on face indices: faces are taken out in one order,
    smallest boundary face first, and joined back in reverse (`_absorb`).
    Each face is aligned to its partner in H, a leaf by its vertices in
    sorted label order and any other face in cycle order, and must agree
    with its parent's alignment on the vertices of its subtree. A bound
    over the subtree's bounding box screens that gap, and the exact gap is
    taken only where the bound does not settle it. The graphs are
    validated once, here: H has G's vertices, edges and faces, so each fit
    reads both by G's labels. The root's isometry is returned if every fit
    and gap is within the threshold, cross-checked against the direct
    whole-graph fit.
    """
    if not combinatorially_equivalent(G.map, H.map):
        raise NotCombinatoriallyEquivalent(
            "identity on labels does not extend to a map isomorphism"
        )
    diam = max(G.vertices.diameter, H.vertices.diameter)
    threshold = tol.fit_threshold(diam)
    M, neighbours = G.map, _neighbours(G.map)
    rim, heap, order = [fi == M.outer_face for fi in range(len(neighbours))], [M.outer_face], []
    while heap:
        order.append(heappop(heap))
        for y in neighbours[order[-1]]:
            if not rim[y]:
                rim[y] = True
                heappush(heap, y)
    del order[0]  # the outer face
    up, kids = _absorb(neighbours, order[::-1]), [[] for _ in neighbours]
    for fi in order[1:]:
        kids[up[fi]].append(fi)

    # one fit per stack of faces of one size, negated for the leaves, which
    # fit in sorted label order; H is read by the vertex indices of G's map
    src, dst = G.vertices.take(M.vertices), H.vertices.take(M.vertices)
    sizes, fv = M.face_sizes, M.face_vertices
    starts = np.cumsum(sizes) - sizes
    group = np.where([bool(ks) for ks in kids], sizes, -sizes)
    group[M.outer_face] = 0
    linear, shift = np.empty((len(sizes), 2, 2)), np.empty((len(sizes), 2))
    for g in np.unique(group[order]).tolist():
        nodes = np.flatnonzero(group == g)
        idx = fv[starts[nodes, None] + np.arange(abs(g))]
        idx = np.sort(idx, axis=1) if g < 0 else idx
        linear[nodes], shift[nodes], rmsd = _procrustes(src[idx], dst[idx])
        if (rmsd > threshold).any():
            return None

    # Over a box of centre m and half diagonal h, a face's isometry and its
    # parent's differ by at most |D m + e| + |D| h, where D and e are the
    # differences of their linear parts and translations
    box = np.hstack([np.minimum.reduceat(src[fv], starts),
                     -np.maximum.reduceat(src[fv], starts)]).tolist()
    for k in order[:0:-1]:  # children first
        box[up[k]] = list(map(min, box[up[k]], box[k]))
    lo, hi = np.array(box)[:, :2], -np.array(box)[:, 2:]
    kid = np.array(order[1:], dtype=np.intp)
    parent = np.array(up)[kid]
    D, e = linear[parent] - linear[kid], shift[parent] - shift[kid]
    bound = (np.linalg.norm((D @ ((lo + hi)[kid, :, None] / 2))[..., 0] + e, axis=1)
             + np.linalg.norm(D, axis=(1, 2)) * np.linalg.norm(hi - lo, axis=1)[kid] / 2)
    slack = 1e-12 * (np.abs(src).max() + np.abs(shift[order]).max())  # >> rounding error
    for k in kid[bound + slack > threshold].tolist():
        below = [k]
        for fi in below:  # grows while it is walked
            below += kids[fi]
        p, pts = up[k], src[np.unique(fv[_ranges(starts[below], sizes[below])])]
        gap = np.linalg.norm((pts @ linear[p].T + shift[p]) - (pts @ linear[k].T + shift[k]),
                             axis=1).max()
        if gap > threshold:
            return None

    rho = Isometry(linear[order[0]], shift[order[0]])
    if np.linalg.norm(rho.apply(src) - dst, axis=1).max() > threshold:
        return None
    direct, _ = best_fit_isometry(src, dst, allow_reflection=True)
    gap = np.linalg.norm(rho.apply(src) - direct.apply(src), axis=1).max()
    if gap > threshold:
        raise AssertionError(
            f"assembled isometry deviates from the direct fit by {gap:g}"
        )
    return rho
