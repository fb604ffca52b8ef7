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
    InvalidPlaneGraph,
    NonConvexBoundedFace,
    NonSimpleOuterBoundary,
    NotCombinatoriallyEquivalent,
)
from .geom import DEFAULT_TOLERANCE, Isometry, LabelledPoints, Tolerance, _procrustes
from .maps import (CombinatorialMap, _components, _ranges, _walk_cycles,
                   combinatorially_equivalent)

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
    map: CombinatorialMap

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", LabelledPoints.of(self.vertices))

    @property
    def edges(self) -> tuple[tuple[str, str], ...]:
        return self.map.edges

    def bounded_faces(self) -> list[int]:
        return [i for i in range(len(self.map.face_sizes)) if i != self.map.outer_face]


_PAIR_BLOCK = 1 << 16  # candidate pairs tested at once; bounds the temporaries
_MAX_CELLS = 16  # grid cells a short edge's box may cover


def _first_bad_pair(coords: np.ndarray, ea: np.ndarray, eb: np.ndarray,
                    vec: np.ndarray, length: np.ndarray, ii: np.ndarray,
                    jj: np.ndarray, eps: float):
    """The first pair (ii[k], jj[k]) of edges without a shared endpoint that
    cross or touch, or None. Edge e runs from coords[ea[e]] along vec[e],
    of length length[e]. Works on 1-D gathers of the coordinate columns."""
    a1, b1, a2, b2 = ea[ii], eb[ii], ea[jj], eb[jj]
    keep = np.flatnonzero((a1 != a2) & (a1 != b2) & (b1 != a2) & (b1 != b2))
    if len(keep) == 0:
        return None
    ii, jj, a1, b1, a2, b2 = ii[keep], jj[keep], a1[keep], b1[keep], a2[keep], b2[keep]
    x, y, sq = coords[:, 0], coords[:, 1], np.maximum(length**2, np.finfo(float).tiny)

    def against(e, a, ends):
        # for each point of ends: its side of edge e, which starts at point
        # a, and whether it lies within eps of the edge. Each value has the
        # bits of the row-wise kernel in tests/oracles.py, but t may be -0.0
        # where its row sum gives +0.0, a sign the squares drop
        ax, ay, abx, aby, s = x[a], y[a], vec[e, 0], vec[e, 1], sq[e]
        for p in ends:
            px, py = x[p], y[p]
            apx, apy = px - ax, py - ay
            t = np.clip((apx * abx + apy * aby) / s, 0.0, 1.0)
            dx, dy = px - (ax + t * abx), py - (ay + t * aby)
            yield abx * apy - aby * apx, np.sqrt(dx * dx + dy * dy) <= eps

    (d1, hit1), (d2, hit2) = against(jj, a2, (a1, b1))
    (d3, hit3), (d4, hit4) = against(ii, a1, (a2, b2))
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


def _check_crossings(coords: np.ndarray, edges: np.ndarray, names, eps: float) -> None:
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
    ea, eb = np.asarray(edges, dtype=np.intp).reshape(-1, 2).T
    m = len(ea)
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
            n1, n2 = ((names[ea[e]], names[eb[e]]) for e in pair)
            raise EdgeCrossing(f"edges {n1} and {n2} intersect away from shared endpoints")
        r0 = r1


def build_plane_graph(points, edges, tol: Tolerance = DEFAULT_TOLERANCE) -> ConvexPlaneGraph:
    """Build and validate a convex plane graph from labelled points and edges.

    The build runs on integer arrays, vertices numbered in sorted label
    order. The edges are checked one by one in input order, then deduped
    as index pairs. The connectivity check and the faces both come from
    the map's component kernel: the vertex components of the edges, and
    the orbits of the 2E darts, numbered counterclockwise around each tail
    by one lexsort by (tail, angle, head), each face read from its smallest
    dart. The outer face is the one walk of negative signed area; every
    walk must be simple and every bounded one strictly convex. An error
    names the first bad face in dart order, and its first bad corner.
    """
    vertices = LabelledPoints(points)
    labels, coords = vertices.labels, vertices.array
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise DimensionMismatch(f"expected (n, 2) coordinates, got shape {coords.shape}")
    if len(coords) < 3:
        raise InvalidPlaneGraph(f"a plane graph needs at least 3 vertices, got {len(coords)}")

    # edge codes lo * n + hi, vertices in sorted label order, sort as label pairs
    by_label = np.array(sorted(range(len(labels)), key=labels.__getitem__))
    names, xy, n = tuple(labels[i] for i in by_label.tolist()), coords[by_label], len(labels)
    rank, pairs = dict(zip(names, range(n))), []
    for u, v in edges:
        u, v = str(u), str(v)
        if u not in rank or v not in rank:
            raise InvalidPlaneGraph(f"edge ({u}, {v}) references an unknown vertex label")
        if u == v:
            raise InvalidPlaneGraph(f"self-loop at vertex {u}")
        pairs.append((rank[u], rank[v]))
    pairs = np.array(pairs, dtype=np.intp).reshape(-1, 2)
    code = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))
    if not len(code):
        raise Disconnected("graph has no edges")
    ends = np.stack(np.divmod(code, n), axis=1)
    comp = _components(n, ends[:, 0], ends[:, 1])
    missing = [names[i] for i in np.flatnonzero(comp != comp[rank[labels[0]]]).tolist()]
    if missing:
        raise Disconnected(f"vertices {missing} are not connected to {labels[0]!r}")
    _check_crossings(xy, ends, names, tol.length_eps(vertices.diameter))

    # rotation system: darts 2e and 2e + 1 run both ways along edge e. The
    # angles come from math.atan2: np.arctan2 rounds some inputs differently
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

    # faces: the orbits of succ are the components of the edges d -- succ[d],
    # and _walk_cycles reads each orbit from its smallest dart
    darts, first = np.arange(len(tail)), np.searchsorted(tail, tail)
    prev = first + (darts - first - 1) % np.bincount(tail)[tail]  # around the tail
    succ = prev[np.argsort(perm)[perm ^ 1]]  # prev of the reverse dart
    smallest, orbit = np.unique(_components(len(darts), darts, succ), return_inverse=True)
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
    return ConvexPlaneGraph(vertices=vertices, map=cmap)


def _neighbours(M: CombinatorialMap) -> list[list[int]]:
    """For each face of M, the faces across its edges in cycle order."""
    across, starts = M.flag_face[M.s2[0::2]].tolist(), M.face_starts.tolist()
    return [across[s:s + n] for s, n in zip(starts, M.face_sizes.tolist())]


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
    M, outer = G.map, G.map.outer_face
    if outer is None or not 0 <= face < len(M.faces) or face == outer:
        raise InvalidPlaneGraph(f"face {face} is not a bounded face of the graph")
    sizes, fv, starts = M.face_sizes, M.face_vertices, M.face_starts
    own, across = M.flag_face[0::2], M.flag_face[M.s2[0::2]]  # the faces at each edge
    step = M.s1[1::2] // 2  # the next position in the face
    if outer not in across[starts[face]:starts[face] + sizes[face]]:
        raise FaceNotOnBoundary(f"face {M.faces[face]} shares no edge with the outer boundary")
    dual = ~np.isin(own, (face, outer)) & ~np.isin(across, (face, outer))
    label = _components(len(sizes), own[dual], across[dual])
    pieces = []
    for smallest in np.unique(label).tolist():
        if smallest in (face, outer):
            continue
        fis = np.flatnonzero(label == smallest)
        at = _ranges(starts[fis], sizes[fis])
        if face not in across[at]:
            raise DecompositionError(
                f"decomposition piece {fis.tolist()} shares no edge with face "
                f"{M.faces[face]}; such graphs are outside the supported class"
            )
        # bounded faces run counterclockwise, so the clockwise outer walk
        # reads each boundary edge backwards
        rim = at[~np.isin(across[at], fis)]
        walk = _walk_cycles(np.zeros(len(rim), dtype=np.intp), fv[step[rim]], fv[rim], 1)[0]
        cmap = CombinatorialMap._from_cycles(M.vertices, np.concatenate([fv[at], walk]),
                                             np.append(sizes[fis], len(walk)), len(fis))
        points = LabelledPoints(zip(cmap.vertices, G.vertices.take(cmap.vertices)))
        pieces.append(ConvexPlaneGraph(vertices=points, map=cmap))
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
    sizes, fv, starts = M.face_sizes, M.face_vertices, M.face_starts
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
    linear, shift, _ = _procrustes(src, dst[None])
    gap = np.linalg.norm(rho.apply(src) - (src @ linear[0].T + shift[0]), axis=1).max()
    if gap > threshold:
        raise AssertionError(f"assembled isometry deviates from the direct fit by {gap:g}")
    return rho
