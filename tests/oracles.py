"""Independent oracle implementations used to cross-check the library.

Everything here is deliberately computed by a different route than the
package takes: exhaustive enumeration instead of colour-refined flag
replay, forced flag propagation instead of comparing face keys, closed
forms instead of iterative fits. Keep it that way.
"""

import itertools
import math
import warnings
from collections import Counter

import numpy as np

from edgesym.errors import (
    CollinearPoints,
    DecompositionError,
    DegenerateFaceMerge,
    DegeneratePolygon,
    Disconnected,
    DimensionMismatch,
    EdgeCrossing,
    FaceNotOnBoundary,
    LengthMismatch,
    NonConvexBoundedFace,
    NonCoplanarPoints,
    NonSimpleOuterBoundary,
    NotCombinatoriallyEquivalent,
)
from edgesym.geom import (DEFAULT_TOLERANCE, CircleFit, Isometry, LabelledPoints, Tolerance,
                          UnderdeterminedFitWarning, _as_points, _procrustes, _row_blocks,
                          best_fit_isometry)
from edgesym.maps import CombinatorialMap, Edge, combinatorially_equivalent
from edgesym.planegraph import _MIN_TURN, ConvexPlaneGraph, _check_crossings


def oracle_cycle_key(cycle):
    """Exhaustive canonical form of a cycle: minimum over all rotations of
    both orientations."""
    seq = tuple(cycle)
    best = None
    for s in (seq, tuple(reversed(seq))):
        for i in range(len(s)):
            rot = s[i:] + s[:i]
            if best is None or rot < best:
                best = rot
    return best


def brute_force_symmetries(faces, outer=None):
    """All vertex permutations preserving the face-cycle set, by trying
    every permutation of the labels. For plane graphs pass the outer cycle,
    which the permutation must fix."""
    labels = sorted({v for f in faces for v in f})
    keys = {oracle_cycle_key(f) for f in faces}
    outer_key = oracle_cycle_key(outer) if outer is not None else None
    found = []
    for perm in itertools.permutations(labels):
        sigma = dict(zip(labels, perm))
        if not all(oracle_cycle_key([sigma[v] for v in f]) in keys for f in faces):
            continue
        if outer_key is not None and oracle_cycle_key([sigma[v] for v in outer]) != outer_key:
            continue
        found.append(sigma)
    return found


def _propagate_flag_map(src, dst, seed, image):
    """Forced extension of seed -> image across the flag graphs of two
    maps, one flag at a time: every neighbour relation must be preserved,
    so the assignment spreads deterministically. Returns the flag
    bijection as a list, or None on a conflict."""
    n = len(src.flags)
    if n != len(dst.flags):
        return None
    phi = [-1] * n
    phi[seed] = image
    stack = [seed]
    pairs = list(zip((src.s0, src.s1, src.s2), (dst.s0, dst.s1, dst.s2)))
    while stack:
        fl = stack.pop()
        for sa, sb in pairs:
            fn, gn = int(sa[fl]), int(sb[phi[fl]])
            if phi[fn] < 0:
                phi[fn] = gn
                stack.append(fn)
            elif phi[fn] != gn:
                return None
    if min(phi) < 0 or len(set(phi)) != n:
        return None
    return phi


def propagation_equivalent(a, b):
    """Whether the identity on vertex labels extends to an isomorphism of
    the maps (matching the outer faces of plane graphs), by propagating
    every image of one seed flag that keeps its vertex and edge."""
    if a.vertices != b.vertices or a.edges != b.edges:
        return False
    seed = next(f for f in a.flags if not a.is_graph or a.flag_face[f] != a.outer_face)
    v, w = a.flag_vertex[seed], a.flag_vertex[a.s0[seed]]
    for cand in b.flags:
        if (b.flag_vertex[cand], b.flag_vertex[b.s0[cand]]) != (v, w):
            continue
        phi = _propagate_flag_map(a, b, seed, cand)
        if phi is None:
            continue
        vertex_image, face_image = {}, {}
        consistent = True
        for f, g in enumerate(phi):
            for image, x, y in ((vertex_image, a.flag_vertex[f], b.flag_vertex[g]),
                                (face_image, a.flag_face[f], b.flag_face[g])):
                consistent &= image.setdefault(int(x), int(y)) == int(y)
        if not consistent or any(x != y for x, y in vertex_image.items()):
            continue
        if a.is_graph and face_image[a.outer_face] != b.outer_face:
            continue
        return True
    return False


def one_pass_diameter(points):
    """Largest pairwise distance read off the full n x n x d difference
    array in one pass, with the same per-pair arithmetic as
    ``diameter_of``."""
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or len(arr) < 2:
        return 0.0
    diff = arr[:, None, :] - arr[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=-1)).max())


def classify_values(M, points, images):
    """What ``symmetry._Instance.classify`` compares for each row of vertex
    images (``points`` indexed like ``M.vertices``): whether each edge maps
    to an edge, the gap between the edge's length and that of the edge its
    ends map to, and the RMS residual of the best-fit isometry."""
    n = len(points)
    u, v = M.edge_ends.T
    lengths = np.linalg.norm(points[u] - points[v], axis=1)
    edge_codes = u * n + v
    a, b = images[:, u], images[:, v]
    codes = np.minimum(a, b) * n + np.maximum(a, b)
    hit = np.minimum(np.searchsorted(edge_codes, codes), len(edge_codes) - 1)
    gap = np.abs(lengths - lengths[hit])
    return edge_codes[hit] == codes, gap, _procrustes(points, points[images])[2]


def exact_diameter_classify(M, coords, images, tol=DEFAULT_TOLERANCE):
    """``edge_ok``, ``offending`` and ``realized`` of each row of vertex
    images by the rule ``symmetry._Instance.classify`` applied before it
    bracketed the diameter, kept as its reference: both thresholds are
    taken at the exact diameter, here ``one_pass_diameter``. A realized row
    is edge-preserving and fits within the fit threshold, since an
    isometry preserves every edge length."""
    points = LabelledPoints.of(coords).take(M.vertices)
    diam = one_pass_diameter(points)
    is_edge, gap, rmsd = classify_values(M, points, images)
    bad = ~is_edge | (gap > tol.length_eps(diam))
    rows, first = np.arange(len(bad)), bad.argmax(axis=1)
    edge_ok = ~bad[rows, first]
    offending = np.where(bad[rows, first] & ~is_edge[rows, first], first, -1)
    return edge_ok, offending, edge_ok & (rmsd <= tol.fit_threshold(diam))


# noise scales at which the edge test (2e-9 times the diameter) and the fit
# test (1e-6 times it) of a unit-sized instance disagree
NOISE_EPS = (1e-9, 1e-8, 1e-7, 1e-6)


def noisy_vertices(X, eps, seed):
    """The vertices of X, each coordinate moved by seeded Gaussian noise of
    scale eps, as a label-to-point dict."""
    rng = np.random.default_rng([seed, round(-math.log10(eps))])
    points = X.vertices.array
    return dict(zip(X.vertices.labels, points + rng.normal(size=points.shape) * eps))


def permutation_images(perms):
    """Each VertexPermutation as the row of image indices of its sorted
    labels, read off its word."""
    perms = list(perms)
    index = {label: i for i, label in enumerate(sorted(perms[0].word))}
    return np.array([[index[label] for label in p.word] for p in perms])


def is_group(images):
    """Whether the rows of ``images``, permutations of 0..n-1, form a group,
    by brute force: the identity is a row, and so is every product of two
    rows."""
    images = np.asarray(images, dtype=np.intp)
    if not len(images):
        return False
    members = {row.tobytes() for row in images}
    products = images[:, images].reshape(-1, images.shape[1])
    return (np.arange(images.shape[1]).tobytes() in members
            and all(row.tobytes() in members for row in products))


def edges_of_faces(faces):
    out = set()
    for f in faces:
        for t in range(len(f)):
            out.add(tuple(sorted((f[t], f[(t + 1) % len(f)]))))
    return out


def brute_force_edge_preserving(faces, coords, sigmas, eps=1e-9):
    """Subset of the given permutations mapping every edge to an edge of
    equal length."""
    edges = edges_of_faces(faces)

    def length(e):
        return float(np.linalg.norm(np.asarray(coords[e[0]], float) - np.asarray(coords[e[1]], float)))

    kept = []
    for sigma in sigmas:
        ok = True
        for e in edges:
            img = tuple(sorted((sigma[e[0]], sigma[e[1]])))
            if img not in edges or abs(length(e) - length(img)) > eps:
                ok = False
                break
        if ok:
            kept.append(sigma)
    return kept


def heron_circumradius(a, b, c):
    s = (a + b + c) / 2.0
    area = math.sqrt(s * (s - a) * (s - b) * (s - c))
    return a * b * c / (4.0 * area)


def rotation2(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def square_isometries():
    """The eight isometries of the unit square [0,1]^2, as (linear,
    translation) pairs."""
    center = np.array([0.5, 0.5])
    units = []
    for k in range(4):
        units.append(rotation2(k * math.pi / 2))
    flip = np.array([[1.0, 0.0], [0.0, -1.0]])
    for k in range(4):
        units.append(rotation2(k * math.pi / 2) @ flip)
    return [(L, center - L @ center) for L in units]


def random_inscribed_polygon(rng, n, force_outside=False):
    """Vertices of a random convex polygon inscribed in a circle, in
    counterclockwise order. With force_outside, all vertices fall inside a
    half-circle, so the circumcenter lies outside the polygon."""
    radius = rng.uniform(0.5, 3.0)
    if force_outside:
        span = rng.uniform(0.6, math.pi - 0.15)
        gaps = rng.uniform(0.05, 1.0, size=n - 1)
        offsets = np.concatenate([[0.0], np.cumsum(gaps / gaps.sum() * span)])
    else:
        gaps = rng.uniform(0.05, 1.0, size=n)
        offsets = np.concatenate([[0.0], np.cumsum(gaps / gaps.sum() * 2 * math.pi)])[:-1]
    start = rng.uniform(0.0, 2 * math.pi)
    angles = start + offsets
    return np.column_stack([radius * np.cos(angles), radius * np.sin(angles)])


def side_lengths(polygon):
    nxt = np.roll(polygon, -1, axis=0)
    return np.linalg.norm(nxt - polygon, axis=1)


def _first_bad_pair(coords, ea, eb, vec, length, ii, jj, eps):
    shared = (
        (ea[ii] == ea[jj]) | (ea[ii] == eb[jj]) | (eb[ii] == ea[jj]) | (eb[ii] == eb[jj])
    )
    ii, jj = ii[~shared], jj[~shared]
    if len(ii) == 0:
        return None
    p1, p2 = coords[ea[ii]], coords[eb[ii]]
    q1, q2 = coords[ea[jj]], coords[eb[jj]]

    def against(pt, a, e):
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


def all_pairs_first_crossing(coords, edges, names, eps, block=1 << 16):
    """The ``EdgeCrossing`` message of the first pair (i, j), i < j, of
    edges (index pairs into ``coords``) without a shared endpoint that cross
    or touch within ``eps``, or None. Tests every pair, in row blocks of
    about ``block`` pairs: the plane-graph crossing check before it
    selected candidate pairs on a grid."""
    m = len(edges)
    ea = np.array([e[0] for e in edges])
    eb = np.array([e[1] for e in edges])
    vec = coords[eb] - coords[ea]
    length = np.linalg.norm(vec, axis=1)
    row_ends = np.cumsum(np.arange(m - 1, 0, -1))
    r0 = 0
    while r0 < m - 1:
        done = int(row_ends[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(row_ends, done + block, side="right")))
        rows = np.arange(r0, r1)
        counts = m - 1 - rows
        ii = np.repeat(rows, counts)
        jj = ii + 1 + np.arange(len(ii)) - np.repeat(np.cumsum(counts) - counts, counts)
        pair = _first_bad_pair(coords, ea, eb, vec, length, ii, jj, eps)
        if pair is not None:
            e1, e2 = edges[pair[0]], edges[pair[1]]
            n1 = (names[e1[0]], names[e1[1]])
            n2 = (names[e2[0]], names[e2[1]])
            return f"edges {n1} and {n2} intersect away from shared endpoints"
        r0 = r1
    return None


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


def union_find_face_map(P, tol=DEFAULT_TOLERANCE):
    """The face lattice of P by the route ``polytope.face_map`` took before
    it read the hull's adjacency arrays, kept as its reference; only its
    merge test changed with ``face_map``'s, from cos(fit_eps), which rounds
    to 1.0 below about 1.5e-8 rad, to the chord between unit normals.

    Hull facets are computed as triangles, adjacent coplanar triangles
    (normals within the chord 2 sin(fit_eps / 2)) are merged into polygonal
    faces by a union-find, each group's boundary edges (those in one of its
    triangles) are chained as undirected edges, and each face cycle is
    oriented counterclockwise viewed from outside by its Newell normal.
    """
    labels, pts = P.vertices.labels, P.vertices.array
    from scipy.spatial import ConvexHull

    hull = ConvexHull(pts)
    tris = hull.simplices
    normals = hull.equations[:, :3]
    merge_chord = 2 * math.sin(min(tol.fit_eps, math.pi) / 2)

    group_of = list(range(len(tris)))

    def find(i: int) -> int:
        while group_of[i] != i:
            group_of[i] = group_of[group_of[i]]
            i = group_of[i]
        return i

    for i in range(len(tris)):
        for j in hull.neighbors[i]:
            if j > i and float(np.linalg.norm(normals[i] - normals[j])) <= merge_chord:
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


# The per-face inscribed test as ``geom.is_inscribed`` ran it before it
# became a caller of the face-stacked kernel, code verbatim, as the
# reference the kernel must match bit for bit.


def _per_face_diameter(points) -> float:
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or len(arr) < 2:
        return 0.0
    best = -np.inf
    for rows in _row_blocks(len(arr), arr.size):
        diff = arr[rows, None, :] - arr[None, rows.start:, :]
        best = np.maximum(best, np.sqrt((diff * diff).sum(axis=-1)).max())
    return float(best)


def per_face_area(polygon) -> float:
    """``polygon_area`` as it was computed before the face-stacked kernel."""
    P = _as_points(polygon)
    ref = P.mean(axis=0)
    Q = P - ref
    nxt = np.roll(Q, -1, axis=0)
    if P.shape[1] == 2:
        return 0.5 * abs(float((Q[:, 0] * nxt[:, 1] - Q[:, 1] * nxt[:, 0]).sum()))
    cross = np.cross(Q, nxt).sum(axis=0)
    return 0.5 * float(np.linalg.norm(cross))


def _fit_circle_2d(xy: np.ndarray) -> tuple[float, float, float, float]:
    # Work in centered coordinates for conditioning.
    c0 = xy.mean(axis=0)
    Q = xy - c0
    sing = np.linalg.svd(Q, compute_uv=False)
    if sing[0] <= 0 or sing[1] <= 1e-12 * sing[0]:
        raise CollinearPoints("points are collinear: no finite circle fits them")
    # Algebraic seed: 2*cx*x + 2*cy*y + c = x^2 + y^2 in least squares.
    A = np.column_stack([2.0 * Q[:, 0], 2.0 * Q[:, 1], np.ones(len(Q))])
    b = (Q * Q).sum(axis=1)
    sol, *_ = np.linalg.lstsq(A, b, rcond=None)
    cx, cy, c = (float(v) for v in sol)
    r = math.sqrt(max(c + cx * cx + cy * cy, 0.0))
    # Geometric refinement: Gauss-Newton on sum (|p - center| - r)^2.
    for _ in range(20):
        dx = Q[:, 0] - cx
        dy = Q[:, 1] - cy
        dist = np.hypot(dx, dy)
        if dist.min() <= 1e-300:
            break
        res = dist - r
        J = np.column_stack([-dx / dist, -dy / dist, -np.ones(len(Q))])
        step, *_ = np.linalg.lstsq(J, -res, rcond=None)
        cx += float(step[0])
        cy += float(step[1])
        r += float(step[2])
        if np.abs(step).max() <= 1e-15 * max(abs(r), 1e-30):
            break
    dist = np.hypot(Q[:, 0] - cx, Q[:, 1] - cy)
    max_res = float(np.abs(dist - r).max())
    return cx + c0[0], cy + c0[1], float(r), max_res


def _fit_circle(P: np.ndarray, diam: float, tol: Tolerance) -> CircleFit:
    if diam == 0:
        raise CollinearPoints("all points coincide")
    if P.shape[1] == 2:
        cx, cy, r, max_res = _fit_circle_2d(P)
        return CircleFit(center=np.array([cx, cy]), radius=r, max_residual=max_res)
    centroid = P.mean(axis=0)
    Q = P - centroid
    _u, _s, Vt = np.linalg.svd(Q, full_matrices=False)
    normal = Vt[2]
    k = int(np.argmax(np.abs(normal)))
    if normal[k] < 0:
        normal = -normal
    offsets = Q @ normal
    if np.abs(offsets).max() > tol.fit_threshold(diam):
        raise NonCoplanarPoints(
            f"points deviate from their best plane by {np.abs(offsets).max():g} "
            f"(limit {tol.fit_threshold(diam):g})"
        )
    u, w = Vt[0], Vt[1]
    xy = np.column_stack([Q @ u, Q @ w])
    cx, cy, r, max_res = _fit_circle_2d(xy)
    center3 = centroid + cx * u + cy * w
    return CircleFit(center=center3, radius=r, max_residual=max_res, plane_normal=normal)


def per_face_inscribed(polygon, tol=DEFAULT_TOLERANCE) -> tuple[bool, CircleFit]:
    """``is_inscribed`` of one polygon, fitted alone."""
    P = _as_points(polygon)
    if len(P) < 3:
        raise DegeneratePolygon("a polygon needs at least 3 vertices")
    diam = _per_face_diameter(P)
    if diam == 0 or per_face_area(P) <= 1e-12 * diam * diam:
        raise DegeneratePolygon("polygon has (numerically) zero area")
    fit = _fit_circle(P, diam, tol)
    return fit.max_residual <= tol.fit_threshold(diam), fit


# ``maps.CombinatorialMap.__init__`` as it was before the integer-array
# core, code verbatim with the helpers it called, as the reference the core
# must match attribute for attribute and error for error; and
# ``maps.chain_cycle``, the per-face walk ``maps._walk_cycles`` replaced.


def edge_key(u: str, v: str):
    return (u, v) if u <= v else (v, u)


def canonical_cycle(cycle) -> tuple[str, ...]:
    """Rotate a simple cycle so its smallest label comes first (orientation kept)."""
    seq = tuple(cycle)
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


def cycle_key(cycle) -> tuple[str, ...]:
    """Orientation-free canonical form: the smaller of the two rotated readings."""
    fwd = canonical_cycle(cycle)
    rev = canonical_cycle(tuple(reversed(cycle)))
    return min(fwd, rev)


def chain_cycle(pairs):
    """The cycle u, succ(u), succ(succ(u)), ... read from the smallest tail
    u of the (tail, head) pairs, or None unless they form one simple cycle."""
    pairs = list(pairs)
    succ = dict(pairs)
    if not succ or len(succ) != len(pairs):
        return None
    start = min(succ)
    cycle, cur = [start], succ[start]
    while cur != start and len(cycle) < len(succ):
        cycle.append(cur)
        cur = succ.get(cur)
    return cycle if cur == start and len(cycle) == len(succ) else None


class ReferenceMap:
    """The per-face construction of a map from labelled face cycles."""

    def __init__(self, faces, outer_face=None):
        raw = [tuple(str(v) for v in f) for f in faces]
        if not raw:
            raise ValueError("a map needs at least one face")
        for f in raw:
            if len(f) < 3:
                raise ValueError(f"face cycle {f} has fewer than 3 vertices")
            if len(set(f)) != len(f):
                raise ValueError(f"face cycle {f} is not simple")
        canon = [canonical_cycle(f) for f in raw]
        order = sorted(range(len(canon)), key=lambda i: canon[i])
        self.faces: tuple[tuple[str, ...], ...] = tuple(canon[i] for i in order)
        if outer_face is None:
            self.outer_face = None
        else:
            if not 0 <= outer_face < len(raw):
                raise ValueError(f"outer face index {outer_face} out of range")
            self.outer_face = order.index(outer_face)

        edge_faces = {}
        for fi, cyc in enumerate(self.faces):
            for t in range(len(cyc)):
                e = edge_key(cyc[t], cyc[(t + 1) % len(cyc)])
                edge_faces.setdefault(e, []).append(fi)
        for e, fs in edge_faces.items():
            if len(fs) != 2 or fs[0] == fs[1]:
                raise ValueError(f"edge {e} lies in faces {fs}, expected two distinct faces")
        self.edges = tuple(sorted(edge_faces))
        self.vertices: tuple[str, ...] = tuple(sorted({v for f in self.faces for v in f}))

        if len(self.vertices) - len(self.edges) + len(self.faces) != 2:
            raise ValueError(
                f"Euler relation fails: V={len(self.vertices)} E={len(self.edges)} "
                f"F={len(self.faces)}"
            )
        # depth-first search from the first face across shared edges
        reached, stack = {0}, [0]
        while stack:
            cyc = self.faces[stack.pop()]
            for t in range(len(cyc)):
                for fi in edge_faces[edge_key(cyc[t], cyc[(t + 1) % len(cyc)])]:
                    if fi not in reached:
                        reached.add(fi)
                        stack.append(fi)
        if len(reached) < len(self.faces):
            missed = min(set(range(len(self.faces))) - reached)
            raise ValueError("faces are not connected: no chain of shared edges joins "
                             f"{self.faces[0]} and {self.faces[missed]}")

        index = {v: i for i, v in enumerate(self.vertices)}
        # Flags 2j and 2j+1 lie on the j-th edge of the face cycles read in
        # face order, cyc[t]-cyc[t+1]: flag 2j at vertex cyc[t], 2j+1 at cyc[t+1].
        sizes = np.array([len(cyc) for cyc in self.faces])
        n_flags = 4 * len(self.edges)
        flag_vertex = np.empty(n_flags, dtype=np.intp)
        flag_vertex[0::2] = [index[v] for cyc in self.faces for v in cyc]
        flag_vertex[1::2] = [index[v] for cyc in self.faces for v in cyc[1:] + cyc[:1]]
        s0 = np.arange(n_flags) ^ 1
        # s1 joins the flag at cyc[t] to the flag at cyc[t] on the previous edge.
        at_tail = np.arange(0, n_flags, 2)
        prev = at_tail - 1
        face_start = 2 * np.concatenate(([0], np.cumsum(sizes)[:-1]))
        prev[face_start // 2] = face_start + 2 * sizes - 1
        s1 = np.empty(n_flags, dtype=np.intp)
        s1[at_tail], s1[prev] = prev, at_tail
        # s2 joins the two flags on the same vertex and edge, one per face of
        # the edge; sorted by (edge, vertex) they are neighbours.
        lo = np.minimum(flag_vertex, flag_vertex[s0])
        hi = np.maximum(flag_vertex, flag_vertex[s0])
        by_edge = np.lexsort((flag_vertex, hi, lo))
        s2 = np.empty(n_flags, dtype=np.intp)
        s2[by_edge[0::2]], s2[by_edge[1::2]] = by_edge[1::2], by_edge[0::2]
        self.flags = range(n_flags)
        self.s0, self.s1, self.s2 = s0, s1, s2
        self.flag_vertex = flag_vertex
        # each edge at a vertex carries two of its flags, one per side
        self.degree = np.bincount(flag_vertex) // 2
        self.flag_face = np.repeat(np.arange(len(self.faces)), 2 * sizes)
        self._face_keys = tuple(cycle_key(f) for f in self.faces)

    def face_keys(self):
        return self._face_keys


# Finite point groups from generators (Coxeter, *Regular Polytopes*, 1973),
# and the convex hulls of their orbits: every vertex lies on one sphere, so
# every face is inscribed, and for a generic point the edge-preserving and
# the realized symmetries of the hull are both exactly the group.

_PHI = (1.0 + math.sqrt(5.0)) / 2.0


def _turn_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def group_closure(generators):
    """Every product of the generators (3x3 orthogonal matrices), by
    breadth-first search from the identity, as an array (|G|, 3, 3)."""
    def key(m):
        return tuple((np.round(m, 6) + 0.0).ravel())

    found = {key(np.eye(3)): np.eye(3)}
    frontier = [np.eye(3)]
    while frontier:
        new = []
        for g in frontier:
            for h in generators:
                m = g @ h
                if key(m) not in found:
                    found[key(m)] = m
                    new.append(m)
        frontier = new
    return np.array(list(found.values()))


def point_group(name):
    """The group T, Td, Th, O, Oh, I or Ih, or Dn or Dnh for n >= 2 (such as
    "D7h"), as an array (|G|, 3, 3)."""
    cycle = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])  # 3-fold, (1, 1, 1)
    half_x = np.diag([1.0, -1.0, -1.0])  # 2-fold about the x axis
    tetra = [cycle, half_x]
    extra = {
        "T": tetra,
        "Td": tetra + [np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])],
        "Th": tetra + [-np.eye(3)],
        "O": [cycle, _turn_z(math.pi / 2)],
        "Oh": [cycle, _turn_z(math.pi / 2), -np.eye(3)],
        # a 5-fold rotation mapping the icosahedron (0, +-1, +-phi) to itself
        "I": tetra + [0.5 * np.array([[1.0, -_PHI, 1 / _PHI], [_PHI, 1 / _PHI, -1.0],
                                      [1 / _PHI, 1.0, _PHI]])],
    }
    extra["Ih"] = extra["I"] + [-np.eye(3)]
    if name in extra:
        return group_closure(extra[name])
    n = int(name[1:].removesuffix("h"))
    gens = [_turn_z(2 * math.pi / n), half_x]
    if name.endswith("h"):
        gens.append(np.diag([1.0, 1.0, -1.0]))
    return group_closure(gens)


def orbit_points(name, rng, orbits=1):
    """Labelled points of the union of ``orbits`` orbits of seeded generic
    unit points under the group ``name``, labelled "1".. in a random order
    and moved by a random isometry (a reflection half the time)."""
    group = point_group(name)
    seeds = rng.normal(size=(orbits, 3))
    seeds /= np.linalg.norm(seeds, axis=1)[:, None]
    pts = np.concatenate([group @ p for p in seeds])
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = pts @ (q * np.sign(np.diag(r))).T + rng.normal(size=3)
    labels = rng.permutation(len(pts)) + 1
    return [(str(label), p) for label, p in zip(labels, moved)]


# ``planegraph.build_plane_graph`` as it was before the dart arrays, code
# verbatim with the helpers it called, as the reference the array build
# must match map for map and error for error.


def _signed_area(poly: np.ndarray) -> float:
    nxt = np.roll(poly, -1, axis=0)
    return 0.5 * float((poly[:, 0] * nxt[:, 1] - poly[:, 1] * nxt[:, 0]).sum())


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


def per_face_plane_graph(points, edges, tol: Tolerance = DEFAULT_TOLERANCE) -> ConvexPlaneGraph:
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
    return ConvexPlaneGraph(vertices=vertices, map=cmap)


# ``planegraph._Regions`` and the recursive ``planegraph._assemble``, with
# the ``assemble_congruence`` around it, as they were before assembly ran
# on one tree of face indices, code verbatim: the region split that
# ``boundary_decomposition`` must match and the assembly that
# ``assemble_congruence`` must match outcome for outcome.


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


def recursive_assemble(G: ConvexPlaneGraph, H: ConvexPlaneGraph,
                       tol: Tolerance = DEFAULT_TOLERANCE) -> Isometry | None:
    """``assemble_congruence`` by recursion over re-scanned regions."""
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
    direct, _ = best_fit_isometry(src, dst)
    gap = np.linalg.norm(rho.apply(src) - direct.apply(src), axis=1).max()
    if gap > threshold:
        raise AssertionError(
            f"assembled isometry deviates from the direct fit by {gap:g}"
        )
    return rho


# ``geom.best_fit_isometry`` as it was before it became a caller of the
# stacked ``geom._procrustes``, and the two-sided ``planegraph._assemble``
# with its ``assemble_congruence`` as they were before assembly decomposed
# G alone, code verbatim, as the references the new code must match bit for
# bit and outcome for outcome.


def per_call_best_fit_isometry(src, dst, allow_reflection: bool = True) -> tuple[Isometry, float]:
    """Least-squares rigid alignment of matched point sets (Kabsch/Procrustes).

    Minimizes sum |rho(src_i) - dst_i|^2 over rotations, or over all
    orthogonal maps when ``allow_reflection`` is set. Returns the optimal
    isometry and the RMS residual.
    """
    A = _as_points(src)
    B = np.asarray(dst, dtype=float)
    if A.shape != B.shape:
        raise LengthMismatch(f"src shape {A.shape} does not match dst shape {B.shape}")
    n, d = A.shape
    if n == 0:
        raise LengthMismatch("cannot fit an isometry to empty point sets")
    if n < d:
        warnings.warn(
            f"only {n} point(s) in dimension {d}: alignment is underdetermined",
            UnderdeterminedFitWarning,
            stacklevel=2,
        )
    ca = A.mean(axis=0)
    cb = B.mean(axis=0)
    H = (A - ca).T @ (B - cb)
    U, _sing, Vt = np.linalg.svd(H)
    R = Vt.T @ U.T
    if not allow_reflection and np.linalg.det(R) < 0:
        flip = np.eye(d)
        flip[-1, -1] = -1.0
        R = Vt.T @ flip @ U.T
    t = cb - R @ ca
    resid = A @ R.T + t - B
    rmsd = float(np.sqrt((resid * resid).sum() / n))
    return Isometry(R, t), rmsd


def _two_sided(g: _Regions, h: _Regions, rg, rh, threshold: float) -> Isometry | None:
    # rg and rh are regions of g and h with the same edges
    G, H = g.graph, h.graph
    if len(rg) == 1:
        labels = g.vertices(rg)
        iso, rmsd = per_call_best_fit_isometry(G.vertices.take(labels), H.vertices.take(labels))
        return iso if rmsd <= threshold else None

    boundary = g.boundary(rg)
    candidates = [fi for fi in rg if g.edges[fi] & boundary]
    fg = min(candidates, key=lambda fi: g.faces[fi])
    fg_key = G.map.face_keys()[fg]
    fh = next((fi for fi in rh if H.map.face_keys()[fi] == fg_key), None)
    if fh is None:
        return None

    face = g.faces[fg]
    rho, rmsd = per_call_best_fit_isometry(G.vertices.take(face), H.vertices.take(face))
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
        sub = _two_sided(g, h, region, region_h, threshold)
        if sub is None:
            return None
        pts = G.vertices.take(g.vertices(region))
        gap = np.linalg.norm(rho.apply(pts) - sub.apply(pts), axis=1).max()
        if gap > threshold:
            return None
    return rho


def two_sided_assemble(G: ConvexPlaneGraph, H: ConvexPlaneGraph,
                       tol: Tolerance = DEFAULT_TOLERANCE) -> Isometry | None:
    """``assemble_congruence`` decomposing both G and H."""
    if not combinatorially_equivalent(G.map, H.map):
        raise NotCombinatoriallyEquivalent(
            "identity on labels does not extend to a map isomorphism"
        )
    diam = max(G.vertices.diameter, H.vertices.diameter)
    threshold = tol.fit_threshold(diam)
    rho = _two_sided(_Regions(G), _Regions(H), tuple(G.bounded_faces()),
                     tuple(H.bounded_faces()), threshold)
    if rho is None:
        return None
    order = sorted(G.vertices)
    src, dst = G.vertices.take(order), H.vertices.take(order)
    if np.linalg.norm(rho.apply(src) - dst, axis=1).max() > threshold:
        return None
    direct, _ = per_call_best_fit_isometry(src, dst, allow_reflection=True)
    gap = np.linalg.norm(rho.apply(src) - direct.apply(src), axis=1).max()
    if gap > threshold:
        raise AssertionError(
            f"assembled isometry deviates from the direct fit by {gap:g}"
        )
    return rho

