"""Independent oracle implementations used to cross-check the library.

Everything here is deliberately computed by a different route than the
package takes: exhaustive enumeration instead of colour-refined flag
replay, forced flag propagation instead of comparing face keys, closed
forms instead of iterative fits. Keep it that way.
"""

import itertools
import math

import numpy as np

from edgesym.errors import DegenerateFaceMerge
from edgesym.geom import DEFAULT_TOLERANCE
from edgesym.maps import CombinatorialMap


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
    it read the hull's adjacency arrays, kept verbatim as its reference.

    Hull facets are computed as triangles, adjacent coplanar triangles
    (normal deviation below ``fit_eps`` radians) are merged into polygonal
    faces by a union-find, each group's boundary edges (those in one of its
    triangles) are chained as undirected edges, and each face cycle is
    oriented counterclockwise viewed from outside by its Newell normal.
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
