"""Combinatorial surface maps.

A map is stored as its family of face cycles plus, for plane graphs, the
distinguished outer face. Everything else is derived: the edge set, vertex
degrees, and the flag graph. A flag is a mutually incident
(vertex, edge, face) triple, numbered 0..4E-1; the involutions s0/s1/s2
are int arrays that switch the vertex, the edge, and the face coordinate
respectively. A map isomorphism commutes with the three involutions, so
it is forced by the image of a single flag; `symmetry` replays that image
across the flag graph to enumerate automorphisms.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "CombinatorialMap",
    "Edge",
    "canonical_cycle",
    "chain_cycle",
    "combinatorially_equivalent",
    "cycle_key",
    "edge_key",
]

Edge = tuple[str, str]


def edge_key(u: str, v: str) -> Edge:
    return (u, v) if u <= v else (v, u)


def canonical_cycle(cycle) -> tuple[str, ...]:
    """Rotate a simple cycle so its smallest label comes first (orientation kept)."""
    seq = tuple(cycle)
    i = seq.index(min(seq))
    return seq[i:] + seq[:i]


def chain_cycle(pairs) -> list | None:
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


def cycle_key(cycle) -> tuple[str, ...]:
    """Orientation-free canonical form: the smaller of the two rotated readings."""
    fwd = canonical_cycle(cycle)
    rev = canonical_cycle(tuple(reversed(cycle)))
    return min(fwd, rev)


class CombinatorialMap:
    """Vertex/edge/face incidence structure of a 3-polytope surface or of a
    plane graph with a distinguished outer face.

    Faces are stored canonically rotated (smallest label first, orientation
    preserved) and sorted, so two constructions of the same map compare
    equal regardless of input order. Construction validates that every
    edge lies in exactly two faces, that cycles are simple, and that the
    Euler relation V - E + F = 2 holds.
    """

    def __init__(self, faces, outer_face: Optional[int] = None):
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
            self.outer_face: Optional[int] = None
        else:
            if not 0 <= outer_face < len(raw):
                raise ValueError(f"outer face index {outer_face} out of range")
            self.outer_face = order.index(outer_face)

        edge_faces: dict[Edge, list[int]] = {}
        for fi, cyc in enumerate(self.faces):
            for t in range(len(cyc)):
                e = edge_key(cyc[t], cyc[(t + 1) % len(cyc)])
                edge_faces.setdefault(e, []).append(fi)
        for e, fs in edge_faces.items():
            if len(fs) != 2 or fs[0] == fs[1]:
                raise ValueError(f"edge {e} lies in faces {fs}, expected two distinct faces")
        self.edges: tuple[Edge, ...] = tuple(sorted(edge_faces))
        self.vertices: tuple[str, ...] = tuple(sorted({v for f in self.faces for v in f}))

        if len(self.vertices) - len(self.edges) + len(self.faces) != 2:
            raise ValueError(
                f"Euler relation fails: V={len(self.vertices)} E={len(self.edges)} "
                f"F={len(self.faces)}"
            )

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

    @property
    def is_graph(self) -> bool:
        return self.outer_face is not None

    def face_keys(self) -> tuple[tuple[str, ...], ...]:
        return self._face_keys

    def face_edges(self, fi: int) -> set[Edge]:
        cyc = self.faces[fi]
        return {edge_key(cyc[t], cyc[(t + 1) % len(cyc)]) for t in range(len(cyc))}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CombinatorialMap):
            return NotImplemented
        return (
            self.faces == other.faces
            and self.outer_face == other.outer_face
        )

    def __hash__(self) -> int:
        return hash((self.faces, self.outer_face))

    def __repr__(self) -> str:
        kind = "graph" if self.is_graph else "polytope"
        return (
            f"CombinatorialMap({kind}, V={len(self.vertices)}, "
            f"E={len(self.edges)}, F={len(self.faces)})"
        )


def combinatorially_equivalent(a: CombinatorialMap, b: CombinatorialMap) -> bool:
    """Whether the identity on vertex labels extends to a map isomorphism.

    For plane graphs the isomorphism must additionally match the two outer
    faces. The flag involutions carry no orientation, so the identity
    extends exactly when both maps have the same vertices and edges and
    the same faces read as unoriented cycles (`cycle_key`), and, for plane
    graphs, outer faces with the same key.
    """
    if a.is_graph != b.is_graph:
        raise ValueError("cannot compare a polytope map with a plane-graph map")
    if a.vertices != b.vertices or a.edges != b.edges:
        return False
    if sorted(a.face_keys()) != sorted(b.face_keys()):
        return False
    return not a.is_graph or a.face_keys()[a.outer_face] == b.face_keys()[b.outer_face]
