"""Combinatorial surface maps.

A map is stored as its face cycles plus, for plane graphs, the
distinguished outer face. Vertex i is the i-th label in sorted order, so
one integer-array core builds every map, from labelled cycles or from the
integer cycles of ``polytope.face_map``: canonical rotation, face sort,
edge pairing and the checks run on arrays, and the label tuples (faces,
edges, face keys) are built on first use. Everything else is derived: the
edge set, vertex degrees, and the flag graph. A flag is a mutually incident
(vertex, edge, face) triple, numbered 0..4E-1; the involutions s0/s1/s2
are int arrays that switch the vertex, the edge, and the face coordinate
respectively. A map isomorphism commutes with the three involutions, so
it is forced by the image of a single flag; `symmetry` replays that image
across the flag graph to enumerate automorphisms.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import InvalidMap

__all__ = [
    "CombinatorialMap",
    "Edge",
    "combinatorially_equivalent",
    "cycle_key",
    "edge_key",
]

Edge = tuple[str, str]


def edge_key(u: str, v: str) -> Edge:
    return (u, v) if u <= v else (v, u)


def cycle_key(cycle) -> tuple[str, ...]:
    """Orientation-free canonical form: the smaller of the two readings from
    the smallest label."""
    seq = tuple(cycle)
    i = seq.index(min(seq))
    return min(seq[i:] + seq[:i], seq[i::-1] + seq[:i:-1])


def _ranges(start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """The runs start[k], ..., start[k] + count[k] - 1, concatenated."""
    return np.repeat(start - (np.cumsum(count) - count), count) + np.arange(int(count.sum()))


def _components(n: int, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The smallest node of each node's component, for nodes 0..n-1 and
    the edges f[j] -- g[j]: each edge hooks the larger of its ends' labels
    under the smaller, then every label jumps to its label's label."""
    label = np.arange(n)
    while (label[f] != label[g]).any():
        np.minimum.at(label, np.maximum(label[f], label[g]), np.minimum(label[f], label[g]))
        label = label[label]
    return label


def _walk_cycles(group: np.ndarray, tails: np.ndarray, heads: np.ndarray,
                 n_groups: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read the directed edges tails[j] -> heads[j] (ints >= 0) of each
    group 0..n_groups-1 as one cycle, from the group's smallest tail through
    the edge leaving each head, all groups at once by repeated squaring of
    the successor map. Returns the tails in walk order, group after group,
    the number of edges of each group, and whether each group's edges fail
    to form one simple cycle."""
    n = int(max(tails.max(initial=0), heads.max(initial=0))) + 1
    key = group * n + tails
    order = np.argsort(key)
    key, heads = key[order], heads[order]
    count = np.bincount(group, minlength=n_groups)
    first = np.cumsum(count) - count
    # succ: the edge leaving the head in the same group; an unmatched head
    # stays put, and a second edge from one tail is never reached
    succ = np.minimum(np.searchsorted(key, key - key % n + heads), len(key) - 1)
    matched = key[succ] == key - key % n + heads
    succ = np.where(matched, succ, np.arange(len(key)))
    walk = np.repeat(first, count)  # walk[j]: succ applied j - first times to first
    steps, jump = np.arange(len(key)) - walk, succ
    for bit in range(int(count.max(initial=0)).bit_length()):
        move = (steps >> bit & 1).astype(bool)
        walk[move], jump = jump[walk[move]], jump[jump]
    # one simple cycle: every head matched, every edge walked once, and the
    # last edge leading back to the first
    broken = ~matched | (np.bincount(walk, minlength=len(key)) != 1)
    last = (first + count - 1)[count > 0]
    broken[last] |= succ[walk[last]] != first[count > 0]
    bad = (np.bincount(key[broken] // n, minlength=n_groups) > 0) | (count == 0)
    return key[walk] % n, count, bad


def _row_order(flat: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Stable order of the rows flat[starts[i]:starts[i] + sizes[i]] (ints
    >= 0) as tuples compare: each round ranks by one more column, padded
    below every entry, until the rows still tied are equal."""
    key, base = np.zeros(len(sizes), dtype=np.intp), int(flat.max()) + 2
    for c in range(int(sizes.max())):
        column = np.where(c < sizes, flat[starts + np.minimum(c, sizes - 1)] + 1, 0)
        key = np.unique(key * base + column, return_inverse=True)[1]
        if not (sizes[np.bincount(key)[key] > 1] > c + 1).any():
            break
    return np.argsort(key, kind="stable")


class CombinatorialMap:
    """Vertex/edge/face incidence structure of a 3-polytope surface or of a
    plane graph with a distinguished outer face.

    Faces are stored canonically rotated (smallest label first, orientation
    preserved) and sorted, so two constructions of the same map compare
    equal regardless of input order; ``face_vertices`` holds them as vertex
    indices, concatenated, face i from ``face_starts[i]`` with
    ``face_sizes[i]`` entries, and ``edge_ends`` the ends of ``edges``.
    Construction raises InvalidMap unless every edge lies in exactly two
    faces, cycles are simple, and the Euler relation V - E + F = 2 holds.
    """

    def __init__(self, faces, outer_face: Optional[int] = None):
        faces = list(map(tuple, faces))
        labels = list(map(str, itertools.chain.from_iterable(faces)))
        rank = {label: i for i, label in enumerate(sorted(set(labels)))}
        self._build(tuple(rank), np.fromiter(map(rank.get, labels), np.intp, len(labels)),
                    np.fromiter(map(len, faces), np.intp, len(faces)), outer_face)

    @classmethod
    def _from_cycles(cls, names, cycles, sizes, outer_face=None) -> "CombinatorialMap":
        """The map of ``cycles``, indices into the sorted labels ``names``,
        concatenated, of lengths ``sizes``."""
        M = cls.__new__(cls)
        M._build(names, cycles, sizes, outer_face)
        return M

    def _build(self, names, cycles, sizes, outer_face) -> None:
        n_faces, n_in = len(sizes), len(cycles)
        if not n_faces:
            raise InvalidMap("a map needs at least one face")
        starts = np.cumsum(sizes) - sizes
        face = np.repeat(np.arange(n_faces), sizes)
        pairs = np.sort(face * len(names) + cycles)
        bad = sizes < 3
        bad[pairs[1:][pairs[1:] == pairs[:-1]] // max(len(names), 1)] = True
        if bad.any():
            fi = int(np.argmax(bad))
            f = tuple(names[i] for i in cycles[starts[fi]:starts[fi] + sizes[fi]].tolist())
            raise InvalidMap(f"face cycle {f} has fewer than 3 vertices" if sizes[fi] < 3
                             else f"face cycle {f} is not simple")

        # rotate each cycle to start at its smallest vertex, then sort the faces
        at = np.arange(n_in) - starts[face]
        shift = np.flatnonzero(cycles == np.minimum.reduceat(cycles, starts)[face]) - starts
        cycles = cycles[starts[face] + (at + shift[face]) % sizes[face]]
        order = _row_order(cycles, starts, sizes)
        sizes, cycles = sizes[order], cycles[_ranges(starts[order], sizes[order])]
        if outer_face is not None:
            if not 0 <= outer_face < n_faces:
                raise InvalidMap(f"outer face index {outer_face} out of range")
            outer_face = int(np.flatnonzero(order == outer_face)[0])
        self.outer_face: Optional[int] = outer_face
        present = np.bincount(cycles, minlength=len(names)) > 0
        self.vertices: tuple[str, ...] = tuple(itertools.compress(names, present))
        self.face_vertices, self.face_sizes = (np.cumsum(present) - 1)[cycles], sizes

        # edge j runs from cycles[j] to cycles[step[j]]; the two of one
        # undirected edge are neighbours once sorted by (smaller, larger end)
        cycles, n_v, ends = self.face_vertices, len(self.vertices), np.cumsum(sizes)
        self.face_starts = ends - sizes
        step = np.arange(1, n_in + 1)
        step[ends - 1] = self.face_starts
        lo, hi = np.minimum(cycles, cycles[step]), np.maximum(cycles, cycles[step])
        by_edge = np.argsort(lo * n_v + hi, kind="stable")
        first = np.flatnonzero(np.diff((lo * n_v + hi)[by_edge], prepend=-1))
        count = np.diff(first, append=n_in)
        self.flag_face = np.repeat(np.arange(n_faces), 2 * sizes)
        face = self.flag_face[0::2][by_edge]
        bad = (count != 2) | (face[first] == face[np.minimum(first + 1, n_in - 1)])
        if bad.any():
            k = np.flatnonzero(bad)[np.argmin(by_edge[first[bad]])]  # the edge met first
            e = tuple(self.vertices[i] for i in (lo[by_edge[first[k]]], hi[by_edge[first[k]]]))
            fs = face[first[k]:first[k] + count[k]].tolist()
            raise InvalidMap(f"edge {e} lies in faces {fs}, expected two distinct faces")
        self.edge_ends = np.stack((lo, hi), axis=1)[by_edge[first]]
        if n_v - len(first) + n_faces != 2:
            raise InvalidMap(f"Euler relation fails: V={n_v} E={len(first)} F={n_faces}")
        label = _components(n_faces, face[first], face[first + 1])
        if label.any():
            raise InvalidMap("faces are not connected: no chain of shared edges joins "
                             f"{self.faces[0]} and {self.faces[np.flatnonzero(label)[0]]}")

        # flags 2j and 2j+1 lie on edge j, at its tail and at its head; s1
        # joins the head flag to the tail flag of the next edge of the face,
        # and s2 the flags at one end of an edge in its two faces
        self.flags = range(2 * n_in)
        self.flag_vertex = np.stack((cycles, cycles[step]), axis=1).ravel()
        self.s0 = np.arange(2 * n_in) ^ 1
        self.s1 = np.empty(2 * n_in, dtype=np.intp)
        self.s1[1::2], self.s1[2 * step] = 2 * step, np.arange(1, 2 * n_in, 2)
        j, k = by_edge[first], by_edge[first + 1]
        a, b = 2 * j + (cycles[j] != lo[j]), 2 * k + (cycles[k] != lo[k])
        self.s2 = np.empty(2 * n_in, dtype=np.intp)
        self.s2[a], self.s2[b], self.s2[a ^ 1], self.s2[b ^ 1] = b, a, b ^ 1, a ^ 1
        # each edge at a vertex carries two of its flags, one per side
        self.degree = np.bincount(self.flag_vertex) // 2

    @cached_property
    def faces(self) -> tuple[tuple[str, ...], ...]:
        labels = list(map(self.vertices.__getitem__, self.face_vertices.tolist()))
        starts = self.face_starts.tolist()
        return tuple(tuple(labels[s:s + n]) for s, n in zip(starts, self.face_sizes.tolist()))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(map(tuple, np.array(self.vertices, dtype=object)[self.edge_ends].tolist()))

    @property
    def is_graph(self) -> bool:
        return self.outer_face is not None

    def face_keys(self) -> tuple[tuple[str, ...], ...]:
        if "_face_keys" not in vars(self):
            self._face_keys = tuple(map(cycle_key, self.faces))
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
            f"E={len(self.edge_ends)}, F={len(self.face_sizes)})"
        )


def _face_rows(M: CombinatorialMap) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The faces as unoriented cycles of vertex indices (`cycle_key`), in
    sorted order: the rows concatenated, their sizes, and the row of the
    outer face (empty for a polytope)."""
    sizes, fv, starts = M.face_sizes, M.face_vertices, M.face_starts
    first, size = np.repeat(starts, sizes), np.repeat(sizes, sizes)
    at = np.arange(len(fv)) - first  # read backwards if the last vertex is the smaller
    rows = fv[first + np.where(fv[first + 1] > fv[first + size - 1], (size - at) % size, at)]
    order = _row_order(rows, starts, sizes)
    outer = rows[:0] if M.outer_face is None else rows[starts[M.outer_face]:][:sizes[M.outer_face]]
    return rows[_ranges(starts[order], sizes[order])], sizes[order], outer


def combinatorially_equivalent(a: CombinatorialMap, b: CombinatorialMap) -> bool:
    """Whether the identity on vertex labels extends to a map isomorphism.

    For plane graphs the isomorphism must additionally match the two outer
    faces. The flag involutions carry no orientation, so the identity
    extends exactly when both maps have the same vertices and edges and
    the same faces read as unoriented cycles (`cycle_key`), and, for plane
    graphs, outer faces with the same key; with equal vertices, these
    compare as arrays of vertex indices.
    """
    if a.is_graph != b.is_graph:
        raise ValueError("cannot compare a polytope map with a plane-graph map")
    if a.vertices != b.vertices or not np.array_equal(a.edge_ends, b.edge_ends):
        return False
    return all(map(np.array_equal, _face_rows(a), _face_rows(b)))
