"""Combinatorial symmetries of a map.

Enumeration by colour refinement and batched flag replay, edge-length
preservation filtering, and realization by ambient isometries (global
Procrustes residual against a diameter-relative threshold), all on arrays
of vertex images.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import IndexSetMismatch, PermutationNotASymmetry
from .geom import (DEFAULT_TOLERANCE, Isometry, LabelledPoints, Tolerance, _as_points,
                   _diameter_bracket, _procrustes, _row_blocks)
from .maps import CombinatorialMap

__all__ = [
    "SymmetryRecord",
    "SymmetryReport",
    "VertexPermutation",
    "analyze",
    "enumerate_symmetries",
    "is_edge_preserving",
    "realize",
]


class VertexPermutation:
    """A bijection of vertex index labels, held as the image index of each
    label in sorted label order."""

    __slots__ = ("_labels", "_image")

    def __init__(self, mapping):
        m = {str(k): str(v) for k, v in dict(mapping).items()}
        labels = tuple(sorted(m))
        if set(m.values()) != set(labels):
            raise ValueError("mapping is not a bijection on its label set")
        self._labels = labels
        self._image = np.searchsorted(np.array(labels), [m[l] for l in labels])

    @classmethod
    def _from_image(cls, labels: tuple[str, ...], image: np.ndarray) -> "VertexPermutation":
        perm = cls.__new__(cls)
        perm._labels = labels
        perm._image = image
        return perm

    @classmethod
    def identity(cls, labels) -> "VertexPermutation":
        labels = tuple(sorted(str(l) for l in labels))
        return cls._from_image(labels, np.arange(len(labels)))

    @property
    def word(self) -> tuple[str, ...]:
        """Images of the sorted labels; the canonical sort key."""
        return tuple(self._labels[i] for i in self._image.tolist())

    def __call__(self, label) -> str:
        return self._labels[self._image[self._labels.index(str(label))]]

    def is_identity(self) -> bool:
        return bool((self._image == np.arange(len(self._image))).all())

    def cycle_notation(self) -> str:
        """Nontrivial cycles, each from its smallest label, in label order;
        "()" for the identity."""
        image = self._image.tolist()
        seen: set[int] = set()
        out = ""
        for start in range(len(image)):
            if start in seen or image[start] == start:
                continue
            cyc = [start]
            while image[cyc[-1]] != start:
                cyc.append(image[cyc[-1]])
            seen.update(cyc)
            out += "(" + " ".join(self._labels[i] for i in cyc) + ")"
        return out or "()"

    def __eq__(self, other) -> bool:
        if not isinstance(other, VertexPermutation):
            return NotImplemented
        return self._labels == other._labels and bool((self._image == other._image).all())

    def __hash__(self) -> int:
        return hash((self._labels, self._image.tobytes()))

    def __repr__(self) -> str:
        return f"VertexPermutation({self.cycle_notation()})"


# Colour refinement stops after this many rounds even if cells still
# split; on a random sphere of 3000 points the seed is alone in its cell
# after 6.
_REFINE_ROUNDS = 16


def _flag_colours(M: CombinatorialMap, seed: int) -> np.ndarray:
    """Flag colours that every automorphism of the map (fixing the outer
    face of a plane graph) preserves.

    Starts from (vertex degree, face size, on the outer face) and refines by
    the colours of the s0/s1/s2 neighbours until the partition stops
    splitting, the seed is alone in its cell, or _REFINE_ROUNDS rounds have
    run. The four colours of a refinement key are packed into one int,
    renumbered by np.unique whenever the next one would overflow int64.
    """
    n = len(M.flags)
    key = M.degree[M.flag_vertex] * n + np.bincount(M.flag_face)[M.flag_face]
    if M.is_graph:
        key = 2 * key + (M.flag_face == M.outer_face)
    colours = np.unique(key, return_inverse=True)[1]
    for _ in range(_REFINE_ROUNDS):
        cells = int(colours.max()) + 1
        if cells == n or np.count_nonzero(colours == colours[seed]) == 1:
            break
        refined, bound = colours, cells
        for s in (M.s0, M.s1, M.s2):
            if bound * cells >= 1 << 63:
                refined = np.unique(refined, return_inverse=True)[1]
                bound = int(refined.max()) + 1
            refined = refined * cells + colours[s]
            bound *= cells
        refined = np.unique(refined, return_inverse=True)[1]
        if refined.max() + 1 == cells:
            break
        colours = refined
    return colours


def _flag_tree(M: CombinatorialMap, seed: int):
    """Breadth-first tree of the flag graph, which is connected, from the
    seed.

    Returns the levels of the tree, each as arrays (flags, parents,
    involution) with flags = S[involution, parents] for S = (s0, s1, s2),
    and the flag-graph edges outside the tree, one direction each, as
    arrays (flags, involution).
    """
    S = np.stack((M.s0, M.s1, M.s2))
    seen = np.zeros(len(M.flags), dtype=bool)
    seen[seed] = True
    outside = S > np.arange(len(M.flags))
    levels = []
    frontier = np.array([seed])
    while True:
        flags = S[:, frontier].ravel()
        new = np.flatnonzero(~seen[flags])
        if not len(new):
            break
        children, first = np.unique(flags[new], return_index=True)
        new = new[first]
        parents, involution = frontier[new % len(frontier)], new // len(frontier)
        levels.append((children, parents, involution))
        outside[involution, np.minimum(children, parents)] = False
        seen[children] = True
        frontier = children
    involution, flags = np.nonzero(outside)
    return levels, (flags, involution)


def _automorphisms(M: CombinatorialMap) -> tuple[np.ndarray, np.ndarray]:
    """Vertex and face image arrays, one row per automorphism of the map,
    sorted by vertex images; see `enumerate_symmetries`. Colours are
    refined first: a seed alone in its cell gives the identity alone,
    without building the flag tree."""
    seed = int(np.argmax(M.flag_face != M.outer_face)) if M.is_graph else 0
    colours = _flag_colours(M, seed)
    candidates = np.flatnonzero(colours == colours[seed])
    if len(candidates) == 1:
        return np.arange(len(M.vertices))[None], np.arange(len(M.face_sizes))[None]
    levels, (loose, loose_involution) = _flag_tree(M, seed)
    S = np.stack((M.s0, M.s1, M.s2))
    vertex_flag = np.unique(M.flag_vertex, return_index=True)[1]
    face_flag = np.unique(M.flag_face, return_index=True)[1]
    vmaps, fmaps = [], []
    for block in _row_blocks(len(candidates), len(M.flags)):
        # column c: the image of every flag if the seed goes to candidate c
        phi = np.empty((len(M.flags), len(candidates[block])), dtype=np.intp)
        phi[seed] = candidates[block]
        for flags, parents, involution in levels:
            phi[flags] = S[involution[:, None], phi[parents]]
        # phi commutes with s0, s1, s2 along the tree by construction; where
        # it does along the other edges too, it is an automorphism, so every
        # flag of a vertex or face gives the same image
        ok = (phi[S[loose_involution, loose]]
              == S[loose_involution[:, None], phi[loose]]).all(axis=0)
        if M.is_graph:
            ok &= M.flag_face[phi[face_flag[M.outer_face]]] == M.outer_face
        vmaps.append(M.flag_vertex[phi[vertex_flag][:, ok]].T)
        fmaps.append(M.flag_face[phi[face_flag][:, ok]].T)
    # rows in lexicographic order; among equal vertex images (two-face maps,
    # whose faces share their vertices) the first candidate's face images
    vmaps, first = np.unique(np.concatenate(vmaps), axis=0, return_index=True)
    return vmaps, np.concatenate(fmaps)[first]


def enumerate_symmetries(M: CombinatorialMap) -> list[VertexPermutation]:
    """All vertex permutations extending to automorphisms of the map.

    An automorphism commutes with the flag involutions, so the image of one
    seed flag forces it (orientation-reversing ones included, since the
    involutions carry no orientation) on the connected flag graph that
    `CombinatorialMap` guarantees. Colour refinement on the flag graph
    keeps as candidate images only the flags that share the seed's colour;
    if the seed is alone in its cell the group is the identity, and no
    flag tree is built. Otherwise all candidates are replayed together
    along the breadth-first tree of the flag graph, and those whose flag
    maps commute with s0, s1 and s2 are kept. Refinement never prunes an
    automorphism, so these are all of them, and they form a group.
    Plane-graph automorphisms must fix the outer face, which keeps a
    subgroup. Output is sorted by permutation word.
    """
    return [VertexPermutation._from_image(M.vertices, vmap) for vmap in _automorphisms(M)[0]]


class _Instance:
    """Point array and edge lengths of one instance, indexed like
    ``M.vertices``, whose labels the ``coords`` mapping must carry exactly;
    every symmetry of the instance is classified against it, at both ends
    of an O(n) bracket L <= d <= U of the diameter d, and at the exact,
    cached ``coords.diameter`` only where the two disagree."""

    def __init__(self, M: CombinatorialMap, coords, tol: Tolerance):
        self.M, self.tol = M, tol
        self.coords = coords = LabelledPoints.of(coords)
        if set(coords.index) != set(M.vertices):
            unshared = sorted(set(coords.index) ^ set(M.vertices))
            raise IndexSetMismatch(f"labels {unshared} are not shared by coordinates and map")
        self.points = coords.take(M.vertices)
        self.bracket = _diameter_bracket(self.points)
        u, v = M.edge_ends.T
        self.lengths = np.linalg.norm(self.points[u] - self.points[v], axis=1)
        # sorted, since M.edges and M.vertices are
        self.edge_codes = u * len(M.vertices) + v

    def _decide(self, rule) -> np.ndarray:
        """``rule(d)``, a boolean array monotone in d, at the diameter: where
        it agrees at L and U, it holds at every d between them."""
        low, high = map(rule, self.bracket)
        if np.array_equal(low, high):
            return low
        self.bracket = (self.coords.diameter,) * 2  # later decisions take it too
        return rule(self.bracket[0])

    def image_row(self, sigma: VertexPermutation) -> np.ndarray:
        if sigma._labels != self.M.vertices:
            raise ValueError("permutation and map act on different vertex labels")
        return sigma._image[None]

    def classify(self, images: np.ndarray):
        """Edge test and best-fit isometry of every row of vertex images,
        in blocks of rows.

        Returns ``edge_ok`` (every edge maps to an edge of equal length,
        within the absolute-plus-relative threshold), ``offending`` (the
        first edge in ``M.edges`` order failing that test if it maps to a
        non-edge, else -1) and the stacked orthogonal Procrustes fits as
        (linear parts, translations, RMS residuals, realized). Realized
        rows are edge-preserving, with a residual within ``fit_eps`` times
        the diameter: an isometry preserves every edge length.
        """
        n, n_e = len(self.points), len(self.lengths)
        edge_ok, offending = [], []
        for block in _row_blocks(len(images), n_e):
            ends = images[block][:, self.M.edge_ends]
            a, b = ends[..., 0], ends[..., 1]
            codes = np.minimum(a, b) * n + np.maximum(a, b)
            hit = np.minimum(np.searchsorted(self.edge_codes, codes), n_e - 1)
            is_edge = self.edge_codes[hit] == codes
            gap = np.abs(self.lengths - self.lengths[hit])
            bad = ~is_edge | self._decide(lambda d: gap > self.tol.length_eps(d))
            rows, first = np.arange(len(bad)), bad.argmax(axis=1)
            edge_ok.append(~bad[rows, first])
            offending.append(np.where(bad[rows, first] & ~is_edge[rows, first], first, -1))
        edge_ok, offending = np.concatenate(edge_ok), np.concatenate(offending)
        v0 = self.points[0]  # fit relative to a vertex, so that no translation cancels
        A = _as_points(self.points - v0)
        fits = [_procrustes(A, A[images[block]]) for block in _row_blocks(len(images), A.size)]
        linear, translation, rmsd = map(np.concatenate, zip(*fits))
        translation = translation + v0 - linear @ v0
        return edge_ok, offending, (linear, translation, rmsd, edge_ok & self._decide(
            lambda d: rmsd <= self.tol.fit_threshold(d)))


def is_edge_preserving(M: CombinatorialMap, coords, sigma: VertexPermutation,
                       tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True iff sigma maps every edge to an edge of equal length
    (absolute-plus-relative threshold). Raises PermutationNotASymmetry if
    the first edge, in ``M.edges`` order, failing that maps to a non-edge."""
    inst = _Instance(M, coords, tol)
    row = inst.image_row(sigma)
    edge_ok, offending, _ = inst.classify(row)
    first = int(offending[0])
    if first >= 0:
        u, v = M.edges[first]
        iu, iv = (M.vertices[i] for i in row[0, M.edge_ends[first]])
        raise PermutationNotASymmetry(f"edge {{{u},{v}}} maps to non-edge {{{iu},{iv}}}")
    return bool(edge_ok[0])


def realize(M: CombinatorialMap, coords, sigma: VertexPermutation,
            tol: Tolerance = DEFAULT_TOLERANCE) -> Optional[tuple[Isometry, float]]:
    """The isometry taking each vertex to the position of its sigma-image,
    if sigma is edge-preserving and one fits within ``fit_eps`` times the
    diameter; None otherwise, so realized implies edge-preserving."""
    inst = _Instance(M, coords, tol)
    linear, translation, rmsd, realized = inst.classify(inst.image_row(sigma))[2]
    return (Isometry(linear[0], translation[0]), float(rmsd[0])) if realized[0] else None


@dataclass(frozen=True)
class SymmetryRecord:
    """Classification of one combinatorial symmetry: ``isometry`` is the
    isometry realizing it, or None if none fits or the symmetry is not
    edge-preserving; realized implies edge-preserving."""

    sigma: VertexPermutation
    face_image: tuple[int, ...]
    edge_preserving: bool
    isometry: Optional[Isometry]
    rmsd: float

    @property
    def realized(self) -> bool:
        return self.isometry is not None

    @property
    def orientation(self) -> Optional[int]:
        return None if self.isometry is None else self.isometry.orientation

    def to_dict(self) -> dict:
        return {
            "sigma": self.sigma.cycle_notation(),
            "face_image": list(self.face_image),
            "edge_preserving": self.edge_preserving,
            "realized": self.realized,
            "rmsd": float(self.rmsd),
            "orientation": self.orientation,
            "isometry": None if self.isometry is None else self.isometry.to_dict(),
        }


@dataclass(frozen=True)
class SymmetryReport:
    """All combinatorial symmetries of one instance with their flags."""

    instance_id: str
    records: tuple[SymmetryRecord, ...]

    @property
    def total(self) -> int:
        return len(self.records)

    @property
    def edge_preserving_count(self) -> int:
        return sum(r.edge_preserving for r in self.records)

    @property
    def realized_count(self) -> int:
        return sum(r.realized for r in self.records)

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.total, self.edge_preserving_count, self.realized_count)

    def counts_doc(self) -> dict:
        """The counts as the symmetry report and the theorem verdict print them."""
        return dict(zip(("total", "edge_preserving", "realized"), self.counts))

    def to_dict(self) -> dict:
        return {
            "kind": "symmetry_report",
            "instance_id": self.instance_id,
            "counts": self.counts_doc(),
            "group_closed": True,  # automorphisms form a group; see enumerate_symmetries
            "records": [r.to_dict() for r in self.records],
        }


def analyze(M: CombinatorialMap, coords, tol: Tolerance = DEFAULT_TOLERANCE,
            instance_id: str = "") -> SymmetryReport:
    """Enumerate, filter, and attempt to realize every combinatorial
    symmetry; records come back sorted by permutation word."""
    inst = _Instance(M, coords, tol)
    vmaps, fmaps = _automorphisms(M)
    perms = [VertexPermutation._from_image(M.vertices, vmap) for vmap in vmaps]
    edge_ok, _, (linear, translation, rmsd, realized) = inst.classify(vmaps)
    at = np.flatnonzero(realized).tolist()
    isometries = dict(zip(at, Isometry._from_stack(linear[at], translation[at])))
    records = tuple(
        SymmetryRecord(
            sigma=sigma,
            face_image=tuple(face_image),
            edge_preserving=bool(edge_ok[i]),
            isometry=isometries.get(i),
            rmsd=float(rmsd[i]),
        )
        for i, (sigma, face_image) in enumerate(zip(perms, fmaps.tolist()))
    )
    identity = next((r for r in records if r.sigma.is_identity()), None)
    if identity is None or not identity.realized:
        raise AssertionError("identity permutation missing or unrealized")
    return SymmetryReport(instance_id=instance_id, records=records)
