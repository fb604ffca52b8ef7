"""Combinatorial symmetries of a map.

Enumeration by flag propagation, edge-length preservation filtering, and
realization by ambient isometries (global Procrustes residual against a
diameter-relative threshold).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PermutationNotASymmetry
from .geom import (
    DEFAULT_TOLERANCE,
    Isometry,
    Tolerance,
    best_fit_isometry,
    diameter_of,
)
from .maps import (
    CombinatorialMap,
    induced_vertex_and_face_maps,
    propagate_flag_map,
)

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

    def compose(self, other: "VertexPermutation") -> "VertexPermutation":
        """self after other: x -> self(other(x))."""
        if self._labels != other._labels:
            raise ValueError("permutations act on different label sets")
        return VertexPermutation._from_image(self._labels, self._image[other._image])

    def inverse(self) -> "VertexPermutation":
        return VertexPermutation._from_image(self._labels, np.argsort(self._image))

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


def _automorphisms(M: CombinatorialMap) -> list[tuple[np.ndarray, np.ndarray]]:
    """Vertex and face image arrays of every automorphism of the map,
    sorted by vertex images; see `enumerate_symmetries`."""
    vertex_degree = M.degree[M.flag_vertex]
    face_size = np.array([len(f) for f in M.faces])[M.flag_face]
    pool = np.flatnonzero(M.flag_face != M.outer_face) if M.is_graph else np.arange(len(M.flags))
    seed = int(pool[0])
    same_signature = ((vertex_degree[pool] == vertex_degree[seed])
                      & (face_size[pool] == face_size[seed]))
    found: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
    for cand in pool[same_signature].tolist():
        phi = propagate_flag_map(M, M, seed, cand)
        if phi is None:
            continue
        ind = induced_vertex_and_face_maps(M, M, phi)
        if ind is None:
            continue
        vmap, fmap = ind
        if M.is_graph and fmap[M.outer_face] != M.outer_face:
            continue
        found.setdefault(tuple(vmap.tolist()), ind)
    # index order is label order, so sorting images sorts words
    return [found[key] for key in sorted(found)]


def enumerate_symmetries(M: CombinatorialMap) -> list[VertexPermutation]:
    """All vertex permutations extending to automorphisms of the map.

    One seed flag is fixed; every signature-compatible flag is tried as its
    image and the candidate is propagated across the flag graph, which
    forces the whole automorphism (orientation-reversing ones included,
    since the flag involutions carry no orientation). Plane-graph
    automorphisms must fix the outer face. Output is sorted by
    permutation word.
    """
    return [VertexPermutation._from_image(M.vertices, vmap) for vmap, _ in _automorphisms(M)]


class _Instance:
    """Point array, diameter and edge lengths of one instance, indexed like
    ``M.vertices``; every symmetry of the instance is classified against it."""

    def __init__(self, M: CombinatorialMap, coords, tol: Tolerance):
        self.M, self.tol = M, tol
        self.points = np.array([np.asarray(coords[l], dtype=float) for l in M.vertices])
        self.diameter = diameter_of(self.points)
        index = {l: i for i, l in enumerate(M.vertices)}
        self.ends = np.array([[index[u], index[v]] for u, v in M.edges])
        u, v = self.ends.T
        self.lengths = np.linalg.norm(self.points[u] - self.points[v], axis=1)
        self.edge_codes = u * len(M.vertices) + v

    def _image(self, sigma: VertexPermutation) -> np.ndarray:
        if sigma._labels != self.M.vertices:
            raise ValueError("permutation and map act on different vertex labels")
        return sigma._image

    def edge_preserving(self, sigma: VertexPermutation) -> bool:
        a, b = self._image(sigma)[self.ends.T]
        is_edge = np.isin(np.minimum(a, b) * len(self.M.vertices) + np.maximum(a, b),
                          self.edge_codes)
        image_lengths = np.linalg.norm(self.points[a] - self.points[b], axis=1)
        eps = self.tol.length_eps(self.diameter)
        bad = ~is_edge | (np.abs(self.lengths - image_lengths) > eps)
        if not bad.any():
            return True
        first = int(np.argmax(bad))
        if not is_edge[first]:
            u, v = self.M.edges[first]
            iu, iv = self.M.vertices[a[first]], self.M.vertices[b[first]]
            raise PermutationNotASymmetry(f"edge {{{u},{v}}} maps to non-edge {{{iu},{iv}}}")
        return False

    def realize(self, sigma: VertexPermutation) -> tuple[Isometry, float, bool]:
        """Best-fit isometry, its RMS residual, and whether the residual is
        within ``fit_eps`` times the diameter."""
        iso, rmsd = best_fit_isometry(self.points, self.points[self._image(sigma)],
                                      allow_reflection=True, tol=self.tol)
        return iso, rmsd, rmsd <= self.tol.fit_threshold(self.diameter)


def is_edge_preserving(M: CombinatorialMap, coords, sigma: VertexPermutation,
                       tol: Tolerance = DEFAULT_TOLERANCE) -> bool:
    """True iff sigma maps every edge to an edge of equal length
    (absolute-plus-relative threshold)."""
    return _Instance(M, coords, tol).edge_preserving(sigma)


def realize(M: CombinatorialMap, coords, sigma: VertexPermutation,
            tol: Tolerance = DEFAULT_TOLERANCE) -> Optional[tuple[Isometry, float]]:
    """The isometry taking each vertex to the position of its sigma-image,
    if one fits within ``fit_eps`` times the diameter; None otherwise."""
    iso, rmsd, realized = _Instance(M, coords, tol).realize(sigma)
    return (iso, rmsd) if realized else None


@dataclass(frozen=True)
class SymmetryRecord:
    """Classification of one combinatorial symmetry."""

    sigma: VertexPermutation
    face_image: tuple[int, ...]
    edge_preserving: bool
    realized: bool
    isometry: Optional[Isometry]
    rmsd: float
    orientation: Optional[int]

    def to_dict(self) -> dict:
        doc = {
            "sigma": self.sigma.cycle_notation(),
            "face_image": list(self.face_image),
            "edge_preserving": self.edge_preserving,
            "realized": self.realized,
            "rmsd": float(self.rmsd),
        }
        doc["orientation"] = self.orientation if self.realized else None
        doc["isometry"] = self.isometry.to_dict() if self.isometry is not None else None
        return doc


@dataclass(frozen=True)
class SymmetryReport:
    """All combinatorial symmetries of one instance with their flags."""

    instance_id: str
    total: int
    edge_preserving_count: int
    realized_count: int
    records: tuple[SymmetryRecord, ...]
    group_closed: bool

    @property
    def counts(self) -> tuple[int, int, int]:
        return (self.total, self.edge_preserving_count, self.realized_count)

    def to_dict(self) -> dict:
        return {
            "kind": "symmetry_report",
            "instance_id": self.instance_id,
            "counts": {
                "total": self.total,
                "edge_preserving": self.edge_preserving_count,
                "realized": self.realized_count,
            },
            "group_closed": self.group_closed,
            "records": [r.to_dict() for r in self.records],
        }


def _group_closed(perms: list[VertexPermutation]) -> bool:
    images = np.array([p._image for p in perms])
    members = {row.tobytes() for row in images}
    for a in images:
        if np.argsort(a).tobytes() not in members:
            return False
        # row j is a after perms[j]
        if any(row.tobytes() not in members for row in a[images]):
            return False
    return True


def analyze(M: CombinatorialMap, coords, tol: Tolerance = DEFAULT_TOLERANCE,
            instance_id: str = "") -> SymmetryReport:
    """Enumerate, filter, and attempt to realize every combinatorial
    symmetry; records come back sorted by permutation word."""
    inst = _Instance(M, coords, tol)
    tol.warn_if_coarse(inst.diameter)
    automorphisms = _automorphisms(M)
    perms = [VertexPermutation._from_image(M.vertices, vmap) for vmap, _ in automorphisms]
    records = []
    for sigma, (_, fmap) in zip(perms, automorphisms):
        face_image = tuple(fmap.tolist())
        edge_ok = inst.edge_preserving(sigma)
        iso, rmsd, realized = inst.realize(sigma)
        if realized and not edge_ok:
            raise AssertionError(
                f"symmetry {sigma.cycle_notation()} realized but not edge-preserving"
            )
        records.append(
            SymmetryRecord(
                sigma=sigma,
                face_image=face_image,
                edge_preserving=edge_ok,
                realized=realized,
                isometry=iso if realized else None,
                rmsd=rmsd,
                orientation=iso.orientation if realized else None,
            )
        )
    identity = next((r for r in records if r.sigma.is_identity()), None)
    if identity is None or not identity.realized:
        raise AssertionError("identity permutation missing or unrealized")
    return SymmetryReport(
        instance_id=instance_id,
        total=len(records),
        edge_preserving_count=sum(r.edge_preserving for r in records),
        realized_count=sum(r.realized for r in records),
        records=tuple(records),
        group_closed=_group_closed(perms),
    )
