"""Theorem-level verdicts and random instance generators.

Classifies each instance by whether the all-faces-inscribed hypothesis
holds and whether every edge-preserving symmetry is realized. The
combination "hypothesis holds but some edge-preserving symmetry is
unrealized" is the falsification alarm and must never occur on valid
input.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EdgesymError
from .gallery import twisted_squares
from .geom import DEFAULT_TOLERANCE, LabelledPoints, Tolerance, _fit_circles
from .maps import CombinatorialMap
from .planegraph import ConvexPlaneGraph, build_plane_graph
from .polytope import IndexedPolytope, build_polytope, face_map
from .symmetry import SymmetryRecord, SymmetryReport, analyze

__all__ = [
    "CLASS_APPLIES",
    "CLASS_FAILS_FAILS",
    "CLASS_FAILS_HOLDS",
    "CLASS_VIOLATION",
    "TheoremVerdict",
    "TwistedSquaresReport",
    "random_inscribed_polytope",
    "random_triangulation",
    "twisted_squares_check",
    "verify_graph_theorem",
    "verify_polytope_theorem",
]

CLASS_APPLIES = "theorem-applies-and-holds"
CLASS_FAILS_HOLDS = "hypothesis-fails-conclusion-holds"
CLASS_FAILS_FAILS = "hypothesis-fails-conclusion-fails"
CLASS_VIOLATION = "THEOREM-VIOLATION"


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of checking one instance against the inscribed-faces
    sufficient condition."""

    hypothesis_holds: bool
    worst_face_residual: float
    conclusion_holds: bool
    violations: tuple[SymmetryRecord, ...]
    classification: str
    report: SymmetryReport

    def to_dict(self) -> dict:
        return {
            "kind": "theorem_verdict",
            "classification": self.classification,
            "hypothesis_holds": self.hypothesis_holds,
            "worst_face_residual": float(self.worst_face_residual),
            "conclusion_holds": self.conclusion_holds,
            "counts": {
                "total": self.report.total,
                "edge_preserving": self.report.edge_preserving_count,
                "realized": self.report.realized_count,
            },
            "violations": [r.to_dict() for r in self.violations],
        }


def _classify(hyp: bool, concl: bool) -> str:
    if hyp and concl:
        return CLASS_APPLIES
    if hyp and not concl:
        return CLASS_VIOLATION
    if concl:
        return CLASS_FAILS_HOLDS
    return CLASS_FAILS_FAILS


def _verdict(M: CombinatorialMap, coords: LabelledPoints, tol: Tolerance,
             instance_id: str) -> TheoremVerdict:
    points, sizes = coords.take(M.vertices), M.face_sizes.copy()
    starts = np.cumsum(sizes) - sizes
    if M.is_graph:
        sizes[M.outer_face] = 0  # the outer face need not be inscribed
    hyp, worst, failed = True, 0.0, {}
    for size in np.unique(sizes[sizes > 0]):  # one stack of faces per size
        at = np.flatnonzero(sizes == size)
        rows = M.face_vertices[starts[at, None] + np.arange(size)]
        bad, fits = _fit_circles(points[rows], tol)
        if bad:
            failed[at[bad[0]]] = bad[1]
        else:
            hyp = hyp and bool(fits[0].all())
            worst = max(worst, float(np.fmax.reduce(fits[3])))  # fmax passes over NaN, as max does
    if failed:
        raise failed[min(failed)]  # the first failing face in face order
    report = analyze(M, coords, tol, instance_id=instance_id)
    violations = tuple(r for r in report.records if r.edge_preserving and not r.realized)
    concl = not violations
    return TheoremVerdict(
        hypothesis_holds=hyp,
        worst_face_residual=worst,
        conclusion_holds=concl,
        violations=violations,
        classification=_classify(hyp, concl),
        report=report,
    )


def verify_polytope_theorem(P: IndexedPolytope, tol: Tolerance = DEFAULT_TOLERANCE,
                            instance_id: str = "polytope") -> TheoremVerdict:
    """Inscribed test on every face of the polytope plus full symmetry
    analysis, composed into a verdict."""
    return _verdict(face_map(P, tol), P.vertices, tol, instance_id)


def verify_graph_theorem(G: ConvexPlaneGraph, tol: Tolerance = DEFAULT_TOLERANCE,
                         instance_id: str = "graph") -> TheoremVerdict:
    """Same composition over the bounded faces of a convex plane graph."""
    return _verdict(G.map, G.vertices, tol, instance_id)


def random_inscribed_polytope(n: int, seed: int) -> IndexedPolytope:
    """Convex hull of n seeded uniform points on the unit sphere.

    Every face is inscribed by construction: generic faces are triangles,
    and merged coplanar faces are concyclic because their vertices lie on
    a sphere-plane intersection.
    """
    if n < 4:
        raise ValueError(f"need n >= 4, got {n}")
    rng = np.random.default_rng(seed)
    for _ in range(100):
        pts = rng.normal(size=(n, 3))
        norms = np.linalg.norm(pts, axis=1)
        if norms.min() < 1e-9:
            continue
        pts /= norms[:, None]
        try:
            return build_polytope([(str(i + 1), pts[i]) for i in range(n)])
        except EdgesymError:
            continue
    raise RuntimeError(f"no valid inscribed polytope for n={n} after 100 attempts")


def random_triangulation(n: int, seed: int,
                         tol: Tolerance = DEFAULT_TOLERANCE) -> ConvexPlaneGraph:
    """Delaunay triangulation of n seeded uniform points in the unit square,
    as a convex plane graph (all bounded faces triangles)."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    from scipy.spatial import Delaunay  # imported here: scipy.spatial loads slowly

    rng = np.random.default_rng(seed)
    for _ in range(100):
        pts = rng.random((n, 2))
        tri = Delaunay(pts)
        edges = set()
        for simplex in tri.simplices:
            a, b, c = (int(x) for x in simplex)
            edges |= {(min(a, b), max(a, b)), (min(b, c), max(b, c)), (min(a, c), max(a, c))}
        try:
            return build_plane_graph(
                [(str(i + 1), pts[i]) for i in range(n)],
                [(str(a + 1), str(b + 1)) for a, b in sorted(edges)],
                tol,
            )
        except EdgesymError:
            continue
    raise RuntimeError(f"no valid triangulation for n={n} after 100 attempts")


@dataclass(frozen=True)
class TwistedSquaresReport:
    """Spoke length of the twisted two-squares graph against the length the
    fully symmetric configuration would force."""

    len_twisted: float
    len_forced: float
    refuted: bool

    def to_dict(self) -> dict:
        return {
            "kind": "twisted_squares_report",
            "len_twisted": float(self.len_twisted),
            "len_forced": float(self.len_forced),
            "refuted": self.refuted,
        }


def twisted_squares_check(s_out: float, s_in: float, alpha_deg: float,
                          tol: Tolerance = DEFAULT_TOLERANCE) -> TwistedSquaresReport:
    """Compare the built spoke |v1 - v5| with the spoke length forced by
    realizing the side-swap symmetries (concentric parallel squares, where
    the spoke is the circumradius difference). A mismatch shows no
    edge-length-preserving symmetric re-embedding exists.
    """
    G = twisted_squares(s_out, s_in, alpha_deg, tol)
    len_twisted = float(np.linalg.norm(G.vertices["1"] - G.vertices["5"]))
    len_forced = float((s_out - s_in) * np.sqrt(2.0) / 2.0)
    gap = abs(len_twisted - len_forced)
    return TwistedSquaresReport(
        len_twisted=len_twisted,
        len_forced=len_forced,
        refuted=bool(gap > tol.length_eps(G.vertices.diameter)),
    )
