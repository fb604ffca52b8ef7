import tracemalloc

import numpy as np
import pytest
from scipy.spatial import Delaunay

from edgesym import gallery, planegraph
from edgesym.errors import (
    DimensionMismatch,
    Disconnected,
    DuplicateLabel,
    EdgeCrossing,
    FaceNotOnBoundary,
    InvalidPlaneGraph,
    NonConvexBoundedFace,
    NonSimpleOuterBoundary,
    NotCombinatoriallyEquivalent,
)
from edgesym.geom import polygon_area
from edgesym.planegraph import (
    assemble_congruence,
    boundary_decomposition,
    build_plane_graph,
)
from edgesym.verify import random_triangulation
from oracles import per_call_best_fit_isometry, rotation2


def two_triangles():
    return build_plane_graph(
        [("1", (0, 0)), ("2", (1, 0)), ("3", (0.5, 1)), ("4", (0.5, -1))],
        [("1", "2"), ("2", "3"), ("3", "1"), ("1", "4"), ("4", "2")],
    )


def central_with_two_ears():
    return build_plane_graph(
        [("1", (0, 0)), ("2", (2, 0)), ("3", (1, 1.5)), ("4", (-0.9, 1.2)), ("5", (2.9, 1.2))],
        [("1", "2"), ("2", "3"), ("3", "1"), ("1", "4"), ("4", "3"), ("2", "5"), ("5", "3")],
    )


class TestBuild:
    def test_unit_square(self):
        G = gallery("square")
        assert len(G.bounded_faces()) == 1
        outer = G.map.faces[G.map.outer_face]
        assert set(outer) == {"1", "2", "3", "4"}

    def test_hex_three_rhombi(self):
        G = gallery("hex_three_rhombi")
        assert len(G.map.vertices) == 7
        assert len(G.edges) == 9
        assert len(G.bounded_faces()) == 3
        assert all(len(G.map.faces[f]) == 4 for f in G.bounded_faces())

    def test_parallelogram_valid(self):
        G = gallery("parallelogram")
        assert len(G.bounded_faces()) == 1

    def test_bounded_faces_ccw(self):
        G = gallery("hex_three_rhombi")
        for fi in G.bounded_faces():
            poly = G.vertices.take(G.map.faces[fi])
            nxt = np.roll(poly, -1, axis=0)
            area = 0.5 * (poly[:, 0] * nxt[:, 1] - poly[:, 1] * nxt[:, 0]).sum()
            assert area > 0

    def test_euler_relation(self):
        G = gallery("twisted_squares:4:2:10")
        V, E, F = len(G.map.vertices), len(G.map.edges), len(G.map.faces)
        assert V - E + F == 2

    def test_crossing_rejected(self):
        with pytest.raises(EdgeCrossing):
            build_plane_graph(
                [("1", (0, 0)), ("2", (2, 0)), ("3", (2, 2)), ("4", (0, 2))],
                [("1", "3"), ("2", "4"), ("1", "2"), ("3", "4")],
            )

    @pytest.mark.parametrize("block", [None, 1, 2, 5])
    def test_first_crossing_pair_reported(self, monkeypatch, block):
        # sorted edges: (1,5) (1,7) (2,4) (3,4) (3,6) (5,8) (6,7); (1,7) crosses
        # (5,8) and (2,4) crosses (3,6), and pair order puts (1,7)x(5,8) first
        if block is not None:
            monkeypatch.setattr(planegraph, "_PAIR_BLOCK", block)
        points = [("1", (0, 0)), ("5", (2, 0)), ("7", (2, 2)), ("8", (0, 2)),
                  ("2", (5, 0)), ("3", (7, 0)), ("4", (7, 2)), ("6", (5, 2))]
        edges = [("6", "7"), ("3", "6"), ("2", "4"), ("5", "8"), ("1", "7"),
                 ("3", "4"), ("1", "5")]
        with pytest.raises(EdgeCrossing, match=r"^edges \('1', '7'\) and \('5', '8'\) "):
            build_plane_graph(points, edges)

    def test_crossing_check_memory_bounded(self):
        pts = np.random.default_rng(600).random((600, 2))
        edges = set()
        for simplex in Delaunay(pts).simplices:
            a, b, c = sorted(int(x) for x in simplex)
            edges |= {(a, b), (b, c), (a, c)}
        points = [(str(i), p) for i, p in enumerate(pts)]
        edges = [(str(a), str(b)) for a, b in sorted(edges)]
        tracemalloc.start()
        try:
            G = build_plane_graph(points, edges)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(G.edges) > 1700
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.0f} MiB"

    def test_touching_edge_rejected(self):
        with pytest.raises(EdgeCrossing):
            build_plane_graph(
                [("1", (0, 0)), ("2", (2, 0)), ("3", (1, 1)), ("4", (1, -1)), ("5", (1, 0))],
                [("1", "2"), ("2", "3"), ("3", "1"), ("1", "4"), ("4", "2"), ("3", "5")],
            )

    def test_nonconvex_face_rejected(self):
        with pytest.raises(NonConvexBoundedFace):
            build_plane_graph(
                [("1", (0, 0)), ("2", (2, 0)), ("3", (2, 2)), ("4", (1, 0.5)), ("5", (0, 2))],
                [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("5", "1"), ("3", "5")],
            )

    def test_near_straight_vertex_rejected(self):
        with pytest.raises(NonConvexBoundedFace):
            build_plane_graph(
                [("1", (0, 0)), ("2", (1, 0)), ("3", (2, 1e-12)), ("4", (1, 2))],
                [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")],
            )

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            build_plane_graph(
                [("1", (0, 0)), ("2", (1, 0)), ("3", (0, 1)),
                 ("4", (5, 5)), ("5", (6, 5)), ("6", (5, 6))],
                [("1", "2"), ("2", "3"), ("3", "1"), ("4", "5"), ("5", "6"), ("6", "4")],
            )

    def test_dangling_edge_rejected(self):
        with pytest.raises(NonSimpleOuterBoundary):
            build_plane_graph(
                [("1", (0, 0)), ("2", (1, 0)), ("3", (0, 1)), ("4", (2, 0))],
                [("1", "2"), ("2", "3"), ("3", "1"), ("2", "4")],
            )

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            build_plane_graph(
                [("1", (0, 0)), ("1", (1, 0)), ("3", (0, 1))],
                [("1", "3")],
            )

    def test_wrong_dimension(self):
        with pytest.raises(DimensionMismatch):
            build_plane_graph([("1", (0, 0, 0)), ("2", (1, 0, 0)), ("3", (0, 1, 0))],
                              [("1", "2")])

    @pytest.mark.parametrize("points, edges, message", [
        ([("1", (0, 0)), ("2", (1, 0))], [("1", "2")], "at least 3 vertices"),
        ([("1", (0, 0)), ("2", (1, 0)), ("3", (0, 1))], [("1", "9")], "unknown vertex label"),
        ([("1", (0, 0)), ("2", (1, 0)), ("3", (0, 1))], [("2", "2")], "self-loop"),
    ])
    def test_malformed_input_typed(self, points, edges, message):
        # an EdgesymError, so the CLI exits 2, and still a ValueError
        with pytest.raises(InvalidPlaneGraph, match=message) as info:
            build_plane_graph(points, edges)
        assert isinstance(info.value, ValueError)


class TestBoundaryDecomposition:
    def test_two_triangles(self):
        G = two_triangles()
        for F in G.bounded_faces():
            pieces = boundary_decomposition(G, F)
            assert len(pieces) == 1
            assert len(pieces[0].bounded_faces()) == 1

    def test_central_triangle_with_ears(self):
        G = central_with_two_ears()
        central = next(F for F in G.bounded_faces() if set(G.map.faces[F]) == {"1", "2", "3"})
        pieces = boundary_decomposition(G, central)
        assert len(pieces) == 2
        vertex_sets = sorted(tuple(sorted(p.vertices)) for p in pieces)
        assert vertex_sets == [("1", "3", "4"), ("2", "3", "5")]

    def test_hex_rhombi_single_component(self):
        G = gallery("hex_three_rhombi")
        F = G.bounded_faces()[0]
        pieces = boundary_decomposition(G, F)
        assert len(pieces) == 1
        assert len(pieces[0].bounded_faces()) == 2

    def test_edge_partition(self):
        G = gallery("hex_three_rhombi")
        F = G.bounded_faces()[0]
        outer_edges = G.map.face_edges(G.map.outer_face)
        removed = G.map.face_edges(F) & outer_edges
        pieces = boundary_decomposition(G, F)
        union = set()
        for p in pieces:
            pe = set(p.edges)
            assert not (union & pe)
            union |= pe
        assert union == set(G.edges) - removed

    def test_interior_face_rejected(self):
        G = gallery("twisted_squares:4:2:5")
        inner = next(
            F for F in G.bounded_faces() if set(G.map.faces[F]) == {"5", "6", "7", "8"}
        )
        with pytest.raises(FaceNotOnBoundary):
            boundary_decomposition(G, inner)

    def test_outer_face_rejected(self):
        G = gallery("square")
        for face in (G.map.outer_face, -1, len(G.map.faces)):
            with pytest.raises(InvalidPlaneGraph, match="not a bounded face"):
                boundary_decomposition(G, face)


class TestAssembleCongruence:
    def test_recovers_synthetic_transform(self):
        G = random_triangulation(11, seed=3)
        R = rotation2(0.77)
        t = np.array([4.0, -2.0])
        H = build_plane_graph(
            [(l, R @ p + t) for l, p in G.vertices.items()], G.edges
        )
        iso = assemble_congruence(G, H)
        assert iso is not None
        assert np.abs(iso.linear - R).max() < 1e-10
        assert np.abs(iso.translation - t).max() < 1e-10

    def test_reflection_recovered(self):
        G = random_triangulation(9, seed=5)
        flip = np.array([[1.0, 0.0], [0.0, -1.0]])
        H = build_plane_graph([(l, flip @ p) for l, p in G.vertices.items()], G.edges)
        iso = assemble_congruence(G, H)
        assert iso is not None
        assert iso.orientation == -1
        direct, _ = per_call_best_fit_isometry(
            G.vertices.take(sorted(G.vertices)), H.vertices.take(sorted(H.vertices))
        )
        pts = G.vertices.take(sorted(G.vertices))
        assert np.linalg.norm(iso.apply(pts) - direct.apply(pts), axis=1).max() < 1e-10

    def test_near_miss_rectangle(self):
        square = gallery("square")
        rect = build_plane_graph(
            [("1", (0, 0)), ("2", (1, 0)), ("3", (1, 1.0001)), ("4", (0, 1.0001))],
            [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")],
        )
        assert assemble_congruence(square, rect) is None

    def test_self_congruence_identity(self):
        G = gallery("hex_three_rhombi")
        iso = assemble_congruence(G, G)
        assert iso is not None
        assert np.allclose(iso.linear, np.eye(2), atol=1e-12)
        assert np.allclose(iso.translation, 0.0, atol=1e-12)

    def test_face_areas_preserved(self):
        G = random_triangulation(10, seed=11)
        R = rotation2(1.3)
        H = build_plane_graph([(l, R @ p) for l, p in G.vertices.items()], G.edges)
        iso = assemble_congruence(G, H)
        for fi in G.bounded_faces():
            poly = G.vertices.take(G.map.faces[fi])
            assert polygon_area(iso.apply(poly)) == pytest.approx(
                polygon_area(poly), rel=1e-9
            )

    @pytest.mark.parametrize("n", [1000, 2000])
    def test_large_triangulation(self, n):
        # about n faces deep: past the recursion limit of a recursive assembly
        G = random_triangulation(n, 1)
        rng = np.random.default_rng(n)
        pts = G.vertices.array
        for sign in (1.0, -1.0):
            q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
            q[:, 1] *= np.sign(np.linalg.det(q)) * sign
            moved = pts @ q.T + rng.uniform(-3, 3, 2)
            H = build_plane_graph(list(zip(G.vertices.labels, moved)), G.edges)
            iso = assemble_congruence(G, H)
            assert iso is not None and iso.orientation == sign
            gap = np.linalg.norm(iso.apply(pts) - moved, axis=1).max()
            assert gap <= 1e-8 * G.vertices.diameter

    def test_large_assembly_memory(self):
        G = random_triangulation(3000, 1)
        tracemalloc.start()
        try:
            iso = assemble_congruence(G, G)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert iso is not None
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.0f} MiB"

    def test_not_equivalent_raises(self):
        square = gallery("square")
        other = build_plane_graph(
            [("1", (0, 0)), ("3", (1, 0)), ("2", (1, 1)), ("4", (0, 1))],
            [("1", "3"), ("3", "2"), ("2", "4"), ("4", "1")],
        )
        with pytest.raises(NotCombinatoriallyEquivalent):
            assemble_congruence(square, other)
