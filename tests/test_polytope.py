import math

import numpy as np
import pytest

from edgesym import gallery
from edgesym.errors import (
    DegenerateFaceMerge,
    DuplicateLabel,
    IndexSetMismatch,
    NonExtremePoint,
    NotFullDimensional,
)
from edgesym.geom import DEFAULT_TOLERANCE, Tolerance
from edgesym.maps import combinatorially_equivalent, edge_key
from edgesym.polytope import IndexedPolytope, build_polytope, congruent, face_map
from edgesym.verify import random_inscribed_polytope, verify_polytope_theorem
from oracles import oracle_cycle_key, square_isometries, union_find_face_map

CUBE_POINTS = [(str(i), p) for i, p in enumerate(
    [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
)]


class TestBuildPolytope:
    def test_cube_is_valid(self):
        P = build_polytope(CUBE_POINTS)
        assert len(P.vertices) == 8
        assert P.vertices.diameter == pytest.approx(math.sqrt(3))

    def test_interior_point_rejected(self):
        with pytest.raises(NonExtremePoint, match="9"):
            build_polytope(CUBE_POINTS + [("9", (0.5, 0.5, 0.5))])

    def test_boundary_point_rejected(self):
        with pytest.raises(NonExtremePoint):
            build_polytope(CUBE_POINTS + [("9", (0.5, 0.0, 0.0))])

    def test_coplanar_rejected(self):
        with pytest.raises(NotFullDimensional):
            build_polytope([("1", (0, 0, 0)), ("2", (1, 0, 0)), ("3", (0, 1, 0)), ("4", (1, 1, 0))])

    def test_too_few_points(self):
        with pytest.raises(NotFullDimensional):
            build_polytope([("1", (0, 0, 0)), ("2", (1, 0, 0)), ("3", (0, 1, 0))])

    def test_duplicate_label(self):
        pts = [("1", (0, 0, 0)), ("1", (1, 0, 0)), ("3", (0, 1, 0)), ("4", (0, 0, 1))]
        with pytest.raises(DuplicateLabel):
            build_polytope(pts)


class TestFaceMap:
    def test_cube_faces_exact(self, cube):
        M = face_map(cube)
        assert (len(M.vertices), len(M.edges), len(M.faces)) == (8, 12, 6)
        expected = {
            oracle_cycle_key(f)
            for f in [
                ("1", "2", "3", "4"), ("5", "6", "7", "8"),
                ("1", "2", "6", "5"), ("2", "3", "7", "6"),
                ("3", "4", "8", "7"), ("4", "1", "5", "8"),
            ]
        }
        assert {oracle_cycle_key(f) for f in M.faces} == expected

    def test_octahedron(self):
        M = face_map(gallery("octahedron"))
        assert (len(M.vertices), len(M.edges), len(M.faces)) == (6, 12, 8)
        assert all(len(f) == 3 for f in M.faces)

    def test_frustum_is_combinatorial_cube(self, cube):
        M = face_map(gallery("frustum"))
        assert (len(M.vertices), len(M.edges), len(M.faces)) == (8, 12, 6)
        assert combinatorially_equivalent(face_map(cube), M)

    def test_coplanar_merge_on_glued_solid(self):
        M = face_map(gallery("octa_tetra_glue"))
        sizes = sorted(len(f) for f in M.faces)
        assert sizes == [3, 3, 3, 3, 4, 4, 4]
        assert (len(M.vertices), len(M.edges), len(M.faces)) == (7, 12, 7)

    def test_each_edge_in_two_faces_opposite_orientation(self, cube):
        M = face_map(cube)
        directed = {}
        for f in M.faces:
            for t in range(len(f)):
                u, v = f[t], f[(t + 1) % len(f)]
                directed.setdefault(edge_key(u, v), []).append((u, v))
        for e, occ in directed.items():
            assert len(occ) == 2
            assert occ[0] == (occ[1][1], occ[1][0])

    def test_input_order_invariance(self, rng, cube):
        M = face_map(cube)
        items = list(cube.vertices.items())
        for _ in range(3):
            perm = rng.permutation(len(items))
            shuffled = build_polytope([items[i] for i in perm])
            assert face_map(shuffled) == M

    @pytest.mark.parametrize("spec,faces", [("dodecahedron", 12), ("octa_tetra_glue", 7),
                                            ("prism:40", 42)])
    @pytest.mark.parametrize("scale", [1e-3, 1e-6])
    def test_fine_tolerance_face_count_is_order_free(self, spec, faces, scale):
        # at fit_eps = 1e-9 and 1e-12 rad, cos(fit_eps) rounds to 1.0, but
        # the merge chord stays far above the normals' rounding noise
        tol = DEFAULT_TOLERANCE.scaled(scale)
        items = list(gallery(spec).vertices.items())
        rng = np.random.default_rng(6)
        for _ in range(6):
            perm = rng.permutation(len(items))
            shuffled = IndexedPolytope(dict(items[i] for i in perm))
            assert len(face_map(shuffled, tol).face_sizes) == faces

    def test_faces_ccw_from_outside(self, cube):
        M = face_map(cube)
        centroid = cube.vertices.array.mean(axis=0)
        for f in M.faces:
            pts = np.array([cube.vertices[l] for l in f])
            ref = pts.mean(axis=0)
            rel = pts - ref
            newell = np.cross(rel, np.roll(rel, -1, axis=0)).sum(axis=0)
            assert float(newell @ (ref - centroid)) > 0

    def test_merge_covering_the_whole_hull(self, cube):
        # cube normals are 90 degrees apart, below fit_eps = 2 rad
        with pytest.raises(DegenerateFaceMerge):
            face_map(cube, Tolerance(fit_eps=2.0))

    def test_merged_side_annulus(self):
        # neighbouring sides of prism:40 turn by 9 degrees, below fit_eps =
        # 0.2 rad, so the sides merge into a band with two boundary cycles
        with pytest.raises(DegenerateFaceMerge):
            face_map(gallery("prism:40"), Tolerance(fit_eps=0.2))


REFERENCE_CORPUS = (
    ["box_1_2_3", "cube", "dodecahedron", "frustum", "hex_prism", "icosahedron",
     "oblique_parallelepiped", "octa_tetra_glue", "octahedron", "tetrahedron"]
    + [f"{fam}:{n}" for fam in ("prism", "antiprism") for n in (3, 4, 5, 6, 7, 8, 16, 40, 120)]
    + [f"sphere:{n}:{seed}" for n in (10, 60, 200, 1000, 3000) for seed in range(3)]
)


@pytest.mark.parametrize("spec", REFERENCE_CORPUS)
def test_face_map_matches_union_find_reference(spec):
    """Equal maps, or the same exception class, as the union-find route,
    on the input and on a shuffled copy, at three tolerance scales; at
    the scale 1e-3 the merge chord is about 1e-9, so the chords must round
    as the reference's do."""
    if spec.startswith("sphere:"):
        _, n, seed = spec.split(":")
        P = random_inscribed_polytope(int(n), int(seed))
    else:
        P = gallery(spec)
    items = list(P.vertices.items())
    perm = np.random.default_rng(len(items)).permutation(len(items))
    for Q in (P, IndexedPolytope(dict(items[i] for i in perm))):
        for scale in (1e-3, 1.0, 10.0):
            tol = DEFAULT_TOLERANCE.scaled(scale)
            try:
                expected = union_find_face_map(Q, tol)
            except Exception as exc:
                with pytest.raises(type(exc)):
                    face_map(Q, tol)
            else:
                assert face_map(Q, tol) == expected


class TestCongruent:
    def test_transformed_prism(self):
        P = gallery("prism:4")
        theta = 0.9
        R = np.array([
            [math.cos(theta), -math.sin(theta), 0],
            [math.sin(theta), math.cos(theta), 0],
            [0, 0, 1.0],
        ])
        moved = IndexedPolytope({l: R @ p + np.array([5, -2, 1.0]) for l, p in P.vertices.items()})
        iso = congruent(P, moved)
        assert iso is not None
        assert np.allclose(iso.linear, R, atol=1e-10)

    def test_self_congruence_is_identity(self, cube):
        iso = congruent(cube, cube)
        assert iso is not None
        assert np.allclose(iso.linear, np.eye(3), atol=1e-12)
        assert np.allclose(iso.translation, 0, atol=1e-12)

    def test_symmetry_of_the_relation(self, cube):
        other = IndexedPolytope({l: 2.0 * p + 1.0 for l, p in cube.vertices.items()})
        # scaling is not an isometry: both directions must agree it fails
        assert congruent(cube, other) is None
        assert congruent(other, cube) is None

    def test_index_set_mismatch(self, cube):
        renamed = IndexedPolytope({l + "x": p for l, p in cube.vertices.items()})
        with pytest.raises(IndexSetMismatch):
            congruent(cube, renamed)

    def test_square_with_swapped_labels_not_congruent(self):
        # 2D path: swapping two adjacent labels of the unit square admits no
        # isometry; cross-checked against all 8 isometries of the square
        square = gallery("square")
        swapped = gallery("square")
        sw = dict(swapped.vertices)
        sw["1"], sw["2"] = sw["2"], sw["1"]
        swapped = type("O", (), {"vertices": sw})()
        assert congruent(square, swapped) is None
        order = sorted(square.vertices)
        src = np.array([square.vertices[l] for l in order])
        dst = np.array([sw[l] for l in order])
        for L, t in square_isometries():
            assert np.abs(src @ L.T + t - dst).max() > 0.5

    def test_equivalent_but_not_congruent_quadrilaterals(self):
        # same labelled 4-cycle, different side lengths
        square = gallery("square")
        rect = type("O", (), {"vertices": {
            "1": np.array([0.0, 0.0]), "2": np.array([2.0, 0.0]),
            "3": np.array([2.0, 1.0]), "4": np.array([0.0, 1.0]),
        }})()
        assert congruent(square, rect) is None


def test_build_and_verify_share_one_hull(monkeypatch):
    import scipy.spatial

    points = list(gallery("dodecahedron").vertices.items())
    built, real = [], scipy.spatial.ConvexHull
    monkeypatch.setattr(scipy.spatial, "ConvexHull", lambda *a: built.append(a) or real(*a))
    verify_polytope_theorem(build_polytope(points))
    assert len(built) == 1
