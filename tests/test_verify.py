import math

import numpy as np
import pytest

from edgesym import gallery, geom, io, planegraph, polytope, symmetry, verify
from edgesym.errors import InvalidGalleryParameter, UnknownGalleryName
from edgesym.geom import DEFAULT_TOLERANCE, best_fit_isometry, diameter_of
from edgesym.verify import (
    CLASS_APPLIES,
    CLASS_FAILS_FAILS,
    CLASS_FAILS_HOLDS,
    CLASS_VIOLATION,
    random_inscribed_polytope,
    random_triangulation,
    twisted_squares_check,
    verify_graph_theorem,
    verify_polytope_theorem,
)


class TestPolytopeVerdicts:
    def test_hex_prism_applies_and_holds(self):
        v = verify_polytope_theorem(gallery("hex_prism"))
        assert v.classification == CLASS_APPLIES
        assert v.report.counts == (24, 24, 24)
        assert not v.violations

    def test_oblique_parallelepiped_fails_fails(self):
        v = verify_polytope_theorem(gallery("oblique_parallelepiped"))
        assert v.classification == CLASS_FAILS_FAILS
        assert not v.hypothesis_holds
        assert len(v.violations) == 14  # 16 edge-preserving, 2 realized

    def test_octa_tetra_glue_fails_holds(self):
        v = verify_polytope_theorem(gallery("octa_tetra_glue"))
        assert v.classification == CLASS_FAILS_HOLDS
        assert v.report.counts == (6, 6, 6)
        # the rhombi with acute angle pi/3 carry the known concyclicity defect
        assert v.worst_face_residual == pytest.approx(0.1830127, abs=1e-4)

    def test_frustum_applies_and_holds(self):
        v = verify_polytope_theorem(gallery("frustum"))
        assert v.classification == CLASS_APPLIES
        assert v.report.counts == (48, 8, 8)

    def test_realized_symmetries_map_faces_to_congruent_faces(self):
        # consistency of the two congruence routes: a realized symmetry
        # makes every face congruent to its image face, vertex for vertex
        from edgesym.polytope import face_map

        for name in ("cube", "frustum", "hex_prism"):
            P = gallery(name)
            v = verify_polytope_theorem(P)
            fm = face_map(P)
            for rec in v.report.records:
                if not rec.realized:
                    continue
                for face in fm.faces:
                    src = np.array([P.vertices[l] for l in face])
                    dst = np.array([P.vertices[rec.sigma(l)] for l in face])
                    _, rmsd = best_fit_isometry(src, dst)
                    assert rmsd < 1e-9


def test_instance_diameter_computed_once(monkeypatch):
    P = random_inscribed_polytope(200, seed=7)
    sizes = []

    def counting(points):
        sizes.append(len(points))
        return diameter_of(points)

    for module in (geom, io, planegraph, polytope, symmetry, verify):
        if hasattr(module, "diameter_of"):
            monkeypatch.setattr(module, "diameter_of", counting)
    verdict = verify_polytope_theorem(P)
    io.write_report("sphere", verdict, DEFAULT_TOLERANCE, P.vertices)
    assert sizes.count(200) == 1
    assert set(sizes) == {3, 200}  # the rest are per-face fits of triangles


def test_face_diameter_computed_once_per_face(monkeypatch):
    P = random_inscribed_polytope(200, seed=7)
    sizes = []

    def counting(points):
        sizes.append(len(points))
        return diameter_of(points)

    faces = len(polytope.face_map(P).faces)
    monkeypatch.setattr(geom, "diameter_of", counting)
    verify_polytope_theorem(P)
    assert len([s for s in sizes if s < 200]) == faces == 396


class TestGraphVerdicts:
    def test_parallelogram_fails_fails(self):
        v = verify_graph_theorem(gallery("parallelogram"))
        assert v.classification == CLASS_FAILS_FAILS
        assert v.report.counts == (8, 4, 2)
        violating = {r.sigma.cycle_notation() for r in v.violations}
        assert violating == {"(1 2)(3 4)", "(1 4)(2 3)"}

    def test_hex_three_rhombi_fails_holds(self):
        v = verify_graph_theorem(gallery("hex_three_rhombi"))
        assert v.classification == CLASS_FAILS_HOLDS
        assert v.report.counts == (6, 6, 6)

    def test_triangulation_applies_and_holds(self):
        G = random_triangulation(17, seed=99)
        v = verify_graph_theorem(G)
        assert v.classification == CLASS_APPLIES

    def test_square_applies_and_holds(self):
        v = verify_graph_theorem(gallery("square"))
        assert v.classification == CLASS_APPLIES
        assert v.report.counts == (8, 8, 8)


class TestRandomInscribedPolytope:
    def test_vertices_on_unit_sphere(self):
        P = random_inscribed_polytope(30, seed=7)
        radii = np.linalg.norm(P.vertices.array, axis=1)
        assert np.abs(radii - 1.0).max() < 1e-12

    def test_tetrahedron_case(self):
        P = random_inscribed_polytope(4, seed=1)
        v = verify_polytope_theorem(P)
        assert v.classification == CLASS_APPLIES

    def test_seed_42_regression(self):
        P = random_inscribed_polytope(20, seed=42)
        v = verify_polytope_theorem(P)
        assert v.classification == CLASS_APPLIES
        assert v.report.counts == (1, 1, 1)

    def test_determinism(self):
        a = random_inscribed_polytope(15, seed=3)
        b = random_inscribed_polytope(15, seed=3)
        assert np.array_equal(a.vertices.array, b.vertices.array)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            random_inscribed_polytope(3, seed=0)


class TestRandomTriangulation:
    def test_all_faces_triangles(self):
        G = random_triangulation(25, seed=4)
        assert all(len(G.map.faces[f]) == 3 for f in G.bounded_faces())

    def test_determinism(self):
        a = random_triangulation(12, seed=8)
        b = random_triangulation(12, seed=8)
        assert a.map == b.map
        assert np.array_equal(a.vertices.array, b.vertices.array)


class TestTwistedSquares:
    def test_alpha_zero_not_refuted(self):
        rep = twisted_squares_check(4, 2, 0)
        assert rep.len_twisted == pytest.approx(math.sqrt(2), abs=1e-12)
        assert rep.len_forced == pytest.approx(math.sqrt(2), abs=1e-12)
        assert not rep.refuted

    def test_ten_degrees_refuted(self):
        rep = twisted_squares_check(4, 2, 10)
        r1, r2 = 2 * math.sqrt(2), math.sqrt(2)
        oracle = math.sqrt(r1**2 + r2**2 - 2 * r1 * r2 * math.cos(math.radians(10)))
        assert rep.len_twisted == pytest.approx(oracle, abs=1e-9)
        assert rep.len_forced == pytest.approx(math.sqrt(2), abs=1e-12)
        assert rep.refuted

    def test_monotone_in_alpha(self):
        lengths = [twisted_squares_check(4, 2, a).len_twisted for a in range(0, 16)]
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_invalid_alpha(self):
        with pytest.raises(InvalidGalleryParameter):
            twisted_squares_check(4, 2, 80)

    def test_invalid_sizes(self):
        with pytest.raises(InvalidGalleryParameter):
            twisted_squares_check(2, 4, 5)


class TestGalleryLookup:
    def test_unknown_name(self):
        with pytest.raises(UnknownGalleryName):
            gallery("dode")

    def test_parametric(self):
        P = gallery("prism:5")
        assert len(P.vertices) == 10
        with pytest.raises(InvalidGalleryParameter):
            gallery("prism:2")
        with pytest.raises(InvalidGalleryParameter):
            gallery("prism:5:9")
        with pytest.raises(InvalidGalleryParameter):
            gallery("cube:3")

    def test_never_a_violation_on_gallery(self):
        for name in ("cube", "box_1_2_3", "oblique_parallelepiped", "tetrahedron",
                     "octahedron", "dodecahedron", "icosahedron", "hex_prism",
                     "frustum", "octa_tetra_glue"):
            v = verify_polytope_theorem(gallery(name))
            assert v.classification != CLASS_VIOLATION
        for name in ("square", "parallelogram", "hex_three_rhombi",
                     "twisted_squares:4:2:10"):
            v = verify_graph_theorem(gallery(name))
            assert v.classification != CLASS_VIOLATION
