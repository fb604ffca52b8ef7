import math

import numpy as np
import pytest

from edgesym import gallery, geom, io, polytope, twisted_squares
from edgesym.errors import EdgesymError, InvalidGalleryParameter, UnknownGalleryName
from edgesym.gallery import gallery_names
from edgesym.geom import DEFAULT_TOLERANCE
from edgesym.planegraph import ConvexPlaneGraph, build_plane_graph
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
from oracles import NOISE_EPS, noisy_vertices, per_call_best_fit_isometry


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
                    _, rmsd = per_call_best_fit_isometry(src, dst)
                    assert rmsd < 1e-9


def count_diameter_rows(monkeypatch) -> list[int]:
    """The point count of every point set whose diameter is computed from
    now on: one entry per row of each stack geom._diameters is given,
    which every diameter, diameter_of's included, goes through."""
    sizes = []
    diameters = geom._diameters

    def counting(stack):
        sizes.extend([stack.shape[1]] * len(stack))
        return diameters(stack)

    monkeypatch.setattr(geom, "_diameters", counting)
    return sizes


def test_instance_diameter_computed_once(monkeypatch):
    P = random_inscribed_polytope(200, seed=7)
    sizes = count_diameter_rows(monkeypatch)
    verdict = verify_polytope_theorem(P)
    io.write_report("sphere", verdict, DEFAULT_TOLERANCE, P.vertices)
    assert sizes.count(200) == 1
    assert set(sizes) == {3, 200}  # the rest are the stacked triangles of the face fits


def test_face_diameter_computed_once_per_face(monkeypatch):
    P = random_inscribed_polytope(200, seed=7)
    faces = len(polytope.face_map(P).faces)
    sizes = count_diameter_rows(monkeypatch)
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


def scaled_points(vertices, k):
    """The labelled points times 2^k: exact in binary floating point, so
    only a threshold that is not a multiple of the diameter can tell the
    copies apart."""
    return {l: p * 2.0**k for l, p in vertices.items()}


class TestScaleInvariance:
    """verify of 2^k·P gives P's classification and counts."""

    @pytest.mark.parametrize("spec", [
        "cube", "box_1_2_3", "frustum", "oblique_parallelepiped", "dodecahedron",
        "icosahedron", "hex_prism", "octa_tetra_glue", "sphere:0", "sphere:1", "sphere:2",
    ])
    def test_polytope(self, spec):
        P = (random_inscribed_polytope(60, int(spec.split(":")[1])) if spec.startswith("sphere:")
             else gallery(spec))
        v = verify_polytope_theorem(P)
        for k in (-250, -120, -30, 30, 120, 250):
            w = verify_polytope_theorem(polytope.build_polytope(scaled_points(P.vertices, k)))
            assert (w.classification, w.report.counts) == (v.classification, v.report.counts), k

    @pytest.mark.parametrize("spec", ["cube", "box_1_2_3", "frustum", "oblique_parallelepiped",
                                      "sphere:0"])
    def test_polytope_where_face_areas_underflow(self, spec):
        """Below about 2^-256 the squared cross products of a face area
        underflow; each face is fitted in its own frame, so the verdict holds
        there too, down to where Qhull or the face merge fail (2^-300 and
        below raised DegeneratePolygon before)."""
        P = random_inscribed_polytope(60, 0) if spec == "sphere:0" else gallery(spec)
        v = verify_polytope_theorem(P)
        for k in (-300, -400, -500):
            w = verify_polytope_theorem(polytope.build_polytope(scaled_points(P.vertices, k)))
            assert (w.classification, w.report.counts) == (v.classification, v.report.counts), k

    @pytest.mark.parametrize("spec", [
        "square", "parallelogram", "hex_three_rhombi", "twisted_squares:4:2:10",
        "triangulation:0", "triangulation:1", "triangulation:2",
    ])
    def test_graph(self, spec):
        G = (random_triangulation(24, int(spec.split(":")[1])) if spec.startswith("triangulation:")
             else gallery(spec))
        v = verify_graph_theorem(G)
        for k in (-500, -250, -30, 30, 250, 500):
            w = verify_graph_theorem(build_plane_graph(scaled_points(G.vertices, k), G.edges))
            assert (w.classification, w.report.counts) == (v.classification, v.report.counts), k


@pytest.mark.parametrize("name", [n for n in gallery_names() if ":" not in n])
def test_gallery_noise_gives_no_alarm_and_no_traceback(name):
    """Seeded noise between the edge and the fit threshold: an edge length
    can change by more than the length threshold while a fit stays within
    the fit threshold. Such a symmetry is not realized, since an isometry
    preserves every edge length, so each noisy copy ends in a verdict
    without an alarm, or in a typed input error."""
    X = gallery(name)
    for eps in NOISE_EPS:
        for seed in (0, 1):
            moved = noisy_vertices(X, eps, seed)
            try:
                if isinstance(X, ConvexPlaneGraph):
                    v = verify_graph_theorem(build_plane_graph(moved, X.edges))
                else:
                    v = verify_polytope_theorem(polytope.build_polytope(moved))
            except EdgesymError:
                continue
            assert v.classification != CLASS_VIOLATION, (eps, seed)
            assert all(r.edge_preserving for r in v.report.records if r.realized), (eps, seed)


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

    @pytest.mark.parametrize("args", [(4, 2, math.inf), (4, 2, math.nan), (math.inf, 2, 10),
                                      (4, -math.inf, 10), (4, math.nan, 10)])
    def test_non_finite_parameter(self, args):
        with pytest.raises(InvalidGalleryParameter, match="need finite parameters") as info:
            twisted_squares(*args)
        assert info.value.__cause__ is None


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
