import numpy as np
import pytest

from edgesym import gallery
from edgesym.gallery import gallery_names
from edgesym.errors import PermutationNotASymmetry
from edgesym.planegraph import ConvexPlaneGraph
from edgesym.polytope import face_map
from edgesym.symmetry import (
    VertexPermutation,
    analyze,
    enumerate_symmetries,
    is_edge_preserving,
    realize,
)
from edgesym.verify import random_inscribed_polytope
from oracles import brute_force_edge_preserving, brute_force_symmetries


def words(perms):
    return {p.word for p in perms}


class TestVertexPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            VertexPermutation({"1": "2", "2": "2"})

    def test_cycle_notation(self):
        p = VertexPermutation({"1": "4", "2": "1", "3": "2", "4": "3"})
        assert p.cycle_notation() == "(1 4 3 2)"
        assert VertexPermutation.identity(["1", "2"]).cycle_notation() == "()"

    def test_compose_and_inverse(self):
        p = VertexPermutation({"1": "2", "2": "3", "3": "1"})
        assert p.compose(p.inverse()).is_identity()
        q = p.compose(p)
        assert q("1") == "3"


class TestEnumeration:
    @pytest.mark.parametrize("name,expected", [
        ("cube", 48),
        ("frustum", 48),
        ("box_1_2_3", 48),
        ("oblique_parallelepiped", 48),
        ("tetrahedron", 24),
        ("octahedron", 48),
    ])
    def test_counts_match_brute_force(self, name, expected):
        M = face_map(gallery(name))
        perms = enumerate_symmetries(M)
        assert len(perms) == expected
        oracle = brute_force_symmetries(M.faces)
        assert len(oracle) == expected
        assert words(perms) == {
            tuple(s[l] for l in sorted(s)) for s in oracle
        }

    def test_quadrilateral_graph_dihedral(self):
        G = gallery("square")
        perms = enumerate_symmetries(G.map)
        assert len(perms) == 8
        shift = VertexPermutation({"1": "4", "2": "1", "3": "2", "4": "3"})
        assert shift.word in words(perms)
        outer = G.map.faces[G.map.outer_face]
        oracle = brute_force_symmetries(G.map.faces, outer=outer)
        assert len(oracle) == 8

    def test_group_axioms(self):
        for name in ("cube", "hex_three_rhombi"):
            inst = gallery(name)
            M = face_map(inst) if not hasattr(inst, "map") else inst.map
            perms = enumerate_symmetries(M)
            ws = words(perms)
            assert VertexPermutation.identity(M.vertices).word in ws
            for a in perms:
                assert a.inverse().word in ws
                for b in perms:
                    assert a.compose(b).word in ws


WHITNEY_CASES = (
    ["cube", "dodecahedron", "icosahedron", "octa_tetra_glue"]
    + [f"{kind}:{n}" for kind in ("prism", "antiprism") for n in range(3, 13)]
    + [f"random:{n}:{seed}" for n in (12, 40, 100) for seed in (0, 1)]
)


@pytest.mark.parametrize("spec", WHITNEY_CASES)
def test_graph_automorphisms_are_map_automorphisms(spec):
    """By Whitney's theorem the edge graph of a 3-polytope has exactly the
    map's automorphisms, so VF2 on the graph is a second oracle that
    reaches instances far beyond the brute force."""
    nx = pytest.importorskip("networkx")
    if spec.startswith("random:"):
        _, n, seed = spec.split(":")
        P = random_inscribed_polytope(int(n), seed=int(seed))
    else:
        P = gallery(spec)
    M = face_map(P)
    G = nx.Graph(M.edges)
    oracle = {
        tuple(m[l] for l in M.vertices)
        for m in nx.isomorphism.GraphMatcher(G, G).isomorphisms_iter()
    }
    assert words(enumerate_symmetries(M)) == oracle


class TestEdgePreserving:
    def test_cube_all_preserved(self, cube):
        M = face_map(cube)
        for sigma in enumerate_symmetries(M):
            assert is_edge_preserving(M, cube.vertices, sigma)

    def test_box_corner_rotation_not_preserved(self):
        # 120-degree corner rotation cycles the three edge-direction classes,
        # mapping a length-1 edge of the 1x2x3 box to a length-2 edge
        P = gallery("box_1_2_3")
        M = face_map(P)
        sigma = VertexPermutation(
            {"1": "6", "6": "8", "8": "1", "2": "7", "7": "4", "4": "2", "3": "3", "5": "5"}
        )
        assert sigma.word in words(enumerate_symmetries(M))
        assert not is_edge_preserving(M, P.vertices, sigma)

    def test_oblique_inversion_preserved(self):
        P = gallery("oblique_parallelepiped")
        M = face_map(P)
        inversion = VertexPermutation(
            {"1": "7", "7": "1", "2": "8", "8": "2", "3": "5", "5": "3", "4": "6", "6": "4"}
        )
        assert is_edge_preserving(M, P.vertices, inversion)

    def test_non_symmetry_rejected(self, cube):
        M = face_map(cube)
        swap = VertexPermutation(
            {"1": "7", "7": "1", "2": "2", "3": "3", "4": "4", "5": "5", "6": "6", "8": "8"}
        )
        with pytest.raises(PermutationNotASymmetry):
            is_edge_preserving(M, cube.vertices, swap)


class TestRealize:
    def test_identity(self, cube):
        M = face_map(cube)
        got = realize(M, cube.vertices, VertexPermutation.identity(M.vertices))
        assert got is not None
        iso, rmsd = got
        assert rmsd == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(iso.linear, np.eye(3), atol=1e-12)

    def test_cube_quarter_turn(self, cube):
        M = face_map(cube)
        sigma = VertexPermutation(
            {"1": "2", "2": "3", "3": "4", "4": "1", "5": "6", "6": "7", "7": "8", "8": "5"}
        )
        iso, rmsd = realize(M, cube.vertices, sigma)
        assert rmsd < 1e-12
        assert np.allclose(iso.linear, [[0, -1, 0], [1, 0, 0], [0, 0, 1]], atol=1e-12)
        assert np.allclose(iso.translation, [1, 0, 0], atol=1e-12)

    def test_oblique_swap_unrealized(self):
        P = gallery("oblique_parallelepiped")
        M = face_map(P)
        report = analyze(M, P.vertices)
        stuck = [r for r in report.records if r.edge_preserving and not r.realized]
        assert stuck
        # regression floor computed from these coordinates
        assert min(r.rmsd for r in stuck) > 0.04
        for r in stuck:
            assert realize(M, P.vertices, r.sigma) is None


class TestAnalyze:
    @pytest.mark.parametrize("name,counts", [
        ("cube", (48, 48, 48)),
        ("box_1_2_3", (48, 8, 8)),
        ("oblique_parallelepiped", (48, 16, 2)),
        ("frustum", (48, 8, 8)),
        ("hex_prism", (24, 24, 24)),
    ])
    def test_counts(self, name, counts):
        P = gallery(name)
        report = analyze(face_map(P), P.vertices, instance_id=name)
        assert report.counts == counts
        assert report.group_closed

    @pytest.mark.parametrize("name", [n for n in gallery_names() if ":" not in n]
                             + ["prism:5", "antiprism:4", "twisted_squares:4:2:10"])
    def test_face_image_is_the_face_permutation(self, name):
        P = gallery(name)
        if isinstance(P, ConvexPlaneGraph):
            M = P.map
        else:
            M = face_map(P)
        for r in analyze(M, P.vertices).records:
            assert sorted(r.face_image) == list(range(len(M.faces))), r.sigma
            for face, image in zip(M.faces, r.face_image):
                assert {r.sigma(v) for v in face} == set(M.faces[image])
            if M.is_graph:
                assert r.face_image[M.outer_face] == M.outer_face

    def test_oblique_edge_preserving_matches_brute_force(self):
        P = gallery("oblique_parallelepiped")
        M = face_map(P)
        sigmas = brute_force_symmetries(M.faces)
        kept = brute_force_edge_preserving(M.faces, P.vertices, sigmas)
        assert len(kept) == 16

    def test_records_sorted_and_consistent(self, cube):
        report = analyze(face_map(cube), cube.vertices)
        ws = [r.sigma.word for r in report.records]
        assert ws == sorted(ws)
        for r in report.records:
            if r.realized:
                assert r.edge_preserving
                assert r.isometry is not None
                assert r.orientation in (-1, 1)
            else:
                assert r.isometry is None
                assert r.orientation is None

    def test_scale_invariance(self):
        P = gallery("box_1_2_3")
        M = face_map(P)
        base = analyze(M, P.vertices)
        scaled = analyze(M, {l: 3.7 * p for l, p in P.vertices.items()})
        assert base.counts == scaled.counts
        assert [r.sigma.word for r in base.records] == [r.sigma.word for r in scaled.records]
        assert [r.edge_preserving for r in base.records] == [
            r.edge_preserving for r in scaled.records
        ]
        assert [r.realized for r in base.records] == [r.realized for r in scaled.records]

    def test_orientation_preserving_subgroup(self, cube):
        report = analyze(face_map(cube), cube.vertices)
        plus = [r.sigma for r in report.records if r.realized and r.orientation == 1]
        assert len(plus) * 2 >= report.realized_count
        plus_words = {p.word for p in plus}
        for a in plus:
            for b in plus:
                assert a.compose(b).word in plus_words
