import itertools
import tracemalloc

import numpy as np
import pytest

from edgesym import DEFAULT_TOLERANCE, gallery, geom, symmetry
from edgesym.gallery import gallery_names
from edgesym.errors import IndexSetMismatch, NonFiniteCoordinate, PermutationNotASymmetry
from edgesym.geom import LabelledPoints, _diameter_bracket, diameter_of
from edgesym.maps import edge_key
from edgesym.planegraph import ConvexPlaneGraph
from edgesym.polytope import build_polytope, face_map
from edgesym.symmetry import (
    VertexPermutation,
    _automorphisms,
    _flag_colours,
    analyze,
    enumerate_symmetries,
    is_edge_preserving,
    realize,
)
from edgesym.verify import (random_inscribed_polytope, random_triangulation, verify_graph_theorem,
                            verify_polytope_theorem)
from oracles import (brute_force_edge_preserving, brute_force_symmetries, classify_values,
                     exact_diameter_classify, is_group, permutation_images)


def words(perms):
    return {p.word for p in perms}


def compose(a, b):
    """The word of a after b: x -> a(b(x))."""
    return tuple(a(b(label)) for label in sorted(a.word))


def inverse(a):
    """The word of the inverse of a."""
    back = {a(label): label for label in a.word}
    return tuple(back[label] for label in sorted(a.word))


class TestVertexPermutation:
    def test_bijection_required(self):
        with pytest.raises(ValueError):
            VertexPermutation({"1": "2", "2": "2"})

    def test_cycle_notation(self):
        p = VertexPermutation({"1": "4", "2": "1", "3": "2", "4": "3"})
        assert p.cycle_notation() == "(1 4 3 2)"
        assert VertexPermutation.identity(["1", "2"]).cycle_notation() == "()"


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
                assert inverse(a) in ws
                for b in perms:
                    assert compose(a, b) in ws

    @pytest.mark.parametrize("spec", ["prism:120", "antiprism:120"])
    def test_dihedral_order_at_scale(self, spec):
        # D_n x Z_2: n rotations about the axis, n half-turns, times a mirror
        assert len(enumerate_symmetries(face_map(gallery(spec)))) == 480

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generic_sphere_has_only_the_identity(self, seed):
        perms = enumerate_symmetries(face_map(random_inscribed_polytope(1000, seed)))
        assert len(perms) == 1 and perms[0].is_identity()

    @pytest.mark.parametrize("spec", ["cube", "icosahedron", "prism:6", "octa_tetra_glue",
                                      "square", "hex_three_rhombi", "twisted_squares:4:2:0",
                                      "triangulation"])
    def test_refinement_only_prunes(self, spec, monkeypatch):
        """With every flag a candidate image of the seed, the replay finds
        the same automorphisms, and each of them preserves the refined
        colours."""
        inst = random_triangulation(12, 0) if spec == "triangulation" else gallery(spec)
        M = inst.map if isinstance(inst, ConvexPlaneGraph) else face_map(inst)
        refined = _automorphisms(M)
        monkeypatch.setattr(symmetry, "_flag_colours",
                            lambda M, seed: np.zeros(len(M.flags), dtype=np.intp))
        every = _automorphisms(M)
        monkeypatch.undo()
        assert all(np.array_equal(a, b) for a, b in zip(refined, every))
        # a flag is its (vertex, other end of its edge, face)
        ends = list(zip(M.flag_vertex, M.flag_vertex[M.s0], M.flag_face))
        flag_of = {end: fl for fl, end in enumerate(ends)}
        for seed in (0, len(M.flags) - 1):
            colours = _flag_colours(M, seed)
            for vmap, fmap in zip(*every):
                phi = [flag_of[vmap[v], vmap[w], fmap[f]] for v, w, f in ends]
                assert (colours[phi] == colours).all()


class TestGroupClosed:
    """The brute-force group oracle that the enumeration tests assert with."""

    S4 = [np.array(p) for p in itertools.permutations(range(4))]

    def test_symmetric_group(self):
        assert is_group(np.array(self.S4))

    def test_identity_and_a_three_cycle(self):
        e, c = np.arange(3), np.array([1, 2, 0])
        assert not is_group(np.array([e, c]))
        assert is_group(np.array([e, c, c[c]]))

    def test_cyclic_group_without_identity(self):
        c = np.array([1, 2, 0])
        assert not is_group(np.array([c, c[c]]))

    @pytest.mark.parametrize("drop", [1, 11, 23])
    def test_symmetric_group_minus_one(self, drop):
        assert not is_group(np.array(self.S4[:drop] + self.S4[drop + 1:]))


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
    perms = enumerate_symmetries(M)
    assert words(perms) == oracle
    assert is_group(permutation_images(perms))


class TestCoordinates:
    """The label-to-point mapping every classification reads."""

    CALLS = {
        "is_edge_preserving": lambda M, coords, sigma: is_edge_preserving(M, coords, sigma),
        "realize": lambda M, coords, sigma: realize(M, coords, sigma),
        "analyze": lambda M, coords, sigma: analyze(M, coords),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    @pytest.mark.parametrize("change", ["missing", "extra"])
    def test_label_set_must_match_map(self, cube, call, change):
        M = face_map(cube)
        coords = dict(cube.vertices)
        if change == "missing":
            del coords[M.vertices[0]]
        else:
            coords["extra"] = np.zeros(3)
        with pytest.raises(IndexSetMismatch):
            self.CALLS[call](M, coords, VertexPermutation.identity(M.vertices))

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_non_finite_coordinate_rejected(self, cube, call):
        M = face_map(cube)
        coords = dict(cube.vertices)
        coords[M.vertices[0]] = np.array([np.nan, 0.0, 0.0])
        with pytest.raises(NonFiniteCoordinate):
            self.CALLS[call](M, coords, VertexPermutation.identity(M.vertices))


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

    def test_first_offending_edge_decides(self, rng):
        """PermutationNotASymmetry exactly when the first edge, in M.edges
        order, that fails the test maps to a non-edge; False when it maps
        to an edge of another length, even if later edges map to non-edges."""
        P = gallery("box_1_2_3")
        M = face_map(P)
        edges = set(M.edges)

        def length(u, v):
            return np.linalg.norm(P.vertices[u] - P.vertices[v])

        sigmas = [VertexPermutation(dict(zip(M.vertices, rng.permutation(M.vertices))))
                  for _ in range(40)]
        for sym in enumerate_symmetries(M):
            word = list(sym.word)
            i, j = rng.choice(len(word), 2, replace=False)
            word[i], word[j] = word[j], word[i]
            sigmas += [sym, VertexPermutation(dict(zip(M.vertices, word)))]
        seen = set()
        for sigma in sigmas:
            images = [edge_key(sigma(u), sigma(v)) for u, v in M.edges]
            # for each edge failing the test, in M.edges order: maps to an edge?
            bad = [img in edges for (u, v), img in zip(M.edges, images)
                   if img not in edges or abs(length(u, v) - length(*img)) > 1e-6]
            if not bad:
                assert is_edge_preserving(M, P.vertices, sigma)
                seen.add("preserving")
            elif not bad[0]:
                with pytest.raises(PermutationNotASymmetry):
                    is_edge_preserving(M, P.vertices, sigma)
                seen.add("raises")
            else:
                assert is_edge_preserving(M, P.vertices, sigma) is False
                seen.add("false" if all(bad) else "false after non-edge")
        assert seen == {"preserving", "raises", "false", "false after non-edge"}


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

    def test_fit_within_threshold_but_not_edge_preserving(self):
        # the unit cube with 1e-8 vertex noise: the fit of every cube
        # symmetry stays within fit_eps times the diameter, while all but
        # the identity change an edge length by more than the length
        # threshold; an isometry preserves every edge length, so none of
        # those is realized
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=3)))
        corners += np.random.default_rng(0).normal(size=(8, 3)) * 1e-8
        P = build_polytope([(str(i), p) for i, p in enumerate(corners)])
        M = face_map(P)
        perms = enumerate_symmetries(M)
        pts = P.vertices.take(M.vertices)
        _, _, rmsd = classify_values(M, pts, permutation_images(perms))
        close = [sigma for sigma, r in zip(perms, rmsd)
                 if r <= DEFAULT_TOLERANCE.fit_threshold(diameter_of(pts))]
        assert len(close) == 48
        loose = [sigma for sigma in close if not is_edge_preserving(M, P.vertices, sigma)]
        assert len(loose) == 47
        for sigma in loose:
            assert realize(M, P.vertices, sigma) is None
        report = analyze(M, P.vertices)
        assert report.counts == (48, 1, 1)
        assert all(r.edge_preserving for r in report.records if r.realized)


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
        assert is_group(permutation_images(r.sigma for r in report.records))

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

    def test_memory_bounded(self):
        P = gallery("prism:120")
        M = face_map(P)
        tracemalloc.start()
        try:
            report = analyze(M, P.vertices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.counts == (480, 480, 480)
        assert peak < 32 * 2**20

    def test_orientation_preserving_subgroup(self, cube):
        report = analyze(face_map(cube), cube.vertices)
        plus = [r.sigma for r in report.records if r.realized and r.orientation == 1]
        assert len(plus) * 2 >= report.realized_count
        plus_words = {p.word for p in plus}
        for a in plus:
            for b in plus:
                assert compose(a, b) in plus_words


def antipodal(n, seed, axes=(1.0, 1.0, 1.0)):
    """n seeded points on the ellipsoid with these semi-axes and their
    antipodes: a random instance whose symmetries are the identity and the
    central inversion."""
    x = np.random.default_rng(seed).normal(size=(n, 3))
    x *= np.array(axes) / np.linalg.norm(x, axis=1)[:, None]
    return build_polytope([(str(i), p) for i, p in enumerate(np.concatenate([x, -x]))])


class TestDiameterBracket:
    """classify decides each threshold at both ends of an O(n) bracket of
    the diameter, and computes the exact diameter only where they differ."""

    @pytest.mark.parametrize("seed", range(12))
    def test_bracket_holds_in_floats(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(int(rng.integers(2, 40)), int(rng.integers(2, 4))))
        pts *= 2.0 ** int(rng.integers(-60, 60)) * rng.random(pts.shape[1])
        low, high = _diameter_bracket(pts)
        assert low <= diameter_of(pts) <= high

    @pytest.mark.parametrize("name", ["cube", "box_1_2_3", "octahedron"])
    def test_bracket_is_tight_where_the_box_diagonal_is_a_pair(self, name):
        # a box's bounding-box diagonal is its longest pair distance, with
        # the same arithmetic, so all three floats are equal; the sweeps meet
        # the octahedron's diameter, but its box diagonal is longer
        pts = gallery(name).vertices.array
        low, high = _diameter_bracket(pts)
        assert low == diameter_of(pts) and (high == low) == (name != "octahedron")

    @pytest.mark.parametrize("name", ["octahedron", "icosahedron", "dodecahedron", "cube",
                                      "box_1_2_3", "prism:5", "antiprism:7", "antipodal:1",
                                      "antipodal:2", "ellipsoid:3", "ellipsoid:4", "sphere:1",
                                      "sphere:2"])
    def test_decisions_match_the_exact_diameter(self, name, monkeypatch):
        # one vertex moved by k eps diam for k across 1, with eps the length
        # and the fit coefficient: compared values fall inside, below and
        # above the band between the thresholds at the two bracket ends
        kind, _, arg = name.partition(":")
        P = (antipodal(20, int(arg)) if kind == "antipodal"
             else antipodal(20, int(arg), (1.0, 1.3, 0.7)) if kind == "ellipsoid"
             else random_inscribed_polytope(200, int(arg)) if kind == "sphere" else gallery(name))
        M, tol = face_map(P), DEFAULT_TOLERANCE
        images = symmetry._automorphisms(M)[0]
        pts = P.vertices.take(M.vertices)
        direction = np.random.default_rng(7).normal(size=3)
        direction *= diameter_of(pts) / np.linalg.norm(direction)
        calls = []
        monkeypatch.setattr(geom, "diameter_of", lambda p: calls.append(1) or diameter_of(p))
        banded, flipped = [], []
        for eps in (tol.length_eps(1.0), tol.fit_threshold(1.0)):
            for k in np.geomspace(0.25, 8, 11):
                moved = pts.copy()
                moved[0] += k * eps * direction
                coords = LabelledPoints(zip(M.vertices, moved))
                inst = symmetry._Instance(M, coords, tol)
                low, high = inst.bracket
                _, gap, rmsd = classify_values(M, moved, images)
                in_band = bool(((gap > tol.length_eps(low)) & (gap <= tol.length_eps(high))).any()
                               or ((rmsd > tol.fit_threshold(low))
                                   & (rmsd <= tol.fit_threshold(high))).any())
                del calls[:]
                edge_ok, offending, (*_, realized) = inst.classify(images)
                want = exact_diameter_classify(M, coords, images, tol)
                for got, expected in zip((edge_ok, offending, realized), want):
                    assert np.array_equal(got, expected), (name, k)
                assert len(calls) == in_band, (name, k)
                banded.append(in_band)
                # where L < d, the thresholds at L alone decide some values wrongly
                d = diameter_of(moved)
                flipped.append(bool(((gap > tol.length_eps(low)) != (gap > tol.length_eps(d))).any()
                                    or ((rmsd <= tol.fit_threshold(low))
                                        != (rmsd <= tol.fit_threshold(d))).any()))
        # a box's bracket is one float, and a generic sphere's one symmetry
        # compares zero gaps and residuals
        assert any(banded) == (kind not in ("sphere", "cube", "box_1_2_3")) and not all(banded)
        assert any(flipped) == (kind == "ellipsoid")


def fails_if_called(name):
    def call(*args):
        raise RuntimeError(f"{name} was called")
    return call


class TestGenericWork:
    """Work counts that pin the generic path's savings without timing."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generic_sphere_needs_neither_diameter_nor_flag_tree(self, seed, monkeypatch):
        monkeypatch.setattr(geom, "diameter_of", fails_if_called("diameter_of"))
        monkeypatch.setattr(symmetry, "_flag_tree", fails_if_called("_flag_tree"))
        verdict = verify_polytope_theorem(random_inscribed_polytope(500, seed))
        assert verdict.report.counts == (1, 1, 1) and verdict.conclusion_holds

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_triangulation_needs_no_flag_tree(self, seed, monkeypatch):
        monkeypatch.setattr(symmetry, "_flag_tree", fails_if_called("_flag_tree"))
        assert verify_graph_theorem(random_triangulation(80, seed)).report.total == 1

    def test_symmetric_instance_builds_the_flag_tree(self, monkeypatch):
        calls = []
        tree = symmetry._flag_tree
        monkeypatch.setattr(symmetry, "_flag_tree", lambda M, seed: calls.append(1) or tree(M, seed))
        assert verify_polytope_theorem(gallery("prism:6")).report.total == 24
        assert calls == [1]
