import pytest

from edgesym import face_map, gallery
from edgesym.maps import CombinatorialMap, combinatorially_equivalent, cycle_key, edge_key
from edgesym.symmetry import enumerate_symmetries
from edgesym.verify import random_inscribed_polytope, random_triangulation
from oracles import propagation_equivalent

CUBE_FACES = [
    ("1", "2", "3", "4"),
    ("5", "8", "7", "6"),
    ("1", "5", "6", "2"),
    ("2", "6", "7", "3"),
    ("3", "7", "8", "4"),
    ("4", "8", "5", "1"),
]


def test_cube_map_counts():
    M = CombinatorialMap(CUBE_FACES)
    assert len(M.vertices) == 8
    assert len(M.edges) == 12
    assert len(M.faces) == 6
    # one flag per (vertex on edge) x (face at edge): 4 per edge
    assert len(M.flags) == 4 * len(M.edges)
    assert not M.is_graph


def test_involutions_are_fixed_point_free():
    M = CombinatorialMap(CUBE_FACES)
    for s in (M.s0, M.s1, M.s2):
        assert set(s) == set(M.flags)
        for fl, im in enumerate(s):
            assert fl != im
            assert s[im] == fl


def test_construction_is_input_order_independent():
    a = CombinatorialMap(CUBE_FACES)
    shuffled = [CUBE_FACES[i][2:] + CUBE_FACES[i][:2] for i in (3, 0, 5, 1, 4, 2)]
    b = CombinatorialMap(shuffled)
    assert a == b
    assert hash(a) == hash(b)


def test_open_surface_rejected():
    with pytest.raises(ValueError, match="lies in faces"):
        CombinatorialMap([("1", "2", "3", "4")])


def test_non_simple_cycle_rejected():
    with pytest.raises(ValueError, match="not simple"):
        CombinatorialMap([("1", "2", "1", "3"), ("1", "3", "2")])


def test_edge_key_and_cycle_key():
    assert edge_key("2", "1") == ("1", "2")
    assert cycle_key(("3", "1", "2")) == cycle_key(("1", "3", "2"))
    assert cycle_key(("1", "2", "3", "4")) != cycle_key(("1", "3", "2", "4"))


def test_equivalence_identity_and_quad_mismatch():
    sq = CombinatorialMap([("1", "2", "3", "4"), ("1", "4", "3", "2")], outer_face=1)
    assert combinatorially_equivalent(sq, sq)
    crossed = CombinatorialMap([("1", "3", "2", "4"), ("1", "4", "2", "3")], outer_face=1)
    assert not combinatorially_equivalent(sq, crossed)


def test_equivalence_rejects_kind_mismatch():
    sphere = CombinatorialMap(CUBE_FACES)
    disk = CombinatorialMap([("1", "2", "3", "4"), ("1", "4", "3", "2")], outer_face=1)
    with pytest.raises(ValueError):
        combinatorially_equivalent(sphere, disk)


def _variants(M):
    """Maps on M's faces that the identity on labels may or may not carry
    onto M: mirrored and mixed orientations, every outer-face choice, and
    copies relabelled by a symmetry and by a label rotation."""
    faces, outer = list(M.faces), M.outer_face
    mirrored = [f[::-1] for f in faces]
    mixed = [f[::-1] if i % 2 else f for i, f in enumerate(faces)]
    outers = range(len(faces)) if M.is_graph else [None]
    out = [CombinatorialMap(fs, outer_face=o) for fs in (faces, mirrored, mixed) for o in outers]
    labels = M.vertices
    rotate = dict(zip(labels, labels[1:] + labels[:1]))
    sigma = enumerate_symmetries(M)[-1]
    for relabel in (rotate, {l: sigma(l) for l in labels}):
        out.append(CombinatorialMap([[relabel[v] for v in f] for f in faces], outer_face=outer))
    return out


def test_equivalence_matches_flag_propagation():
    polytopes = [face_map(gallery(s)) for s in ("cube", "tetrahedron", "prism:5", "frustum")]
    polytopes.append(face_map(random_inscribed_polytope(12, 3)))
    graphs = [gallery(s).map for s in ("square", "parallelogram", "hex_three_rhombi",
                                       "twisted_squares:4:2:10")]
    graphs += [random_triangulation(n, 1).map for n in (6, 9)]
    verdicts = []
    for kind in (polytopes, graphs):
        maps = [v for M in kind for v in _variants(M)]
        for a in maps:
            for b in maps:
                got = combinatorially_equivalent(a, b)
                assert got == propagation_equivalent(a, b), (a.faces, a.outer_face,
                                                             b.faces, b.outer_face)
                verdicts.append(got)
    assert 200 < sum(verdicts) < len(verdicts) - 200
