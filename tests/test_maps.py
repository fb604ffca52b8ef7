import pytest

from edgesym.maps import CombinatorialMap, combinatorially_equivalent, cycle_key, edge_key

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
