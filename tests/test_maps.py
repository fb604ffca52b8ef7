import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesym import cli, face_map, gallery
from edgesym.errors import EdgesymError, InvalidMap
from edgesym.gallery import gallery_names
from edgesym.maps import (
    CombinatorialMap,
    _components,
    _walk_cycles,
    combinatorially_equivalent,
    cycle_key,
    edge_key,
)
from edgesym.symmetry import enumerate_symmetries
from edgesym.verify import random_inscribed_polytope, random_triangulation
from oracles import ReferenceMap, bfs_components, chain_cycle, propagation_equivalent

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


# The integer-array core against the per-face construction it replaced
# (``oracles.ReferenceMap``, code verbatim): every attribute equal, and on
# malformed input the same message.

ATTRIBUTES = ("faces", "edges", "vertices", "outer_face", "flags", "s0", "s1", "s2",
              "flag_vertex", "flag_face", "degree")


def assert_same_map(got, want):
    for name in ATTRIBUTES:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert type(a) is type(b) and a == b, name
    assert got.face_keys() == want.face_keys()


def outcome(build, faces, outer):
    try:
        return build(faces, outer)
    except ValueError as exc:
        return exc


def assert_same_outcome(faces, outer=None):
    got, want = outcome(CombinatorialMap, faces, outer), outcome(ReferenceMap, faces, outer)
    if isinstance(want, ValueError):
        assert isinstance(got, InvalidMap), (faces, outer, want)
        assert str(got) == str(want)
    else:
        assert not isinstance(got, Exception), (faces, outer, got)
        assert_same_map(got, want)


def scrambled(M, rng):
    """M's faces, each rotated at random, in a random order, with the
    outer face's new index."""
    order = rng.permutation(len(M.faces))
    faces = [M.faces[i] for i in order]
    faces = [f[k:] + f[:k] for f, k in zip(faces, rng.integers(0, 3, size=len(faces)))]
    outer = None if M.outer_face is None else int(np.flatnonzero(order == M.outer_face)[0])
    return faces, outer


CORPUS = ([name for name in gallery_names() if ":" not in name]
          + [f"{kind}:{n}" for n in (3, 4, 7, 16, 40) for kind in ("prism", "antiprism")]
          + [f"sphere:{n}" for n in (10, 60, 1000)]
          + [f"triangulation:{n}" for n in (10, 100, 300)])


@pytest.mark.parametrize("name", CORPUS)
def test_map_matches_the_per_face_construction(name):
    kind, _, n = name.partition(":")
    if kind == "sphere":
        M = face_map(random_inscribed_polytope(int(n), int(n)))
    elif kind == "triangulation":
        M = random_triangulation(int(n), int(n)).map
    else:
        instance = gallery(name)
        M = instance.map if hasattr(instance, "map") else face_map(instance)
    faces, outer = scrambled(M, np.random.default_rng(len(name)))
    assert_same_map(M, ReferenceMap(faces, outer))
    assert_same_map(CombinatorialMap(faces, outer), ReferenceMap(faces, outer))


TETRA = [("1", "2", "3"), ("1", "3", "4"), ("1", "4", "2"), ("2", "4", "3")]
# a tetrahedron beside the 7-vertex torus: V - E + F = 11 - 27 + 18 = 2,
# every edge in two faces, and no edge shared between the two parts
TETRA_AND_TORUS = ([("a", "b", "c"), ("a", "c", "d"), ("a", "d", "b"), ("b", "d", "c")]
                   + [(f"t{i}", f"t{(i + 1) % 7}", f"t{(i + 3) % 7}") for i in range(7)]
                   + [(f"t{i}", f"t{(i + 3) % 7}", f"t{(i + 2) % 7}") for i in range(7)])


@pytest.mark.parametrize("faces, outer", [
    ([], None),
    ([("1", "2"), ("1", "2", "3")], None),  # a 2-gon
    (TETRA + [("5", "6")], None),  # a 2-gon after valid faces
    ([("1", "2", "1", "3"), ("1", "3", "2")], None),  # a repeated vertex
    # a simple cycle of 3 or more vertices holds no edge twice, so a face
    # that repeats an edge repeats a vertex
    ([("1", "2", "1", "2"), ("1", "2", "3")], None),
    ([("1", "2", "3", "4")], None),  # every edge in 1 face
    (TETRA + [("1", "2", "5")], None),  # edge 1-2 in 3 faces
    (TETRA + [(a + "0", b + "0", c + "0") for a, b, c in TETRA], None),  # V - E + F = 4
    ([("1", "2", "3", "4"), ("1", "4", "3", "2")], 2),  # outer face out of range
    ([("1", "2", "3", "4"), ("1", "4", "3", "2")], -1),
    ([("9", "10", "11"), ("9", "11", "12"), ("9", "12", "10"), ("10", "12", "11")], None),
    ([(9, 10, 11), (9, 11, 12), (9, 12, 10), (10, 12, 11)], None),
    ([(1, 2, 3, 4), (1, 4, 3, 2)], 1),
    ([(1, 2, 3, 4), ("1", "4", "3", "2")], 0),
    ([("1", "2", "3", "4"), ("1", "2", "3", "4")], None),  # one edge twice in one direction
    ([("1", "2", "3", "4"), ("2", "3", "4", "1")], 1),  # equal faces keep their input order
    ([("1", "2", "3", "4"), ("1", "2", "3")], None),  # a proper prefix sorts first
    (TETRA_AND_TORUS, None),
    # two tetrahedra sharing vertex 1 and the torus sharing vertex 2 with
    # the first: one vertex graph, V - E + F = 13 - 33 + 22 = 2, three parts
    (TETRA + [tuple({"2": "5", "3": "6", "4": "7"}.get(v, v) for v in f) for f in TETRA]
     + [tuple("2" if v == "t0" else v for v in f) for f in TETRA_AND_TORUS[4:]], None),
])
def test_malformed_and_mixed_label_inputs(faces, outer):
    assert_same_outcome(faces, outer)


LABELS = st.sampled_from([1, 2, 3, 4, 9, 10, "1", "2", "3", "9", "10", "11", "a"])
BASES = [
    (CUBE_FACES, None),
    (TETRA, None),
    ([("1", "2", "3", "4"), ("1", "4", "3", "2")], 1),
    ([f for f in gallery("hex_three_rhombi").map.faces], 0),
]


@st.composite
def mutated_maps(draw):
    """A valid map's faces after up to three random edits: drop, repeat or
    reverse a face, drop or repeat a vertex of one, relabel a vertex, add a
    disjoint copy of every face."""
    faces, outer = draw(st.sampled_from(BASES))
    faces = [list(f) for f in faces]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(faces) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "reverse", "cut", "double", "relabel",
                                     "copy"]))
        if edit == "drop" and len(faces) > 1:
            del faces[i]
        elif edit == "repeat":
            faces.append(list(faces[i]))
        elif edit == "reverse":
            faces[i].reverse()
        elif edit == "cut" and faces[i]:
            del faces[i][draw(st.integers(0, len(faces[i]) - 1))]
        elif edit == "double" and faces[i]:
            faces[i].insert(draw(st.integers(0, len(faces[i]))), draw(st.sampled_from(faces[i])))
        elif edit == "relabel":
            old, new = draw(st.sampled_from(sorted({v for f in faces for v in f}, key=repr))), draw(LABELS)
            faces = [[new if v == old else v for v in f] for f in faces]
        elif edit == "copy":
            faces += [[f"{v}'" for v in f] for f in faces]
    return faces, draw(st.sampled_from([outer, None, len(faces), 0]))


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.tuples(st.lists(st.lists(LABELS, max_size=6), max_size=8), st.none() | st.integers(-1, 8)),
    mutated_maps(),
))
def test_same_outcome_as_the_per_face_construction(case):
    assert_same_outcome(*case)


def test_invalid_map_is_a_typed_input_error():
    with pytest.raises(InvalidMap) as info:
        CombinatorialMap([("1", "2", "3", "4")])
    assert isinstance(info.value, EdgesymError) and isinstance(info.value, ValueError)


def test_cli_exits_2_on_an_invalid_map(monkeypatch, capsys):
    # a face map that is not a closed surface reaches the map constructor
    monkeypatch.setattr(cli, "face_map", lambda P, tol: CombinatorialMap([P.vertices.labels[:4]]))
    assert cli.main(["analyze", "--gallery", "cube"]) == cli.EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: edge ('1', '2') lies in faces [0]") and err.count("\n") == 1


def test_disconnected_faces_are_an_invalid_map(monkeypatch, capsys):
    # the Euler relation holds, so without the connectivity check the map
    # would have no automorphism at all, not even the identity
    with pytest.raises(InvalidMap) as info:
        CombinatorialMap(TETRA_AND_TORUS)
    assert str(info.value) == ("faces are not connected: no chain of shared edges joins "
                               "('a', 'b', 'c') and ('t0', 't1', 't3')")
    monkeypatch.setattr(cli, "face_map", lambda P, tol: CombinatorialMap(TETRA_AND_TORUS))
    assert cli.main(["analyze", "--gallery", "cube"]) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == f"error: {info.value}\n"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=6),
                min_size=1, max_size=4))
def test_walk_matches_the_per_group_chain(groups):
    # every group of (tail, head) pairs, walked at once, against the walk of
    # each group alone: the same cycle, or no simple cycle for both
    group = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    pairs = np.array([p for g in groups for p in g], dtype=np.intp).reshape(-1, 2)
    cycles, count, bad = _walk_cycles(group, pairs[:, 0], pairs[:, 1], len(groups))
    ends = np.cumsum(count)
    for g, pairs_g in enumerate(groups):
        want = chain_cycle(pairs_g)
        assert bad[g] == (want is None)
        if want is not None:
            assert cycles[ends[g] - count[g]:ends[g]].tolist() == want


def assert_components(n, f, g):
    f, g = np.asarray(f, dtype=np.intp), np.asarray(g, dtype=np.intp)
    assert _components(n, f, g).tolist() == bfs_components(n, f.tolist(), g.tolist())


@pytest.mark.parametrize("seed", range(40))
def test_components_of_random_graphs(seed):
    # from no edges to well past the connectivity threshold, with
    # self-loops and duplicate edges among them
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    m = int(rng.integers(0, 3 * n))
    f, g = rng.integers(0, n, m), rng.integers(0, n, m)
    assert_components(n, f, g)
    assert_components(n, np.concatenate([f, g, f]), np.concatenate([g, f, f]))


def test_components_without_edges_self_loops_and_duplicates():
    assert_components(0, [], [])
    assert_components(5, [], [])
    assert_components(5, [0, 3, 3], [0, 3, 3])
    assert_components(6, [4, 5, 4, 5, 2, 2], [5, 4, 5, 4, 2, 2])
    assert _components(6, np.array([4, 1, 1]), np.array([5, 3, 3])).tolist() == [0, 1, 2, 1, 4, 4]


@pytest.mark.parametrize("direction", [1, -1])
def test_components_of_a_long_path(direction):
    # a path numbered in increasing order takes the most rounds of
    # hooking and jumping, about log2(n)
    n = 10**4
    f = np.arange(n - 1)[::direction]
    assert_components(n, f, f + 1)
    assert not _components(n, f + 1, f).any()


@pytest.mark.parametrize("seed", range(10))
def test_components_of_permutation_cycles(seed):
    # the orbits of a permutation, as the plane-graph build finds its faces:
    # the edges d -- succ[d]
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 2000))
    succ = rng.permutation(n)
    assert_components(n, np.arange(n), succ)
