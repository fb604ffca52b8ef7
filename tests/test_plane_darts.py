"""The dart-array plane-graph build against the per-face build it replaced:
equal maps, or the same exception with the same message."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesym import gallery
from edgesym.errors import (
    Disconnected,
    EdgeCrossing,
    EdgesymError,
    InvalidPlaneGraph,
    NonConvexBoundedFace,
    NonSimpleOuterBoundary,
)
from edgesym.planegraph import _MIN_TURN, ConvexPlaneGraph, build_plane_graph
from edgesym.verify import random_triangulation
from oracles import per_face_plane_graph, rotation2
from test_maps import assert_same_map


def outcome(build, points, edges):
    try:
        return build(points, edges)
    except (EdgesymError, ValueError) as exc:
        return exc


def assert_same_outcome(points, edges):
    """The reference outcome, after checking that the array build agrees."""
    got = outcome(build_plane_graph, points, edges)
    want = outcome(per_face_plane_graph, points, edges)
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
        return want
    assert isinstance(got, ConvexPlaneGraph), got
    assert_same_map(got.map, want.map)
    assert got.edges == want.edges
    assert got.vertices.labels == want.vertices.labels
    assert np.array_equal(got.vertices.array, want.vertices.array)
    return want


def inputs(G, rng=None):
    """Points and edges of G, shuffled by rng if given."""
    points, edges = list(G.vertices.items()), list(G.edges)
    if rng is not None:
        points = [points[i] for i in rng.permutation(len(points))]
        edges = [edges[i][::-1] if rng.random() < 0.5 else edges[i]
                 for i in rng.permutation(len(edges))]
    return points, edges


@pytest.mark.parametrize("spec", ["square", "parallelogram", "hex_three_rhombi",
                                  "twisted_squares:4:2:10"])
def test_gallery_graphs(spec):
    assert isinstance(assert_same_outcome(*inputs(gallery(spec))), ConvexPlaneGraph)


@pytest.mark.parametrize("n, seeds", [(3, 4), (4, 4), (5, 4), (8, 4), (13, 4), (40, 4),
                                      (300, 2), (1000, 1)])
def test_random_triangulations(n, seeds):
    for seed in range(seeds):
        G = random_triangulation(n, seed)
        assert_same_outcome(*inputs(G))
        assert_same_outcome(*inputs(G, np.random.default_rng(seed)))


def test_deleted_edges():
    """Triangulations with random edges deleted give quadrilaterals and
    larger faces, convex or not, dangling edges and disconnected graphs."""
    kinds = set()
    for seed in range(60):
        rng = np.random.default_rng(seed)
        G = random_triangulation(int(rng.integers(6, 30)), seed)
        points, edges = inputs(G, rng)
        keep = rng.random(len(edges)) >= rng.choice([0.05, 0.2, 0.5])
        want = assert_same_outcome(points, [e for e, k in zip(edges, keep) if k])
        kinds.add((type(want), "revisits" in str(want)))
    assert {(ConvexPlaneGraph, False), (Disconnected, False), (NonConvexBoundedFace, False),
            (NonSimpleOuterBoundary, True)} <= kinds


@pytest.mark.parametrize("k", [5, 6, 7])
def test_wheels_with_missing_spokes(k):
    # a regular k-gon around its centre: two missing neighbouring spokes
    # leave a flat corner at the centre for k = 6 and a reflex one for k < 6
    points = [(str(i), (math.cos(2 * math.pi * i / k), math.sin(2 * math.pi * i / k)))
              for i in range(k)] + [("c", (0.0, 0.0))]
    rim = [(str(i), str((i + 1) % k)) for i in range(k)]
    for spokes in range(1, 2**k):
        kept = [(str(i), "c") for i in range(k) if spokes >> i & 1]
        assert_same_outcome(points, rim + kept)


def test_dangling_edges():
    triangle = [("a", (0.0, 0.0)), ("b", (4.0, 0.0)), ("c", (0.0, 4.0))]
    sides = [("a", "b"), ("b", "c"), ("c", "a")]
    inside = assert_same_outcome(triangle + [("d", (1.0, 1.0))], sides + [("a", "d")])
    outside = assert_same_outcome(triangle + [("d", (-1.0, -1.0))], sides + [("d", "a")])
    path = assert_same_outcome(triangle, [("a", "b"), ("b", "c")])
    assert isinstance(inside, NonConvexBoundedFace) and "revisits" in str(inside)
    assert isinstance(outside, NonSimpleOuterBoundary) and "revisits" in str(outside)
    assert isinstance(path, NonSimpleOuterBoundary)


def test_moved_vertices_cross():
    crossings = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        points, edges = inputs(random_triangulation(20, seed), rng)
        i = int(rng.integers(len(points)))
        points[i] = (points[i][0], points[i][1] + rng.normal(scale=0.5, size=2))
        crossings += isinstance(assert_same_outcome(points, edges), EdgeCrossing)
    assert crossings >= 10


@pytest.mark.parametrize("labels", ["abcd", "dcba", "cadb"])
def test_collinear_edges_overlap_at_one_vertex(labels):
    # b lies on the edge a-c and g on the edge c-f, and neither has another
    # edge, so only the rotation systems at a and at c see the overlaps; a
    # comes first in input order, but not always in label order
    a, b, c, d = labels
    points = [(a, (0.0, 0.0)), (b, (1.0, 0.0)), (c, (2.0, 0.0)), (d, (1.0, 1.0)),
              ("e", (1.0, -1.0)), ("f", (5.0, 5.0)), ("g", (3.5, 2.5))]
    edges = [(a, c), (c, d), (d, a), (a, b), (c, "e"), ("e", a), (d, "f"), ("f", c), (c, "g")]
    want = assert_same_outcome(points, edges)
    assert isinstance(want, EdgeCrossing) and str(want).endswith(f"overlap at vertex {a}")


def turned(points):
    """The labelled points turned by 0.7 rad about the origin, so that no
    edge lies along an axis."""
    return [(label, rotation2(0.7) @ p) for label, p in points]


@pytest.mark.parametrize("delta", [-1e-12, 1e-12])
def test_corner_at_min_turn(delta):
    # the corner at "v" turns by _MIN_TURN + delta; the others by 45 to 135 degrees
    theta = _MIN_TURN + delta
    points = turned([("a", (-1.0, 0.0)), ("v", (0.0, 0.0)),
                     ("b", (math.cos(theta), math.sin(theta))), ("c", (0.0, 1.0))])
    edges = [("a", "v"), ("v", "b"), ("b", "c"), ("c", "a")]
    want = assert_same_outcome(points, edges)
    assert isinstance(want, ConvexPlaneGraph) == (delta > 0)


@pytest.mark.parametrize("delta", [-1e-12, 1e-12])
def test_spike_at_pi_minus_min_turn(delta):
    # the corner at "v" of a long thin triangle turns by pi - _MIN_TURN - delta
    phi = _MIN_TURN + delta
    points = turned([("v", (0.0, 0.0)), ("a", (1e3, 0.0)),
                     ("b", (1e3 * math.cos(phi), 1e3 * math.sin(phi)))])
    want = assert_same_outcome(points, [("v", "a"), ("a", "b"), ("b", "v")])
    assert isinstance(want, ConvexPlaneGraph) == (delta > 0)


@pytest.mark.parametrize("n", [5, 40])
def test_spanning_trees(n):
    # a tree is one walk of zero area, so its computed sign is rounding: the
    # outcome shows whether the terms are summed as the per-face build did
    found = set()
    for seed in range(25):
        rng = np.random.default_rng(seed)
        points, edges = inputs(random_triangulation(n, seed), rng)
        reached, tree = {points[0][0]}, []
        while len(reached) < n:
            u, v = edges[int(rng.integers(len(edges)))]
            if (u in reached) != (v in reached):
                reached |= {u, v}
                tree.append((u, v))
        found.add(str(assert_same_outcome(points, tree)).split(":")[0])
    assert found == {"expected exactly one outer walk, found 0",
                     "outer boundary revisits a vertex"}


_BASE = random_triangulation(12, 5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.booleans(), min_size=len(_BASE.edges), max_size=len(_BASE.edges)),
       st.integers(0, 2**32 - 1))
def test_random_edge_subsets(keep, seed):
    points, edges = inputs(_BASE, np.random.default_rng(seed))
    assert_same_outcome(points, [e for e, k in zip(edges, keep) if k])


# the edge-list forms the build accepts: each outcome is pinned against
# the per-face build, whatever order or form the edges come in

_HOUSE = [("c", (0.0, 2.0)), ("a", (0.0, 0.0)), ("d", (1.0, 3.0)), ("b", (2.0, 0.0)),
          ("e", (2.0, 2.0))]
_HOUSE_EDGES = [("a", "b"), ("b", "e"), ("e", "c"), ("c", "a"), ("c", "d"), ("d", "e"),
                ("a", "e")]


def test_edges_from_a_generator():
    want = assert_same_outcome(_HOUSE, _HOUSE_EDGES)
    got = build_plane_graph(_HOUSE, (e for e in _HOUSE_EDGES))
    assert_same_map(got.map, want.map)
    assert got.edges == want.edges


def test_duplicate_and_reversed_edges():
    want = assert_same_outcome(_HOUSE, _HOUSE_EDGES)
    doubled = _HOUSE_EDGES + [e[::-1] for e in _HOUSE_EDGES[::2]] + _HOUSE_EDGES[1::3]
    assert_same_map(assert_same_outcome(_HOUSE, doubled).map, want.map)
    assert_same_map(assert_same_outcome(_HOUSE, [e[::-1] for e in _HOUSE_EDGES]).map, want.map)


def test_integer_labels():
    points = [(i, p) for i, (_, p) in enumerate(_HOUSE)]
    rank = {l: i for i, (l, _) in enumerate(_HOUSE)}
    edges = [(rank[u], rank[v]) for u, v in _HOUSE_EDGES]
    G = assert_same_outcome(points, edges)
    assert isinstance(G, ConvexPlaneGraph) and G.map.vertices == ("0", "1", "2", "3", "4")


@pytest.mark.parametrize("turn", [False, True])
def test_labels_whose_string_order_is_not_numeric(turn):
    # "10" sorts before "2" and "9": vertex numbering, edge order and the
    # crossing check's pair order all follow the strings
    points = [("1", (0.0, 0.0)), ("2", (2.0, 0.0)), ("10", (2.0, 2.0)), ("9", (0.0, 2.0)),
              ("20", (1.0, 3.0))]
    points = turned(points) if turn else points
    edges = [("1", "2"), ("2", "10"), ("10", "9"), ("9", "1"), ("9", "20"), ("20", "10"),
             ("1", "10")]
    G = assert_same_outcome(points, edges)
    assert G.map.vertices == ("1", "10", "2", "20", "9")
    assert G.edges[0] == ("1", "10")
    crossing = assert_same_outcome(points + [("3", (0.0, 1.0))], edges + [("3", "2")])
    assert isinstance(crossing, EdgeCrossing)


def test_disconnected_names_the_first_input_label():
    # two triangles; the first label in input order is neither the smallest
    # label nor in the component of the smallest label
    points = [("m", (5.0, 0.0)), ("b", (0.0, 0.0)), ("n", (6.0, 0.0)), ("a", (1.0, 0.0)),
              ("o", (5.0, 1.0)), ("c", (0.0, 1.0))]
    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("m", "n"), ("n", "o"), ("o", "m")]
    want = assert_same_outcome(points, edges)
    assert isinstance(want, Disconnected)
    assert str(want) == "vertices ['a', 'b', 'c'] are not connected to 'm'"


@pytest.mark.parametrize("edges, message", [
    ([("a", "b"), ("z", "z")], "edge (z, z) references an unknown vertex label"),
    ([("a", "b"), ("b", "b"), ("a", "z")], "self-loop at vertex b"),
    ([("a", "b"), ("a", "z"), ("b", "b")], "edge (a, z) references an unknown vertex label"),
    ([("z", "a"), ("a", "a")], "edge (z, a) references an unknown vertex label"),
    ([("a", "b"), ("b", "c"), ("c", "a"), ("c", "c"), ("c", "c")], "self-loop at vertex c"),
])
def test_the_first_bad_edge_raises(edges, message):
    # the per-face build raises a plain ValueError here, so the type and
    # message are asserted directly
    points = [("a", (0.0, 0.0)), ("b", (1.0, 0.0)), ("c", (0.0, 1.0))]
    with pytest.raises(InvalidPlaneGraph) as info:
        build_plane_graph(points, edges)
    assert type(info.value) is InvalidPlaneGraph and str(info.value) == message
    with pytest.raises(InvalidPlaneGraph):
        build_plane_graph(points, iter(edges))
