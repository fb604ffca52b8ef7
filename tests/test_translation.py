"""Verify far from the origin.

Each instance is verified as copies moved by seeded offsets
``default_rng(s).normal(size=d) * 10**k``, for k = 4..14 and s = 0..2.
Symmetry fits, circle fits and the hull run in a frame anchored at an
input vertex, so no translation may turn rounding into a
THEOREM-VIOLATION. Far out, a copy may fail validation, since its
coordinates round at the offset's ulp: that is an ``EdgesymError`` and is
allowed. Any other exception fails the test.
"""

import numpy as np
import pytest

from edgesym import build_polytope, gallery
from edgesym.errors import EdgesymError
from edgesym.planegraph import build_plane_graph
from edgesym.verify import (
    CLASS_VIOLATION,
    random_inscribed_polytope,
    random_triangulation,
    verify_graph_theorem,
    verify_polytope_theorem,
)
from oracles import orbit_points

POLYTOPES = [
    "cube", "box_1_2_3", "oblique_parallelepiped", "tetrahedron", "octahedron",
    "dodecahedron", "icosahedron", "hex_prism", "frustum", "octa_tetra_glue",
    "prism:7", "antiprism:5", "orbit:T", "orbit:O", "orbit:Ih", "orbit:D5h", "orbit:D7h",
    "sphere:30", "sphere:200",
]
GRAPHS = ["square", "parallelogram", "hex_three_rhombi", "triangulation:12", "triangulation:40"]


def instance(name):
    """A gallery instance, an orbit polytope of a point group, or a seeded
    random sphere or triangulation with n vertices."""
    kind, _, arg = name.partition(":")
    if kind == "orbit":
        return build_polytope(orbit_points(arg, np.random.default_rng(0)))
    if kind == "sphere":
        return random_inscribed_polytope(int(arg), seed=int(arg))
    if kind == "triangulation":
        return random_triangulation(int(arg), seed=int(arg))
    return gallery(name)


def translated_verdicts(X, verify, rebuild):
    """The verdict of each translated copy of X that builds."""
    verdicts = {}
    for k in range(4, 15):
        for s in range(3):
            offset = np.random.default_rng(s).normal(size=X.vertices.array.shape[1]) * 10.0**k
            try:
                copy = rebuild({l: p + offset for l, p in X.vertices.items()})
                verdicts[k, s] = verify(copy)
            except EdgesymError:
                continue
    return verdicts


def assert_no_violation(verdicts):
    alarms = [(k, s) for (k, s), v in verdicts.items() if v.classification == CLASS_VIOLATION]
    assert not alarms, f"THEOREM-VIOLATION at (10^k, seed) {alarms}"


@pytest.mark.parametrize("name", POLYTOPES)
def test_translated_polytope_raises_no_alarm(name):
    assert_no_violation(translated_verdicts(instance(name), verify_polytope_theorem,
                                            build_polytope))


@pytest.mark.parametrize("name", GRAPHS)
def test_translated_plane_graph_raises_no_alarm(name):
    X = instance(name)
    assert_no_violation(translated_verdicts(X, verify_graph_theorem,
                                            lambda points: build_plane_graph(points, X.edges)))
