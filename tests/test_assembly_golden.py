"""Bit-exact guards on congruence assembly and boundary decomposition.

`test_assembly_bit_identical` pins one SHA-256 over what
`assemble_congruence` returns on seeded random triangulations, each moved
by a seeded orthogonal map and shift, with vertex noise 0, 1e-8 and 1e-3:
per case the bytes of the isometry's linear part and translation, ``none``,
or the class name of the `EdgesymError` raised. The floats depend on the
numpy/LAPACK build; the digest was recorded with numpy 2.4.6 on
scipy-openblas 0.3.31 (Python 3.11). On another build, regenerate it with
``python tests/test_assembly_golden.py`` from a commit whose results are
trusted.

`test_one_sided_matches_two_sided` checks that assembly decomposing G
alone returns what the two-sided assembly in ``oracles`` returns.

`test_pieces_equal_rebuilt_graphs` checks that every piece
`boundary_decomposition` returns is the graph `build_plane_graph` builds
from the piece's own points and edges.
"""

import hashlib
import pathlib
import sys

import numpy as np
import pytest

from edgesym import gallery
from edgesym.errors import EdgesymError
from edgesym.geom import DEFAULT_TOLERANCE
from edgesym.planegraph import (
    assemble_congruence,
    boundary_decomposition,
    build_plane_graph,
)
from edgesym.verify import random_triangulation

from oracles import two_sided_assemble

NOISES = (0.0, 1e-8, 1e-3)
DIGEST = "263e6cadc29ccd6135364e483adf620bf9d621ea98ca323d013198fd5cf47e4b"


def outcome(G, rng, noise: float) -> tuple[str, bytes]:
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    t = rng.uniform(-3, 3, size=2)
    try:
        H = build_plane_graph(
            [(l, q @ p + t + noise * rng.standard_normal(2)) for l, p in G.vertices.items()],
            G.edges,
        )
        iso = assemble_congruence(G, H)
    except EdgesymError as exc:
        return type(exc).__name__, type(exc).__name__.encode()
    if iso is None:
        return "none", b"none"
    return "isometry", iso.linear.tobytes() + iso.translation.tobytes()


def assembly_digest() -> tuple[str, dict[str, int]]:
    h = hashlib.sha256()
    kinds: dict[str, int] = {}
    for seed in range(2):
        for n in range(3, 31):
            G = random_triangulation(n, seed)
            for k, noise in enumerate(NOISES):
                kind, out = outcome(G, np.random.default_rng([seed, n, k]), noise)
                h.update(f"{n} {seed} {noise!r}:".encode() + out + b"\n")
                kinds[kind] = kinds.get(kind, 0) + 1
    return h.hexdigest(), kinds


def test_assembly_bit_identical():
    digest, kinds = assembly_digest()
    assert digest == DIGEST, f"assembly results changed; outcome counts {kinds}"


def assembly_outcome(assemble, G, H):
    try:
        iso = assemble(G, H)
    except Exception as exc:
        return type(exc)
    return None if iso is None else iso.linear.tobytes() + iso.translation.tobytes()


def moved_images(G, rng):
    """Images of G under a seeded rotation and a seeded reflection, each
    shifted, then with vertex noise of 0.3 and 3 times fit_eps * diameter,
    and with one seeded vertex moved by 1e-3 * diameter, so that assembly
    fails at the depth of that vertex's faces."""
    P, diam = G.vertices.array, G.vertices.diameter
    fit = DEFAULT_TOLERANCE.fit_threshold(diam)
    q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    q *= np.sign(np.linalg.det(q))
    moved = [P @ q.T + rng.uniform(-3, 3, 2), P @ (q * [1.0, -1.0]).T + rng.uniform(-3, 3, 2)]
    for Q in list(moved):
        moved += [Q + scale * fit * rng.standard_normal(P.shape) for scale in (0.3, 3.0)]
        far = Q.copy()
        far[rng.integers(len(P))] += 1e-3 * diam * rng.standard_normal(2)
        moved.append(far)
    return moved


@pytest.mark.parametrize("seed", range(2))
def test_one_sided_matches_two_sided(seed):
    kinds = set()
    for n in range(3, 31):
        G = random_triangulation(n, seed)
        for Q in moved_images(G, np.random.default_rng([seed, n])):
            H = build_plane_graph(list(zip(G.vertices.labels, Q)), G.edges)
            want = assembly_outcome(two_sided_assemble, G, H)
            assert assembly_outcome(assemble_congruence, G, H) == want
            kinds.add(type(want))
    assert kinds == {bytes, type(None)}


def test_pieces_equal_rebuilt_graphs():
    graphs = [random_triangulation(n, s) for s in range(2) for n in range(4, 30)]
    graphs += [gallery(name) for name in
               ("square", "parallelogram", "hex_three_rhombi", "twisted_squares:4:2:5")]
    count = 0
    for G in graphs:
        outer_edges = G.map.face_edges(G.map.outer_face)
        for fi in G.bounded_faces():
            if not G.map.face_edges(fi) & outer_edges:
                continue
            for p in boundary_decomposition(G, fi):
                ref = build_plane_graph(list(p.vertices.items()), p.edges)
                assert list(p.vertices) == list(ref.vertices)
                for label, point in p.vertices.items():
                    assert np.array_equal(point, G.vertices[label])
                assert p.edges == ref.edges
                assert p.map.faces == ref.map.faces
                assert p.map.outer_face == ref.map.outer_face
                count += 1
    assert count == 407


if __name__ == "__main__":
    digest, kinds = assembly_digest()
    print(digest, kinds, file=sys.stderr)
