#!/usr/bin/env python3
"""Sweep the built-in gallery, prism/antiprism families (n = 3..8, 16 and
40), orbit polytopes of the groups T, O and Ih (one orbit each, and two
orbits of Ih), and seeded random instances through the theorem verifier
and print a classification table. Each instance is also verified as
power-of-two copies, 2^k times its coordinates (k = ±30, ±200 for
polytopes, ±30, ±400 for plane graphs), which must get its classification
and counts: every threshold is a multiple of the diameter. The gallery
instances without parameters are also verified as noisy copies, every
coordinate moved by seeded Gaussian noise of scale 1e-9 to 1e-6 (2 seeds
each), where an edge length can change by more than the length threshold
while a fit stays within the fit threshold. Every instance is also
verified as translated copies, moved by seeded offsets of order 10^6,
10^10 and 10^14.

Exits nonzero if any instance, noisy or translated copy raises the
falsification alarm (hypothesis holds but some edge-preserving symmetry
is unrealized), if a scaled copy is classified or counted differently, or
if any copy raises an exception that is not an EdgesymError. A noisy or
translated copy may end in an input error, which is counted: far from the
origin, close points collapse at the offset's ulp.
"""

import argparse
import itertools
import sys
from pathlib import Path

import numpy as np

from edgesym import build_polytope, gallery
from edgesym.errors import EdgesymError
from edgesym.gallery import gallery_names
from edgesym.planegraph import build_plane_graph
from edgesym.verify import (
    CLASS_VIOLATION,
    random_inscribed_polytope,
    random_triangulation,
    verify_graph_theorem,
    verify_polytope_theorem,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
# the test oracles' group generators and noise
from oracles import NOISE_EPS, noisy_vertices, orbit_points  # noqa: E402

POLYTOPES = [
    "cube", "box_1_2_3", "oblique_parallelepiped", "tetrahedron", "octahedron",
    "dodecahedron", "icosahedron", "hex_prism", "frustum", "octa_tetra_glue",
]
GRAPHS = ["square", "parallelogram", "hex_three_rhombi", "twisted_squares:4:2:10"]
POLYTOPE_SCALES = (-200, -30, 30, 200)
GRAPH_SCALES = (-400, -30, 30, 400)
OFFSETS = (6, 10, 14)  # translated copies, moved by offsets of order 10^k


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--random", type=int, default=20,
                        help="number of random instances per kind")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    polytopes = [(name, gallery(name)) for name in POLYTOPES]
    # n = 16 and 40 give caps merged from many hull triangles
    for n in [*range(3, 9), 16, 40]:
        for fam in ("prism", "antiprism"):
            polytopes.append((f"{fam}:{n}", gallery(f"{fam}:{n}")))
    # inscribed instances with non-trivial groups: each realizes exactly
    # the group, every symmetry of which preserves edges
    for group, orbits in (("T", 1), ("O", 1), ("Ih", 1), ("Ih", 2)):
        points = orbit_points(group, np.random.default_rng(args.seed), orbits)
        polytopes.append((f"orbit:{group}x{orbits}", build_polytope(points)))
    graphs = [(name, gallery(name)) for name in GRAPHS]

    rng = np.random.default_rng(args.seed)
    for i in range(args.random):
        n = int(rng.integers(4, 41))
        polytopes.append((f"random_polytope:{n}:{i}",
                          random_inscribed_polytope(n, seed=args.seed * 1000 + i)))
    for i in range(args.random):
        n = int(rng.integers(10, 41))
        graphs.append((f"random_triangulation:{n}:{i}",
                       random_triangulation(n, seed=args.seed * 1000 + 500 + i)))

    fixed = {name for name in gallery_names() if ":" not in name}
    rows, mismatches, copies, noisy, errors, moved, moved_errors = [], [], 0, [], 0, [], 0
    for instances, verify, rebuild, scales in (
        (polytopes, verify_polytope_theorem, lambda X, pts: build_polytope(pts), POLYTOPE_SCALES),
        (graphs, verify_graph_theorem, lambda X, pts: build_plane_graph(pts, X.edges),
         GRAPH_SCALES),
    ):
        for name, X in instances:
            verdict = verify(X, instance_id=name)
            rows.append((name, verdict))
            for k in scales:
                copy = verify(rebuild(X, {l: p * 2.0**k for l, p in X.vertices.items()}),
                              instance_id=name)
                copies += 1
                if ((copy.classification, copy.report.counts)
                        != (verdict.classification, verdict.report.counts)):
                    mismatches.append(f"{name} x 2^{k}: {copy.classification} "
                                      f"{copy.report.counts}")
            for k in OFFSETS:
                rng = np.random.default_rng([args.seed, k])
                offset = rng.normal(size=X.vertices.array.shape[1]) * 10.0**k
                try:
                    copy = verify(rebuild(X, {l: p + offset for l, p in X.vertices.items()}),
                                  instance_id=name)
                except EdgesymError:
                    moved_errors += 1
                    continue
                moved.append((f"{name} + offset 1e{k}", copy))
            if name not in fixed:
                continue
            for eps, seed in itertools.product(NOISE_EPS, (0, 1)):
                try:
                    copy = verify(rebuild(X, noisy_vertices(X, eps, seed)), instance_id=name)
                except EdgesymError:
                    errors += 1
                    continue
                noisy.append((f"{name} + noise {eps:g} seed {seed}", copy))

    width = max(len(name) for name, _ in rows)
    alarms = len(mismatches)
    for name, verdict in rows:
        c = verdict.report.counts
        print(f"{name:<{width}}  {c[0]:>5} sym  {c[1]:>5} edge-pres  {c[2]:>5} realized  "
              f"{verdict.classification}")
    for name, verdict in rows + noisy + moved:
        if verdict.classification == CLASS_VIOLATION:
            print(f"alarm: {name}")
            alarms += 1
    for line in mismatches:
        print(f"scale mismatch: {line}")
    print(f"\n{len(rows)} instances, {copies} scaled copies, "
          f"{len(noisy) + errors} noisy copies ({errors} input errors), "
          f"{len(moved) + moved_errors} translated copies ({moved_errors} input errors), "
          f"{alarms} alarms")
    return 1 if alarms else 0


if __name__ == "__main__":
    sys.exit(main())
