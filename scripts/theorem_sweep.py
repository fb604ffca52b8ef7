#!/usr/bin/env python3
"""Sweep the built-in gallery, prism/antiprism families (n = 3..8, 16 and
40), orbit polytopes of the groups T, O and Ih (one orbit each, and two
orbits of Ih), and seeded random instances through the theorem verifier
and print a classification table.

Exits nonzero if any instance raises the falsification alarm (hypothesis
holds but some edge-preserving symmetry is unrealized).
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from edgesym import build_polytope, gallery
from edgesym.verify import (
    CLASS_VIOLATION,
    random_inscribed_polytope,
    random_triangulation,
    verify_graph_theorem,
    verify_polytope_theorem,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from oracles import orbit_points  # noqa: E402  (the test oracles' group generators)

POLYTOPES = [
    "cube", "box_1_2_3", "oblique_parallelepiped", "tetrahedron", "octahedron",
    "dodecahedron", "icosahedron", "hex_prism", "frustum", "octa_tetra_glue",
]
GRAPHS = ["square", "parallelogram", "hex_three_rhombi", "twisted_squares:4:2:10"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--random", type=int, default=20,
                        help="number of random instances per kind")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    rows = []
    for name in POLYTOPES:
        rows.append((name, verify_polytope_theorem(gallery(name), instance_id=name)))
    # n = 16 and 40 give caps merged from many hull triangles
    for n in [*range(3, 9), 16, 40]:
        for fam in ("prism", "antiprism"):
            name = f"{fam}:{n}"
            rows.append((name, verify_polytope_theorem(gallery(name), instance_id=name)))
    # inscribed instances with non-trivial groups: each realizes exactly
    # the group, every symmetry of which preserves edges
    for group, orbits in (("T", 1), ("O", 1), ("Ih", 1), ("Ih", 2)):
        name = f"orbit:{group}x{orbits}"
        points = orbit_points(group, np.random.default_rng(args.seed), orbits)
        rows.append((name, verify_polytope_theorem(build_polytope(points), instance_id=name)))
    for name in GRAPHS:
        rows.append((name, verify_graph_theorem(gallery(name), instance_id=name)))

    rng = np.random.default_rng(args.seed)
    for i in range(args.random):
        n = int(rng.integers(4, 41))
        name = f"random_polytope:{n}:{i}"
        rows.append((name, verify_polytope_theorem(
            random_inscribed_polytope(n, seed=args.seed * 1000 + i), instance_id=name)))
    for i in range(args.random):
        n = int(rng.integers(10, 41))
        name = f"random_triangulation:{n}:{i}"
        rows.append((name, verify_graph_theorem(
            random_triangulation(n, seed=args.seed * 1000 + 500 + i), instance_id=name)))

    width = max(len(name) for name, _ in rows)
    alarms = 0
    for name, verdict in rows:
        c = verdict.report.counts
        print(f"{name:<{width}}  {c[0]:>5} sym  {c[1]:>5} edge-pres  {c[2]:>5} realized  "
              f"{verdict.classification}")
        if verdict.classification == CLASS_VIOLATION:
            alarms += 1
    print(f"\n{len(rows)} instances, {alarms} alarms")
    return 1 if alarms else 0


if __name__ == "__main__":
    sys.exit(main())
