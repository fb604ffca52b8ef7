"""Orbit polytopes: group orders known in closed form, faces inscribed by
construction.

The convex hull of the orbit G·p of a generic unit point p under a finite
point group G has every vertex on the unit sphere, so every face is
inscribed, and its isometries are exactly G. The theorem then says the
edge-preserving combinatorial symmetries are exactly the realized ones,
so both counts equal |G|. A random labelling and a random isometry keep
the instance from lining up with the coordinate axes or the label order.
"""

import numpy as np
import pytest

from edgesym import build_polytope, verify_polytope_theorem
from edgesym.verify import CLASS_APPLIES
from oracles import is_group, orbit_points, permutation_images, point_group

ORDERS = {"T": 12, "Td": 24, "Th": 24, "O": 24, "Oh": 48, "I": 60, "Ih": 120,
          "D5": 10, "D7": 14, "D5h": 20, "D7h": 28}
# combinatorial symmetries of the hull, edge-preserving or not: a generic
# T-orbit has the combinatorics of the icosahedron
TOTALS = {"T": 120, "Td": 48, "D7h": 56}


def test_generators_close_to_the_group_orders():
    assert {name: len(point_group(name)) for name in ORDERS} == ORDERS


@pytest.mark.parametrize("name", list(ORDERS))
@pytest.mark.parametrize("seed", [0, 1])
def test_orbit_polytope_realizes_exactly_its_group(name, seed):
    rng = np.random.default_rng([seed, *map(ord, name)])
    verdict = verify_polytope_theorem(build_polytope(orbit_points(name, rng)), instance_id=name)
    total, edge_preserving, realized = verdict.report.counts
    assert edge_preserving == realized == ORDERS[name]
    assert verdict.hypothesis_holds and verdict.classification == CLASS_APPLIES
    assert is_group(permutation_images(r.sigma for r in verdict.report.records))
    if name in TOTALS:
        assert total == TOTALS[name]
