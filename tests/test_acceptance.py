"""Acceptance suite: one test per criterion, each printing a pass line with
its measured numbers. Run with `pytest -v tests/test_acceptance.py` (add -s
to see the lines on passing runs)."""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from edgesym import gallery
from edgesym.geom import (
    best_fit_isometry,
    circumradius_from_sides,
    diameter_of,
    is_inscribed,
    reconstruct_inscribed_polygon,
)
from edgesym.planegraph import assemble_congruence, build_plane_graph
from edgesym.polytope import face_map
from edgesym.symmetry import enumerate_symmetries
from edgesym.verify import (
    CLASS_APPLIES,
    CLASS_FAILS_HOLDS,
    CLASS_VIOLATION,
    random_inscribed_polytope,
    random_triangulation,
    twisted_squares_check,
    verify_graph_theorem,
    verify_polytope_theorem,
)
from oracles import (
    brute_force_symmetries,
    random_inscribed_polygon,
    rotation2,
    side_lengths,
)


def _report(n, text):
    print(f"[criterion {n}] PASS: {text}")


def test_criterion_1_oracle_equivalence_symmetry_counts():
    """Flag-propagation counts equal brute-force counts on every small instance."""
    t0 = time.monotonic()
    expected_polytopes = {
        "cube": 48,
        "frustum": 48,
        "box_1_2_3": 48,
        "oblique_parallelepiped": 48,
        "tetrahedron": 24,
        "octahedron": 48,
    }
    checked = []
    for name, expected in expected_polytopes.items():
        M = face_map(gallery(name))
        fast = {p.word for p in enumerate_symmetries(M)}
        brute = {
            tuple(s[l] for l in sorted(s)) for s in brute_force_symmetries(M.faces)
        }
        assert fast == brute, name
        assert len(fast) == expected, name
        checked.append(f"{name}={len(fast)}")
    for name in ("square", "parallelogram"):
        G = gallery(name)
        fast = {p.word for p in enumerate_symmetries(G.map)}
        outer = G.map.faces[G.map.outer_face]
        brute = {
            tuple(s[l] for l in sorted(s))
            for s in brute_force_symmetries(G.map.faces, outer=outer)
        }
        assert fast == brute, name
        assert len(fast) == 8, name
        checked.append(f"{name}=8")
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(1, f"{', '.join(checked)} (brute force == flag propagation, {elapsed:.1f}s)")


def test_criterion_2_polytope_theorem_suite():
    """No THEOREM-VIOLATION over prisms, antiprisms, Platonic solids, and 50
    random inscribed polytopes; realized residuals below 1e-6 x diameter."""
    t0 = time.monotonic()
    instances = []
    for n in range(3, 9):
        instances.append((f"prism:{n}", gallery(f"prism:{n}")))
        instances.append((f"antiprism:{n}", gallery(f"antiprism:{n}")))
    for name in ("tetrahedron", "cube", "octahedron", "dodecahedron", "icosahedron"):
        instances.append((name, gallery(name)))
    rng = np.random.default_rng(987)
    sizes = rng.integers(4, 41, size=50)
    for i, n in enumerate(sizes):
        instances.append(
            (f"random:{n}:{i}", random_inscribed_polytope(int(n), seed=5000 + i))
        )
    worst_ratio = 0.0
    for name, P in instances:
        v = verify_polytope_theorem(P, instance_id=name)
        assert v.classification != CLASS_VIOLATION, name
        diam = P.vertices.diameter
        for rec in v.report.records:
            if rec.realized:
                assert rec.rmsd < 1e-6 * diam, (name, rec.sigma.cycle_notation())
                worst_ratio = max(worst_ratio, rec.rmsd / diam)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(2, f"{len(instances)} polytopes alarm-free, worst realized "
               f"rmsd/diam {worst_ratio:.2e} (<1e-6), {elapsed:.1f}s")


def test_criterion_3_graph_theorem_suite():
    """No THEOREM-VIOLATION over 50 random triangulations and the graph gallery."""
    t0 = time.monotonic()
    rng = np.random.default_rng(654)
    sizes = rng.integers(10, 41, size=50)
    count = 0
    for i, n in enumerate(sizes):
        G = random_triangulation(int(n), seed=7000 + i)
        v = verify_graph_theorem(G, instance_id=f"tri:{n}:{i}")
        assert v.classification != CLASS_VIOLATION
        assert v.classification == CLASS_APPLIES  # triangles are always inscribed
        count += 1
    for name in ("square", "parallelogram", "hex_three_rhombi", "twisted_squares:4:2:10"):
        v = verify_graph_theorem(gallery(name), instance_id=name)
        assert v.classification != CLASS_VIOLATION, name
        count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(3, f"{count} graphs alarm-free, {elapsed:.1f}s")


def test_criterion_4_paper_example_reproduction():
    """Qualitative claims about the example instances, reproduced exactly."""
    v = verify_polytope_theorem(gallery("box_1_2_3"))
    assert v.conclusion_holds and v.report.edge_preserving_count == 8

    v = verify_polytope_theorem(gallery("oblique_parallelepiped"))
    assert len(v.violations) >= 1

    v = verify_polytope_theorem(gallery("octa_tetra_glue"))
    assert v.classification == CLASS_FAILS_HOLDS

    v = verify_graph_theorem(gallery("hex_three_rhombi"))
    assert v.classification == CLASS_FAILS_HOLDS

    v = verify_graph_theorem(gallery("parallelogram"))
    assert len(v.violations) >= 1

    v = verify_polytope_theorem(gallery("frustum"))
    assert v.conclusion_holds and v.report.edge_preserving_count == 8
    _report(4, "box, oblique parallelepiped, glued solid, three-rhombi hexagon, "
               "parallelogram, frustum all behave as documented")


def test_criterion_5_inscribed_polygon_round_trip():
    """Reconstruction from side lengths is congruent to the original for 200
    random inscribed polygons, both circumcenter branches included."""
    rng = np.random.default_rng(321)
    cases = []
    for i in range(120):
        cases.append(random_inscribed_polygon(rng, int(rng.integers(3, 13)), False))
    for i in range(40):
        cases.append(random_inscribed_polygon(rng, 3, True))  # obtuse triangles
    for i in range(40):
        cases.append(random_inscribed_polygon(rng, int(rng.integers(4, 13)), True))
    assert len(cases) == 200
    worst_rmsd = worst_rad = 0.0
    for poly in cases:
        L = side_lengths(poly)
        rebuilt = reconstruct_inscribed_polygon(L)
        diam = diameter_of(poly)
        _, rmsd = best_fit_isometry(rebuilt, poly)
        assert rmsd < 1e-8 * diam
        worst_rmsd = max(worst_rmsd, rmsd / diam)
        r_sides = circumradius_from_sides(L)
        r_fit = is_inscribed(poly)[1].radius
        assert abs(r_sides - r_fit) <= 1e-9 * r_fit
        worst_rad = max(worst_rad, abs(r_sides - r_fit) / r_fit)
    assert circumradius_from_sides([1, 1, 1]) == pytest.approx(0.57735, abs=1e-5)
    assert abs(circumradius_from_sides([1, 1, 1]) - 1 / math.sqrt(3)) < 1e-9
    assert abs(circumradius_from_sides([3, 4, 5]) - 2.5) < 1e-9
    _report(5, f"200 polygons: worst rmsd/diam {worst_rmsd:.2e} (<1e-8), worst "
               f"radius mismatch {worst_rad:.2e} (<1e-9); spot checks 0.57735, 2.5 ok")


def test_criterion_6_constructive_congruence_assembly():
    """assemble_congruence recovers a random isometry (reflections included)
    on 100 seeded triangulations and agrees with the direct fit."""
    rng = np.random.default_rng(246)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(6, 19))
        G = random_triangulation(n, seed=9000 + i)
        R = rotation2(float(rng.uniform(0, 2 * math.pi)))
        if i % 2:
            R = R @ np.array([[1.0, 0.0], [0.0, -1.0]])
        t = rng.uniform(-3, 3, size=2)
        H = build_plane_graph([(l, R @ p + t) for l, p in G.vertices.items()], G.edges)
        iso = assemble_congruence(G, H)
        assert iso is not None, i
        diam = G.vertices.diameter
        pts = G.vertices.take(sorted(G.vertices))
        expected = pts @ R.T + t
        err = np.linalg.norm(iso.apply(pts) - expected, axis=1).max()
        assert err < 1e-8 * diam, i
        direct, _ = best_fit_isometry(pts, H.vertices.take(sorted(H.vertices)))
        gap = np.linalg.norm(iso.apply(pts) - direct.apply(pts), axis=1).max()
        assert gap < 1e-8 * diam, i
        worst = max(worst, err / diam, gap / diam)
    _report(6, f"100 assemblies recovered their isometry, worst deviation "
               f"{worst:.2e} x diameter (<1e-8)")


def test_criterion_7_twisted_squares_refutation():
    """Twisted-squares spoke length vs the symmetric configuration's forced
    length, both re-derived from the law of cosines."""
    r1, r2 = 4 / math.sqrt(2), 2 / math.sqrt(2)
    oracle_10 = math.sqrt(r1**2 + r2**2 - 2 * r1 * r2 * math.cos(math.radians(10)))
    rep = twisted_squares_check(4, 2, 10)
    assert rep.len_twisted == pytest.approx(oracle_10, abs=1e-9)
    assert rep.len_forced == pytest.approx(r1 - r2, abs=1e-12)
    assert rep.len_forced == pytest.approx(math.sqrt(2), abs=1e-12)
    assert rep.refuted

    sweep = []
    for alpha in range(1, 16):
        oracle = math.sqrt(r1**2 + r2**2 - 2 * r1 * r2 * math.cos(math.radians(alpha)))
        rep_a = twisted_squares_check(4, 2, alpha)
        assert rep_a.len_twisted == pytest.approx(oracle, abs=1e-9)
        sweep.append(rep_a.len_twisted)
    assert all(b > a for a, b in zip(sweep, sweep[1:]))

    rep0 = twisted_squares_check(4, 2, 0)
    assert not rep0.refuted
    _report(7, f"len_twisted(10deg)={rep.len_twisted:.6f} vs forced sqrt(2)="
               f"{rep.len_forced:.6f}, refuted; sweep 1..15deg strictly increasing; "
               f"alpha=0 not refuted")


def test_criterion_8_cli_determinism(tmp_path):
    """Identical invocations produce byte-identical reports."""
    from edgesym.io import write_off

    off_path = tmp_path / "frustum.off"
    off_path.write_text(write_off(gallery("frustum")))
    invocations = [
        ["analyze", "--gallery", "cube"],
        ["analyze", "--gallery", "oblique_parallelepiped", "--format", "text"],
        ["verify", "--gallery", "hex_three_rhombi"],
        ["verify", "--random", "18", "--seed", "11"],
        ["verify", str(off_path)],
        ["reconstruct", "--sides", "2,3,4"],
    ]
    for argv in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "edgesym.cli", *argv],
                capture_output=True, check=True,
            )
            for _ in range(2)
        ]
        assert runs[0].stdout == runs[1].stdout, argv
        assert runs[0].stdout  # nonempty reports
    _report(8, f"{len(invocations)} invocations byte-identical across repeat runs")
