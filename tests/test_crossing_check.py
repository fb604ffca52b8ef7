"""The plane-graph crossing check against the all-pairs scan it replaced."""

import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import Delaunay

from edgesym import planegraph
from edgesym.errors import EdgeCrossing
from edgesym.geom import DEFAULT_TOLERANCE, diameter_of
from edgesym.planegraph import build_plane_graph
from oracles import all_pairs_first_crossing


def grid_first_crossing(coords, edges, eps):
    names = [str(i) for i in range(len(coords))]
    try:
        planegraph._check_crossings(coords, edges, names, eps)
    except EdgeCrossing as exc:
        return str(exc)
    return None


def outcomes(coords, edges, eps=None):
    coords = np.asarray(coords, dtype=float)
    if eps is None:
        eps = DEFAULT_TOLERANCE.length_eps(diameter_of(coords))
    names = [str(i) for i in range(len(coords))]
    return grid_first_crossing(coords, edges, eps), all_pairs_first_crossing(coords, edges, names, eps)


def delaunay_edges(pts):
    edges = set()
    for simplex in Delaunay(pts).simplices:
        a, b, c = sorted(int(x) for x in simplex)
        edges |= {(a, b), (b, c), (a, c)}
    return edges


def add_chords(rng, edges, n, count):
    for _ in range(count):
        a, b = (int(x) for x in rng.choice(n, 2, replace=False))
        edges.add((min(a, b), max(a, b)))


def corpus_input(seed):
    """Seeded edge set of one of seven kinds: a Delaunay triangulation with
    at most one random chord; one with a spur ending 1e-6..1e-12 from an
    edge; one with a vertex moved to within 1e-6..1e-12 of an edge; either
    of the first two scaled by 1e-6..1e6 and shifted; overlapping collinear
    edges beside off-line points; random segments; a small triangulation
    inside a square 10^3 times larger, with at most one chord."""
    rng = np.random.default_rng(seed)
    kind = seed % 7
    if kind == 3:
        kind = int(rng.integers(0, 2))
        scale, shift = 10.0 ** rng.uniform(-6, 6), rng.uniform(-3, 3, 2)
    else:
        scale, shift = 1.0, np.zeros(2)
    n = int(rng.integers(4, 50))
    pts = rng.random((n, 2))
    if kind in (0, 6):
        if kind == 6:
            pts = np.vstack([pts, 0.5 + 500 * np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)])])
            n = len(pts)
        edges = delaunay_edges(pts)
        add_chords(rng, edges, n, int(rng.integers(0, 2)))
    elif kind in (1, 2):
        edges = delaunay_edges(pts)
        a, b, c = (int(x) for x in Delaunay(pts).simplices[0])
        d = pts[b] - pts[a]
        normal = np.array([-d[1], d[0]]) / np.linalg.norm(d)
        if normal @ (pts[c] - pts[a]) < 0:
            normal = -normal
        delta = 10.0 ** -rng.uniform(6, 12) * (1 if rng.random() < 0.75 else -1)
        near = pts[a] + rng.uniform(0.05, 0.95) * d + delta * normal
        if kind == 1:  # a spur from c ending near the edge ab
            pts = np.vstack([pts, near])
            edges.add((c, n))
            n += 1
        else:
            pts[c] = near
    elif kind == 4:
        k = int(rng.integers(3, 12))
        line = np.outer(rng.integers(0, 20, k), rng.normal(size=2)) + rng.random(2)
        pts = np.vstack([line, pts[: max(n - k, 0)]])
        n = len(pts)
        edges = set()
        add_chords(rng, edges, n, int(rng.integers(2, 2 * n)))
    else:
        edges = set()
        add_chords(rng, edges, n, int(rng.integers(1, n // 2 + 2)))
    pts = (pts + shift) * scale
    edges = sorted(edges)
    order = rng.permutation(len(edges))
    return pts, [edges[i] for i in order]


def test_matches_all_pairs_scan(monkeypatch):
    crossings, default = 0, planegraph._PAIR_BLOCK
    for seed in range(1050):
        pts, edges = corpus_input(seed)
        # small blocks split the candidates of one input over many blocks
        monkeypatch.setattr(planegraph, "_PAIR_BLOCK", default if seed % 3 else 1 + seed % 50)
        new, ref = outcomes(pts, edges)
        assert new == ref, f"seed {seed}"
        crossings += ref is not None
    assert crossings >= 400, crossings
    assert 1050 - crossings >= 300, crossings


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
                          st.integers(0, 6)), min_size=1, max_size=12))
def test_matches_all_pairs_scan_on_integer_grid(segments):
    # integer endpoints make touching and collinear overlap exact
    index, edges = {}, set()
    for x1, y1, x2, y2 in segments:
        if (x1, y1) == (x2, y2):
            continue
        a, b = (index.setdefault(p, len(index)) for p in ((x1, y1), (x2, y2)))
        edges.add((min(a, b), max(a, b)))
    points = sorted(index, key=index.get)
    if len(points) < 2:
        return
    new, ref = outcomes(points, sorted(edges))
    assert new == ref


def peak_and_seconds(fn):
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak, seconds


class TestAdversarialLayouts:
    def test_far_corner_triangulation(self):
        # 1000 unit-square points and the corners of a square 10^3 times
        # larger: the corner edges span the whole grid
        pts = np.random.default_rng(1).random((1000, 2))
        pts = np.vstack([pts, 0.5 + 500 * np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)])])
        edges = sorted(delaunay_edges(pts))
        eps = DEFAULT_TOLERANCE.length_eps(diameter_of(pts))
        names = [str(i) for i in range(len(pts))]
        new, peak, new_s = peak_and_seconds(lambda: grid_first_crossing(pts, edges, eps))
        t0 = time.perf_counter()
        ref = all_pairs_first_crossing(pts, edges, names, eps)
        ref_s = time.perf_counter() - t0
        assert new == ref is None
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.0f} MiB"
        assert new_s <= ref_s, (new_s, ref_s)

    def test_fan_of_convex_polygon(self):
        # every diagonal through one corner of a convex 600-gon: edges of
        # all lengths meet in one vertex, so most boxes share the cells
        # around it
        theta = 2 * np.pi * np.arange(600) / 600
        pts = np.column_stack([np.cos(theta), np.sin(theta)])
        edges = sorted({(i, (i + 1) % 600) if i < 599 else (0, 599) for i in range(600)}
                       | {(0, j) for j in range(2, 599)})
        eps = DEFAULT_TOLERANCE.length_eps(diameter_of(pts))
        names = [str(i) for i in range(len(pts))]
        new, peak, _ = peak_and_seconds(lambda: grid_first_crossing(pts, edges, eps))
        assert new == all_pairs_first_crossing(pts, edges, names, eps) is None
        assert peak < 32 * 2**20, f"peak {peak / 2**20:.0f} MiB"

    def test_2000_point_build_memory_bounded(self):
        pts = np.random.default_rng(2000).random((2000, 2))
        points = [(str(i), p) for i, p in enumerate(pts)]
        edges = [(str(a), str(b)) for a, b in sorted(delaunay_edges(pts))]
        G, peak, _ = peak_and_seconds(lambda: build_plane_graph(points, edges))
        assert len(G.edges) > 5900
        assert peak < 64 * 2**20, f"peak {peak / 2**20:.0f} MiB"

    @pytest.mark.parametrize("edges, crossing", [([(0, 1)], False), ([(0, 1), (1, 2)], False),
                                                 ([(0, 2), (1, 3)], False),
                                                 ([(0, 1), (2, 3)], True)])
    def test_one_and_two_edges(self, edges, crossing):
        new, ref = outcomes([(0, 0), (2, 2), (2, 0), (0, 2)], edges)
        assert new == ref
        assert (new is not None) == crossing

    def test_touch_across_a_cell_boundary(self):
        # the spur ends 1e-9 below the edge at y = 1 + 2.5e-10, inside its
        # hit radius but outside its unpadded box; unit edges put a cell
        # boundary between the two
        pts = [(0, 0), (1, 0), (3, 0), (4, 0), (0, 1 + 2.5e-10), (1, 1 + 2.5e-10),
               (0.5, 0.5), (0.5, 1 - 7.5e-10)]
        new, ref = outcomes(pts, [(0, 1), (2, 3), (4, 5), (6, 7)])
        assert new == ref == "edges ('4', '5') and ('6', '7') intersect away from shared endpoints"

    @pytest.mark.parametrize("crossing", [False, True])
    def test_edges_on_one_line(self, crossing):
        # a horizontal line: the grid has no extent in y beyond the padding;
        # the second layout has two overlapping collinear edges
        pts = [(float(x), 3.0) for x in range(8)]
        edges = [(i, i + 1) for i in range(7)] + ([(2, 5)] if crossing else [])
        new, ref = outcomes(pts, edges)
        assert new == ref
        assert (new is not None) == crossing
