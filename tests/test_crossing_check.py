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
from edgesym.verify import random_triangulation
import oracles
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


def kernel_arguments(coords, edges, ii, jj, eps):
    """The arguments ``_check_crossings`` hands the pair kernel."""
    coords = np.asarray(coords, dtype=float)
    ea, eb = np.asarray(edges, dtype=np.intp).reshape(-1, 2).T
    vec = coords[eb] - coords[ea]
    return (coords, ea, eb, vec, np.linalg.norm(vec, axis=1), np.asarray(ii, dtype=np.intp),
            np.asarray(jj, dtype=np.intp), eps)


def near_touch_layout(rng, eps):
    """A unit edge and spurs ending eps·(1 ± 1e-9) from it, beside it and
    beyond either end, plus edges straddling it by as much, all turned by a
    seeded angle."""
    pts, edges = [(0.0, 0.0), (1.0, 0.0)], [(0, 1)]
    for _ in range(int(rng.integers(1, 5))):
        d = eps * (1 + rng.choice([-1e-9, 1e-9]))
        kind, u, a = int(rng.integers(4)), rng.uniform(0.05, 0.95), rng.uniform(-1.4, 1.4)
        if kind == 0:  # beside the edge
            side = rng.choice([-1.0, 1.0])
            tip, tail = (u, side * d), (u + rng.uniform(-0.3, 0.3), side * (d + 0.3))
        elif kind in (1, 2):  # beyond an end
            end, out = (0.0, 1.0) if kind == 1 else (1.0, -1.0)
            direction = np.array([-out * np.cos(a), np.sin(a)])
            tip, tail = np.array([end, 0.0]) + d * direction, np.array([end, 0.0]) + 0.3 * direction
        else:  # across the edge
            tip, tail = (u, -d), (u + rng.uniform(-1e-3, 1e-3), eps * (1 + rng.choice([-1e-9, 1e-9])))
        edges.append((len(pts), len(pts) + 1))
        pts += [tuple(tip), tuple(tail)]
    theta = rng.uniform(0, 2 * np.pi)
    turn = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    return np.array(pts) @ turn.T, edges


def kernel_case(seed):
    """Seeded arguments for the pair kernel, of one of five kinds: integer
    grid segments (touches, collinear overlaps, shared endpoints); near
    touches at eps·(1 ± 1e-9); zero-length edges between two labels at one
    point; either of the first two moved by 10^6..10^12; empty candidate
    lists and lists where every pair shares an endpoint."""
    rng = np.random.default_rng(seed)
    kind = seed % 5
    if kind == 3:
        kind = int(rng.integers(0, 2))
        shift = rng.normal(size=2) * 10.0 ** rng.integers(6, 13)
    else:
        shift = np.zeros(2)
    if kind in (0, 4):
        n = int(rng.integers(3, 12))
        pts = rng.integers(0, 7, (n, 2)).astype(float)
        edges = rng.integers(0, n, (int(rng.integers(1, 20)), 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        eps = DEFAULT_TOLERANCE.length_eps(diameter_of(pts))
    elif kind == 1:
        eps = 10.0 ** -rng.integers(3, 10)
        pts, edges = near_touch_layout(rng, eps)
    else:
        # a few points, each given to one to three labels
        base = rng.random((int(rng.integers(3, 8)), 2))
        pts = base[rng.integers(0, len(base), 3 * len(base))]
        edges = rng.integers(0, len(pts), (int(rng.integers(2, 20)), 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
        eps = DEFAULT_TOLERANCE.length_eps(diameter_of(base))
    edges = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
    ii, jj = np.triu_indices(len(edges), 1)
    if kind == 4:
        if seed % 2:
            ii, jj = ii[:0], jj[:0]
        else:  # a star at vertex 0, each edge either way round: every pair shares it
            edges = np.column_stack([np.zeros(len(pts) - 1, dtype=np.intp), np.arange(1, len(pts))])
            flip = rng.random(len(edges)) < 0.5
            edges[flip] = edges[flip][:, ::-1]
            ii, jj = np.triu_indices(len(edges), 1)
    else:
        keep = rng.permutation(len(ii))[: max(1, int(rng.uniform(0.3, 1) * len(ii)))]
        ii, jj = ii[keep], jj[keep]
    return seed % 5, kernel_arguments(np.asarray(pts) + shift, edges, ii, jj, eps)


def test_kernel_matches_reference_kernel():
    # the same first bad pair, or None, as the kernel kept in tests/oracles.py
    outcome = {kind: set() for kind in range(5)}
    for seed in range(400):
        kind, args = kernel_case(seed)
        new, ref = planegraph._first_bad_pair(*args), oracles._first_bad_pair(*args)
        assert new == ref, f"seed {seed}"
        outcome[kind].add(ref is None)
    assert outcome[4] == {True}
    assert all(outcome[kind] == {True, False} for kind in range(4)), outcome


@pytest.mark.parametrize("n", [300, 1000, 3000])
def test_candidate_pairs_stay_linear(monkeypatch, n):
    # all pairs would be about E/2 per edge; the grid hands over at most 24
    # per edge on these triangulations
    handed = []
    kernel = planegraph._first_bad_pair

    def counting(coords, ea, eb, vec, length, ii, jj, eps):
        handed.append(len(ii))
        return kernel(coords, ea, eb, vec, length, ii, jj, eps)

    monkeypatch.setattr(planegraph, "_first_bad_pair", counting)
    for seed in (1, 2, 3):
        handed.clear()
        G = random_triangulation(n, seed)
        assert sum(handed) <= 64 * len(G.edges), (seed, sum(handed), len(G.edges))
