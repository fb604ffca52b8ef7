"""The face-stacked inscribed test against the per-face fit it replaced.

``tests/oracles.py::per_face_inscribed`` is the old per-face
``is_inscribed``, code verbatim. Every verdict flag, fit field and
``worst_face_residual`` must equal it bit for bit, and a failing face must
raise the oracle's exception with the oracle's message, whatever the face
size and stack position.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from edgesym import gallery, geom, verify
from edgesym.errors import EdgesymError
from edgesym.geom import (
    DEFAULT_TOLERANCE,
    CircleFit,
    LabelledPoints,
    fit_circle,
    is_inscribed,
    polygon_area,
)
from edgesym.polytope import IndexedPolytope, face_map
from edgesym.verify import (
    random_inscribed_polytope,
    random_triangulation,
    verify_graph_theorem,
    verify_polytope_theorem,
)

from oracles import (
    per_face_area,
    per_face_fit_circle,
    per_face_inscribed,
    random_inscribed_polygon,
)

FIXED = ["box_1_2_3", "cube", "dodecahedron", "frustum", "hex_prism", "icosahedron",
         "oblique_parallelepiped", "octa_tetra_glue", "octahedron", "tetrahedron",
         "square", "parallelogram", "hex_three_rhombi", "twisted_squares:4:2:10"]
LADDER = [f"{kind}:{n}" for kind in ("prism", "antiprism") for n in range(3, 41)]
SPHERES = [(n, seed) for n in (10, 60, 200) for seed in (0, 1)] + [(1000, 0)]
TRIANGULATIONS = [(n, seed) for n in (20, 100, 300) for seed in (0, 1)]
NOISE = [10.0 ** -e for e in range(12, 3, -1)]


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_fit(got, want):
    assert same_bits(got.center, want.center)
    assert same_bits(got.radius, want.radius)
    assert same_bits(got.max_residual, want.max_residual)
    assert (got.plane_normal is None) == (want.plane_normal is None)
    if want.plane_normal is not None:
        assert same_bits(got.plane_normal, want.plane_normal)


def error_of(fn, *args):
    """(exception type, message, attributes) if ``fn`` raises an
    EdgesymError, else None."""
    try:
        fn(*args)
    except EdgesymError as exc:
        return type(exc), str(exc), vars(exc)
    return None


def assert_same_outcome(fn, oracle, P):
    want = error_of(oracle, P)
    assert error_of(fn, P) == want
    if want is None:
        got, fit = fn(P), oracle(P)
        if isinstance(fit, tuple):
            assert got[0] == fit[0]
            got, fit = got[1], fit[1]
        assert_same_fit(got, fit)


def instance(spec):
    if isinstance(spec, str):
        return gallery(spec)
    kind, n, seed = spec
    return (random_inscribed_polytope if kind == "sphere" else random_triangulation)(n, seed)


def faces_of(inst):
    if isinstance(inst, IndexedPolytope):
        M = face_map(inst)
        return M, range(len(M.faces))
    return inst.map, inst.bounded_faces()


CORPUS = (FIXED + LADDER + [("sphere", n, s) for n, s in SPHERES]
          + [("triangulation", n, s) for n, s in TRIANGULATIONS])


@pytest.mark.parametrize("spec", CORPUS, ids=str)
def test_verdict_matches_per_face_fits(spec):
    inst = instance(spec)
    M, order = faces_of(inst)
    polygons = [inst.vertices.take(M.faces[fi]) for fi in order]
    want = [per_face_inscribed(p) for p in polygons]
    for p, (ok, fit) in zip(polygons, want):
        got_ok, got = is_inscribed(p)
        assert got_ok == ok
        assert_same_fit(got, fit)
        assert same_bits(polygon_area(p), per_face_area(p))
    verdict = (verify_polytope_theorem if isinstance(inst, IndexedPolytope)
               else verify_graph_theorem)(inst)
    assert verdict.hypothesis_holds == all(ok for ok, _ in want)
    assert same_bits(verdict.worst_face_residual, max(0.0, *(f.max_residual for _, f in want)))


def noisy_polygons(seed, dim):
    """Seeded inscribed polygons of 3 to 12 vertices with vertex noise of
    1e-12 to 1e-4, which Gauss-Newton needs several steps to fit; in 3D
    carried into a seeded plane, noise included."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(3, 13):
        for eps in NOISE:
            P = random_inscribed_polygon(rng, k) + eps * rng.normal(size=(k, 2))
            if dim == 3:
                basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
                P = P @ basis[:2] + rng.normal(size=3)
            out.append(P)
    return out


def stacked_fits(polygons, polygon):
    """(verdict, CircleFit) of each polygon, all fitted in one stack."""
    failed, fits = geom._fit_circles(np.array(polygons), DEFAULT_TOLERANCE, polygon)
    assert failed is None
    ok, center, radius, max_res, normal = fits
    return [(bool(ok[i]), CircleFit(center[i], radius[i], max_res[i],
                                    None if normal is None else normal[i]))
            for i in range(len(polygons))]


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_noisy_stacks_match_per_face_fits(seed, dim):
    by_size = {}
    for P in noisy_polygons(seed, dim):
        by_size.setdefault(len(P), []).append(P)
    for polygons in by_size.values():
        fits = stacked_fits(polygons, polygon=True)
        circles = stacked_fits(polygons, polygon=False)
        for P, (ok, fit), (_, circle) in zip(polygons, fits, circles):
            want_ok, want = per_face_inscribed(P)
            assert ok == want_ok
            assert_same_fit(fit, want)
            assert_same_fit(circle, per_face_fit_circle(P))
            assert_same_fit(fit_circle(P), want)


def inscribed_face(rng, k, dim=3):
    P = random_inscribed_polygon(rng, k)
    return np.column_stack([P, np.zeros(k)]) if dim == 3 else P


def degenerate_face(kind, rng, k, dim=3):
    P = inscribed_face(rng, k, dim)
    if kind == "collinear":
        P = np.outer(np.arange(k, dtype=float), np.ones(dim)) * rng.uniform(0.5, 2.0)
    elif kind == "zero-area":  # a bowtie: its signed areas cancel
        P = np.array([(0, 0), (1, 0), (0, 1), (1, 1)] + [(1, 1)] * (k - 4), dtype=float)
        P = np.column_stack([P, np.zeros(k)]) if dim == 3 else P
    elif kind == "coincident":
        P = np.ones((k, dim))
    else:  # lifted out of its plane by far more than fit_eps times its size
        P[1, 2] += 1e-3
    return P


def stack_instance(polygons):
    """Coordinates and a stand-in map with the face arrays ``_verdict``
    reads, carrying each polygon on labels of its own."""
    labels = [[f"{i}.{j}" for j in range(len(P))] for i, P in enumerate(polygons)]
    coords = LabelledPoints((l, p) for ls, P in zip(labels, polygons) for l, p in zip(ls, P))
    sizes = np.array([len(P) for P in polygons])
    return SimpleNamespace(vertices=coords.labels, face_sizes=sizes, is_graph=False,
                           face_vertices=np.arange(sizes.sum())), coords


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("kind, dim", [("collinear", 2), ("collinear", 3), ("zero-area", 2),
                                       ("zero-area", 3), ("coincident", 2), ("coincident", 3),
                                       ("non-coplanar", 3)])
def test_first_failing_face_raises_as_per_face(kind, dim, where):
    rng = np.random.default_rng(7)
    # sizes 3, 4 and 5 interleaved; the bad face is a pentagon, in the last
    # stack fitted, and faces failing other checks follow it in smaller
    # stacks: a 2-gon and, in 3D, a non-coplanar quadrilateral
    polygons = [inscribed_face(rng, 3 + i % 3, dim) for i in range(30)]
    at = {"first": 2, "middle": 14, "last": 29}[where]
    polygons[at] = degenerate_face(kind, rng, 5, dim)
    if at + 2 < len(polygons):
        polygons[at + 1] = polygons[at + 1][:2]
        if dim == 3:
            polygons[at + 2] = degenerate_face("non-coplanar", rng, 4, dim)
    if where == "first":
        polygons, at = polygons[at:], 0
    want = error_of(per_face_inscribed, polygons[at])
    assert want is not None
    assert not any(error_of(per_face_inscribed, P) for P in polygons[:at])
    faces, coords = stack_instance(polygons)
    with pytest.raises(want[0]) as info:
        verify._verdict(faces, coords, DEFAULT_TOLERANCE, "bad")
    assert (str(info.value), vars(info.value)) == want[1:]
    for P in polygons:
        assert_same_outcome(is_inscribed, per_face_inscribed, P)
        assert_same_outcome(fit_circle, per_face_fit_circle, P)


def peak_mib(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class FitsDone(Exception):
    pass


def test_large_face_memory_is_bounded(monkeypatch):
    # an (F, k, k, d) difference array would take about 206 MiB here
    angles = np.linspace(0.0, 2 * np.pi, 3000, endpoint=False)
    polygon = np.column_stack([np.cos(angles), np.sin(angles), np.full(3000, 0.5)])
    assert peak_mib(is_inscribed, polygon) < 8.0
    rng = np.random.default_rng(3)
    polygons = [inscribed_face(rng, 3) for _ in range(2000)] + [polygon]
    faces, coords = stack_instance(polygons)

    def stop(*args, **kwargs):
        raise FitsDone  # the fits are done; analyze needs a real map

    monkeypatch.setattr(verify, "analyze", stop)

    def fits():
        with pytest.raises(FitsDone):
            verify._verdict(faces, coords, DEFAULT_TOLERANCE, "big")

    assert peak_mib(fits) < 8.0


@pytest.mark.parametrize("make, check", [
    (lambda: random_inscribed_polytope(200, 0), verify_polytope_theorem),
    (lambda: random_triangulation(100, 0), verify_graph_theorem),
], ids=["sphere-200", "triangulation-100"])
def test_one_solve_per_stack_and_step(monkeypatch, make, check):
    """No per-face least-squares solve: each face-size stack takes the
    stacked solve once for its seed and once per Gauss-Newton step."""
    inst = make()

    def per_face(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called during verify")

    monkeypatch.setattr(np.linalg, "lstsq", per_face)
    stacks, solves = [], []
    fit_circles, lstsq = geom._fit_circles, geom._lstsq

    def counted_fit(S, *args, **kwargs):
        stacks.append((S.shape, len(solves)))
        return fit_circles(S, *args, **kwargs)

    def counted_lstsq(A, b):
        solves.append(A.shape)
        return lstsq(A, b)

    monkeypatch.setattr(verify, "_fit_circles", counted_fit)
    monkeypatch.setattr(geom, "_lstsq", counted_lstsq)
    assert check(inst).hypothesis_holds
    assert stacks
    for i, ((F, k, _), first) in enumerate(stacks):
        mine = solves[first:stacks[i + 1][1] if i + 1 < len(stacks) else len(solves)]
        assert 2 <= len(mine) <= 21
        assert mine[0] == (F, k, 3)  # the seed, every face at once
        assert all(L <= F and (m, n) == (k, 3) for L, m, n in mine)
