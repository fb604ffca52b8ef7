"""The face-stacked inscribed test against the per-face fit it replaced,
and against exact arithmetic.

``tests/oracles.py::per_face_inscribed`` is the old per-face
``is_inscribed``: a Kasa seed and Gauss-Newton steps, each an SVD-based
``np.linalg.lstsq`` solve. The stacked kernel takes other arithmetic (a
closed-form circumcircle for triangles, normal equations for larger faces,
each face in its own power-of-two frame), so the fits agree to rounding,
not bit for bit. Every verdict flag, the first failing face and the type,
message and attributes of its error must equal the oracle's exactly, and
centre, radius, worst residual and normal must agree within 1e-12 times
the face diameter, whatever the face size and stack position. The triangle
centres are also checked against ``oracles.exact_circumcentre``, and the
fit of 2^j times a stack against 2^j times its fit, bit for bit.
"""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from edgesym import gallery, geom, verify
from edgesym.errors import CollinearPoints, DegeneratePolygon, EdgesymError
from edgesym.gallery import gallery_names
from edgesym.geom import (
    DEFAULT_TOLERANCE,
    CircleFit,
    LabelledPoints,
    diameter_of,
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
    exact_circumcentre,
    per_face_area,
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


def assert_close_fit(got, want, diam):
    """``got`` and ``want`` within 1e-12 times the face diameter: centre,
    radius and worst residual, and the unit normal times the diameter. Where
    the circle is wider than the face, the bound grows with (radius /
    diameter)^2, as the rounding error of a fit does: on a triangle of
    ``random_triangulation(300, 0)`` with a radius of 13 diameters, the
    oracle's centre is 3.6e-12 diameters from the exact circumcentre, and
    the kernel's on it. The normal's sign makes its largest component
    positive; where the largest two tie to rounding, either sign passes."""
    near = 1e-12 * diam * max(1.0, (want.radius / diam) ** 2)
    assert np.abs(got.center - want.center).max() <= near
    assert abs(got.radius - want.radius) <= near
    assert abs(got.max_residual - want.max_residual) <= near
    assert (got.plane_normal is None) == (want.plane_normal is None)
    if want.plane_normal is not None:
        top = np.sort(np.abs(want.plane_normal))[-2:]
        signs = (1, -1) if top[1] - top[0] <= 1e-12 else (1,)
        assert min(np.abs(got.plane_normal - s * want.plane_normal).max() for s in signs) * diam <= near


def error_of(fn, *args):
    """(exception type, message, attributes) if ``fn`` raises an
    EdgesymError, else None."""
    try:
        fn(*args)
    except EdgesymError as exc:
        return type(exc), str(exc), vars(exc)
    return None


def assert_same_outcome(P):
    """``is_inscribed`` raises as the oracle does, or gives its flag and a
    fit within rounding of its fit."""
    want = error_of(per_face_inscribed, P)
    assert error_of(is_inscribed, P) == want
    if want is None:
        (ok, got), (want_ok, fit) = is_inscribed(P), per_face_inscribed(P)
        assert ok == want_ok
        assert_close_fit(got, fit, diameter_of(P))


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
        assert_close_fit(got, fit, diameter_of(p))
        assert same_bits(polygon_area(p), per_face_area(p))
    verdict = (verify_polytope_theorem if isinstance(inst, IndexedPolytope)
               else verify_graph_theorem)(inst)
    assert verdict.hypothesis_holds == all(ok for ok, _ in want)
    worst = max(0.0, *(f.max_residual for _, f in want))
    assert abs(verdict.worst_face_residual - worst) <= 1e-12 * max(map(diameter_of, polygons))


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


def stacked_fits(polygons):
    """(verdict, CircleFit) of each polygon, all fitted in one stack."""
    failed, fits = geom._fit_circles(np.array(polygons), DEFAULT_TOLERANCE)
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
        for P, (ok, fit) in zip(polygons, stacked_fits(polygons)):
            want_ok, want = per_face_inscribed(P)
            assert ok == want_ok
            assert_close_fit(fit, want, diameter_of(P))
            # a face of a stack gets the arithmetic of a fit of it alone
            alone = is_inscribed(P)[1]
            assert all(same_bits(getattr(fit, f), getattr(alone, f))
                       for f in ("center", "radius", "max_residual"))
            assert same_bits(*(np.nan if n is None else n
                               for n in (fit.plane_normal, alone.plane_normal)))


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
                           face_vertices=np.arange(sizes.sum()),
                           face_starts=np.cumsum(sizes) - sizes), coords


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
        assert_same_outcome(P)


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
    (lambda: gallery("prism:12"), verify_polytope_theorem),
    (lambda: gallery("dodecahedron"), verify_polytope_theorem),
    (lambda: gallery("hex_three_rhombi"), verify_graph_theorem),
], ids=["sphere-200", "triangulation-100", "prism-12", "dodecahedron", "hex-three-rhombi"])
def test_one_solve_per_stack_and_step(monkeypatch, make, check):
    """No least-squares solve: a triangle stack takes no solve at all, and a
    stack of larger faces takes one stacked ``np.linalg.solve`` for its
    Kasa seed and one per Gauss-Newton step."""
    inst = make()

    def never(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called during verify")

    monkeypatch.setattr(np.linalg, "lstsq", never)
    stacks, solves = [], []
    fit_circles, solve = geom._fit_circles, np.linalg.solve

    def counted_fit(S, *args, **kwargs):
        first = len(solves)
        out = fit_circles(S, *args, **kwargs)
        stacks.append((S.shape, solves[first:]))
        return out

    def counted_solve(M, v):
        solves.append(M.shape)
        return solve(M, v)

    monkeypatch.setattr(verify, "_fit_circles", counted_fit)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    check(inst)
    assert stacks
    for (F, k, _), mine in stacks:
        if k == 3:
            assert mine == []
        else:
            assert 2 <= len(mine) <= 21
            assert mine[0] == (F, 3, 3)  # the seed, every face at once
            assert all(L <= F and (m, n) == (3, 3) for L, m, n in mine)


def face_stacks(spec):
    """The faces of an instance as one (F, k, d) stack per face size, in
    face order: all faces of a polytope, the bounded faces of a graph."""
    inst = instance(spec)
    M, order = faces_of(inst)
    by_size = {}
    for fi in order:
        by_size.setdefault(len(M.faces[fi]), []).append(inst.vertices.take(M.faces[fi]))
    return [np.array(polygons) for polygons in by_size.values()]


SCALE_CORPUS = ([("sphere", 200, 0), ("sphere", 60, 1)]
                + [name for name in gallery_names() if ":" not in name]
                + [f"{kind}:{n}" for kind in ("prism", "antiprism") for n in (3, 5, 8, 24)]
                + [("triangulation", 100, 0), ("triangulation", 20, 1)])


@pytest.mark.parametrize("spec", SCALE_CORPUS, ids=str)
def test_fit_of_power_of_two_copy_is_exact(spec):
    """For every j in [-1000, 1000] (step 37) that keeps each coordinate
    normal, the fit of 2^j S is 2^j times the fit of S, bit for bit, with
    the same flag and normal: each face is fitted in its own frame."""
    tiny = np.finfo(float).tiny
    for S in face_stacks(spec):
        want = geom._fit_circles(S, DEFAULT_TOLERANCE)[1]
        assert want is not None
        ok, center, radius, max_res, normal = want
        nonzero = np.abs(S[S != 0])
        scales = [j for j in range(-1000, 1001, 37)
                  if np.isfinite(np.ldexp(nonzero.max(), j))
                  and np.ldexp(nonzero.min(), j) >= tiny]
        assert len(scales) > 20
        for j in scales:
            got = geom._fit_circles(np.ldexp(S, j), DEFAULT_TOLERANCE)[1]
            assert got is not None
            assert same_bits(got[0], ok)
            assert same_bits(got[1], np.ldexp(center, j))
            assert same_bits(got[2], np.ldexp(radius, j))
            assert same_bits(got[3], np.ldexp(max_res, j))
            assert (got[4] is None) == (normal is None)
            assert normal is None or same_bits(got[4], normal)


@pytest.mark.parametrize("spec", ["cube", "dodecahedron", "hex_prism", "square",
                                  "hex_three_rhombi", ("sphere", 60, 1),
                                  ("triangulation", 20, 1)], ids=str)
def test_area_of_power_of_two_copy_is_exact(spec):
    """For every k in [-1000, 1000] (step 37) where 2^2k times the area is a
    normal float, the area of 2^k P is 2^2k times the area of P, bit for
    bit, for 2D and 3D faces: each polygon is measured in its own frame."""
    lowest, highest = np.finfo(float).minexp, np.finfo(float).maxexp
    for S in face_stacks(spec):
        for P in S:
            area = polygon_area(P)
            e = int(np.frexp(area)[1])
            scales = [k for k in range(-1000, 1001, 37) if lowest <= e + 2 * k <= highest]
            assert len(scales) > 20
            for k in scales:
                assert same_bits(polygon_area(np.ldexp(P, k)), np.ldexp(area, 2 * k))


@pytest.mark.parametrize("dim", [2, 3])
def test_area_past_the_squared_range(dim):
    # the norm of a 3D face's cross product squares lengths twice: on the
    # raw coordinates it overflows to inf at 2^260 and underflows to 0 at
    # 2^-300
    square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)[:, :dim]
    for k in (260, 400, -300, -500):
        assert polygon_area(np.ldexp(square, k)) == 2.0 ** (2 * k)


def random_rotation(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)))[0]


def oracle_triangles(seed, dim):
    """50 each of generic triangles with a circumradius of at most their
    diameter, needles (two sides of about 1 at an angle of 1e-7 to 1e-2,
    the third side their difference at most) and near-right triangles (a
    right angle off by 1e-10 to 1e-5), each turned and moved by a seeded
    isometry. The rounding error of any float circumcentre grows as
    eps (R / diameter)^2, so wide obtuse triangles are left out."""
    rng = np.random.default_rng([seed, dim])
    out = []
    while len(out) < 50:
        T = rng.normal(size=(3, 2))
        if is_inscribed(T)[1].radius <= diameter_of(T):
            out.append(T)
    for _ in range(50):
        angle = 10 ** rng.uniform(-7, -2)
        length = 1 + rng.uniform(-0.5, 0.5) * angle
        out.append(np.array([(0, 0), (1, 0), (length * np.cos(angle), length * np.sin(angle))]))
    for _ in range(50):
        angle = np.pi / 2 + rng.choice([-1, 1]) * 10 ** rng.uniform(-10, -5)
        a, b = rng.uniform(0.2, 2.0, size=2)
        out.append(np.array([(0, 0), (a, 0), (b * np.cos(angle), b * np.sin(angle))]))
    if dim == 3:
        out = [np.column_stack([T, np.zeros(3)]) for T in out]
    return [T @ random_rotation(rng, dim).T + 3 * rng.normal(size=dim) for T in out]


@pytest.mark.parametrize("dim", [2, 3])
def test_triangle_centres_match_exact_circumcentres(dim):
    triangles = oracle_triangles(11, dim)
    fits = stacked_fits(triangles)
    for T, (_, fit) in zip(triangles, fits):
        assert np.abs(fit.center - exact_circumcentre(T)).max() <= 1e-14 * diameter_of(T)
        assert same_bits(fit.center, is_inscribed(T)[1].center)


def degenerate_polygons(k, dim):
    """Collinear, coincident and zero-area polygons of k vertices."""
    line = np.outer(np.arange(k, dtype=float), [1.0, 2.0, -0.5][:dim]) + 0.25
    coincident = np.tile([0.5, -1.5, 2.0][:dim], (k, 1))
    if k == 3:  # a needle whose area is below 1e-12 times its diameter squared
        flat = np.array([(0.0, 0.0), (1.0, 0.0), (0.5, 1e-13)])
    else:  # a bowtie: its signed areas cancel
        flat = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
    flat = flat if dim == 2 else np.column_stack([flat, np.zeros(k)]) @ random_rotation(
        np.random.default_rng(k), 3)
    return {"collinear": line, "coincident": coincident, "zero-area": flat}


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [3, 4])
def test_degenerate_faces_raise_as_per_face(k, dim):
    for name, P in degenerate_polygons(k, dim).items():
        want = error_of(per_face_inscribed, P)
        assert want is not None and want[0] in (DegeneratePolygon, CollinearPoints), name
        assert error_of(is_inscribed, P) == want, name
        faces, coords = stack_instance([inscribed_face(np.random.default_rng(1), k, dim), P])
        with pytest.raises(want[0]) as info:
            verify._verdict(faces, coords, DEFAULT_TOLERANCE, name)
        assert (str(info.value), vars(info.value)) == want[1:]


@pytest.mark.parametrize("dim", [2, 3])
def test_nearly_collinear_quadrilateral_is_fitted(dim):
    """A concyclic isosceles trapezoid of height h, whose singular values
    have the ratio h / sqrt(5): from 5e-12, about the least that passes the
    area test, so just above the 1e-12 collinear ratio. Its normal equations
    are nearly singular, yet it returns a fit, with no LinAlgError and
    (tier-1 runs with RuntimeWarnings as errors) no warning."""
    rng = np.random.default_rng(dim)
    for height in (5e-12, 1e-11, 1e-9, 1e-6):
        P = np.array([(-1.5, 0.0), (-0.5, height), (0.5, height), (1.5, 0.0)])
        if dim == 3:
            P = np.column_stack([P, np.zeros(4)])
        P = P @ random_rotation(rng, dim).T + rng.normal(size=dim)
        sing = np.linalg.svd(P - P.mean(axis=0), compute_uv=False)
        assert 1e-12 < sing[1] / sing[0] < 1e-5
        ok, fit = is_inscribed(P)
        assert ok and np.isfinite(fit.center).all() and fit.radius > 1e5
