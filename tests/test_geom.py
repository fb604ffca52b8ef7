import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesym.errors import (
    DegeneratePolygon,
    DimensionMismatch,
    DuplicateLabel,
    LengthMismatch,
    NonCoplanarPoints,
    NonFiniteCoordinate,
    PolygonInequality,
)
from edgesym.geom import (
    Isometry,
    LabelledPoints,
    Tolerance,
    UnderdeterminedFitWarning,
    best_fit_isometry,
    circumradius_from_sides,
    diameter_of,
    is_inscribed,
    reconstruct_inscribed_polygon,
    _diameters,
    _lstsq,
    _procrustes,
)
from oracles import (
    heron_circumradius,
    one_pass_diameter,
    per_call_best_fit_isometry,
    random_inscribed_polygon,
    rotation2,
    side_lengths,
)

UNIT_CUBE = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)

RHOMBUS_PI3 = np.array([(0, 0), (1, 0), (1.5, math.sqrt(3) / 2), (0.5, math.sqrt(3) / 2)])


def rotation3_z(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


class TestTolerance:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            Tolerance(abs_eps=0.0)
        with pytest.raises(ValueError):
            Tolerance(rel_eps=-1e-9)

    def test_scaled(self):
        t = Tolerance().scaled(10.0)
        assert t.abs_eps == pytest.approx(1e-8)
        assert t.fit_eps == pytest.approx(1e-5)
        with pytest.raises(ValueError):
            Tolerance().scaled(0.0)


class TestDiameter:
    @pytest.mark.parametrize("n", [2, 3, 8, 257, 1000])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_bit_identical_to_one_pass(self, n, d):
        rng = np.random.default_rng(10 * n + d)
        cloud = rng.normal(size=(n, d)) * rng.uniform(0.1, 100.0)
        expected = one_pass_diameter(cloud)
        assert diameter_of(cloud) == expected
        assert diameter_of(cloud[rng.permutation(n)]) == expected

    @pytest.mark.parametrize("n", [200, 1000])
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_sphere_bit_identical_to_one_pass(self, n, scale):
        # many pairs lie within a few ulp of the largest distance
        cloud = np.random.default_rng(n).normal(size=(n, 3))
        cloud *= scale / np.linalg.norm(cloud, axis=1)[:, None]
        assert diameter_of(cloud) == one_pass_diameter(cloud)

    @pytest.mark.parametrize("k", [3, 4, 9, 70])
    @pytest.mark.parametrize("d", [2, 3])
    def test_face_stack_bit_identical_to_one_pass(self, k, d):
        rng = np.random.default_rng(k + d)
        stack = rng.normal(size=(300, k, d)) * rng.uniform(1e-3, 1e3, size=(300, 1, 1))
        stack[7, k - 1, d - 1] = np.nan
        want = np.array([one_pass_diameter(points) for points in stack])
        assert _diameters(stack).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [3, 257, 1000])
    @pytest.mark.parametrize("first", [True, False])
    def test_nan_propagates(self, n, first):
        # row 0 meets only the first block, row n-1 every block
        cloud = np.random.default_rng(n).normal(size=(n, 3))
        cloud[0 if first else n - 1, 1] = np.nan
        assert math.isnan(one_pass_diameter(cloud))
        assert math.isnan(diameter_of(cloud))

    def test_memory_bounded(self):
        cloud = np.random.default_rng(3).normal(size=(3000, 3))
        tracemalloc.start()
        try:
            diameter_of(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestLabelledPoints:
    def test_read_only_mapping(self):
        pts = LabelledPoints([("b", (0, 0)), (7, (3.0, 4.0))])
        assert pts.labels == ("b", "7") and list(pts) == ["b", "7"] and len(pts) == 2
        assert pts.index == {"b": 0, "7": 1}
        assert np.array_equal(pts["7"], [3.0, 4.0])
        assert np.array_equal(pts.take(["7", "b", "7"]), [[3, 4], [0, 0], [3, 4]])
        assert pts.array.shape == (2, 2) and pts.diameter == 5.0
        assert "b" in pts and "x" not in pts
        assert {l: p.tolist() for l, p in pts.items()} == {"b": [0, 0], "7": [3, 4]}
        with pytest.raises(ValueError):
            pts.array[0, 0] = 1.0
        with pytest.raises(ValueError):
            pts["b"][0] = 1.0

    def test_of_coerces_mappings_once(self):
        pts = LabelledPoints.of({"a": [0, 0, 0], "b": [1, 2, 2]})
        assert LabelledPoints.of(pts) is pts
        assert pts.labels == ("a", "b") and pts.diameter == 3.0

    def test_equality_is_mapping_equality(self):
        pts = LabelledPoints([("a", (0, 0)), ("b", (1.5, 2.0)), ("c", (3, -1))])
        assert pts == pts
        assert pts == {"c": [3, -1], "a": (0, 0), "b": np.array([1.5, 2.0])}
        assert pts != {"a": (0, 0), "b": (1.5, 2.0 + 1e-12), "c": (3, -1)}
        assert pts != {"a": (0, 0), "b": (1.5, 2.0)}
        with pytest.raises(TypeError):
            hash(pts)

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabel):
            LabelledPoints([("1", (0, 0)), (1, (1, 1))])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate(self, bad):
        with pytest.raises(NonFiniteCoordinate, match="'q'"):
            LabelledPoints([("p", (0, 0, 0)), ("q", (0, bad, 0))])


class TestBestFitIsometry:
    def test_identity_on_cube(self):
        iso, rmsd = best_fit_isometry(UNIT_CUBE, UNIT_CUBE)
        assert rmsd == pytest.approx(0.0, abs=1e-14)
        assert np.allclose(iso.linear, np.eye(3), atol=1e-12)
        assert np.allclose(iso.translation, 0.0, atol=1e-12)

    def test_recovers_rotation_and_translation(self):
        R = rotation3_z(math.pi / 2)
        t = np.array([1.0, 2.0, 3.0])
        dst = UNIT_CUBE @ R.T + t
        iso, rmsd = best_fit_isometry(UNIT_CUBE, dst)
        assert rmsd < 1e-12
        assert np.allclose(iso.linear, R, atol=1e-12)
        assert np.allclose(iso.translation, t, atol=1e-12)

    def test_reflection_case(self):
        src = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.4, 1.7]], float)
        dst = src * np.array([1, 1, -1.0])
        iso, rmsd = best_fit_isometry(src, dst)
        assert rmsd < 1e-12
        assert iso.orientation == -1

    def test_reflection_branch_disabled(self):
        src = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0.3, 0.4, 1.7]], float)
        dst = src * np.array([1, 1, -1.0])
        iso, rmsd = best_fit_isometry(src, dst, allow_reflection=False)
        assert iso.orientation == 1
        assert rmsd > 0.1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            best_fit_isometry(UNIT_CUBE, UNIT_CUBE[:-1])

    def test_underdetermined_warns_but_fits(self):
        with pytest.warns(UnderdeterminedFitWarning):
            iso, rmsd = best_fit_isometry(UNIT_CUBE[:2], UNIT_CUBE[:2])
        assert rmsd == pytest.approx(0.0, abs=1e-12)

    def test_orthogonality_defect(self, rng):
        for _ in range(25):
            src = rng.normal(size=(6, 3))
            dst = rng.normal(size=(6, 3))
            iso, _ = best_fit_isometry(src, dst)
            defect = np.abs(iso.linear.T @ iso.linear - np.eye(3)).max()
            assert defect < 1e-10

    def test_local_optimality_under_small_rotations(self, rng):
        # perturbing the optimal rotation by any 1e-3 test rotation must not
        # decrease the rmsd, even with the translation re-optimized
        axes = [np.array(a, float) for a in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]]
        for _ in range(5):
            src = rng.normal(size=(8, 3))
            dst = src @ rotation3_z(0.7).T + rng.normal(scale=0.05, size=(8, 3))
            iso, rmsd = best_fit_isometry(src, dst)
            ca, cb = src.mean(axis=0), dst.mean(axis=0)
            for axis in axes:
                axis = axis / np.linalg.norm(axis)
                K = np.array([
                    [0, -axis[2], axis[1]],
                    [axis[2], 0, -axis[0]],
                    [-axis[1], axis[0], 0],
                ])
                pert = np.eye(3) + math.sin(1e-3) * K + (1 - math.cos(1e-3)) * (K @ K)
                R2 = pert @ iso.linear
                t2 = cb - R2 @ ca
                resid = src @ R2.T + t2 - dst
                rmsd2 = math.sqrt((resid * resid).sum() / len(src))
                assert rmsd2 >= rmsd - 1e-15


def fit_cases(rng, d, n):
    """Matched point sets (src, dst) in dimension d: a noisy isometric image
    at coordinate scales 1e-6 to 1e6, a reflected one, and coincident
    points in either set."""
    for scale in 10.0 ** np.arange(-6, 7, 3):
        A = rng.normal(size=(n, d)) * scale
        Q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        noise = rng.normal(size=(n, d)) * scale * 10.0 ** -rng.integers(2, 13)
        yield A, A @ Q.T + rng.normal(size=d) * scale + noise
    yield A, A * np.r_[np.ones(d - 1), -1.0]
    yield np.ones((n, d)), A
    yield A, np.full((n, d), -2.0)


class TestProcrustesKernel:
    """``best_fit_isometry`` is the one-fit caller of ``_procrustes``; both
    must give the bits of the per-call fit in ``oracles``, row by row of a
    stack, with and without reflections."""

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("allow_reflection", [True, False])
    def test_bit_identical_to_per_call_fit(self, d, allow_reflection):
        rng = np.random.default_rng([d, allow_reflection])
        for n in range(1, 41):
            cases = list(fit_cases(rng, d, n))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                want = [per_call_best_fit_isometry(A, B, allow_reflection) for A, B in cases]
                got = [best_fit_isometry(A, B, allow_reflection) for A, B in cases]
            assert [w.category for w in caught] == [UnderdeterminedFitWarning] * (
                2 * len(cases) if n < d else 0)
            for (iso, rmsd), (ref, ref_rmsd) in zip(got, want):
                assert iso.linear.tobytes() == ref.linear.tobytes()
                assert iso.translation.tobytes() == ref.translation.tobytes()
                assert np.float64(rmsd).tobytes() == np.float64(ref_rmsd).tobytes()
            A, stack = cases[0][0], np.array([B for _, B in cases])
            linear, translation, rmsd = _procrustes(A, stack, allow_reflection)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UnderdeterminedFitWarning)
                for i, B in enumerate(stack):
                    ref, ref_rmsd = per_call_best_fit_isometry(A, B, allow_reflection)
                    assert linear[i].tobytes() == ref.linear.tobytes()
                    assert translation[i].tobytes() == ref.translation.tobytes()
                    assert rmsd[i].tobytes() == np.float64(ref_rmsd).tobytes()


class TestApplyIsometry:
    def test_identity(self):
        iso = Isometry.identity(3)
        assert np.allclose(iso.apply([1, 2, 3]), [1, 2, 3])

    def test_half_turn_2d(self):
        iso = Isometry(rotation2(math.pi), [0.0, 0.0])
        assert np.allclose(iso.apply([1, 0]), [-1, 0], atol=1e-15)

    def test_translation(self):
        iso = Isometry(np.eye(3), [0, 0, 5.0])
        assert np.allclose(iso.apply([1, 1, 1]), [1, 1, 6])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Isometry.identity(2).apply([1, 2, 3])

    def test_from_stack_matches_constructor(self):
        rng = np.random.default_rng(5)
        linear = np.linalg.qr(rng.normal(size=(6, 3, 3)))[0]
        translation = rng.normal(size=(6, 3))
        for iso, lin, tr in zip(Isometry._from_stack(linear, translation), linear, translation):
            one = Isometry(lin, tr)
            assert np.array_equal(iso.linear, one.linear)
            assert np.array_equal(iso.translation, one.translation)
            assert not iso.linear.flags.writeable and not iso.translation.flags.writeable
            assert iso.orientation == one.orientation
        linear[4] *= 2.0
        with pytest.raises(ValueError, match="not orthogonal") as stacked:
            Isometry._from_stack(linear, translation)
        with pytest.raises(ValueError) as single:
            Isometry(linear[4], translation[4])
        assert str(stacked.value) == str(single.value)


def lstsq_stack(rng, k, scale):
    """Circle-fit systems (F, k, 3), (F, k) at one coordinate scale: Kasa
    seeds and Gauss-Newton steps of random, repeated and collinear points,
    generic, nearly rank-deficient and all-zero matrices."""
    xy = rng.normal(size=(8, k, 2)) * scale
    xy[1] = xy[1, :1]  # one point repeated
    xy[2] = np.linspace(0.0, 1.0, k)[:, None] * xy[2, 0] + xy[2, 1]  # collinear
    xy[3, 1:] = xy[3, :1]  # all but one point repeated
    kasa = np.concatenate([2.0 * xy, np.ones((8, k, 1))], axis=2)
    diff = xy - rng.normal(size=(8, 1, 2)) * scale
    dist = np.hypot(diff[..., 0], diff[..., 1])
    jac = np.concatenate([-diff / dist[..., None], np.full((8, k, 1), -1.0)], axis=2)
    generic = rng.normal(size=(4, k, 3)) * scale
    # nearly rank-deficient: the smallest singular value on both sides of
    # the cut-off rcond * s_max, rcond = eps * max(k, 3)
    ratios = [1e-6, 1e-9, 1e-12, 1e-14, math.sqrt(3 * k) * np.finfo(float).eps, 1e-17]
    U = np.linalg.qr(rng.normal(size=(len(ratios), k, 3)))[0]
    V = np.linalg.qr(rng.normal(size=(len(ratios), 3, 3)))[0]
    s = np.array([[1.0, 0.5, r] for r in ratios]) * scale
    near = np.matmul(U * s[:, None, :], V)
    A = np.concatenate([kasa, jac, generic, near, np.zeros((2, k, 3))])
    b = np.concatenate([(xy * xy).sum(axis=2), dist - scale,
                        rng.normal(size=(6 + len(ratios), k)) * scale])
    b[-1] = 0.0
    return A, b


def lstsq_outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


class TestStackedLstsq:
    """``geom._lstsq`` calls numpy's private lstsq gufunc; it must give every
    system of a stack the bits ``np.linalg.lstsq`` gives it alone."""

    @pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    @pytest.mark.parametrize("k", range(3, 13))
    def test_bit_identical_to_the_wrapper(self, k, scale):
        A, b = lstsq_stack(np.random.default_rng([k, int(math.log10(scale)) + 8]), k, scale)
        x = _lstsq(A, b)
        assert x.shape == (len(A), 3) and x.dtype == np.float64
        for a, y, got in zip(A, b, x):
            assert got.tobytes() == np.linalg.lstsq(a, y, rcond=None)[0].tobytes()

    def test_empty_stack(self):
        assert _lstsq(np.zeros((0, 5, 3)), np.zeros((0, 5))).shape == (0, 3)

    @pytest.mark.parametrize("operand", ["A", "b"])
    def test_nan_like_the_wrapper(self, rng, operand):
        A, b = lstsq_stack(rng, 5, 1.0)
        (A if operand == "A" else b)[3, 2, ...] = np.nan
        want = lstsq_outcome(lambda: np.linalg.lstsq(A[3], b[3], rcond=None)[0])
        got = lstsq_outcome(lambda: _lstsq(A, b)[3])
        if isinstance(want, np.ndarray):
            assert operand == "b" and got.tobytes() == want.tobytes()
        else:
            assert operand == "A" and type(got) is tuple
            assert got == want == (np.linalg.LinAlgError, want[1])


class TestFitCircle:
    """The best-fit circle that ``is_inscribed`` returns with its verdict."""

    def test_unit_square(self):
        _, fit = is_inscribed([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert np.allclose(fit.center, [0.5, 0.5], atol=1e-12)
        assert fit.radius == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        assert fit.max_residual < 1e-12

    def test_rhombus_residual(self):
        # opposite angles pi/3 + pi/3 != pi, so the rhombus is not concyclic
        _, fit = is_inscribed(RHOMBUS_PI3)
        assert fit.max_residual > 0.05
        assert fit.max_residual == pytest.approx(0.1830127, abs=1e-6)

    def test_collinear_raises(self):
        # collinear points span zero area: no finite circle fits them
        with pytest.raises(DegeneratePolygon, match="zero area"):
            is_inscribed([(0, 0), (1, 0), (2, 0), (3, 0)])


class TestIsInscribed:
    def test_any_triangle(self, rng):
        for _ in range(10):
            tri = rng.normal(size=(3, 2))
            u, v = tri[1] - tri[0], tri[2] - tri[0]
            if abs(u[0] * v[1] - u[1] * v[0]) < 1e-3:
                continue
            ok, _ = is_inscribed(tri)
            assert ok

    def test_unit_square(self):
        ok, fit = is_inscribed(np.array([(0, 0), (1, 0), (1, 1), (0, 1)], float))
        assert ok

    def test_triangle_exact_circumcircle(self):
        # right triangle (0,0) (4,0) (0,3): circumcenter (2, 1.5), radius 2.5
        ok, fit = is_inscribed([(0, 0), (4, 0), (0, 3)])
        assert ok
        assert np.allclose(fit.center, [2.0, 1.5], atol=1e-10)
        assert fit.radius == pytest.approx(2.5, abs=1e-10)
        assert fit.max_residual < 1e-12

    def test_rhombus_not_inscribed(self):
        ok, _ = is_inscribed(RHOMBUS_PI3)
        assert not ok

    def test_degenerate_raises(self):
        with pytest.raises(DegeneratePolygon):
            is_inscribed(np.array([(0, 0), (1, 0), (2, 0)], float))

    def test_3d_coplanar_circle(self):
        square = np.array([(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)], float)
        axis = np.array([1.0, 1.0, 0.0]) / math.sqrt(2)
        K = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
        theta = 0.6
        R = np.eye(3) + math.sin(theta) * K + (1 - math.cos(theta)) * (K @ K)
        t = np.array([3.0, -1.0, 2.0])
        pts = square @ R.T + t
        ok, fit = is_inscribed(pts)
        assert ok
        assert fit.max_residual < 1e-12
        assert fit.radius == pytest.approx(math.sqrt(2) / 2, abs=1e-10)
        assert np.allclose(fit.center, R @ np.array([0.5, 0.5, 0.0]) + t, atol=1e-10)
        assert np.linalg.norm(fit.plane_normal) == pytest.approx(1.0, abs=1e-12)
        assert abs(float(fit.plane_normal @ (R @ np.array([0, 0, 1.0])))) == pytest.approx(1.0, abs=1e-10)

    def test_non_coplanar_raises(self):
        pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0.3), (0, 1, 0)]
        with pytest.raises(NonCoplanarPoints):
            is_inscribed(pts)


class TestCircumradius:
    def test_equilateral(self):
        assert circumradius_from_sides([1, 1, 1]) == pytest.approx(1 / math.sqrt(3), abs=1e-9)

    def test_right_triangle(self):
        # hypotenuse is a diameter: exercises the branch boundary
        assert circumradius_from_sides([3, 4, 5]) == pytest.approx(2.5, abs=1e-9)

    def test_obtuse_against_heron(self):
        r = circumradius_from_sides([2, 1, 1.2])
        assert r == pytest.approx(heron_circumradius(2, 1, 1.2), rel=1e-12)
        assert r == pytest.approx(1.3159, abs=1e-4)

    def test_unit_square_sides(self):
        assert circumradius_from_sides([1, 1, 1, 1]) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_polygon_inequality(self):
        with pytest.raises(PolygonInequality):
            circumradius_from_sides([10, 1, 1])

    def test_too_few_sides(self):
        with pytest.raises(PolygonInequality):
            circumradius_from_sides([1, 1])

    def test_monotone_angle_sum(self, rng):
        # r -> sum(arcsin(l/2r)) is strictly decreasing past max(l)/2
        for _ in range(10):
            L = rng.uniform(0.2, 3.0, size=rng.integers(3, 9))
            if L.max() >= L.sum() - L.max():
                continue
            grid = np.linspace(L.max() / 2 * (1 + 1e-9), L.max() * 5, 200)
            vals = [sum(math.asin(min(1.0, l / (2 * r))) for l in L) for r in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=3, max_value=10), st.integers(min_value=0, max_value=10**6),
           st.booleans())
    def test_cyclic_rotation_and_reversal_invariance(self, n, seed, outside):
        rng = np.random.default_rng(seed)
        poly = random_inscribed_polygon(rng, n, force_outside=outside)
        L = list(side_lengths(poly))
        r0 = circumradius_from_sides(L)
        k = seed % n
        assert circumradius_from_sides(L[k:] + L[:k]) == pytest.approx(r0, rel=1e-12)
        assert circumradius_from_sides(L[::-1]) == pytest.approx(r0, rel=1e-12)


class TestReconstruction:
    def test_unit_square(self):
        poly = reconstruct_inscribed_polygon([1, 1, 1, 1])
        r = math.sqrt(2) / 2
        expected = np.array([(r, 0), (0, r), (-r, 0), (0, -r)])
        assert np.allclose(poly, expected, atol=1e-12)

    def test_345_against_coordinates(self):
        poly = reconstruct_inscribed_polygon([3, 4, 5])
        iso, rmsd = best_fit_isometry(poly, np.array([(0, 0), (3, 0), (3, 4.0)]))
        assert rmsd < 1e-9

    def test_first_vertex_and_orientation(self, rng):
        L = side_lengths(random_inscribed_polygon(rng, 6))
        poly = reconstruct_inscribed_polygon(L)
        r = circumradius_from_sides(L)
        assert np.allclose(poly[0], [r, 0], atol=1e-12)
        nxt = np.roll(poly, -1, axis=0)
        area = 0.5 * (poly[:, 0] * nxt[:, 1] - poly[:, 1] * nxt[:, 0]).sum()
        assert area > 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=3, max_value=12), st.integers(min_value=0, max_value=10**6),
           st.booleans())
    def test_round_trip_congruence(self, n, seed, outside):
        rng = np.random.default_rng(seed)
        original = random_inscribed_polygon(rng, n, force_outside=outside)
        L = side_lengths(original)
        rebuilt = reconstruct_inscribed_polygon(L)
        # side lengths come back and all vertices share one circle
        assert np.allclose(side_lengths(rebuilt), L, rtol=1e-10, atol=1e-12)
        radii = np.linalg.norm(rebuilt, axis=1)
        assert np.allclose(radii, radii[0], rtol=1e-10)
        # and the polygon is congruent to the original
        _, rmsd = best_fit_isometry(rebuilt, original)
        assert rmsd < 1e-9 * diameter_of(original)
