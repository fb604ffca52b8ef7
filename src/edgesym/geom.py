"""Numeric geometry kernel.

Tolerances, labelled point sets, rigid isometries, least-squares alignment
(orthogonal Procrustes), circle fitting with geometric refinement, and
reconstruction of a convex inscribed polygon from its side lengths alone.

All functions are pure; returned objects are immutable and safe to share
between threads.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollinearPoints,
    DegeneratePolygon,
    DimensionMismatch,
    DuplicateLabel,
    InvalidTolerance,
    NonCoplanarPoints,
    NonFiniteCoordinate,
    PolygonInequality,
)

__all__ = [
    "Tolerance",
    "DEFAULT_TOLERANCE",
    "Isometry",
    "LabelledPoints",
    "CircleFit",
    "circumradius_from_sides",
    "diameter_of",
    "is_inscribed",
    "polygon_area",
    "reconstruct_inscribed_polygon",
]


@dataclass(frozen=True)
class Tolerance:
    """Comparison thresholds, each a coefficient of the instance diameter,
    so that no verdict changes when the input is scaled.

    Two lengths are equal within ``(abs_eps + rel_eps)`` times the diameter
    (:meth:`length_eps`); ``abs_eps`` keeps its name only because reports
    echo it. Isometry and circle fits accept an RMS residual of up to
    ``fit_eps`` times the diameter, and the face merge takes ``fit_eps`` as
    an angle in radians.
    """

    abs_eps: float = 1e-9
    rel_eps: float = 1e-9
    fit_eps: float = 1e-6

    def __post_init__(self) -> None:
        if not all(0 < x < math.inf for x in (self.abs_eps, self.rel_eps, self.fit_eps)):
            raise InvalidTolerance("all tolerance components must be positive and finite, got "
                                   f"{self.abs_eps}, {self.rel_eps}, {self.fit_eps}")

    def scaled(self, factor: float) -> "Tolerance":
        """Uniformly scale all three thresholds (used by the CLI --tol flag);
        the products are checked as any tolerance is."""
        return Tolerance(self.abs_eps * factor, self.rel_eps * factor, self.fit_eps * factor)

    def length_eps(self, diameter: float) -> float:
        """Threshold for declaring two lengths equal on an instance of this size."""
        return (self.abs_eps + self.rel_eps) * diameter

    def fit_threshold(self, diameter: float) -> float:
        """Max RMS residual accepted for a congruence fit on this instance."""
        return self.fit_eps * diameter


DEFAULT_TOLERANCE = Tolerance()


def _as_points(points, dims=(2, 3)) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2 or arr.shape[1] not in dims:
        raise DimensionMismatch(f"expected an (n, d) point array with d in {dims}, "
                                f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteCoordinate("point array has a non-finite coordinate")
    return arr


# Elements per numpy pass in the diameter, flag replay and classification,
# which bounds their memory whatever the instance size or group order.
_BLOCK = 1 << 18


def _row_blocks(n_rows: int, row_size: int) -> list[slice]:
    """Slices of about _BLOCK elements over rows of ``row_size`` elements;
    at least one, possibly empty."""
    step = max(1, _BLOCK // row_size)
    return [slice(i, i + step) for i in range(0, max(n_rows, 1), step)]


def diameter_of(points) -> float:
    """Largest pairwise distance within a point collection (NaN if a
    coordinate is), over blocks of rows in O(n + _BLOCK) memory."""
    arr = np.asarray(points, dtype=float)
    return float(_diameters(arr[None])[0]) if arr.ndim == 2 and len(arr) >= 2 else 0.0


def _diameter_bracket(arr: np.ndarray) -> tuple[float, float]:
    """Bounds L <= ``diameter_of(arr)`` <= U in O(n): L the longest pair
    distance met by two farthest-point sweeps, U the bounding-box diagonal.
    Both square and add the columns as ``_diameters`` does, and every step
    rounds monotonically, so the bounds hold in floats."""
    def squares(rows, p):
        return sum((rows[:, c] - p[c]) ** 2 for c in range(arr.shape[1]))

    far = 0
    for _ in range(2):
        sq = squares(arr, arr[far])
        far = int(np.argmax(sq))
    box = squares(arr.max(axis=0)[None], arr.min(axis=0))
    return float(np.sqrt(sq[far])), float(np.sqrt(box[0]))


def _diameters(S: np.ndarray) -> np.ndarray:
    """``diameter_of`` of each point set of a stack (F, k, d), in blocks of
    about _BLOCK elements: of whole point sets, and of rows within one. The
    squares add up left to right, as a sum over the last axis does, and the
    monotone sqrt is taken once, of the largest."""
    F, k, d = S.shape
    best = np.full(F, -np.inf)
    for sets in _row_blocks(F, k * k * d):
        for rows in _row_blocks(k, S[sets].size):
            sq = sum((S[sets, rows, None, c] - S[sets, None, rows.start:, c]) ** 2
                     for c in range(d))
            best[sets] = np.maximum(best[sets], sq.max(axis=(1, 2)))
    return np.sqrt(best)


class LabelledPoints(Mapping):
    """Read-only mapping from str label to point, built from a mapping or
    from (label, point) pairs with unique labels and finite coordinates.
    ``labels`` keeps insertion order, ``index`` maps a label to its row of
    the read-only (n, d) float ``array``, and ``diameter`` is cached."""

    __slots__ = ("labels", "index", "array", "_diameter")

    def __init__(self, points):
        pairs = list(points.items() if isinstance(points, Mapping) else points)
        self.labels: tuple[str, ...] = tuple(str(l) for l, _ in pairs)
        self.index = {l: i for i, l in enumerate(self.labels)}
        if len(self.index) != len(pairs):
            dup = next(l for i, l in enumerate(self.labels) if self.index[l] != i)
            raise DuplicateLabel(f"label {dup!r} appears more than once")
        self.array = np.array([p for _, p in pairs], dtype=float)
        if not np.isfinite(self.array).all():
            bad = next(l for l, p in zip(self.labels, self.array) if not np.isfinite(p).all())
            raise NonFiniteCoordinate(f"point {bad!r} has a non-finite coordinate")
        # past this bound the squared distances of the diameter overflow
        limit = math.sqrt(np.finfo(float).max / (4 * max(self.array.shape[-1], 1)))
        if self.array.size and np.abs(self.array).max() > limit:
            bad = next(l for l, p in zip(self.labels, self.array) if np.abs(p).max() > limit)
            raise NonFiniteCoordinate(f"point {bad!r} has a coordinate beyond {limit:g}, "
                                      "where squared distances overflow")
        self.array.setflags(write=False)
        self._diameter: float | None = None

    @classmethod
    def of(cls, points) -> "LabelledPoints":
        """``points`` itself if it is a LabelledPoints, else a new one."""
        return points if isinstance(points, cls) else cls(points)

    def __getitem__(self, label) -> np.ndarray:
        return self.array[self.index[label]]

    def __iter__(self):
        return iter(self.labels)

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return len(other) == len(self) and all(
            l in other and np.array_equal(p, other[l]) for l, p in zip(self.labels, self.array)
        )

    def take(self, labels) -> np.ndarray:
        """The points of ``labels``, in that order, as an array."""
        return self.array.take([self.index[l] for l in labels], axis=0)

    @property
    def diameter(self) -> float:
        if self._diameter is None:
            self._diameter = diameter_of(self.array)
        return self._diameter


def _check_orthogonal(linear: np.ndarray) -> None:
    """Raise ValueError, naming the first defect, unless every matrix of the
    stack (n, d, d) is orthogonal within 1e-6."""
    defect = np.abs(np.swapaxes(linear, 1, 2) @ linear - np.eye(linear.shape[-1]))
    defect = defect.max(axis=(1, 2))
    if (defect > 1e-6).any():
        raise ValueError(f"linear part is not orthogonal (defect {defect[defect > 1e-6][0]:g})")


@dataclass(frozen=True, eq=False)
class Isometry:
    """Orthogonal linear part plus translation, in dimension 2 or 3."""

    linear: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        lin = np.array(self.linear, dtype=float)
        tr = np.array(self.translation, dtype=float)
        if lin.ndim != 2 or lin.shape[0] != lin.shape[1] or lin.shape[0] not in (2, 3):
            raise DimensionMismatch(f"linear part must be 2x2 or 3x3, got {lin.shape}")
        if tr.shape != (lin.shape[0],):
            raise DimensionMismatch(f"translation shape {tr.shape} does not match linear "
                                    f"part {lin.shape}")
        _check_orthogonal(lin[None])
        lin.setflags(write=False)
        tr.setflags(write=False)
        object.__setattr__(self, "linear", lin)
        object.__setattr__(self, "translation", tr)

    @classmethod
    def _from_stack(cls, linear: np.ndarray, translation: np.ndarray) -> list["Isometry"]:
        """One isometry per row of (n, d, d) linear parts and (n, d)
        translations, checked for orthogonality all at once."""
        linear, translation = np.array(linear, dtype=float), np.array(translation, dtype=float)
        _check_orthogonal(linear)
        linear.setflags(write=False)
        translation.setflags(write=False)
        isometries = [object.__new__(cls) for _ in range(len(linear))]
        for iso, lin, tr in zip(isometries, linear, translation):
            vars(iso).update(linear=lin, translation=tr)  # checked above, not in __post_init__
        return isometries

    @classmethod
    def identity(cls, dim: int) -> "Isometry":
        return cls(np.eye(dim), np.zeros(dim))

    @property
    def dim(self) -> int:
        return self.linear.shape[0]

    @property
    def orientation(self) -> int:
        """+1 for rotations, -1 for reflections."""
        return 1 if float(np.linalg.det(self.linear)) > 0 else -1

    def apply(self, p) -> np.ndarray:
        """Apply to one point or to an (n, d) array of points."""
        arr = np.asarray(p, dtype=float)
        if arr.shape[-1] != self.dim:
            raise DimensionMismatch(f"point dimension {arr.shape[-1]} does not match isometry "
                                    f"dimension {self.dim}")
        return arr @ self.linear.T + self.translation

    def to_dict(self) -> dict:
        return {
            "linear": [[float(x) for x in row] for row in self.linear],
            "translation": [float(x) for x in self.translation],
        }


def _procrustes(A: np.ndarray, B: np.ndarray):
    """Kabsch fit, over all orthogonal maps, of the points A (n, d), or of
    each set of a stack A (F, n, d), onto each point set of the stack B
    (F, n, d): linear parts (F, d, d), translations (F, d) and RMS
    residuals (F,), each row the bits of its fit alone."""
    n, d = A.shape[-2:]
    ca = A.mean(axis=-2)
    cb = B.mean(axis=1)
    U, _sing, Vt = np.linalg.svd(np.swapaxes(A - ca[..., None, :], -1, -2) @ (B - cb[:, None]))
    R = np.swapaxes(Vt, 1, 2) @ np.swapaxes(U, 1, 2)
    t = cb - (R @ ca[..., None])[..., 0]
    resid = A @ np.swapaxes(R, 1, 2) + t[:, None] - B
    return R, t, np.sqrt((resid * resid).reshape(len(B), n * d).sum(axis=1) / n)


@dataclass(frozen=True, eq=False)
class CircleFit:
    """Best-fit circle: center, radius, worst distance residual, and (in 3D)
    the unit normal of the fitted carrier plane."""

    center: np.ndarray
    radius: float
    max_residual: float
    plane_normal: np.ndarray | None = None


def polygon_area(polygon) -> float:
    """Unsigned area of a (possibly 3D, planar) polygon given in boundary order, taken
    in its own power-of-two frame, so that 2^k times a polygon has 2^2k times its area."""
    P = _as_points(polygon)[None]
    e = np.frexp(np.abs(P).max(initial=0.0))[1]  # the exponent of the largest |coordinate|
    P = np.ldexp(P, -e)
    return float(np.ldexp(_areas(P - P.mean(axis=1)[:, None])[0], 2 * e))


def _cross(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``np.cross`` on the last axis, in its C order (so it sums alike), without its overhead."""
    up, down = [1, 2, 0], [2, 0, 1]
    return u.take(up, -1) * v.take(down, -1) - u.take(down, -1) * v.take(up, -1)


def _areas(Q: np.ndarray) -> np.ndarray:
    """``polygon_area`` of each polygon of a stack (F, k, d), each moved to
    its centroid."""
    nxt = np.concatenate([Q[:, 1:], Q[:, :1]], axis=1)
    if Q.shape[2] == 2:
        return 0.5 * np.abs((Q[..., 0] * nxt[..., 1] - Q[..., 1] * nxt[..., 0]).sum(axis=1))
    cross = _cross(Q, nxt).sum(axis=1)
    # one dot product per face, as np.linalg.norm takes it
    return 0.5 * np.sqrt(np.matmul(cross[:, None, :], cross[:, :, None])[:, 0, 0])


def is_inscribed(polygon, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[bool, CircleFit]:
    """Concyclicity verdict and best-fit circle (a triangle's circumcircle,
    else a Gauss-Newton fit) of a convex polygon in boundary order, 2D or 3D
    coplanar: the fit of ``_fit_circles`` on a stack of one. True iff the
    worst residual is at most ``fit_eps`` times the polygon diameter."""
    failed, fits = _fit_circles(_as_points(polygon)[None], tol)
    if failed:
        raise failed[1]
    ok, center, radius, max_res, normal = (None if v is None else v[0] for v in fits)
    return bool(ok), CircleFit(center, float(radius), float(max_res), normal)


def _solve_normal(A: np.ndarray, b: np.ndarray, guard: bool = True) -> np.ndarray:
    """Least squares of each ``A[i] x = b[i]`` of a stack (F, k, 3) by its 3x3 normal equations, in
    one ``np.linalg.solve``; with ``guard``, 0 where det <= 1e-13 times the diagonal product."""
    At = np.swapaxes(A, 1, 2)
    M, v = At @ A, At @ b[..., None]
    singular = guard and ~(np.linalg.det(M) > 1e-13 * M.diagonal(axis1=1, axis2=2).prod(axis=1))
    if np.any(singular):
        M[singular], v[singular] = np.eye(3), 0.0
    return np.linalg.solve(M, v)[..., 0]


def _fit_circles(S: np.ndarray, tol: Tolerance):
    """The circle fit of each face of a stack (F, k, d), one row per face:
    whether the worst residual is within ``fit_eps`` times the face
    diameter, center, radius, worst residual and (None in 2D) unit normal.

    Each face is fitted in its own frame, anchored at its first vertex (so
    no translation cancels) and scaled by 2^-e for the exponent e of its
    diameter: no product of lengths leaves the float range, and the fit of
    2^j times a face is 2^j times its fit, bit for bit. A triangle gets its
    circumcircle in closed form; a larger face, in the principal axes of its
    points (of its best plane in 3D), a Kasa seed and Gauss-Newton steps.
    A face fails if it has under 3 vertices, (numerically) zero area, leaves
    its best plane by more than the threshold, or is collinear. Returns
    (None, fits), or ((i, error), None) for the first face i that fails.
    """
    F, k, d = S.shape
    if k < 3:
        return (0, DegeneratePolygon("a polygon needs at least 3 vertices")), None
    S, anchor = S - S[:, :1], S[:, 0]  # each face in the frame of its first vertex
    # first by the largest coordinate, so that _diameters squares in range
    e = np.frexp(np.abs(S).max(axis=(1, 2)))[1]
    diam, shift = np.frexp(_diameters(np.ldexp(S, -e[:, None, None])))
    S, e = np.ldexp(S, -(e + shift)[:, None, None]), e + shift
    threshold = tol.fit_threshold(diam)
    centroid = S.sum(axis=1) / k  # S.mean(axis=1), without its call overhead
    Q = S - centroid[:, None]
    zero = (diam == 0) | (_areas(Q) <= 1e-12 * diam * diam)
    if k == 3:  # the circumcentre, from the vertex opposite the longest side
        first = np.linalg.norm(Q[:, [1, 2, 0]] - Q[:, [2, 0, 1]], axis=2).argmax(axis=1)[:, None]
        T = Q[np.arange(F)[:, None], (first + np.arange(3)) % 3]
        T = T if d == 3 else np.concatenate([T, np.zeros((F, 3, 1))], axis=2)
        a, b = T[:, 1] - T[:, 0], T[:, 2] - T[:, 0]
        n = _cross(a, b)
        nn = np.where(zero, 1.0, (n * n).sum(axis=1))[:, None]
        normal = n / np.sqrt(nn)
        center = (T[:, 0] + ((a * a).sum(axis=1)[:, None] * _cross(b, n)
                             + (b * b).sum(axis=1)[:, None] * _cross(n, a)) / (2.0 * nn))[:, :d]
        dist = np.linalg.norm(Q - center[:, None], axis=2)
        radius = dist.sum(axis=1) / 3
        collinear = False  # past the area test, s1/s0 >= 2 area/(sqrt(3) diam^2) > 1.15e-12
    else:
        _, sing, Vt = np.linalg.svd(Q, full_matrices=False)
        normal = Vt[:, -1]
        collinear = (sing[:, 0] <= 0) | (sing[:, 1] <= 1e-12 * sing[:, 0])
    offset = np.zeros(F)
    if d == 3:
        flip = normal[np.arange(F), np.abs(normal).argmax(axis=1)] < 0
        normal = np.where(flip[:, None], -normal, normal)
        offset = np.abs(np.matmul(Q, normal[..., None])[..., 0]).max(axis=1)
    bad = zero | (offset > threshold) | collinear
    if bad.any():
        i = int(bad.argmax())
        if zero[i]:
            error = DegeneratePolygon("polygon has (numerically) zero area")
        elif offset[i] > threshold[i]:
            error = NonCoplanarPoints("points deviate from their best plane by {:g} (limit {:g})"
                                      .format(*np.ldexp([offset[i], threshold[i]], e[i])))
        else:
            error = CollinearPoints("points are collinear: no finite circle fits them")
        return (i, error), None
    if k > 3:
        xy = np.matmul(Q, np.swapaxes(Vt[:, :2], 1, 2))
        # Kasa seed: 2*cx*x + 2*cy*y + c = x^2 + y^2 in least squares, then x holds
        # (cx, cy, r); past the collinear test its matrix is near diag(4 s0^2, 4 s1^2, k)
        A = np.concatenate([2.0 * xy, np.ones((F, k, 1))], axis=2)
        x = _solve_normal(A, (xy * xy).sum(axis=2), guard=False)
        x[:, 2] = np.sqrt(np.maximum(x[:, 2] + x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1], 0.0))
        # Gauss-Newton on sum (|p - center| - r)^2 over the faces still refining,
        # J's first two columns centred (the step is the same, decoupled from r);
        # a step that more than doubles the sum is undone, and its face stops.
        live, cost, last = np.arange(F), np.full(F, np.inf), x.copy()
        for i in range(21):
            xl = x[live]
            diff = xy[live] - xl[:, None, :2]
            dist = np.hypot(diff[..., 0], diff[..., 1])
            res = xl[:, 2, None] - dist
            sq = (res * res).sum(axis=1)
            up = sq > 2.0 * cost[live]
            go = ~(up | (dist.min(axis=1) <= 0))  # a point on the center has no direction
            if not go.all():
                x[live[up]] = last[live[up]]
                live, xl, diff, dist, res, sq = (a[go] for a in (live, xl, diff, dist, res, sq))
            if not len(live) or i == 20:
                break
            cost[live], last[live] = sq, xl
            u = -diff / dist[..., None]
            mean = u.sum(axis=1) / k
            J = np.empty((len(live), k, 3))
            J[..., :2], J[..., 2] = u - mean[:, None], -1.0
            step = _solve_normal(J, res)
            step[:, 2] += (mean * step[:, :2]).sum(axis=1)
            x[live] = xl = xl + step
            live = live[~(np.abs(step).max(axis=1) <= 1e-15 * np.abs(xl[:, 2]))]
            if not len(live):
                break
        dist, radius = np.hypot(*(xy - x[:, None, :2]).T).T, x[:, 2]
        center = x[:, :1] * Vt[:, 0] + x[:, 1:2] * Vt[:, 1]
    max_res = np.abs(dist - radius[:, None]).max(axis=1)
    center = centroid + center + np.ldexp(anchor, -e[:, None])
    return None, (max_res <= threshold, np.ldexp(center, e[:, None]),
                  np.ldexp(radius, e), np.ldexp(max_res, e), normal if d == 3 else None)


def _solve_circumradius(lengths) -> tuple[float, list[float]]:
    """Circumradius of the cyclic polygon with the given sides, and the
    central angle of each side.

    Each side of length l subtends a central angle 2*arcsin(l/2r). With the
    center inside, the angles sum to 2*pi; with the center outside, the
    longest side subtends the reflex complement instead, which turns the
    angle-sum equation into the long-chord form below. Both residual
    functions change sign exactly once past r = l_max/2, so bisection to
    1e-14 relative width pins the unique admissible radius. The polygon
    inequality and the solve run on the sides times 2^-e, e the exponent
    of l_max: no sum leaves the float range there, and 2^k times the sides
    give 2^k times the radius, bit for bit.
    """
    L = [float(x) for x in lengths]
    if len(L) < 3:
        raise PolygonInequality("need at least 3 side lengths")
    if not all(math.isfinite(x) for x in L):
        raise PolygonInequality("side lengths must be finite")
    if min(L) <= 0:
        raise PolygonInequality("side lengths must be strictly positive")
    imax, e = L.index(max(L)), math.frexp(max(L))[1]
    L = [math.ldexp(l, -e) for l in L]
    lmax = L[imax]
    rest = sum(L) - lmax
    if lmax >= rest:
        raise PolygonInequality(f"longest side {math.ldexp(lmax, e):g} must be shorter than "
                                f"the sum of the others {math.ldexp(rest, e):g}")

    def term(l: float, r: float) -> float:
        return math.asin(min(1.0, l / (2.0 * r)))

    def f_inside(r: float) -> float:
        return sum(term(l, r) for l in L) - math.pi

    def f_outside(r: float) -> float:
        partial = sum(term(l, r) for i, l in enumerate(L) if i != imax)
        return partial - term(lmax, r)

    r0 = lmax / 2.0
    inside = f_inside(r0) >= 0.0
    fn = f_inside if inside else f_outside

    lo, hi = r0, 2.0 * r0
    for _ in range(200):
        val = fn(hi)
        if (val < 0.0) if inside else (val > 0.0):
            break
        lo, hi = hi, 2.0 * hi
    else:  # pragma: no cover - the doubling always terminates for valid sides
        raise ArithmeticError("circumradius bracketing failed")

    for _ in range(200):
        if hi - lo <= 1e-14 * hi:
            break
        mid = 0.5 * (lo + hi)
        val = fn(mid)
        if (val >= 0.0) if inside else (val <= 0.0):
            lo = mid
        else:
            hi = mid
    r = 0.5 * (lo + hi)
    thetas = [2.0 * term(l, r) for l in L]
    if not inside:
        thetas[imax] = 2.0 * math.pi - thetas[imax]
    try:
        return math.ldexp(r, e), thetas
    except OverflowError:
        raise DegeneratePolygon(f"circumradius {r!r} * 2**{e} exceeds the float range") from None


def circumradius_from_sides(lengths) -> float:
    """Radius of the circle carrying the convex inscribed polygon whose sides
    have the given lengths in the given cyclic order."""
    return _solve_circumradius(lengths)[0]


def reconstruct_inscribed_polygon(lengths) -> np.ndarray:
    """Canonical inscribed polygon with the given side lengths.

    Vertices lie counterclockwise on the circle of radius
    ``circumradius_from_sides(lengths)`` centered at the origin, first
    vertex at (r, 0).
    """
    r, thetas = _solve_circumradius(lengths)
    angles = np.concatenate([[0.0], np.cumsum(thetas[:-1])])
    return np.column_stack([r * np.cos(angles), r * np.sin(angles)])
