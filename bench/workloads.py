"""Seeded inputs, ops, oracles and layer probes of the four workloads.

An op is one user-visible unit of work. Each op checks its own result
against an answer that does not come from edgesym: closed-form symmetry
group orders, classifications known from the geometry of the instance,
the isometry the benchmark applied itself, and the radius of the circle
the benchmark drew a polygon on.

In a traced pass each op is followed by ``probe``, which calls the public
function of every layer the op uses, one at a time and outside the op
span, so that stages hidden inside ``verify_*`` get their own timings. A
layer that the op never calls is probed on the nearest input the op has
(see README.md, "Cross-probes"), so every layer reports a measured time on
every workload.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import edgesym
from edgesym import (
    CombinatorialMap,
    analyze,
    assemble_congruence,
    boundary_decomposition,
    build_plane_graph,
    build_polytope,
    combinatorially_equivalent,
    enumerate_symmetries,
    face_map,
    is_edge_preserving,
    is_inscribed,
    random_inscribed_polytope,
    random_triangulation,
    realize,
    verify_graph_theorem,
    verify_polytope_theorem,
)
from edgesym.io import parse_graph_json, parse_off, write_report

APPLIES = "theorem-applies-and-holds"
FAILS_HOLDS = "hypothesis-fails-conclusion-holds"
FAILS_FAILS = "hypothesis-fails-conclusion-fails"
VIOLATION = "THEOREM-VIOLATION"

# (total, edge-preserving, realized, classification, violations). The
# totals are the orders of the full symmetry groups of the solids; the
# edge-preserving subgroups are the isometries that keep each edge-length
# class: D2h (8) for the 1x2x3 box, C4v x Z2 restricted to the top square
# (8) for the square frustum. The oblique parallelepiped keeps 16
# combinatorial symmetries that preserve lengths but only the identity and
# the central inversion are isometries, so 14 stay unrealized; its sheared
# parallelogram faces are not cyclic. The octahedron-plus-tetrahedron has
# three rhombi with a 60 degree angle, which are not cyclic.
GALLERY_ORACLE = {
    "cube": (48, 48, 48, APPLIES, 0),
    "tetrahedron": (24, 24, 24, APPLIES, 0),
    "octahedron": (48, 48, 48, APPLIES, 0),
    "dodecahedron": (120, 120, 120, APPLIES, 0),
    "icosahedron": (120, 120, 120, APPLIES, 0),
    "box_1_2_3": (48, 8, 8, APPLIES, 0),
    "oblique_parallelepiped": (48, 16, 2, FAILS_FAILS, 14),
    "frustum": (48, 8, 8, APPLIES, 0),
    "hex_prism": (24, 24, 24, APPLIES, 0),
    "octa_tetra_glue": (6, 6, 6, FAILS_HOLDS, 0),
}


def family_oracle(family: str, n: int):
    """Gallery prisms and antiprisms have unit edges around the n-gons and
    height 1. Their symmetry group is D_nh or D_nd, of order 4n, and every
    combinatorial symmetry is an isometry, except that prism:4 is the unit
    cube (48) and antiprism:3 is combinatorially the octahedron (48), of
    which only the 12 symmetries keeping the two unit triangles are
    isometries or preserve edge lengths."""
    if family == "prism" and n == 4:
        return (48, 48, 48, APPLIES, 0)
    if family == "antiprism" and n == 3:
        return (48, 12, 12, APPLIES, 0)
    return (4 * n, 4 * n, 4 * n, APPLIES, 0)


class OpFailure(Exception):
    """An op returned a result that disagrees with its oracle."""


def _expect(what: str, got, want) -> None:
    if got != want:
        raise OpFailure(f"{what}: got {got!r}, expected {want!r}")


def check_verdict(doc: dict, oracle, label: str) -> None:
    """Compare a verdict document (``TheoremVerdict.to_dict()`` or the CLI
    payload) with an oracle tuple; None entries are not checked."""
    if doc["classification"] == VIOLATION:
        raise OpFailure(f"{label}: THEOREM-VIOLATION")
    total, edge_ok, realized, classification, violations = oracle
    counts = doc["counts"]
    for key, want in (("total", total), ("edge_preserving", edge_ok),
                      ("realized", realized)):
        if want is not None:
            _expect(f"{label} {key}", counts[key], want)
    _expect(f"{label} classification", doc["classification"], classification)
    _expect(f"{label} violations", len(doc["violations"]), violations)


def random_orthogonal(rng, dim: int, reflect: bool) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    if (np.linalg.det(q) < 0) != reflect:
        q[:, 0] = -q[:, 0]
    return q


def diameter(points: np.ndarray) -> float:
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=-1)).max())


def off_text(points: np.ndarray) -> str:
    lines = ["OFF", f"{len(points)} 0 0"]
    lines += [" ".join(repr(float(x)) for x in p) for p in points]
    return "\n".join(lines) + "\n"


def graph_text(labels, points: np.ndarray, edges) -> str:
    doc = {
        "vertices": [{"id": l, "x": float(p[0]), "y": float(p[1])}
                     for l, p in zip(labels, points)],
        "edges": [list(e) for e in edges],
    }
    return json.dumps(doc)


def moved_polytope(P, rng):
    """Labelled points of P under a seeded isometry, in a seeded order and
    under seeded labels; the symmetry counts do not change."""
    labels = list(P.vertices)
    pts = np.array([P.vertices[l] for l in labels])
    q = random_orthogonal(rng, 3, reflect=bool(rng.integers(2)))
    moved = pts @ q.T + rng.normal(size=3)
    names = [str(i + 1) for i in rng.permutation(len(labels))]
    order = rng.permutation(len(labels))
    return [(names[i], moved[i]) for i in order]


# ---------------------------------------------------------------------------
# layer probes


def _face_graph(points: np.ndarray, face):
    """One face of a polytope as a one-face plane graph in its own plane."""
    pts = np.array([points[l] for l in face])
    centered = pts - pts.mean(axis=0)
    basis = np.linalg.svd(centered, full_matrices=False)[2][:2]
    xy = centered @ basis.T
    edges = [(face[i], face[(i + 1) % len(face)]) for i in range(len(face))]
    return list(zip(face, xy)), edges


def _boundary_face(G) -> int:
    """The face the assembly decomposes along first: the smallest bounded
    face sharing an edge with the outer face."""
    M = G.map
    outer = M.face_edges(M.outer_face)
    return min((fi for fi in G.bounded_faces() if M.face_edges(fi) & outer),
               key=lambda fi: M.faces[fi])


def probe_planegraph(tr, labelled_points, edges) -> None:
    with tr.span("planegraph.build"):
        G = build_plane_graph(labelled_points, edges)
    tr.value("planegraph.crossing_pairs", len(G.edges) * (len(G.edges) - 1) // 2)
    with tr.span("planegraph.decompose"):
        boundary_decomposition(G, _boundary_face(G))
    with tr.span("planegraph.assemble"):
        rho = assemble_congruence(G, G)
    if rho is None:
        raise OpFailure("a plane graph is not congruent to itself")


def probe_map(tr, M, coords, faces, source=None) -> float:
    """Map, symmetry and inscribed-face layers on one instance; returns the
    time of the probes that ``verify_*`` runs inside itself. The map is
    compared with ``source`` when given, else with its own rebuild."""
    tr.value("maps.flags", len(M.flags))
    with tr.span("maps.build"):
        rebuilt = CombinatorialMap(M.faces, outer_face=M.outer_face)
    with tr.span("maps.equivalent"):
        same = combinatorially_equivalent(source or rebuilt, M)
    if not same:
        raise OpFailure("a map is not equivalent to its source")
    with tr.span("symmetry.enumerate") as s_enum:
        perms = enumerate_symmetries(M)
    tr.value("symmetry.symmetries", len(perms))
    with tr.span("symmetry.classify") as s_cls:
        for sigma in perms:
            is_edge_preserving(M, coords, sigma)
            realize(M, coords, sigma)
    with tr.span("symmetry.analyze") as s_an:
        analyze(M, coords)
    tr.value("symmetry.analyze_rest_s", s_an.dur - s_enum.dur - s_cls.dur)
    with tr.span("geom.inscribed") as s_ins:
        for fi in faces:
            is_inscribed(np.array([coords[l] for l in M.faces[fi]]))
    tr.value("geom.inscribed_calls", len(faces))
    return s_an.dur + s_ins.dur


def probe_io(tr, text: str, parse, name: str, verdict, vertices) -> None:
    with tr.span("io.parse"):
        parse(text)
    tr.value("io.parse_bytes", len(text.encode()))
    with tr.span("io.report"):
        report = write_report(name, verdict, edgesym.DEFAULT_TOLERANCE, vertices)
    tr.value("io.report_bytes", len(report.encode()))


def probe_polytope(tr, name, P, verdict, verdict_s: float, text: str,
                   build: bool) -> None:
    """All layers on one polytope, given as OFF ``text`` too; ``build``
    probes build_polytope when the op did not call it."""
    if build:
        with tr.span("polytope.build"):
            build_polytope(list(P.vertices.items()))
    with tr.span("polytope.face_map") as s_fm:
        M = face_map(P)
    tr.value("polytope.faces", len(M.faces))
    inner = probe_map(tr, M, P.vertices, range(len(M.faces)))
    tr.value("verify.rest_s", verdict_s - s_fm.dur - inner)
    probe_io(tr, text, parse_off, name, verdict, P.vertices)
    probe_planegraph(tr, *_face_graph(P.vertices, M.faces[0]))


def probe_graph(tr, name, H, verdict, verdict_s: float, text: str,
                source=None) -> None:
    """All layers on one plane graph, given as graph-JSON ``text`` too. The
    op built H and assembled it onto
    ``source`` when that is given; otherwise build and assembly are probed
    here. The polytope layer is probed on the points lifted to the
    paraboloid z = x^2 + y^2, whose lower hull is the Delaunay
    triangulation of the points."""
    if source is None:
        probe_planegraph(tr, list(H.vertices.items()), H.edges)
    else:
        with tr.span("planegraph.decompose"):
            boundary_decomposition(H, _boundary_face(H))
    inner = probe_map(tr, H.map, H.vertices, H.bounded_faces(),
                      source=source and source.map)
    tr.value("verify.rest_s", verdict_s - inner)
    probe_io(tr, text, parse_graph_json, name, verdict, H.vertices)
    labels = list(H.vertices)
    xy = np.array([H.vertices[l] for l in labels])
    lifted = np.column_stack([xy, (xy * xy).sum(axis=1)])
    with tr.span("polytope.build"):
        P = build_polytope(list(zip(labels, lifted)))
    with tr.span("polytope.face_map"):
        M = face_map(P)
    tr.value("polytope.faces", len(M.faces))


# ---------------------------------------------------------------------------
# ops


class PolytopeVerifyOp:
    """Build a polytope from labelled points and verify the theorem on it."""

    def __init__(self, name, points, oracle):
        self.name, self.points, self.oracle = name, points, oracle

    def run(self, tr) -> None:
        with tr.span("polytope.build"):
            P = build_polytope(self.points)
        with tr.span("verify.verdict") as span:
            v = verify_polytope_theorem(P, instance_id=self.name)
        check_verdict(v.to_dict(), self.oracle, self.name)
        self._last = (P, v, span)

    def probe(self, tr) -> None:
        P, v, span = self._last
        probe_polytope(tr, self.name, P, v, span.dur, self.serialized()[1], build=False)

    def serialized(self):
        return "instance.off", off_text(np.array([p for _, p in self.points]))


class PlaneAssemblyOp:
    """Build the image of G under a known isometry, then (for the smaller
    graphs) assemble the congruence and verify the theorem on the image."""

    def __init__(self, name, G, rng, reflect: bool, assemble: bool):
        self.name, self.G, self.assemble = name, G, assemble
        self.linear = random_orthogonal(rng, 2, reflect)
        self.shift = 2.0 * rng.normal(size=2)
        self.labels = list(G.vertices)
        self.src = np.array([G.vertices[l] for l in self.labels])
        self.dst = self.src @ self.linear.T + self.shift
        self.limit = 1e-8 * diameter(self.src)

    def run(self, tr) -> None:
        with tr.span("planegraph.build"):
            H = build_plane_graph(list(zip(self.labels, self.dst)), self.G.edges)
        tr.value("planegraph.crossing_pairs", len(H.edges) * (len(H.edges) - 1) // 2)
        if self.assemble:
            with tr.span("planegraph.assemble"):
                rho = assemble_congruence(self.G, H)
            if rho is None:
                raise OpFailure(f"{self.name}: congruent graphs not assembled")
            gap = float(np.abs(rho.apply(self.src) - self.dst).max())
            if not gap <= self.limit:
                raise OpFailure(f"{self.name}: assembled isometry off by {gap:g}")
        with tr.span("verify.verdict") as span:
            v = verify_graph_theorem(H, instance_id=self.name)
        # triangles are always inscribed; a generic triangulation has no
        # symmetry the identity does not already give
        check_verdict(v.to_dict(), (None, None, None, APPLIES, 0), self.name)
        self._last = (H, v, span)

    def probe(self, tr) -> None:
        H, v, span = self._last
        probe_graph(tr, self.name, H, v, span.dur, self.serialized()[1], source=self.G)

    def serialized(self):
        return "instance.json", graph_text(self.labels, self.dst, self.G.edges)


def cli_command(*args) -> list[str]:
    return [sys.executable, "-m", "edgesym.cli", *args]


class CliOp:
    """One fresh ``python -m edgesym.cli`` process."""

    def __init__(self, span, args, check, files=()):
        self.span_name, self.args, self.check, self.files = span, args, check, files

    def run(self, tr) -> None:
        with tr.span(self.span_name):
            proc = subprocess.run(cli_command(*self.args), capture_output=True,
                                  text=True, timeout=120)
        _expect(f"exit code of {' '.join(self.args)} ({proc.stderr.strip()!r})",
                proc.returncode, 0)
        docs = [json.loads(line) for line in proc.stdout.splitlines() if line.strip()]
        self.check(docs)

    def probe(self, tr) -> None:
        """The same files through the library in this process."""
        for path, oracle in self.files:
            text = Path(path).read_text()
            if path.endswith(".off"):
                P = parse_off(text, source=path)
                with tr.span("verify.verdict") as span:
                    v = verify_polytope_theorem(P, instance_id=path)
                check_verdict(v.to_dict(), oracle, path)
                probe_polytope(tr, path, P, v, span.dur, text, build=True)
            else:
                G = parse_graph_json(text, source=path)
                with tr.span("verify.verdict") as span:
                    v = verify_graph_theorem(G, instance_id=path)
                check_verdict(v.to_dict(), oracle, path)
                probe_graph(tr, path, G, v, span.dur, text)


def _payloads(docs, n: int):
    if len(docs) != n:
        raise OpFailure(f"expected {n} JSON report(s), got {len(docs)}")
    return [d["payload"] for d in docs]


def _verdicts(oracles):
    def check(docs):
        for payload, (label, oracle) in zip(_payloads(docs, len(oracles)), oracles):
            check_verdict(payload, oracle, label)
    return check


def cyclic_sides(rng, k: int):
    """Side lengths of a convex k-gon drawn on a circle of seeded radius,
    with every arc below pi so the center lies inside."""
    radius = float(rng.uniform(1.0, 3.0))
    while True:
        arcs = rng.dirichlet(np.ones(k)) * 2.0 * math.pi
        if arcs.max() < 0.9 * math.pi:
            break
    return radius, [2.0 * radius * math.sin(a / 2.0) for a in arcs]


# ---------------------------------------------------------------------------
# workloads

# Pass compositions. The largest sizes are where the slow stages take
# over: at prism:40 enumeration is 0.23 s of a 1.4 s analyze, and
# assembly, which re-validates its sub-graphs at each recursion level,
# takes about 3 s at n = 80. A run makes 3 passes. Sizes repeat, so that
# the median and the tail (the 11th largest latency) each fall inside a
# group of instances of one size, rather than in the gap between two sizes
# of very different cost. In the ladder the 24 rung appears twice, under
# different motions: its 12 latencies in a run sit just below the six of
# the 40 rung, and the tail is the fifth of them rather than the fifth of
# six.
LADDER_N = (3, 4, 5, 6, 8, 10, 12, 16, 24, 24, 40)
SPHERE_N = (1000, 700) + (500,) * 3 + (350,) * 4 + (200, 220, 240, 260, 280)
ASSEMBLY_N = (80,) + (24,) * 3 + (18, 19, 20, 21)
LARGE_N = (300,) * 3


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def symmetric_ladder(rng, tiny: bool, workdir: Path):
    names = ["cube", "oblique_parallelepiped", "octa_tetra_glue"] if tiny else list(GALLERY_ORACLE)
    ops = [PolytopeVerifyOp(name, moved_polytope(edgesym.gallery(name), rng),
                            GALLERY_ORACLE[name]) for name in names]
    for n in ((3, 4, 5) if tiny else LADDER_N):
        for family in ("prism", "antiprism"):
            spec = f"{family}:{n}"
            ops.append(PolytopeVerifyOp(spec, moved_polytope(edgesym.gallery(spec), rng),
                                        family_oracle(family, n)))
    return ops


def sphere_verify(rng, tiny: bool, workdir: Path):
    ops = []
    for n in ((20, 40) if tiny else SPHERE_N):
        P = random_inscribed_polytope(n, _seed(rng))
        ops.append(PolytopeVerifyOp(f"sphere:{n}", list(P.vertices.items()),
                                    (1, 1, 1, APPLIES, 0)))
    return ops


def plane_assembly(rng, tiny: bool, workdir: Path):
    # The large builds come first, before the assembly of the largest
    # graph leaves its memory behind, so that peak_rss_mb is set by the
    # O(E^2) crossing check and not by what the ops before it left.
    sizes = [(n, False) for n in ((40,) if tiny else LARGE_N)]
    sizes += [(n, True) for n in ((8, 12) if tiny else ASSEMBLY_N)]
    return [PlaneAssemblyOp(f"triangulation:{n}", random_triangulation(n, _seed(rng)), rng,
                            reflect=i % 2 == 1, assemble=assemble)
            for i, (n, assemble) in enumerate(sizes)]


def cli_batch(rng, tiny: bool, workdir: Path):
    def write(name, text):
        path = workdir / name
        path.write_text(text)
        return str(path)

    def solid(name):
        labelled = moved_polytope(edgesym.gallery(name), rng)
        return write(f"{name}.off", off_text(np.array([p for _, p in labelled])))

    sphere_pts = random_inscribed_polytope(40, _seed(rng)).vertices.values()
    sphere = write("sphere.off", off_text(np.array(list(sphere_pts))))
    dodeca = solid("dodecahedron")
    oblique = solid("oblique_parallelepiped")
    box = solid("box_1_2_3")
    cube = solid("cube")
    graphs = []
    for n in (20, 14):
        G = random_triangulation(n, _seed(rng))
        labels = list(G.vertices)
        xy = np.array([G.vertices[l] for l in labels])
        graphs.append(write(f"triangulation{n}.json", graph_text(labels, xy, G.edges)))
    generic = (1, 1, 1, APPLIES, 0)
    triangulation = (None, None, None, APPLIES, 0)

    def analyze_check(docs):
        (payload,) = _payloads(docs, 1)
        _expect("cube counts", payload["counts"],
                {"total": 48, "edge_preserving": 48, "realized": 48})
        _expect("cube group_closed", payload["group_closed"], True)

    def analyze_graph_check(docs):
        (payload,) = _payloads(docs, 1)
        if not payload["counts"]["realized"] >= 1 or not payload["group_closed"]:
            raise OpFailure(f"triangulation analysis {payload['counts']}")

    def reconstruct(k):
        radius, sides = cyclic_sides(rng, k)

        def check(docs):
            (doc,) = docs
            if not abs(doc["circumradius"] - radius) <= 1e-9 * radius:
                raise OpFailure(f"circumradius {doc['circumradius']!r}, drawn on {radius!r}")
            _expect("reconstructed vertex count", len(doc["vertices"]), k)

        return CliOp("cli.reconstruct_cold",
                     ["reconstruct", "--sides", ",".join(map(repr, sides))], check)

    def verify(path, oracle):
        return CliOp("cli.verify_cold", ["verify", path], _verdicts([(path, oracle)]),
                     [(path, oracle)])

    batch = [(oblique, GALLERY_ORACLE["oblique_parallelepiped"]),
             (box, GALLERY_ORACLE["box_1_2_3"]),
             (graphs[1], triangulation)]
    return [
        verify(sphere, generic),
        verify(graphs[0], triangulation),
        verify(dodeca, GALLERY_ORACLE["dodecahedron"]),
        CliOp("cli.batch", ["verify", *(p for p, _ in batch)], _verdicts(batch), batch),
        CliOp("cli.analyze", ["analyze", "--format", "json", cube], analyze_check,
              [(cube, GALLERY_ORACLE["cube"])]),
        CliOp("cli.analyze", ["analyze", "--format", "json", graphs[1]],
              analyze_graph_check),
        reconstruct(7),
        reconstruct(4),
        reconstruct(12),
    ]


# Workloads whose ops run in the listed order in every pass; the others
# run in a seeded random order.
FIXED_ORDER = {"plane_assembly"}

WORKLOADS = {
    "symmetric_ladder": symmetric_ladder,
    "sphere_verify": sphere_verify,
    "plane_assembly": plane_assembly,
    "cli_batch": cli_batch,
}
