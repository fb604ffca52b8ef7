"""File formats and report serialization.

OFF files for polytopes (vertex order defines labels "0", "1", ...), a
small JSON format for plane graphs, and byte-stable report documents
(canonical key order, fixed 17-significant-digit floats).
"""

from __future__ import annotations

import json
import warnings

from .errors import InputFormatError
from .geom import DEFAULT_TOLERANCE, LabelledPoints, Tolerance
from .maps import cycle_key
from .planegraph import ConvexPlaneGraph, build_plane_graph
from .polytope import IndexedPolytope, build_polytope, face_map

__all__ = [
    "OffFaceMismatchWarning",
    "SCHEMA_VERSION",
    "canonical_json",
    "parse_graph_json",
    "parse_off",
    "write_graph_json",
    "write_off",
    "write_report",
]

SCHEMA_VERSION = "1"


class OffFaceMismatchWarning(UserWarning):
    """Face records in an OFF file disagree with the recomputed hull faces."""


def _fmt_float(x: float) -> str:
    return format(float(x), ".17g")  # well-formed reports hold no "nan"/"inf"


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, %.17g floats, no whitespace drift."""
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        inner = ",".join(f"{json.dumps(str(k))}:{canonical_json(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def write_report(source: str, obj, tol: Tolerance, vertices) -> str:
    """Serialize a payload-bearing object (anything with to_dict) into the
    canonical report JSON: instance metadata, tolerance echo, and the
    payload (a symmetry report or a theorem verdict)."""
    vertices = LabelledPoints.of(vertices)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "instance": {
            "source": source,
            "vertex_count": len(vertices),
            "diameter": vertices.diameter,
        },
        "tolerance": {
            "abs_eps": tol.abs_eps,
            "rel_eps": tol.rel_eps,
            "fit_eps": tol.fit_eps,
        },
        "payload": obj.to_dict(),
    }
    return canonical_json(doc) + "\n"


def parse_off(text: str, tol: Tolerance | None = None,
              source: str = "<off>") -> IndexedPolytope:
    """Parse OFF text into an IndexedPolytope.

    Vertex order defines the labels "0", "1", ...; face records are
    ignored (faces are recomputed from the hull) but checked against the
    recomputed faces when present, warning on mismatch.
    """
    tol = tol or DEFAULT_TOLERANCE
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise InputFormatError(f"{source}: empty OFF file")
    pos = 0
    lineno, header = lines[pos]
    if header.upper() == "OFF":
        pos += 1
        if pos >= len(lines):
            raise InputFormatError(f"{source}: missing the counts line")
        lineno, counts_line = lines[pos]
    else:
        counts_line = header
    fields = counts_line.split()
    if len(fields) < 2:
        raise InputFormatError(
            f"{source}:{lineno}: expected 'n_vertices n_faces [n_edges]', got {counts_line!r}"
        )
    try:
        n_vertices, n_faces = int(fields[0]), int(fields[1])
    except ValueError:
        raise InputFormatError(
            f"{source}:{lineno}: counts must be integers, got {counts_line!r}"
        ) from None
    pos += 1
    if len(lines) - pos < n_vertices:
        raise InputFormatError(
            f"{source}: declared {n_vertices} vertices but only "
            f"{len(lines) - pos} data lines remain"
        )
    points = []
    for i in range(n_vertices):
        lineno, line = lines[pos + i]
        parts = line.split()
        if len(parts) < 3:
            raise InputFormatError(
                f"{source}:{lineno}: vertex line needs 3 coordinates, got {line!r}"
            )
        try:
            xyz = [float(v) for v in parts[:3]]
        except ValueError:
            raise InputFormatError(
                f"{source}:{lineno}: bad coordinate in {line!r}"
            ) from None
        points.append((str(i), xyz))
    pos += n_vertices
    off_faces = []
    for i in range(min(n_faces, len(lines) - pos)):
        lineno, line = lines[pos + i]
        parts = line.split()
        try:
            k = int(parts[0])
            indices = [int(v) for v in parts[1 : 1 + k]]
        except (ValueError, IndexError):
            raise InputFormatError(
                f"{source}:{lineno}: bad face record {line!r}"
            ) from None
        if k < 3:
            raise InputFormatError(f"{source}:{lineno}: a face needs 3 or more vertices: {line!r}")
        if len(indices) != k:
            raise InputFormatError(
                f"{source}:{lineno}: face record declares {k} vertices, lists {len(indices)}"
            )
        out_of_range = [v for v in indices if not 0 <= v < n_vertices]
        if out_of_range:
            raise InputFormatError(
                f"{source}:{lineno}: face references unknown vertex index {out_of_range[0]}"
            )
        off_faces.append([str(v) for v in indices])
    P = build_polytope(points, tol)
    if off_faces:
        declared = sorted(cycle_key(f) for f in off_faces)
        recomputed = sorted(face_map(P, tol).face_keys())
        if declared != recomputed:
            warnings.warn(
                f"{source}: face records do not match the recomputed hull faces; "
                f"recomputed faces are authoritative",
                OffFaceMismatchWarning,
                stacklevel=2,
            )
    return P


def write_off(P: IndexedPolytope, tol: Tolerance | None = None) -> str:
    """OFF text for a polytope: vertices in insertion order, faces
    recomputed from the hull."""
    tol = tol or DEFAULT_TOLERANCE
    index = P.vertices.index
    M = face_map(P, tol)
    out = ["OFF", f"{len(index)} {len(M.faces)} {len(M.edges)}"]
    for p in P.vertices.array:
        out.append(" ".join(_fmt_float(x) for x in p))
    for f in M.faces:
        out.append(" ".join([str(len(f))] + [str(index[v]) for v in f]))
    return "\n".join(out) + "\n"


def parse_graph_json(text: str, tol: Tolerance | None = None,
                     source: str = "<graph>") -> ConvexPlaneGraph:
    """Parse {"vertices": [{"id", "x", "y"}, ...], "edges": [[a, b], ...]}
    into a validated convex plane graph."""
    tol = tol or DEFAULT_TOLERANCE
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{source}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "vertices" not in doc or "edges" not in doc:
        raise InputFormatError(f"{source}: expected an object with 'vertices' and 'edges'")
    for field in ("vertices", "edges"):
        if not isinstance(doc[field], list):
            raise InputFormatError(f"{source}: '{field}' must be a list")
    points = []
    for i, rec in enumerate(doc["vertices"]):
        if not isinstance(rec, dict) or not {"id", "x", "y"} <= set(rec):
            raise InputFormatError(
                f"{source}: vertex record {i} must carry 'id', 'x', and 'y'"
            )
        try:
            points.append((str(rec["id"]), (float(rec["x"]), float(rec["y"]))))
        except (TypeError, ValueError):
            raise InputFormatError(
                f"{source}: vertex record {i} has non-numeric coordinates"
            ) from None
    edges = []
    for i, rec in enumerate(doc["edges"]):
        if not isinstance(rec, (list, tuple)) or len(rec) != 2:
            raise InputFormatError(f"{source}: edge record {i} must be a pair")
        edges.append((str(rec[0]), str(rec[1])))
    try:
        return build_plane_graph(points, edges, tol)
    except ValueError as exc:
        raise InputFormatError(f"{source}: {exc}") from None


def write_graph_json(G: ConvexPlaneGraph) -> str:
    doc = {
        "vertices": [
            {"id": l, "x": float(G.vertices[l][0]), "y": float(G.vertices[l][1])}
            for l in sorted(G.vertices)
        ],
        "edges": [[u, v] for u, v in G.edges],
    }
    return canonical_json(doc) + "\n"


def load_instance(path: str, tol: Tolerance | None = None):
    """Read a polytope (.off) or plane graph (.json) from disk, sniffing
    the format when the extension is ambiguous."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    lower = path.lower()
    if lower.endswith(".off"):
        return parse_off(text, tol, source=path)
    if lower.endswith(".json"):
        return parse_graph_json(text, tol, source=path)
    head = text.lstrip()[:16].upper()
    if head.startswith("OFF") or head[:1].isdigit():
        return parse_off(text, tol, source=path)
    if head.startswith("{"):
        return parse_graph_json(text, tol, source=path)
    raise InputFormatError(f"{path}: cannot determine the input format")
