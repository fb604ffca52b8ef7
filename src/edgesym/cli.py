"""Command-line front end.

Subcommands: analyze (full symmetry report), verify (theorem verdict,
exit 3 on a THEOREM-VIOLATION), reconstruct (inscribed polygon from side
lengths). Exit codes: 0 normal, 2 input error, 3 theorem violation alarm.
"""

from __future__ import annotations

import argparse
import math
import sys

from .errors import EdgesymError
from .gallery import gallery
from .geom import DEFAULT_TOLERANCE, Tolerance, reconstruct_inscribed_polygon
from .io import canonical_json, load_instance, write_report
from .polytope import IndexedPolytope, face_map
from .symmetry import analyze
from .verify import CLASS_VIOLATION, _verdict, random_inscribed_polytope

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_VIOLATION = 3
_QHULL_MAX_POINTS = 2**31 - 1  # Qhull counts its input points in a C int


def _tolerance(args) -> Tolerance:
    if not (args.tol > 0 and math.isfinite(args.tol)):
        raise EdgesymError(f"--tol must be a positive finite scale factor, got {args.tol}")
    return DEFAULT_TOLERANCE.scaled(args.tol)


def _instances(args, tol):
    """Yield (source, instance) pairs for the selected inputs."""
    if getattr(args, "gallery", None):
        yield f"gallery:{args.gallery}", gallery(args.gallery)
        return
    if getattr(args, "random", None) is not None:
        if not 4 <= args.random <= _QHULL_MAX_POINTS:
            raise EdgesymError(f"--random needs 4 <= N <= {_QHULL_MAX_POINTS}, got {args.random}")
        seed = args.seed if args.seed is not None else 0
        if seed < 0:
            raise EdgesymError(f"--seed must be >= 0, got {seed}")
        yield f"random:{args.random}:{seed}", random_inscribed_polytope(args.random, seed)
        return
    if not args.input:
        raise EdgesymError("no input given: pass a file, --gallery, or --random")
    for path in args.input:
        yield path, load_instance(path, tol)


def _reports(args, payload):
    """Read, check and report each input in turn, and yield its result:
    ``payload`` (analyze or the verdict) of its map, taken once."""
    tol = _tolerance(args)
    for source, instance in _instances(args, tol):
        M = face_map(instance, tol) if isinstance(instance, IndexedPolytope) else instance.map
        result = payload(M, instance.vertices, tol, source)
        _print_report(source, instance.vertices, result, tol, args.format)
        yield result


def _print_report(source, vertices, payload, tol, fmt) -> None:
    if fmt == "json":
        sys.stdout.write(write_report(source, payload, tol, vertices))
        return
    doc = payload.to_dict()
    c = doc["counts"]
    counts = (f"symmetries: {c['total']} total, {c['edge_preserving']} edge-preserving, "
              f"{c['realized']} realized")
    print(f"instance: {source}")
    if doc["kind"] == "symmetry_report":
        print(f"{counts} (group closed: {doc['group_closed']})")
        for rec in doc["records"]:
            tags = []
            if rec["edge_preserving"]:
                tags.append("edge-preserving")
            if rec["realized"]:
                tags.append(f"realized det={rec['orientation']:+d}")
            print(f"  {rec['sigma']:<40} rmsd={rec['rmsd']:.3e} {' '.join(tags)}")
    else:
        print(f"classification: {doc['classification']}")
        print(
            f"hypothesis (all faces inscribed): {doc['hypothesis_holds']} "
            f"(worst residual {doc['worst_face_residual']:.3e})"
        )
        print(counts)
        for rec in doc["violations"]:
            print(f"  unrealized edge-preserving: {rec['sigma']} rmsd={rec['rmsd']:.3e}")


def cmd_analyze(args) -> int:
    for _ in _reports(args, analyze):
        pass
    return EXIT_OK


def cmd_verify(args) -> int:
    # every input is reported, also after an alarm
    alarms = [v for v in _reports(args, _verdict) if v.classification == CLASS_VIOLATION]
    return EXIT_VIOLATION if alarms else EXIT_OK


def cmd_reconstruct(args) -> int:
    try:
        sides = [float(s) for s in args.sides.split(",") if s.strip()]
    except ValueError:
        raise EdgesymError(f"--sides must be a comma-separated number list, got {args.sides!r}")
    polygon = reconstruct_inscribed_polygon(sides)
    radius = float(polygon[0, 0])  # the first vertex is (r, 0)
    if args.format == "json":
        doc = {
            "circumradius": radius,
            "vertices": [[float(x), float(y)] for x, y in polygon],
        }
        sys.stdout.write(canonical_json(doc) + "\n")
    else:
        print(f"circumradius: {radius:.12g}")
        for i, (x, y) in enumerate(polygon, start=1):
            print(f"  v{i}: ({x:.12g}, {y:.12g})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgesym",
        description=(
            "Analyze combinatorial symmetries of convex 3-polytopes and convex "
            "plane graphs, and verify that instances with all faces inscribed "
            "realize every edge-preserving symmetry."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("input", nargs="*", help="OFF or graph-JSON file(s)")
        p.add_argument("--gallery", help="built-in instance, e.g. cube or prism:6")
        p.add_argument("--tol", type=float, default=1.0,
                       help="scale factor applied to all default tolerances")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_analyze = sub.add_parser("analyze", help="full combinatorial symmetry report")
    common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify", help="theorem verdict (exit 3 on violation)")
    common(p_verify)
    p_verify.add_argument("--random", type=int, metavar="N",
                          help="random polytope inscribed in the unit sphere")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_rec = sub.add_parser("reconstruct",
                           help="inscribed polygon from its side lengths")
    p_rec.add_argument("--sides", required=True, help="comma-separated side lengths")
    p_rec.add_argument("--format", choices=("json", "text"), default="json")
    p_rec.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (EdgesymError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def entry() -> None:  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
