"""One benchmark worker process.

Started by run.py with BLAS capped at one thread and ``src`` on the import
path. It sets up one workload, reports when set-up ended, and measures
the workload for ``--seconds`` with one closed-loop client: each op starts
when the previous one has finished. With ``--trace 1`` a traced phase of
the same length follows the untraced one. Prints one JSON document on
stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import edgesym
import workloads

# cold-start probes that run in a fresh interpreter and print their own time
IMPORT_PROBES = {
    "cli.import_s": "import time; t = time.perf_counter(); import edgesym; "
                    "print(time.perf_counter() - t)",
    "cli.scipy_import_s": "import numpy, time; t = time.perf_counter(); "
                          "import scipy.spatial; print(time.perf_counter() - t)",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and values kept in memory; each carries the id of its op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.values: list[tuple[str, float, int]] = []
        self.op = -1
        self._open: list[int] = []

    def span(self, name: str):
        return _SpanContext(self, name)

    def value(self, name: str, value) -> None:
        self.values.append((name, value, self.op))


class _SpanContext:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str):
        rec = Span()
        rec.name, rec.op = name, tracer.op
        rec.parent = tracer._open[-1] if tracer._open else -1
        self.tracer, self.record = tracer, rec

    def __enter__(self) -> Span:
        tr = self.tracer
        tr._open.append(len(tr.spans))
        tr.spans.append(self.record)
        self.record.start = time.perf_counter()
        return self.record

    def __exit__(self, *exc) -> None:
        self.record.end = time.perf_counter()
        self.tracer._open.pop()


class NullTracer:
    """Stands in for Tracer in untraced passes."""

    _null = Span()

    def span(self, name: str):
        return self

    def value(self, name: str, value) -> None:
        pass

    def __enter__(self) -> Span:
        return self._null

    def __exit__(self, *exc) -> None:
        pass


def measure(ops, seconds: float, rng, tracer=None) -> dict:
    """Run one whole pass over ``ops``, and more only while one more pass
    of mean length still ends within ``seconds``. Given ``rng``, each pass
    runs the ops in an order drawn from it, so that instances of one size
    fall at different moments of the pass rather than next to each other,
    and a slow moment of the machine does not move them all. A traced pass
    probes every op after it."""
    tr = tracer or NullTracer()
    passes, latencies, errors = [], [], []
    pass_of_op = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() + sum(passes) / len(passes) <= deadline:
        order = ops if rng is None else [ops[i] for i in rng.permutation(len(ops))]
        start = time.perf_counter()
        for op in order:
            if tracer:
                tracer.op = len(pass_of_op)
            pass_of_op.append(len(passes))
            t0 = time.perf_counter()
            try:
                with tr.span("op"):
                    op.run(tr)
                if tracer:
                    op.probe(tracer)
            except Exception as exc:  # an op that raises counts as failed
                failed += 1
                errors.append(f"{type(exc).__name__}: {exc}")
            latencies.append(time.perf_counter() - t0)
        passes.append(time.perf_counter() - start)
    return {"passes": passes, "latencies": latencies, "failed": failed,
            "errors": errors[:5], "pass_of_op": pass_of_op}


def cold_probes(tracer: Tracer, ops, workdir: Path, cli_ops: bool, rng) -> None:
    """Interpreter cold starts. A workload whose ops are not CLI runs also
    gets one cold ``verify`` of its first instance and one cold
    ``reconstruct`` of a seeded cyclic hexagon."""
    for name, code in IMPORT_PROBES.items():
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, timeout=120, check=True).stdout
        tracer.value(name, float(out.strip()))
    if cli_ops:
        return
    fname, text = ops[0].serialized()
    path = workdir / fname
    path.write_text(text)
    sides = ",".join(map(repr, workloads.cyclic_sides(rng, 6)[1]))
    for span, args in (("cli.verify_cold", ["verify", str(path)]),
                       ("cli.reconstruct_cold", ["reconstruct", "--sides", sides])):
        with tracer.span(span):
            proc = subprocess.run(workloads.cli_command(*args), capture_output=True,
                                  timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"cold probe {args[0]} exited {proc.returncode}")


# per-layer metrics and their units; a time ending in _s is the per-pass
# sum of the spans of that name, a count the per-pass sum of its values
PER_LAYER = {
    "polytope.build_s": "s", "polytope.face_map_s": "s", "polytope.faces": "count",
    "maps.build_s": "s", "maps.flags": "count", "maps.equivalent_s": "s",
    "symmetry.enumerate_s": "s", "symmetry.symmetries": "count",
    "symmetry.classify_s": "s", "symmetry.analyze_s": "s",
    "symmetry.analyze_rest_s": "s",
    "geom.inscribed_s": "s", "geom.inscribed_calls": "count",
    "planegraph.build_s": "s", "planegraph.crossing_pairs": "count",
    "planegraph.decompose_s": "s", "planegraph.assemble_s": "s",
    "verify.verdict_s": "s", "verify.rest_s": "s",
    "io.parse_s": "s", "io.parse_bytes": "bytes", "io.report_s": "s",
    "io.report_bytes": "bytes",
    "cli.import_s": "s", "cli.scipy_import_s": "s", "cli.verify_cold_s": "s",
    "cli.reconstruct_cold_s": "s",
}
# one cold start each, so their median, not a per-pass sum
PER_INVOCATION = {"cli.import_s", "cli.scipy_import_s", "cli.verify_cold_s",
                  "cli.reconstruct_cold_s"}


def per_layer(tracer: Tracer, traced: dict, untraced_run_s: float) -> dict:
    """Per-pass sums of span times and values, as the median over traced
    passes; cold starts as the median over invocations."""
    pass_of_op = traced["pass_of_op"]
    n_passes = len(traced["passes"])
    sums: dict[str, list[float]] = {}
    singles: dict[str, list[float]] = {}
    entries = [(s.name + "_s", s.dur, s.op) for s in tracer.spans]
    for name, value, op in entries + tracer.values:
        if name in PER_INVOCATION:
            singles.setdefault(name, []).append(value)
        elif name in PER_LAYER or name == "op_s":
            per_pass = sums.setdefault(name, [0.0] * n_passes)
            per_pass[pass_of_op[op]] += value
    out = {}
    for name, unit in PER_LAYER.items():
        values = singles.get(name) if name in PER_INVOCATION else sums.get(name)
        if not values:
            raise RuntimeError(f"traced run recorded nothing for {name}")
        value = statistics.median(values)
        out[name] = {"value": int(value) if unit != "s" else value, "unit": unit}
    traced_op_s = statistics.median(sums["op_s"])
    out["trace.overhead_pct"] = {
        "value": 100.0 * (traced_op_s - untraced_run_s) / untraced_run_s, "unit": "%"}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    try:
        rng = np.random.default_rng(args.seed)
        ops = workloads.WORKLOADS[args.workload](rng, args.tiny, workdir)
        doc = {"t_ready": time.monotonic(), "edgesym_file": edgesym.__file__}
        doc["versions"] = {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        }
        cli = args.workload == "cli_batch"
        order_rng = (None if args.workload in workloads.FIXED_ORDER
                     else np.random.default_rng([args.seed, 1]))
        untraced = measure(ops, args.seconds, order_rng)
        doc["untraced"] = untraced
        who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
        doc["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        if args.trace:
            tracer = Tracer()
            traced = measure(ops, args.seconds, order_rng, tracer)
            tracer.op = 0
            cold_probes(tracer, ops, workdir, cli, rng)
            run_s = sum(untraced["passes"]) / len(untraced["passes"])
            doc["traced"] = {k: traced[k] for k in ("passes", "failed", "errors")}
            doc["traced"]["attempted"] = len(traced["latencies"])
            doc["per_layer"] = per_layer(tracer, traced, run_s)
            doc["spans"] = [(s.name, s.start, s.end, s.parent, s.op) for s in tracer.spans]
        print(json.dumps(doc))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
