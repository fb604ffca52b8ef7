#!/usr/bin/env python3
"""edgesym benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload symmetric_ladder --seed 1 --seconds 24 --trace 0
    python3 bench/run.py --seed 1            # every workload, one after another

Each workload runs in WORKERS fresh worker processes (worker.py), one
after another, that import edgesym from ``src`` with BLAS capped at one
thread. Each worker sets up the workload and measures it for an equal
share of ``--seconds``; the end-to-end metrics pool all workers, and
``setup_s`` is the median over workers of the time from process start
until the workload's inputs exist. With ``--trace 1`` the last worker
also runs a traced phase that yields the per-layer metrics. Every invocation writes one result file under
``bench/results/``; the last line on stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("symmetric_ladder", "sphere_verify", "plane_assembly", "cli_batch")
# Fresh processes per run. Each process keeps a speed of its own, up to
# about 20% apart for the same instance, so pooling several averages that
# out.
WORKERS = 3
BLAS_THREADS = "1"
TAIL_BEYOND = 10
TIME_LIMIT_S = 170  # one invocation must end within 180 s


class BenchError(Exception):
    """The benchmark itself could not run."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, index: int, trace: int, deadline: float) -> dict:
    """Run one worker to completion; its set-up time is measured from just
    before the process is started until it reports its inputs ready. On
    timeout the worker's whole process group is killed."""
    workdir = BENCH / ".work" / f"{os.getpid()}-{index}"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
           "--trace", str(trace), "--workdir", str(workdir)]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, env=worker_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args.workload} worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{args.workload} worker exited {proc.returncode}:\n{err}")
    doc = json.loads(out.strip().splitlines()[-1])
    doc["setup_s"] = doc["t_ready"] - t0
    return doc


def tail(latencies: list[float], guaranteed: int) -> tuple[float, float, int]:
    """Latency at the highest percentile that has TAIL_BEYOND samples beyond
    it in every run, i.e. in a run of ``guaranteed`` ops; returns value,
    percentile and the samples beyond it in this run. A percentile fixed
    per workload does not jump when a run completes one more pass."""
    xs = sorted(latencies)
    beyond = min(TAIL_BEYOND * len(xs) // guaranteed, len(xs) - 1)
    return xs[len(xs) - 1 - beyond], 100.0 * (1 - TAIL_BEYOND / guaranteed), beyond


def machine_info(versions: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **versions,
        "blas_threads": int(BLAS_THREADS),
        "client": "one closed-loop client in one process",
    }


def run_workload(args) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    docs = [start_worker(args, i, args.trace if i == WORKERS - 1 else 0, deadline)
            for i in range(WORKERS)]
    main = docs[-1]
    if not Path(main["edgesym_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"edgesym was imported from {main['edgesym_file']}, not {SRC}")
    setups = [d["setup_s"] for d in docs]
    passes = [p for d in docs for p in d["untraced"]["passes"]]
    lat = [x for d in docs for x in d["untraced"]["latencies"]]
    failed = sum(d["untraced"]["failed"] for d in docs)
    errors = [e for d in docs for e in d["untraced"]["errors"]]
    ops_per_pass = len(lat) // len(passes)
    # every worker makes at least one pass
    tail_s, tail_pct, tail_beyond = tail(lat, WORKERS * ops_per_pass)
    end_to_end = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "run_s": {"value": sum(passes) / len(passes), "unit": "s"},
        "op_p50_s": {"value": statistics.median(lat), "unit": "s"},
        "op_tail_s": {"value": tail_s, "unit": "s",
                      "percentile": tail_pct, "samples_beyond": tail_beyond},
        "fail_frac": {"value": failed / len(lat), "unit": "1"},
        "peak_rss_mb": {"value": max(d["peak_rss_mb"] for d in docs), "unit": "MB"},
    }
    attempted = len(lat)
    if "traced" in main:
        attempted += main["traced"]["attempted"]
        failed += main["traced"]["failed"]
        errors += main["traced"]["errors"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "machine": machine_info(main["versions"]),
        "setup_samples_s": setups,
        "passes": len(passes), "ops": len(lat),
        "pass_s": passes, "op_latency_s": lat,
        "attempted": attempted, "failed": failed, "errors": errors,
        "end_to_end": end_to_end,
        "per_layer": main.get("per_layer"),
        "traced_passes": len(main["traced"]["passes"]) if "traced" in main else 0,
        "spans": main.get("spans"),
    }


def write_result(result: dict) -> Path:
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    path = out_dir / (f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
                      f"-{stamp}-{os.getpid()}.json")
    path.write_text(json.dumps(result, indent=1))
    return path


def print_metrics(result: dict) -> None:
    w = result["workload"]
    for name, m in result["end_to_end"].items():
        extra = ""
        if name == "op_tail_s":
            extra = (f"  (p{m['percentile']:.1f}, {m['samples_beyond']} samples beyond,"
                     f" {result['ops']} ops)")
        print(f"{w:17} {name:28} {m['value']:.6g} {m['unit']}{extra}")
    for name, m in (result["per_layer"] or {}).items():
        print(f"{w:17} {name:28} {m['value']:.6g} {m['unit']}")


def summary_line(result: dict) -> dict:
    section = "per_layer" if result["trace"] else "end_to_end"
    metrics = {name: {"value": m["value"], "unit": m["unit"]}
               for name, m in result[section].items() if name != "fail_frac"}
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest instances of every workload (smoke test)")
    args = ap.parse_args(argv)
    if not (SRC / "edgesym" / "__init__.py").is_file():
        print(f"error: no edgesym sources under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    try:
        for name in names:
            args.workload = name
            result = run_workload(args)
            print_metrics(result)
            print(f"{name:17} result file {write_result(result)}")
            for err in result["errors"]:
                print(f"{name:17} failed op: {err}")
            lines[name] = summary_line(result)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(l["correct"] for l in lines.values()),
            "attempted": sum(l["attempted"] for l in lines.values()),
            "failed": sum(l["failed"] for l in lines.values()),
            "metrics": {f"{w}/{k}": v for w, l in lines.items()
                        for k, v in l["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
