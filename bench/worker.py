"""Benchmark worker: one fresh interpreter per set-up sample or measured run.

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --work-dir DIR [--setup-only]

Imports spherediss, makes one warm-up call per task kind and prints
``ready``; the parent times spawn-to-ready as set-up.  Unless
``--setup-only``, it then runs timed passes for S seconds (half untraced and
half traced with ``--trace 1``), checks every pass's outputs and prints one
JSON line with the results.  Outputs are checked right after each pass,
outside its timed window.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import workloads
from tracer import Tracer


def run_passes(workload, budget: float, tracer=None, spans_path: str = "") -> list[dict]:
    """Closed loop: start another pass while it is expected to end within budget.

    When traced, each pass's spans are reduced to per-layer totals and
    dropped, so memory stays bounded; the first traced pass's spans are
    written to ``spans_path``.
    """
    passes = []
    start = time.perf_counter()
    while True:
        rec = workloads.Recorder(tracer)
        if tracer is not None:
            tracer.pass_index = len(passes)
        begin = time.perf_counter()
        raw = workload.run_pass(rec)
        wall = time.perf_counter() - begin
        if tracer is not None:
            tracer.pass_index = -1  # digesting and checking are not part of a pass
        digests = workload.digest(raw)
        del raw
        ok = workload.check(digests)
        # keep only compact results, so that the worker's peak RSS is the library's
        passes.append({
            "wall": wall,
            "latencies": {kind: np.asarray(v) for kind, v in rec.latencies.items()},
            "attempted": len(ok),
            "failed": ok.count(False),
            "failures": [repr(d) for d, good in zip(digests, ok) if not good][:3],
        })
        del digests
        if tracer is not None:
            passes[-1]["layers"] = tracer.per_pass().get(len(passes) - 1, {})
            if len(passes) == 1:
                tracer.dump(spans_path)
            tracer.clear()
        gc.collect()  # cyclic garbage of one pass must not pile up into the next one's RSS
        walls = [p["wall"] for p in passes]
        if time.perf_counter() - start + statistics.median(walls) > budget:
            return passes


def latency_stats(samples: np.ndarray) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    stats = {"n": n, "p50": float(np.median(samples))}
    if n >= 20:
        q = int(1000.0 * (1.0 - 10.0 / n)) / 10.0
        stats.update(tail_pct=q, tail=float(np.percentile(samples, q)))
    if n >= 1000:
        stats["p99"] = float(np.percentile(samples, 99.0))
    return stats


def layer_metrics(traced: list[dict], untraced: list[dict], workload) -> dict:
    names = set().union(*(p["layers"] for p in traced))
    layers = {name: float(np.median([p["layers"].get(name, 0.0) for p in traced]))
              for name in names}
    steps = layers.get("pde.steps", 0.0)
    layers["pde.nfev_per_step"] = layers.get("pde.nfev", 0.0) / steps if steps else 0.0
    layers["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                  - statistics.median(p["wall"] for p in untraced))
    if workload.name == "cli":
        layers["cli.output_bytes"] = workload.output_bytes
        for command in ("invert", "t0-table", "curve", "compare", "nondim"):
            layers[f"cli.{command}.process_s"] = float(np.median(
                [np.mean(p["latencies"][command]) for p in untraced]))
    return layers


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    source = os.path.realpath(os.path.join(os.path.dirname(workloads.sd.__file__), ".."))
    expected = os.path.realpath(os.environ["PYTHONPATH"])
    if source != expected:
        print(f"spherediss imported from {source}, not {expected}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload, args.seed, args.work_dir)
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    workload.prepare()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run_passes(workload, budget)
    usage = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0  # Linux reports KiB
    passes = untraced
    result = {}
    if args.trace:
        result["accuracy"] = workloads.accuracy()
        tracer = Tracer()
        tracer.install()
        traced = run_passes(workload, budget, tracer, os.path.join(args.work_dir, "spans.json"))
        result["layers"] = layer_metrics(traced, untraced, workload)
        passes = untraced + traced

    kinds = {kind: np.concatenate([p["latencies"][kind] for p in untraced])
             for kind in untraced[0]["latencies"]}
    result.update(
        workload=workload.name,
        passes=len(untraced),
        wall_s=statistics.median(p["wall"] for p in untraced),
        kinds={kind: latency_stats(samples) for kind, samples in kinds.items()},
        task_kind=workload.task_kind,
        peak_rss_mb=peak_rss_mb,
        attempted=sum(p["attempted"] for p in passes),
        failed=sum(p["failed"] for p in passes),
        failures=[f for p in passes for f in p["failures"]][:5],
        report=workload.report(untraced),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
