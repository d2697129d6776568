"""spherediss benchmark: one command for every workload and metric.

    python3 bench/run.py --workload closed-form|pde-reference|cli|all \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in fresh worker processes
(``worker.py``), one at a time, with BLAS/OpenMP threads pinned to 1.  With
``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of a traced run.  The lines before it print every metric
by name and unit, and the run record (git sha, versions, nproc, load).
Results and spans are also written to ``.bench_out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from inputs import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"

#: Worker starts per untraced run; setup_s is their median.
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 3

#: Every run must end well inside the 180 s a run is allowed.
DEADLINE_S = 170.0

THREAD_PINNING = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict[str, str]:
    # solver tolerances come from the library defaults, never the caller's shell
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPHEREDISS_")}
    env.update(THREAD_PINNING, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    return env


def run_record(workload: str, args) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg()[0],
        "thread_env": THREAD_PINNING,
    }


def spawn_worker(workload: str, args, work_dir: Path, deadline: float, setup_only: bool):
    """Start a worker; return (spawn-to-ready seconds, its result or None)."""
    command = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir)]
    if setup_only:
        command.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=worker_env(),
                            cwd=ROOT)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        if line.strip() != "ready":
            proc.wait()
            raise BenchError(f"{workload} worker did not become ready (exit {proc.returncode})")
        if setup_only:
            proc.stdout.read()
            if proc.wait() != 0:
                raise BenchError(f"{workload} set-up worker exited with {proc.returncode}")
            return ready, None
        output = proc.stdout.read()
        if proc.wait() != 0:
            raise BenchError(f"{workload} worker exited with {proc.returncode}")
        try:
            return ready, json.loads(output.strip().splitlines()[-1])
        except (ValueError, IndexError):
            raise BenchError(f"{workload} worker printed no result") from None
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def timed_process(command: list[str]) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, env=worker_env(), cwd=ROOT,
                          timeout=60, check=True)
    return time.perf_counter() - start, done.stderr


def import_metrics() -> dict[str, float]:
    """Interpreter start, and cumulative ``-X importtime`` of spherediss and scipy.integrate."""
    interpreter = [timed_process([sys.executable, "-c", "pass"])[0] for _ in range(5)]
    cumulative: dict[str, list[float]] = {"spherediss": [], "scipy.integrate": []}
    for _ in range(IMPORT_SAMPLES):
        _, log = timed_process([sys.executable, "-X", "importtime", "-c", "import spherediss"])
        seen = {}
        for line in log.splitlines():
            if line.startswith("import time:") and line.count("|") == 2:
                _, total, name = line[len("import time:"):].split("|")
                if name.strip() in cumulative and total.strip().isdigit():
                    seen[name.strip()] = int(total) * 1e-6
        for name, samples in cumulative.items():
            samples.append(seen.get(name, 0.0))  # 0 once the import is lazy
    return {
        "import.interpreter_s": statistics.median(interpreter),
        "import.spherediss_s": statistics.median(cumulative["spherediss"]),
        "import.scipy_integrate_s": statistics.median(cumulative["scipy.integrate"]),
    }


def describe(name: str, stats: dict, scale: float, unit: str) -> str:
    text = f"{name} = {stats['p50'] * scale:.6g} {unit}"
    if "tail" in stats:
        text += f"; p{stats['tail_pct']:g} = {stats['tail'] * scale:.6g} {unit}"
    return text + f" (n={stats['n']})"


def print_end_to_end(workload: str, setup: list[float], result: dict) -> None:
    kinds = result["kinds"]
    lines = [
        f"setup_s = {statistics.median(setup):.6g} s (median of {len(setup)} worker starts)",
        f"wall_s = {result['wall_s']:.6g} s (median of {result['passes']} passes)",
        f"failed_frac = {result['failed'] / result['attempted']:.6g} "
        f"({result['failed']} of {result['attempted']} tasks)",
        f"peak_rss_mb = {result['peak_rss_mb']:.6g} MB",
    ]
    if workload == "closed-form":
        query = kinds["query"]
        lines.append(describe("query_p50_us", query, 1e6, "us"))
        lines.append(f"query_p99_us = {query['p99'] * 1e6:.6g} us (n={query['n']})")
        lines.append(f"curve_points_per_s = {result['report']['curve_points_per_s']:.6g} 1/s")
        lines.append(f"oracle gap on the seeded subsample = "
                     f"{result['report']['oracle_gap_subsample']:.3g}")
    elif workload == "pde-reference":
        lines.append(describe("solve_p50_s", kinds["solve"], 1.0, "s"))
        lines.append(f"7a max deviation from QS = {result['report']['qs_dev_7a']:.4%} "
                     f"(known model gap, not a failure); reference table used: "
                     f"{result['report']['reference_table']}")
    else:
        lines.append(describe("process_p50_s", kinds["process"], 1.0, "s"))
    for line in lines:
        print(f"[{workload}] {line}")


def run_workload(workload: str, args, spec: dict) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    record = run_record(workload, args)
    print(f"[{workload}] run record: {json.dumps(record, sort_keys=True)}")
    work_dir = OUT_DIR / f"work-{os.getpid()}-{workload}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        spawn_worker(workload, args, work_dir, deadline, setup_only=True)  # compiles, warms caches
        setup = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup.append(spawn_worker(workload, args, work_dir, deadline, True)[0])
        ready, result = spawn_worker(workload, args, work_dir, deadline, setup_only=False)
        setup.append(ready)
        spans = work_dir / "spans.json"
        if spans.exists():
            spans.replace(OUT_DIR / f"spans-{workload}-seed{args.seed}.json")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    if failures := result["failures"]:
        print(f"[{workload}] failed outputs, first few: {failures}", file=sys.stderr)
    if args.trace:
        values = {**result["layers"], **result["accuracy"], **import_metrics()}
        metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        for name, metric in metrics.items():
            print(f"[{workload}] {name} = {metric['value']:.6g} {metric['unit']}")
    else:
        print_end_to_end(workload, setup, result)
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": result["wall_s"],
            "task_p50_ms": result["kinds"][result["task_kind"]]["p50"] * 1e3,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    summary = {"correct": result["failed"] == 0, "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    with open(OUT_DIR / f"{workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as handle:
        json.dump({"record": record, "summary": summary, "worker": result}, handle, indent=1)
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "spherediss" / "__init__.py").is_file():
        print(f"no spherediss sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    OUT_DIR.mkdir(exist_ok=True)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        summaries = {w: run_workload(w, args, spec) for w in workloads}
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    if len(summaries) == 1:
        print(json.dumps(summaries[args.workload]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{name}": metric for w, s in summaries.items()
                        for name, metric in s["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
