"""digitop benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 bench/run.py --workload search --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all           # every workload, as a table

The program comes from src/ of the checkout this file sits in.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, from
untraced passes; with --trace 1 they are its per_layer list, from traced
passes alternated with untraced ones, the difference between the two
being reported as trace.overhead_s.  Lines before it record the machine
and the details behind each figure.  Any wrong output makes the exit
code 1; see bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 3  # untraced passes every run makes, however short --seconds is
SETUP_REPEATS = 3  # import and set-up are timed this many times; setup_s takes the median
TAIL_BEYOND = 10  # item_tail_ms leaves at least this many samples above it


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import digitop from this checkout's src/, never from anywhere else."""
    if not (SRC / "digitop" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'digitop'}")
    # one thread, so figures do not depend on the machine's core count
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import digitop

    if Path(digitop.__file__).resolve().parent != (SRC / "digitop").resolve():
        sys.exit(f"bench: imported digitop from {digitop.__file__}, not {SRC}")
    return digitop


def import_seconds() -> float:
    """Time to import digitop in a fresh interpreter, as every user process pays it."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter();"
        " import digitop; print(time.perf_counter() - t)"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def environment(numpy_version: str) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    try:
        git = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=False,
        )
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


class Refused:
    """Stands in for the output of an item the program refused."""


def run_pass(workload, k: int, errors, tracer=None):
    """Time one pass item by item, then check every output outside the timing."""
    items = workload.prepare_pass(k)
    outs, times = [], []
    with tracer.installed() if tracer else nullcontext():
        start = time.perf_counter()
        for item in items:
            t = time.perf_counter()
            try:
                out = item.run()
            except errors:
                out = Refused
            times.append(time.perf_counter() - t)
            outs.append(out)
        wall = time.perf_counter() - start
    refused = 0
    for item, out in zip(items, outs):
        if out is Refused:
            refused += 1
        else:
            item.check(out)
    return wall, times, refused


def tail_percentile(samples_guaranteed: int) -> int:
    """Highest whole percentile leaving TAIL_BEYOND samples above it."""
    return max(1, math.floor(100 * (1 - TAIL_BEYOND / samples_guaranteed)))


def measure(args, digitop) -> tuple[dict, dict, int, int]:
    """Set up and run one workload; returns (metrics, details, attempted, failed)."""
    import numpy
    import workloads

    errors = (digitop.CapacityError, digitop.DomainError)
    cls = workloads.WORKLOADS[args.workload]

    imports, setups = [], []
    for _ in range(1 if args.smoke else SETUP_REPEATS):
        imports.append(import_seconds())
        t = time.perf_counter()
        workload = cls(args.seed, args.smoke)
        setups.append(imports[-1] + time.perf_counter() - t)

    min_passes = 1 if args.smoke else MIN_PASSES
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "import_s": imports,
        "setups_s": setups,
        "env": environment(numpy.__version__),
    }
    walls, by_pass, failed, k = [], [], 0, 0
    start = time.perf_counter()
    if not args.trace:
        while len(walls) < min_passes or time.perf_counter() - start < args.seconds:
            wall, times, refused = run_pass(workload, k, errors)
            walls.append(wall)
            by_pass.append(times)
            failed += refused
            k += 1
        pooled = [t for times in by_pass for t in times]
        per_pass = len(by_pass[0])
        q = tail_percentile(per_pass * min_passes)
        tail = statistics.quantiles(pooled, n=100, method="inclusive")[q - 1]
        # Each item's time is its median over the passes.  The median of the
        # pooled samples instead falls between two items' clusters and
        # takes the slowest sample of one and the fastest of the other.
        per_item = [statistics.median(samples) for samples in zip(*by_pass)]
        metrics = {
            "run_s": statistics.median(walls),
            "item_p50_ms": 1000 * statistics.median(per_item),
            "item_tail_ms": 1000 * tail,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        details.update(
            passes=len(walls),
            pass_s=walls,
            items_per_pass=per_pass,
            item_tail_percentile=q,
            item_samples=len(pooled),
            fail_share=failed / len(pooled),
        )
    else:
        from tracing import Tracer

        tracer = Tracer()
        traced = []
        while not traced or time.perf_counter() - start < args.seconds:
            wall, times, refused = run_pass(workload, k, errors)
            walls.append(wall)
            by_pass.append(times)
            failed += refused
            wall, times, refused = run_pass(workload, k + 1, errors, tracer)
            traced.append(wall)
            by_pass.append(times)
            failed += refused
            k += 2
        metrics = tracer.layer_metrics(len(traced))
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        details.update(untraced_pass_s=walls, traced_pass_s=traced, trace=tracer.dump(len(traced)))
    return metrics, details, sum(map(len, by_pass)), failed


def result_line(spec, trace: bool, metrics: dict, attempted: int, failed: int) -> dict:
    listed = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in listed]
    if sorted(names) != sorted(metrics):
        raise SystemExit(
            f"bench: metrics {sorted(metrics)} do not match BENCHMARK.json's {sorted(names)}"
        )
    return {
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }


def run_all(args, spec) -> int:
    """Each workload in its own process; prints one table of metrics with units."""
    status = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(args.trace))]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        if proc.returncode != 0 or not result["correct"]:
            status = 1
            sys.stderr.write(proc.stderr)
        print(f"{w['name']}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}"
              f" fail_share={result['failed'] / max(result['attempted'], 1):.4g}")
        for name, m in result["metrics"].items():
            print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="minimum measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass (bench/smoke.py)")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    digitop = import_program()
    from workloads import WrongOutput

    try:
        metrics, details, attempted, failed = measure(args, digitop)
    except WrongOutput as exc:
        print(f"bench: wrong output: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    print("details: " + json.dumps(details))
    print(json.dumps(result_line(spec, bool(args.trace), metrics, attempted, failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
