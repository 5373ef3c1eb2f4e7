"""Smoke test of the benchmark itself: every workload at a tiny size, both modes.

    python3 bench/smoke.py          # or: python3 -m pytest bench/smoke.py

Each run must exit 0, judge its outputs correct, refuse nothing, and
report exactly the metrics BENCHMARK.json lists for its mode, with the
units listed there.  Takes a few seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}"
    return json.loads(proc.stdout.splitlines()[-1])


def check_workload(workload: str) -> None:
    s = spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        result = run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"] is True
        assert result["attempted"] >= 1 and result["failed"] == 0, result
        want = {m["name"]: m["unit"] for m in s[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, f"{workload} trace={trace}: {sorted(set(got) ^ set(want))}"
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)), (name, m)
        if trace == 0:
            assert all(result["metrics"][m]["value"] > 0 for m in want), result["metrics"]


def test_workloads() -> None:
    for w in spec()["workloads"]:
        check_workload(w["name"])


if __name__ == "__main__":
    for w in spec()["workloads"]:
        check_workload(w["name"])
        print(f"{w['name']}: ok")
