#!/usr/bin/env python3
"""Tests of the benchmark harness itself, on its --smoke inputs.

    python3 perfbench/selftest.py

Runs every workload untraced and traced with tiny inputs and checks the
output format: the last stdout line is one JSON object with exactly the
keys correct/attempted/failed/metrics, every metric named in BENCHMARK.json
is present with its unit, every gate passed, and end-to-end values are
positive.  It also checks that the harness fails without printing a result
when the program's sources are missing.  Takes about ten seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(["--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--smoke"], ROOT)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    want = spec["per_layer"] if trace else spec["end_to_end"]
    if [m["name"] for m in want] != list(result["metrics"]):
        errors.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in want:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{where}: bad metric {m['name']}: {got}")
        elif not trace and got["value"] <= 0:
            errors.append(f"{where}: end-to-end metric {m['name']} is {got['value']}")
    return errors


def check_missing_sources() -> list[str]:
    """In a directory holding only BENCHMARK.json and perfbench/, fail cleanly."""
    bare = HERE / "out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(["--workload", "edge_compress", "--seed", "0", "--seconds", "1",
                    "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"missing sources: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_missing_sources()
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            errors += check_result(spec, workload, trace)
    for e in errors:
        print("FAIL", e)
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
