#!/usr/bin/env python3
"""easz benchmark: one command, three seeded workloads, correctness gates.

    python3 perfbench/run.py --workload edge_compress --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src.  With --trace 0 the last stdout line is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
separate traced run.  Lines before it (prefixed "#") repeat the figures
under their workload-specific names and record the machine.  The full
result, and the spans of a traced run, are written under perfbench/out/.
--smoke shrinks every input so the harness itself can be tested quickly
(see selftest.py); its figures are not comparable with full runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# End-to-end metrics: every workload reports each of them (see README.md
# for what the operation is on each workload).
END_TO_END = {
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = {}
    for name, mod in (("numpy", np), ("scipy", scipy)):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[name] = f"{dep.get('name')} {dep.get('version')}"
        except Exception:  # older builds have no dict form; record what is known
            blas[name] = "unknown"
    threads = {v: os.environ.get(v, "unset") for v in
               ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "commit": _commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["edge_compress", "server_decode", "train"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for testing the harness itself")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "easz" / "__init__.py").is_file():
        print(f"error: no easz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    ctx = wl.Context(root=ROOT, out=out, seed=args.seed, seconds=args.seconds,
                     trace=bool(args.trace),
                     sizes=wl.SMOKE if args.smoke else wl.FULL)
    res = wl.WORKLOADS[args.workload](ctx)

    if args.trace:
        metrics = {name: {"value": res.layers.get(name, 0.0), "unit": unit}
                   for name, (unit, _better) in wl.PER_LAYER.items()}
    else:
        metrics = {name: {"value": res.e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine(),
        "attempted": res.attempted, "failed": res.failed, "failures": res.failures,
        "metrics": metrics,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in res.named.items()},
        "info": res.info,
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if res.tracer is not None:
        res.tracer.write(out / f"{stem}-spans.jsonl")

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' smoke' if args.smoke else ''}")
    print("# machine " + json.dumps(record["machine"]))
    for name, m in (record["named"] or metrics).items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for key in ("samples", "tail_percentile", "passes", "traced_ops"):
        if key in res.info:
            print(f"# {key} = {res.info[key]}")
    for message in res.failures:
        print(f"# FAILED: {message}")
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
