"""Run every workload over several seeds and summarise the end-to-end metrics.

Usage, from the root of a checkout:

    python3 bench/baseline.py

Each workload of BENCHMARK.json runs once per seed 1..10, as one
``bench/run.py`` run of the length set there.  For each end-to-end metric
the table gives the median of the per-run values, their quartiles, and the
spread (q3 - q1) / median next to the metric's bound.  One traced run per
workload, on seed 1, adds its per-layer metrics.  The whole summary is
written to ``bench/baseline.json``, together with the map from each
per-layer metric to the end-to-end metric and workload it is expected to
move.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import _quartiles
from tracer import METRICS

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))
OUTPUT = ROOT / "bench" / "baseline.json"


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return {"record": record, "result": result}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    summary: dict = {
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "run_seconds": spec["run_seconds"], "seeds": SEEDS,
        "layer_map": [{"metric": m.name, "unit": m.unit, "moves": m.moves} for m in METRICS],
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        runs = [_run(name, s, spec["run_seconds"], 0) for s in SEEDS]
        record = runs[0]["record"]
        entry: dict = {"commit": record["commit"], "dirty": record["dirty"], "sizes": record["sizes"],
                       "attempted": sum(r["result"]["attempted"] for r in runs),
                       "failed": sum(r["result"]["failed"] for r in runs), "end_to_end": {}}
        print(f"{name}: {len(runs)} runs, {entry['attempted']} invocations, "
              f"{entry['failed']} wrong verdicts")
        for metric in spec["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            q = _quartiles(values)
            spread = (q["q3"] - q["q1"]) / q["median"]
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], **q, "spread": spread, "bound": metric["bound"],
                "values": values}
            flag = "" if spread < metric["bound"] / 3 else "  (spread above a third of the bound)"
            print(f"  {metric['name']:<12} {q['median']:12.4f} {metric['unit']:<4} "
                  f"q1 {q['q1']:.4f} q3 {q['q3']:.4f} spread {spread:.3f} "
                  f"bound {metric['bound']}{flag}")
        traced = _run(name, SEEDS[0], spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
        print(f"  traced run: overhead {entry['per_layer']['trace.overhead_ratio']:.2f}x, "
              f"{traced['result']['failed']} wrong verdicts")
        summary["workloads"][name] = entry
    OUTPUT.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
