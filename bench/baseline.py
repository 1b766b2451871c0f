"""Measure a baseline: every workload over several seeds, plus one traced run.

    python3 bench/baseline.py --seeds 1-10 --seconds 20 --out bench/baseline.json

For each end-to-end metric it stores every run's value, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median.  Per-layer
metrics come from one ``--trace 1`` run per workload.  Runs are sequential,
one process at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS  # noqa: E402


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=BENCH.parent, timeout=600,
    )
    if not proc.stdout.strip():
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / statistics.median(values),
        "values": values,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--out", default=None, help="write the JSON here (default: print it)")
    args = ap.parse_args()
    doc = {
        "seeds": args.seeds,
        "seconds": args.seconds,
        "machine": {"cpus": os.cpu_count(), "python": platform.python_version(), "platform": platform.platform()},
        "workloads": {},
    }
    for workload in WORKLOADS:
        results = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        e2e = {}
        for name in results[0]["metrics"]:
            e2e[name] = summary([r["metrics"][name]["value"] for r in results])
            e2e[name]["unit"] = results[0]["metrics"][name]["unit"]
            print(f"{workload:<11} {name:<16} median {e2e[name]['median']:.6g}  spread {e2e[name]['spread']:.4f}",
                  file=sys.stderr)
        traced = run(workload, args.seeds[0], args.seconds, 1)
        doc["workloads"][workload] = {
            "runs": len(results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "end_to_end": e2e,
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    text = json.dumps(doc, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)


if __name__ == "__main__":
    main()
