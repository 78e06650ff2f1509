"""Run-to-run spread of the end-to-end metrics, and the baseline file.

    python3 bench/spread.py --workloads degrees,verify --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --baseline bench/baseline.json

Runs ``run.py`` once per workload and seed (untraced, with the
``run_seconds`` of BENCHMARK.json), then prints for each end-to-end metric
the median and the spread, (Q3 - Q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``, next to a third of the metric's
bound.  With ``--baseline`` it also makes one traced run per workload at the
reference seed and writes every value, with machine and Python information,
to the given file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys

from run import ROOT, run_subprocess


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc, result = run_subprocess(workload, seed, seconds, trace)
    if result is None:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} jobs failed\n"
                         f"{proc.stderr}")
    return result


def summarize(values: list) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--baseline", help="write all values and machine info here")
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"machine": {"python": platform.python_version(),
                       "implementation": platform.python_implementation(),
                       "platform": platform.platform(), "machine": platform.machine(),
                       "cpus": os.cpu_count()},
           "run_seconds": bench["run_seconds"], "seeds": seeds, "end_to_end": {},
           "per_layer": {}}
    ok = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, s, bench["run_seconds"], 0) for s in seeds]
        out["end_to_end"][workload] = {}
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            out["end_to_end"][workload][name] = stats
            steady = stats["spread"] < bound / 3
            ok &= steady
            print(f"{workload:8} {name:12} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f}  bound/3 {bound / 3:.4f}"
                  f"{'' if steady else '  TOO WIDE'}  "
                  f"{' '.join(f'{v:.4g}' for v in stats['values'])}", flush=True)
        if args.baseline:
            traced = run_once(workload, 0, bench["run_seconds"], 1)
            out["per_layer"][workload] = {k: v["value"] for k, v in traced["metrics"].items()}
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
