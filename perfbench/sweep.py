#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise medians and spreads.

    python3 perfbench/sweep.py --seeds 1-10 [--workloads meeting calls]
        [--trace-seed 1] [--out perfbench/baseline/seed-commit.json]

Runs ``run.py`` once per workload and seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json. For each end-to-end metric it reports
the median of the runs and the spread: the distance between the first and
third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound. ``--trace-seed`` adds one traced run
per workload for the per-layer table. ``--out`` writes everything,
including each run's quality figures and output digest, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json")
        .read_text(encoding="utf-8"))
    return {"line": last, "record": record, "wall_s": wall}


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=names, choices=names)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    seeds = seed_list(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": seeds, "workloads": {}}
    steady = within = True
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, spec["run_seconds"], 0)
            line = run["line"]
            print(f"{workload} seed={seed} wall={run['wall_s']:.1f}s correct={line['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items()),
                  flush=True)
            runs.append(run)
        entry = {"metrics": {}, "runs": []}
        for name, bound in bounds.items():
            values = [r["line"]["metrics"][name]["value"] for r in runs]
            stats = spread(values)
            stats.update({"bound": bound, "values": values})
            entry["metrics"][name] = stats
            ok = stats["spread"] < bound / 3
            steady &= ok
            within &= stats["spread"] <= bound
            verdict = "ok" if ok else "WIDE" if stats["spread"] <= bound else "OVER BOUND"
            print(f"  {workload:13s} {name:12s} median={stats['median']:.6g} "
                  f"spread={stats['spread']:.4f} bound={bound} {verdict}")
        for seed, r in zip(seeds, runs):
            rec = r["record"]
            run = {
                "seed": seed, "correct": rec["correct"], "attempted": rec["attempted"],
                "failed": rec["failed"], "fail_pct": rec["fail_pct"], "wall_s": r["wall_s"],
                "quality": rec["quality"], "output_sha256": rec["output_sha256"],
            }
            # Per recording, in manifest order.
            for key in ("n_speakers", "k_hat", "p_hat", "n_flagged", "n_oracle"):
                if key in rec["per_recording"][0]:
                    run[key] = [x[key] for x in rec["per_recording"]]
            entry["runs"].append(run)
        if args.trace_seed is not None:
            traced = run_once(workload, args.trace_seed, spec["run_seconds"], 1)
            entry["trace"] = {"seed": args.trace_seed, "wall_s": traced["wall_s"],
                              "layers": traced["record"]["layers"]}
        entry["machine"] = runs[0]["record"]["machine"]
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    if steady:
        print("steady: every spread is below a third of its bound")
    elif within:
        print("not steady: every spread is within its bound, not all below a third of it")
    else:
        print("not steady: a spread is above its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
