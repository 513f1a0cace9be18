"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 mgbench/collect.py --seeds 0-9 [--workload NAME ...] [--out FILE]

Runs ``run.py`` once per workload and seed, one process at a time, taking
the workloads in turn so that slow drift of the machine spreads over all
of them.  Prints, per workload and metric, the median, the quartiles and
the spread (q3 - q1) / median that the bounds in BENCHMARK.json are set
against.  ``--out`` writes the same summary, every run's values and the
per-cell iteration counts as JSON, the form baseline.json is kept in.
The raw (not host-scaled) times of each run are summarised alongside.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CELL = re.compile(r"^# cell '(?P<label>[^']*)' its=(?P<its>\d+) ")
RAW = re.compile(r"^# raw (?P<pairs>.*)$")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    cells = {m["label"]: int(m["its"]) for m in map(CELL.match, lines) if m}
    raw = {k: float(v) for m in map(RAW.match, lines) if m
           for k, v in (pair.split("=") for pair in m["pairs"].split())}
    return result, cells, raw, elapsed


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-9")
    p.add_argument("--workload", action="append", help="default: all in BENCHMARK.json")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            result, cells, raw, elapsed = run_once(name, seed, args.seconds)
            runs[name].append({"seed": seed, "correct": result["correct"],
                               "failed": result["failed"], "cells": cells,
                               "process_s": elapsed, "raw": raw,
                               "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{name} seed={seed} correct={result['correct']} process_s={elapsed:.1f} "
                  + " ".join(f"{k}={v:.4g}" for k, v in runs[name][-1]["metrics"].items()),
                  flush=True)

    summary = {}
    for name in names:
        summary[name] = {}
        for metric in bounds:
            stats = summarise([r["metrics"][metric] for r in runs[name]])
            summary[name][metric] = stats
            flag = "" if stats["spread"] < bounds[metric] / 3 else "  <-- spread >= bound/3"
            print(f"{name:18s} {metric:18s} median={stats['median']:<12.6g} "
                  f"spread={stats['spread']:.4f} bound={bounds[metric]}{flag}")
        for key in runs[name][0]["raw"]:
            stats = summarise([r["raw"][key] for r in runs[name]])
            summary[name]["raw." + key] = stats
            print(f"{name:18s} {'raw.' + key:18s} median={stats['median']:<12.6g} "
                  f"spread={stats['spread']:.4f}  (unscaled, not gated)")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": args.seconds, "seeds": args.seeds, "summary": summary, "runs": runs},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
