#!/usr/bin/env python3
"""Run the benchmark once per seed and summarize each metric's spread.

    python3 bench/seeds.py --workload NAME --seeds 1-10 [--seconds S]
                           [--trace 0] [--out FILE]

Prints, per metric, the median and the quartiles of the runs (Python's
`statistics.quantiles(values, n=4)`) and the distance between the
quartiles as a share of the median. --seconds defaults to BENCHMARK.json's
run_seconds. --out writes the summary and every
run's result and detail record as JSON. Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from benchenv import ROOT


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("detail: "):])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "iqr_over_median": (q3 - q1) / med if med else None,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="a seed or a range like 1-10")
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    runs = []
    for seed in seed_list(args.seeds):
        result, detail = run_once(args.workload, seed, args.seconds, args.trace)
        runs.append({"seed": seed, "result": result, "detail": detail})
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()),
              flush=True)
    summary = summarize([r["result"] for r in runs])
    for name, s in summary.items():
        spread = "n/a" if s["iqr_over_median"] is None else f"{s['iqr_over_median']:.4f}"
        print(f"{name}: median {s['median']:.4f} {s['unit']}, quartiles "
              f"{s['q1']:.4f}..{s['q3']:.4f}, iqr/median {spread}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "trace": args.trace, "summary": summary, "runs": runs},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
