"""Steadiness check: run the benchmark in sets of seeded runs and compare.

    python3 certbench/steady.py --runs 10 --sets 2

Each set runs every workload in BENCHMARK.json once per seed (seeds 1 ..
runs, the same seeds in every set) for the file's run_seconds, each run in
its own process with --trace 0.  For every (end-to-end metric, workload) pair it
prints each set's median and its spread, the distance between the first and
third quartile as a share of the median, and whether the pair is steady:
the spread stays within the metric's bound from BENCHMARK.json (setup_s is
exempt), and no later set's median is worse than the first set's by more
than the bound.  Pairs that cannot be made steady are listed at the end;
they are dropped from the benchmark, never given a looser bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worse_by(first, later, better):
    """Relative worsening of `later` against `first` (negative: better)."""
    change = (later - first) / first
    return change if better == "lower" else -change


def run_once(workload, seed, seconds):
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - started
    # run.py exits 1 when a certificate failed; its result line still counts
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = elapsed
    return result


def collect(workloads, runs, sets, seconds, metrics):
    results = {}  # (set, workload) -> list of result dicts
    for set_index in range(sets):
        for workload in workloads:
            batch = results.setdefault((set_index, workload), [])
            for seed in range(1, runs + 1):
                result = run_once(workload, seed, seconds)
                batch.append(result)
                values = " ".join(f"{m['name']}={result['metrics'][m['name']]['value']:.4g}"
                                  for m in metrics)
                print(f"set {set_index + 1} {workload:<13} seed {seed:<3} "
                      f"correct={result['correct']} failed={result['failed']}/"
                      f"{result['attempted']} wall={result['wall_s']:.1f}s {values}",
                      flush=True)
    return results


def analyse(results, metrics):
    """Print the per-(metric, workload) table; returns the unsteady pairs."""
    sets = 1 + max(s for s, _ in results)
    workloads = list(dict.fromkeys(w for _, w in results))
    unsteady = []
    print(f"\n{'workload':<13} {'metric':<16} {'bound':>6} "
          + " ".join(f"{'median' + str(s + 1):>11} {'spread' + str(s + 1):>8}"
                     for s in range(sets)) + "  verdict")
    for workload in workloads:
        all_runs = [r for s in range(sets) for r in results[(s, workload)]]
        if not all(r["correct"] and r["failed"] == 0 for r in all_runs):
            unsteady.append((workload, "correct", "a run failed a correctness check"))
        for metric in metrics:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            medians, spreads = [], []
            for s in range(sets):
                values = [r["metrics"][name]["value"] for r in results[(s, workload)]]
                medians.append(statistics.median(values))
                spreads.append(spread(values))
            reasons = []
            if name != "setup_s":
                reasons += [f"set {s + 1} spread {sp:.3f} > bound"
                            for s, sp in enumerate(spreads) if sp > bound]
            reasons += [f"set {s + 1} median worse by {worse_by(medians[0], m, better):.3f}"
                        for s, m in enumerate(medians[1:], start=1)
                        if worse_by(medians[0], m, better) > bound]
            margin = "" if name == "setup_s" or max(spreads) <= bound / 3 else " (spread > bound/3)"
            verdict = ("steady" + margin) if not reasons else "UNSTEADY: " + "; ".join(reasons)
            if reasons:
                unsteady.append((workload, name, "; ".join(reasons)))
            print(f"{workload:<13} {name:<16} {bound:>6.3f} "
                  + " ".join(f"{m:>11.5g} {sp:>8.4f}" for m, sp in zip(medians, spreads))
                  + f"  {verdict}")
    return unsteady


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    metrics = spec["end_to_end"]
    results = collect([w["name"] for w in spec["workloads"]], args.runs, args.sets,
                      spec["run_seconds"], metrics)
    unsteady = analyse(results, metrics)
    if unsteady:
        print("not steady (drop these, do not loosen their bounds):")
        for workload, name, reason in unsteady:
            print(f"  {workload} {name}: {reason}")
        return 1
    print("all (metric, workload) pairs steady")
    return 0


if __name__ == "__main__":
    sys.exit(main())
