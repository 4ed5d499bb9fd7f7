#!/usr/bin/env python3
"""Run perfbench in parent/change pairs and summarise each metric.

Usage:

    python3 tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload ingest \\
        --seeds 15-24 [--seconds 20] [--trace 0] [--metrics a,b,...]

PARENT_DIR and CHANGE_DIR are two checkouts of this repository, each with a
built perfbench (`cargo build --offline --release --manifest-path
perfbench/Cargo.toml`). Each run uses the command that checkout's
BENCHMARK.json declares, from the checkout's root, so the cargo target
directory is whatever that command finds there; `--parent-target-dir` and
`--change-target-dir` set CARGO_TARGET_DIR for one side.

The i-th pair runs the i-th seed on both sides, parent first on even pairs
and change first on odd ones. Each side's `perfbench/out` is emptied before
every run (stale span files there skew `setup_s`). Every run's metrics and `failed`
count are printed as they finish; at the end, for each metric: each side's
median and quartiles, the change's median shift, the pairs the change won,
whether the median gap exceeds the parent's interquartile spread, and
`claim`: `yes` only when the change won at least nine tenths of all pairs
run (a tie is a win for neither side) and the median gap exceeds that
spread, the rule a claimed gain must meet. Each metric with a `bound` in
BENCHMARK.json also gets a `bound` verdict, the rule every change must
meet: `ok` when the change's median is worse than the parent's by no more
than bound × the parent's median, `worse` when it is, and `unresolved`
when the parent's own interquartile spread exceeds bound × its median,
unless every change run beats every parent run. Last comes each side's
total `failed` count.

The default metrics are BENCHMARK.json's end-to-end list; `--metrics`
picks any reported metric by name (for example the per-layer
`trace.self_ms.other,core.parse_instance_us` of a `--trace 1` run).
Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def load_benchmark(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as handle:
        return json.load(handle)


def empty_out_dir(checkout):
    out = os.path.join(checkout, "perfbench", "out")
    if os.path.isdir(out):
        for entry in os.listdir(out):
            path = os.path.join(out, entry)
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path)
            else:
                os.remove(path)


def run_once(checkout, target_dir, args, seed):
    """One perfbench run; returns its parsed result line."""
    empty_out_dir(checkout)
    command = load_benchmark(checkout)["command"] + [
        "--workload", args.workload,
        "--seed", str(seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    env = dict(os.environ)
    if target_dir:
        env["CARGO_TARGET_DIR"] = target_dir
    done = subprocess.run(
        command, cwd=checkout, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perfbench failed in {checkout} (seed {seed}, exit {done.returncode})")
    return json.loads(lines[-1])


def value(metrics, name):
    """A metric's value, or None when the run did not report it."""
    entry = metrics.get(name)
    return None if entry is None else entry.get("value")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(bound, direction, parent, change):
    """The `bound` column: `ok`, `worse` or `unresolved` (`-` without a bound)."""
    if bound is None:
        return "-"
    p1, pm, p3 = quartiles(parent)
    cm = statistics.median(change)
    if direction == "higher":
        all_beat = min(change) > max(parent)
        worse_by = pm - cm
    else:
        all_beat = max(change) < min(parent)
        worse_by = cm - pm
    if p3 - p1 > bound * pm and not all_beat:
        return "unresolved"
    return "worse" if worse_by > bound * pm else "ok"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 15-24 or 1,3,5")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--metrics", help="comma-separated metric names")
    parser.add_argument("--parent-target-dir")
    parser.add_argument("--change-target-dir")
    args = parser.parse_args()

    benchmark = load_benchmark(args.change)
    better = {
        metric["name"]: metric["better"]
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]
    }
    bounds = {
        metric["name"]: metric["bound"]
        for metric in benchmark["end_to_end"] + benchmark["per_layer"]
        if "bound" in metric
    }
    if args.metrics:
        names = args.metrics.split(",")
    else:
        names = [metric["name"] for metric in benchmark["end_to_end"]]

    sides = {
        "parent": (args.parent, args.parent_target_dir),
        "change": (args.change, args.change_target_dir),
    }
    runs = {"parent": [], "change": []}
    failed = {"parent": 0, "change": 0}
    for pair, seed in enumerate(parse_seeds(args.seeds)):
        order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
        for side in order:
            checkout, target_dir = sides[side]
            result = run_once(checkout, target_dir, args, seed)
            metrics = result["metrics"]
            runs[side].append(metrics)
            failed[side] += result["failed"]
            values = " ".join(
                f"{name}={value(metrics, name):.6g}"
                for name in names
                if value(metrics, name) is not None
            )
            print(
                f"pair {pair} seed {seed} {side} (ran {order.index(side) + 1}/2): "
                f"failed={result['failed']} correct={result['correct']} {values}",
                flush=True,
            )

    print()
    print(f"{'metric':<28} {'parent median (q1-q3)':>32} {'change median (q1-q3)':>32} "
          f"{'shift':>8} {'wins':>6}  {'gap > IQR':>9}  claim  bound")
    for name in names:
        parent = [value(metrics, name) for metrics in runs["parent"]]
        change = [value(metrics, name) for metrics in runs["change"]]
        if None in parent or None in change:
            print(f"{name:<28} not reported by every run")
            continue
        direction = better.get(name, "lower")
        wins = sum(
            (c > p) if direction == "higher" else (c < p) for p, c in zip(parent, change)
        )
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        shift = (cm - pm) / pm * 100 if pm else float("nan")
        gap = (cm - pm) if direction == "higher" else (pm - cm)
        beats_spread = gap > p3 - p1
        claim = beats_spread and 10 * wins >= 9 * len(parent)
        print(
            f"{name:<28} {f'{pm:.6g} ({p1:.6g}-{p3:.6g})':>32} "
            f"{f'{cm:.6g} ({c1:.6g}-{c3:.6g})':>32} {shift:>+7.1f}% "
            f"{wins:>3}/{len(parent):<2}  {'yes' if beats_spread else 'no':>9}  "
            f"{'yes' if claim else 'no':<5}  {verdict(bounds.get(name), direction, parent, change)}"
        )
    print()
    print(f"failed: parent {failed['parent']}, change {failed['change']}")


if __name__ == "__main__":
    main()
