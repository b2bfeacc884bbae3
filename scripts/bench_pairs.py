"""Paired benchmark runs of two checkouts, summarized per end-to-end metric.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W --seeds A-B --seconds S

For every seed from A to B it runs `bench/run.py --workload W --seed N
--seconds S --trace 0` once in each checkout, one process at a time; the
side that runs first alternates from seed to seed, PARENT first on A.
Then, for each end-to-end metric that CHANGE's BENCHMARK.json names, it
prints the parent's and the change's medians, the parent's quartiles and
the number of pairs the change wins (ties count for neither side).
Exits 1 if any run reports `correct: false`.
"""
from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise ValueError(f"empty seed range {text!r}")
    return seeds


def run_bench(root: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line (the last line of standard output) of one benchmark run."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} in {root} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """One line per metric over (parent result, change result) pairs."""
    lines = [f"{'metric':<18} {'parent med':>11} {'change med':>11} "
             f"{'parent q1':>11} {'parent q3':>11}  change wins"]
    for metric in metrics:
        name = metric["name"]
        values = [[result["metrics"][name]["value"] for result in pair] for pair in pairs]
        parent, change = zip(*values)
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in values)
        q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                     if len(parent) > 1 else parent * 3)
        lines.append(f"{name:<18} {statistics.median(parent):>11.5g} "
                     f"{statistics.median(change):>11.5g} {q1:>11.5g} {q3:>11.5g}  "
                     f"{wins}/{len(values)}")
    return lines


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=pathlib.Path)
    p.add_argument("change", type=pathlib.Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, required=True, help="A-B, or one seed")
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    config = json.loads((args.change / "BENCHMARK.json").read_text())
    roots = dict(zip(SIDES, (args.parent, args.change)))
    pairs, wrong = [], []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {side: run_bench(roots[side], args.workload, seed, args.seconds)
                   for side in order}
        wrong += [f"seed {seed} {side}" for side in order if not results[side]["correct"]]
        pairs.append((results["parent"], results["change"]))
    print(f"{args.workload}: {len(pairs)} pairs, seeds {args.seeds[0]}-{args.seeds[-1]}, "
          f"{args.seconds:g} s runs")
    print("\n".join(summarize(config["end_to_end"], pairs)))
    if wrong:
        print("correct: false in " + ", ".join(wrong))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
