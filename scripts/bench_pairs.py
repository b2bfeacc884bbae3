"""Paired benchmark runs of two checkouts, summarized per end-to-end metric.

Usage: python scripts/bench_pairs.py PARENT CHANGE --workload W --seeds A-B --seconds S

For every seed from A to B it runs `bench/run.py --workload W --seed N
--seconds S --trace 0` once in each checkout, one process at a time; the
side that runs first alternates from seed to seed, PARENT first on A.
Then, for each end-to-end metric that CHANGE's BENCHMARK.json names, it
prints the parent's and the change's medians, the parent's quartiles and
the number of pairs the change wins (ties count for neither side), and
after that table one verdict per metric, with `bound` the metric's relative
regression bound in BENCHMARK.json and the parent's IQR the distance
between its quartiles:

  better        the change wins at least 9 in 10 pairs and its median is
                better than the parent's by more than the parent's IQR;
  worse         the change's median is worse than the parent's by more
                than bound times the parent's median;
  unresolved    the parent's IQR is wider than bound times its median, so
                the runs spread too widely to tell;
  within bound  otherwise.

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


def compare(metric: dict, pairs: list[tuple[dict, dict]]) -> tuple:
    """(parent median, change median, parent q1, parent q3, change wins) of
    one metric over (parent result, change result) pairs."""
    values = [[result["metrics"][metric["name"]]["value"] for result in pair] for pair in pairs]
    parent, change = zip(*values)
    sign = 1 if metric["better"] == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in values)
    q1, _, q3 = (statistics.quantiles(parent, n=4, method="inclusive")
                 if len(parent) > 1 else parent * 3)
    return statistics.median(parent), statistics.median(change), q1, q3, wins


def summarize(metrics: list[dict], pairs: list[tuple[dict, dict]]) -> list[str]:
    """One line per metric over (parent result, change result) pairs."""
    lines = [f"{'metric':<18} {'parent med':>11} {'change med':>11} "
             f"{'parent q1':>11} {'parent q3':>11}  change wins"]
    for metric in metrics:
        parent, change, q1, q3, wins = compare(metric, pairs)
        lines.append(f"{metric['name']:<18} {parent:>11.5g} {change:>11.5g} "
                     f"{q1:>11.5g} {q3:>11.5g}  {wins}/{len(pairs)}")
    return lines


def verdict(metric: dict, pairs: list[tuple[dict, dict]]) -> str:
    """`better`, `worse`, `unresolved` or `within bound`, as the module docstring defines them."""
    parent, change, q1, q3, wins = compare(metric, pairs)
    gain = (change - parent) * (1 if metric["better"] == "higher" else -1)
    allowed = metric["bound"] * abs(parent)
    if 10 * wins >= 9 * len(pairs) and gain > q3 - q1:
        return "better"
    if -gain > allowed:
        return "worse"
    if q3 - q1 > allowed:
        return "unresolved"
    return "within bound"


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
    for metric in config["end_to_end"]:
        print(f"{metric['name']:<18} verdict: {verdict(metric, pairs)}")
    if wrong:
        print("correct: false in " + ", ".join(wrong))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
