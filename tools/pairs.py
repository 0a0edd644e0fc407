"""Run the benchmark in alternating pairs on two commits and summarise the pairs as JSON.

    python tools/pairs.py PARENT [CHANGE] --seeds 2401-2410 --out BENCH_<parent>.json
        [--workloads sweep-d30,score-d30] [--traced-seed N] [--work DIR]

PARENT and CHANGE are git revisions of this repository; CHANGE defaults to
HEAD.  Each is unpacked from local git with `git archive REV | tar -x` into a
fresh directory, so both sides run their committed files and nothing else.
For each seed, and each workload in turn within it (by default every
workload BENCHMARK.json lists), both sides run
`python3 bench/run.py --workload W --seed S --seconds T --trace 0` in their
own tree, T being BENCHMARK.json's `run_seconds`, and the last line of the
run, its JSON result, is kept.  The order
alternates ABBA: the first seed runs parent then change, the second change
then parent, and so on, so a drift in the host's speed falls on both sides.

For every end-to-end metric that BENCHMARK.json lists, the summary holds the
per-pair values and change/parent ratios, each side's median and quartiles,
the pairs the change won, the median per-pair ratio with a distribution-free
(sign-test) interval for it, the benchmark's quartile rule beside it (a gain
counts if the change wins at least 9 pairs in 10 and its median beats the
parent's by more than the parent's interquartile distance), and whether the
change's median stays within the metric's bound.  With --traced-seed, one
more pair per workload runs with --trace 1 and its per-layer metrics are kept.
Needs only the standard library, git and tar.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMA = "anodens-bench-pairs/1"
SIDES = ("parent", "change")
# the benchmark's rule for a claimed gain: wins in at least this share of pairs
WIN_SHARE = 0.9
# the least coverage of the sign-test interval around the median ratio
CONFIDENCE = 0.95


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3), with the quartiles inclusive of the extremes."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def sign_test_interval(ratios):
    """(low, high, coverage): order statistics bracketing the median ratio.

    With n ratios sorted, [r_k, r_(n+1-k)] holds the median with probability
    1 - 2 P(Binomial(n, 1/2) < k) for any continuous distribution; k is the
    largest that keeps that coverage at least CONFIDENCE.  Too few pairs
    to reach it give the whole range and the coverage it does have.
    """
    ordered = sorted(ratios)
    n = len(ordered)

    def coverage(k: int) -> float:
        return 1 - 2 * sum(math.comb(n, i) for i in range(k)) / 2**n

    k = 1
    while k + 1 <= (n + 1) // 2 and coverage(k + 1) >= CONFIDENCE:
        k += 1
    return ordered[k - 1], ordered[n - k], coverage(k)


def summarize_metric(parent, change, better: str, bound: float) -> dict:
    """The pair statistics of one metric; `parent[i]` and `change[i]` ran as pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of parent and change values")
    sign = 1 if better == "higher" else -1
    ratios = [c / p for p, c in zip(parent, change)]
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gain = sign * (c_median - p_median)  # > 0: the change's median is better
    low, high, coverage = sign_test_interval(ratios)
    return {
        "better": better,
        "bound": bound,
        "parent": parent,
        "change": change,
        "ratios": ratios,
        "parent_median": p_median,
        "parent_q1": p_q1,
        "parent_q3": p_q3,
        "change_median": c_median,
        "change_q1": c_q1,
        "change_q3": c_q3,
        "pairs": len(parent),
        "change_wins": wins,
        "median_ratio": statistics.median(ratios),
        "ratio_interval": [low, high],
        "ratio_interval_coverage": coverage,
        "quartile_rule": {
            "wins_needed": math.ceil(WIN_SHARE * len(parent)),
            "median_gain": gain,
            "parent_iqr": p_q3 - p_q1,
            "met": wins >= math.ceil(WIN_SHARE * len(parent)) and gain > p_q3 - p_q1,
        },
        # the median may be worse than the parent's by at most `bound` of it
        "within_bound": -gain <= bound * abs(p_median),
    }


def summarize_workload(runs: dict, end_to_end: list[dict]) -> dict:
    """Pair statistics of every end-to-end metric, from each side's runs in pair order."""
    every = runs["parent"] + runs["change"]
    return {
        "every_run_correct": all(run["correct"] for run in every),
        "failed_operations": {side: sum(run["failed"] for run in runs[side]) for side in SIDES},
        "metrics": {
            metric["name"]: summarize_metric(
                [run["metrics"][metric["name"]]["value"] for run in runs["parent"]],
                [run["metrics"][metric["name"]]["value"] for run in runs["change"]],
                metric["better"], metric["bound"],
            )
            for metric in end_to_end
        },
    }


def parse_seeds(text: str) -> list[int]:
    """'3,5,9' or '2401-2410' or a mix of both, in the order given."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"repeated seed in {text!r}")
    return seeds


def unpack(rev: str, into: Path) -> str:
    """Unpack `rev`'s tree into `into`; returns its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    into.mkdir(parents=True)
    archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {rev} failed")
    return commit


def run_bench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The JSON result line of one benchmark run in `tree`."""
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(command)} in {tree} exited {done.returncode}: "
                           f"{done.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads", help="comma-separated (default: BENCHMARK.json's)")
    parser.add_argument("--traced-seed", type=int)
    parser.add_argument("--work", help="directory for the two trees (default: a new temp dir)")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])

    work = Path(args.work or tempfile.mkdtemp(prefix="anodens-pairs-"))
    trees = {side: work / side for side in SIDES}
    commits = {side: unpack(rev, trees[side])
               for side, rev in zip(SIDES, (args.parent, args.change))}
    runs = {w: {side: [] for side in SIDES} for w in workloads}
    firsts = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        firsts.append(order[0])
        for workload in workloads:
            for side in order:
                result = run_bench(trees[side], workload, seed, seconds, 0)
                runs[workload][side].append({"seed": seed, **result})
                value = result["metrics"].get("rows_per_s", {}).get("value")
                print(f"seed {seed} {workload} {side}: rows_per_s {value}", file=sys.stderr)
    report = {
        "schema": SCHEMA,
        "parent": args.parent,
        "parent_commit": commits["parent"],
        "change": args.change,
        "change_commit": commits["change"],
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {seconds} --trace 0",
        "order": "ABBA over seeds: the first side of each seed is in `first`; within a "
                 "seed the workloads run in turn, each as a pair in that order",
        "seeds": args.seeds,
        "first": firsts,
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count()},
        "workloads": {
            w: {**summarize_workload(runs[w], bench["end_to_end"]), "runs": runs[w]}
            for w in workloads
        },
    }
    if args.traced_seed is not None:
        report["traced_pair"] = {
            w: {"seed": args.traced_seed,
                **{side: run_bench(trees[side], w, args.traced_seed, seconds, 1)
                   for side in SIDES}}
            for w in workloads
        }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    for w in workloads:
        for name, m in report["workloads"][w]["metrics"].items():
            rule = "met" if m["quartile_rule"]["met"] else "not met"
            print(f"{w} {name}: {m['parent_median']:.6g} -> {m['change_median']:.6g}, "
                  f"wins {m['change_wins']}/{m['pairs']}, median ratio {m['median_ratio']:.4f} "
                  f"[{m['ratio_interval'][0]:.4f}, {m['ratio_interval'][1]:.4f}], "
                  f"quartile rule {rule}, within bound {m['within_bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
