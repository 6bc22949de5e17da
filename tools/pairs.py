"""Paired benchmark runs of two checkouts, a parent and a change.

Usage:

    python3 tools/pairs.py --parent DIR --change DIR --workload poly-sweep \
        [--pairs 10] [--seconds 10] [--seed 1] [--size full]

Each pair runs the benchmark command of the change's BENCHMARK.json
(`perfbench/run.py`) end to end in both checkouts, on the same workload, seed,
run length and size; the parent goes first in odd-numbered pairs and the
change in even-numbered ones.  Every pair runs the same seed, so the parent's
spread is run-to-run noise alone; run again with another --seed to check a
claim on a seed the change was not written against.

A run fails the comparison (exit 1) when it exits non-zero, reports
`correct: false`, or prints a csv_sha256 other than its pair's other side.
Otherwise, for every end-to-end metric of BENCHMARK.json, it prints each
side's median and quartiles, the change's wins, losses and ties by the
metric's `better`, and the median's relative change, worse side positive,
beside the metric's bound: the share of the parent's median by which it may
get worse.  The verdict is `claimable` only when the change wins at least 9
of every 10 pairs, over at least 10 pairs, and its median is better than the
parent's by more than the parent's interquartile range; `over bound` when the
change is worse by more than the bound; when the parent's own interquartile
range is wider than the bound, `better in every run` if every run of the
change reads better than every run of the parent and `unresolved` if not; and
`within bound` otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

CLAIM_PAIRS = 10
CLAIM_WINS = 9


class RunFailed(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, default=CLAIM_PAIRS)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def run_once(checkout: Path, command: list, args) -> tuple[dict, str]:
    """The result JSON and the csv_sha256 of one end-to-end run in `checkout`."""
    proc = subprocess.run(
        [*command, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0", "--size", args.size],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RunFailed(f"{checkout}: exit {proc.returncode}\n{proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RunFailed(f"{checkout}: correct: false ({result['failed']} of "
                        f"{result['attempted']} rows failed)")
    sha = next(line.split()[-1] for line in lines if line.startswith("csv_sha256 "))
    return result, sha


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4))


def verdict(metric: dict, parent: list, change: list) -> dict:
    """Medians, quartiles, wins, losses, ties and verdict of one metric."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    gains = [sign * (p - c) for p, c in zip(parent, change)]
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    p_q, c_q = quartiles(parent), quartiles(change)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = sign * (c_med - p_med) / abs(p_med)
    if (len(gains) >= CLAIM_PAIRS and wins * CLAIM_PAIRS >= CLAIM_WINS * len(gains)
            and sign * (p_med - c_med) > p_q[2] - p_q[0]):
        word = "claimable"
    elif worse > metric["bound"]:
        word = "over bound"
    elif (p_q[2] - p_q[0]) / abs(p_med) > metric["bound"]:
        better = max(sign * c for c in change) < min(sign * p for p in parent)
        word = "better in every run" if better else "unresolved"
    else:
        word = "within bound"
    return {"parent": (p_med, p_q), "change": (c_med, c_q), "wins": wins, "losses": losses,
            "ties": len(gains) - wins - losses, "worse": worse, "verdict": word}


def _side(median: float, q: tuple) -> str:
    return f"{median:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    args = parse_args(argv)
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = benchmark["end_to_end"]
    values = {"parent": {m["name"]: [] for m in metrics}, "change": {m["name"]: [] for m in metrics}}
    try:
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            shas = {}
            for side in order:
                result, shas[side] = run_once(getattr(args, side), benchmark["command"], args)
                for m in metrics:
                    values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
            if shas["parent"] != shas["change"]:
                raise RunFailed(f"pair {i + 1}: csv_sha256 {shas['parent']} (parent) != "
                                f"{shas['change']} (change)")
            print(f"pair {i + 1}/{args.pairs}: {order[0]} first, csv_sha256 {shas['parent']}",
                  file=sys.stderr)
    except RunFailed as exc:
        print(f"pairs: {exc}", file=sys.stderr)
        return 1

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, size {args.size}, "
          f"{args.seconds:g} s runs; median [q1, q3]")
    row = "{:<16} {:<5} {:<28} {:<28} {:<9} {:>8} {:>6}  {}"
    print(row.format("metric", "unit", "parent", "change", "W/L/T", "worse", "bound", "verdict"))
    for m in metrics:
        v = verdict(m, values["parent"][m["name"]], values["change"][m["name"]])
        print(row.format(m["name"], m["unit"], _side(*v["parent"]), _side(*v["change"]),
                         f"{v['wins']}/{v['losses']}/{v['ties']}", f"{v['worse']:+.4f}",
                         m["bound"], v["verdict"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
