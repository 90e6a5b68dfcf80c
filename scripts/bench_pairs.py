#!/usr/bin/env python3
"""Compare two checkouts on perfbench workloads in interleaved pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload all \\
        --pairs 10 --seconds 20 [--seed 1]

Each pair runs `perfbench/run.py` once in each checkout, from that
checkout's root, so each imports its own `src/`. `--workload` is one
workload or `all`, every workload of one perfbench run. Pair i uses seed
`--seed + i` on both sides. The side that runs first alternates from pair to
pair, because the second run of a pair can read differently from the first.
For every workload and every end-to-end metric in CHANGE's BENCHMARK.json it
prints each pair's readings, each side's median and quartiles, the pairs
CHANGE wins and the per-pair ratios CHANGE / PARENT. Then, for every stage
time perfbench prints (its `<stage>_s: <seconds> s` lines: `train_s`,
`sample_s`, `report_s`, `baseline_random_s`, `baseline_tpe_s`), one `stage`
line with each side's median and the per-pair ratios, without a verdict, to
show which stage moved. Last comes one verdict line per workload and
metric. Each verdict line gives the gain, the medians' difference in
CHANGE's favour, also as a share of PARENT's median, so that
a claim met on a tiny effect shows as one. It reads two rules:

- claim: CHANGE wins at least 9/10 of the pairs (ties count for neither) and
  the medians differ, in CHANGE's favour, by more than the distance between
  PARENT's quartiles. Below 10 pairs it reads "too few pairs": one pair
  would meet 9/10, and one run's quartile spread is 0;
- no regression: CHANGE's median is at most PARENT's times (1 + bound),
  with the metric's bound from BENCHMARK.json (at least PARENT's times
  (1 - bound) for a metric where higher is better). It reads "unresolved"
  when PARENT's quartile spread is wider than the bound, as a share of its
  median, unless every CHANGE run reads better than every PARENT run.
  Below 10 pairs it too reads "too few pairs", as one pair's spread of 0
  would read noise as a regression.

Nothing in either checkout is changed; perfbench writes only under each
checkout's `.bench_out/`.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np


_STAGE = re.compile(r"  (\w+_s): (\S+) s")


def readings_of(lines: list[str], workload: str) -> dict:
    """The readings in the output lines of one perfbench run of `workload`
    (one workload, or all), keyed by (workload, name): each end-to-end
    metric of its last line, then each stage time of the `<stage>_s:
    <seconds> s` lines that follow their workload's `workload <name>` line."""
    # `--workload all` names its metrics "<workload>/<metric>"
    readings = {
        tuple(name.split("/", 1)) if workload == "all" else (workload, name): m["value"]
        for name, m in json.loads(lines[-1])["metrics"].items()
    }
    current = workload
    for line in lines:
        if line.startswith("workload "):
            current = line.split()[1]
        elif match := _STAGE.fullmatch(line):
            readings[current, match[1]] = float(match[2])
    return readings


def stage_lines(readings: dict, gated: list) -> list[str]:
    """One line per stage time that every run of both sides read: each
    side's median and the per-pair ratios CHANGE / PARENT, in the order of
    the first parent run's output. `gated` are the (workload, metric) pairs
    that get verdicts, which are not repeated here."""
    runs = readings["parent"] + readings["change"]
    lines = []
    for key in readings["parent"][0]:
        if key in gated or not all(key in run for run in runs):
            continue
        parent = np.array([r[key] for r in readings["parent"]])
        change = np.array([r[key] for r in readings["change"]])
        pm, cm = float(np.median(parent)), float(np.median(change))
        ratios = " ".join(f"{x:.3f}" for x in change / parent)
        lines.append(f"stage {key[0]}/{key[1]}: parent median {pm:.4g} s, change median "
                     f"{cm:.4g} s, change/parent medians {cm / pm:.3f}; "
                     f"per-pair ratios change/parent: {ratios}")
    return lines


def run_perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The readings of one untraced perfbench run in `root`, keyed by
    (workload, name): see readings_of."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"perfbench failed in {root} (exit {proc.returncode})")
    if not json.loads(lines[-1])["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"perfbench checks failed in {root}")
    return readings_of(lines, workload)


def quartiles(values) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def verdict(parent: np.ndarray, change: np.ndarray, better: str, bound: float) -> str:
    """The claim and no-regression verdicts of one metric's paired readings."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (parent - change) > 0: change better
    wins = int(np.sum(sign * (parent - change) > 0))
    (p1, pm, p3), cm = quartiles(parent), float(np.median(change))
    gain, spread = sign * (pm - cm), p3 - p1
    few = len(parent) < 10
    if few:
        claim = "too few pairs"
    else:
        claim = "met" if wins * 10 >= 9 * len(parent) and gain > spread else "not met"
    limit = pm * (1.0 + sign * bound)
    within = sign * (limit - cm) >= 0
    regression = f"change median {cm:.4g} {'within' if within else 'beyond'} {limit:.4g}"
    if few:
        regression = f"too few pairs ({regression})"
    elif spread > bound * abs(pm) and not np.all(sign * (parent[:, None] - change) > 0):
        regression = (f"unresolved (parent spread {spread / abs(pm):.3f} of its median "
                      f"> bound {bound:g}; {regression})")
    else:
        regression = f"{'ok' if within else 'regressed'} ({regression})"
    return (f"claim {claim} (wins {wins}/{len(parent)}, gain {gain:.4g} "
            f"({gain / abs(pm):.2%} of the parent median) vs parent spread {spread:.4g}); "
            f"no regression {regression}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, help="a perfbench workload, or all")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    workloads = ([w["name"] for w in bench["workloads"]] if args.workload == "all"
                 else [args.workload])
    series = [(w, name) for w in workloads for name in metrics]

    readings = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            readings[side].append(run_perfbench(roots[side], args.workload, seed, args.seconds))
        cells = "  ".join(
            f"{w}/{name} {readings['parent'][-1][w, name]:.4g} -> "
            f"{readings['change'][-1][w, name]:.4g}"
            for w, name in series
        )
        print(f"pair {i + 1} seed {seed} ({order[0]} first): {cells}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs at --seconds {args.seconds:g}, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    verdicts = []
    for w, name in series:
        parent = np.array([r[w, name] for r in readings["parent"]])
        change = np.array([r[w, name] for r in readings["change"]])
        better, bound = metrics[name]["better"], metrics[name]["bound"]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        ratios = " ".join(f"{x:.3f}" for x in change / parent)
        print(f"{w}/{name} ({better} is better, bound {bound:g})")
        print(f"  parent median {pm:.4g}  quartiles {p1:.4g} .. {p3:.4g}  (spread {p3 - p1:.4g})")
        print(f"  change median {cm:.4g}  quartiles {c1:.4g} .. {c3:.4g}  (spread {c3 - c1:.4g})")
        print(f"  change/parent medians {cm / pm:.3f}; per-pair ratios change/parent: {ratios}")
        verdicts.append(f"verdict {w}/{name}: {verdict(parent, change, better, bound)}")
    print()
    print("\n".join(stage_lines(readings, series)))
    print()
    print("\n".join(verdicts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
