#!/usr/bin/env python3
"""Compare two checkouts on one perfbench workload in interleaved pairs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload search-2cycle \\
        --pairs 10 --seconds 20 [--seed 1]

Each pair runs `perfbench/run.py` once in each checkout, from that
checkout's root, so each imports its own `src/`. Pair i uses seed
`--seed + i` on both sides. The side that runs first alternates from pair to
pair, because the second run of a pair can read differently from the first.
For every end-to-end metric in CHANGE's BENCHMARK.json it prints each pair's
readings, each side's median and quartiles, the pairs CHANGE wins and the
per-pair ratios CHANGE / PARENT. Nothing in either checkout is changed;
perfbench writes only under each checkout's `.bench_out/`.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np


def run_perfbench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one untraced perfbench run in `root`."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"perfbench failed in {root} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stdout)
        raise SystemExit(f"perfbench checks failed in {root}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values) -> tuple[float, float, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(median), float(q3)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    readings = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            readings[side].append(run_perfbench(roots[side], args.workload, seed, args.seconds))
        cells = "  ".join(
            f"{name} {readings['parent'][-1][name]:.4g} -> {readings['change'][-1][name]:.4g}"
            for name in better
        )
        print(f"pair {i + 1} seed {seed} ({order[0]} first): {cells}", flush=True)

    print(f"\n{args.workload}: {args.pairs} pairs at --seconds {args.seconds:g}, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}")
    for name, direction in better.items():
        parent = np.array([r[name] for r in readings["parent"]])
        change = np.array([r[name] for r in readings["change"]])
        wins = int(np.sum(change < parent if direction == "lower" else change > parent))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        ratios = " ".join(f"{x:.3f}" for x in change / parent)
        print(f"{name} ({direction} is better)")
        print(f"  parent median {pm:.4g}  quartiles {p1:.4g} .. {p3:.4g}  (spread {p3 - p1:.4g})")
        print(f"  change median {cm:.4g}  quartiles {c1:.4g} .. {c3:.4g}  (spread {c3 - c1:.4g})")
        print(f"  change/parent medians {cm / pm:.3f}; change wins {wins}/{args.pairs}")
        print(f"  per-pair ratios change/parent: {ratios}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
