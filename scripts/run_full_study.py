#!/usr/bin/env python3
"""Run the complete comparison on the built-in space.

Enumerates the landscape, trains the sampler on 3 seeds, runs both baselines,
and writes the comparison report. --budget sets both train.budget, which
counts the distinct keys training requests, and baseline.budget, which
counts the keys a search requests, repeats included; so the methods
evaluate different numbers of distinct keys (ROADMAP item 2). All steps
are idempotent; re-running resumes from whatever already finished.

    python3 scripts/run_full_study.py --out runs [--budget 2000] [--seeds 1,2,3]
"""

import argparse
import sys

from gfnadapt.cli import main as gfnadapt


def run(command, overrides):
    argv = [command]
    for pair in overrides:
        argv += ["--set", pair]
    code = gfnadapt(argv)
    if code != 0:
        sys.exit(code)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs")
    parser.add_argument("--budget", type=int, default=2000)
    parser.add_argument("--seeds", default="1,2,3")
    args = parser.parse_args()

    overrides = [
        f"run.out_dir={args.out}",
        f"run.seeds=[{args.seeds}]",
        f"train.budget={args.budget}",
        f"baseline.budget={args.budget}",
    ]
    run("enumerate", overrides)
    run("train", overrides)
    run("sample", overrides)
    run("baseline", overrides + ["run.method=random"])
    run("baseline", overrides + ["run.method=tpe"])
    run("report", overrides)


if __name__ == "__main__":
    main()
