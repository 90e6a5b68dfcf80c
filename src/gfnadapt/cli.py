"""Command-line front end: enumerate, train, sample, baseline, report.

Outputs are laid out as <out>/<run-hash>/<command>/[<seed>/]; the reward
cache is shared across commands and methods under <out>/cache/<reward-hash>/
(override with GFNADAPT_CACHE_DIR). enumerate, train, sample and baseline
run through one stage lifecycle, `_run_stage`: a completed output directory
(one with a `done` marker) is left untouched on re-run, and every stage
writes meta.json with the same base fields. `done` is the one completion
signal: sample and report read a stage's outputs only once it is written.
A scored set passes between steps as (keys, losses) arrays; its keys turn
into tuples only where a stage hands them to the scorer.

Exit codes: 0 success, 1 usage or config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import baselines, gflownet, landscape as lsc, metrics
from .cache import MAX_ACTIONS, MAX_KEY_LEN
from .config import ConfigError, ExperimentConfig, load_config
from .rewards import QuantileTable, TerminalScorer
from .simulator import SIM_PARAM_NAMES, builtin_space, generate_contexts, synthesize_observations
from .space import decode_state, key_text, key_tuples, space_from_dict


class MissingArtifact(RuntimeError):
    pass


# the most terminals a quantile table is fitted on; a larger space is fitted
# on a warm-up sample. The table is shared under the reward hash, so the
# choice must not depend on a setting the hash leaves out, such as run.enum_cap
FIT_ON_ENUMERATION_MAX = 100_000


class Workspace:
    """The space and contexts of one resolved config, built once when the
    workspace is made, and a fresh scorer over them per call to scorer()."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        space = builtin_space() if cfg.space_doc is None else space_from_dict(cfg.space_doc)
        if cfg["space.cycles"] is not None:
            space = dataclasses.replace(space, cycles=cfg["space.cycles"])
        if cfg["space.step_fraction"] is not None:
            space = dataclasses.replace(space, step_fraction=cfg["space.step_fraction"])
        self.space = space
        names = {p.name for p in space.parameters}
        missing = [name for name in SIM_PARAM_NAMES if name not in names]
        if missing:
            raise ConfigError(f"the space lacks the simulator parameters {missing}")
        widest = max(len(g.actions) for g in space.groups)
        if space.slots > MAX_KEY_LEN or widest > MAX_ACTIONS:
            raise ConfigError(
                f"the space has {space.slots} slots and up to {widest} actions per group; "
                f"the reward cache encodes at most {MAX_KEY_LEN} slots and "
                f"{MAX_ACTIONS} actions per group"
            )
        truth, radices = cfg["data.truth_key"], space.slot_radices
        if len(truth) % len(space.groups) or len(truth) > len(radices) or any(
            a >= r for a, r in zip(truth, radices)
        ):
            raise ConfigError(
                f"data.truth_key {truth} must fill whole cycles of the space's "
                f"slots, whose action counts are {radices}"
            )
        contexts = generate_contexts(cfg["data.contexts_seed"], days=cfg["data.days"])
        self._contexts = synthesize_observations(
            contexts, decode_state(space, tuple(truth)), cfg["data.noise_rel"],
            seed=cfg["data.contexts_seed"] + 1,
        )

    def contexts(self):
        """The contexts with their synthesized observations, which every
        scorer of the workspace shares."""
        return self._contexts

    def scorer(self) -> TerminalScorer:
        """Fresh scorer (zeroed counters) backed by the shared reward cache."""
        cfg = self.cfg
        cache_dir = cfg.cache_dir()
        qpath = cache_dir / "quantiles.json"
        contexts = self.contexts()
        quantiles = QuantileTable.from_json(qpath) if qpath.exists() else None
        if quantiles is not None and len(quantiles.q_lo) != len(contexts):
            raise ValueError(f"quantile table {qpath} has {len(quantiles.q_lo)} entries for "
                             f"{len(contexts)} contexts; delete it to refit")
        scorer = TerminalScorer(
            self.space, contexts, cfg, cache_path=cache_dir / "rewards.bin",
            quantiles=quantiles,
        )
        if scorer.quantiles is None:
            if self.space.terminal_count() <= FIT_ON_ENUMERATION_MAX:
                scorer.fit_on_enumeration()
            else:
                scorer.fit_on_warmup(np.random.default_rng(cfg["data.contexts_seed"] + 2))
            scorer.quantiles.to_json(qpath)
        return scorer


def _run_stage(cfg: ExperimentConfig, ws: Workspace, stage: str, seeds, body) -> None:
    """Run `body(out, scorer, seed)` for each seed into <run>/<stage>/<seed>,
    or into <run>/<stage> for the one seed None, skipping a directory marked
    `done`. The body writes the stage's artifacts and returns a summary line
    and its own meta.json fields. Only when it returns are meta.json and then
    `done` written. The base fields of meta.json are config_hash,
    reward_hash, wall_clock (timed from before the scorer's set-up), the
    scorer's three evaluation counts, sim_evals (simulated keys times
    contexts) and the seed."""
    for seed in seeds:
        out, label = cfg.out_root() / stage, stage
        if seed is not None:
            out, label = out / str(seed), f"{stage}[{seed}]"
        if (out / "done").exists():
            print(f"{label}: {out} already complete, skipping")
            continue
        start = time.monotonic()
        scorer = ws.scorer()
        out.mkdir(parents=True, exist_ok=True)  # not before a failed set-up
        summary, fields = body(out, scorer, seed)
        meta = {"config_hash": cfg.run_hash(), "reward_hash": cfg.reward_hash(),
                "wall_clock": time.monotonic() - start, **fields}
        for name in ("requested", "cache_hits", "simulated"):
            meta[name] = getattr(scorer, name)
        meta["sim_evals"] = scorer.simulated * len(scorer.contexts)
        if seed is not None:
            meta["seed"] = seed
        with open(out / "meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        (out / "done").write_text("ok\n")
        print(f"{label}: {summary} ({meta['wall_clock']:.1f}s)")


def _require_done(out: Path) -> None:
    """Refuse a stage output directory that `_run_stage` has not marked
    `done`: its outputs may be missing, partial or stale."""
    if not (out / "done").exists():
        raise MissingArtifact(f"stage output {out} is missing or incomplete (no done marker)")


def cmd_enumerate(cfg: ExperimentConfig) -> None:
    ws = Workspace(cfg)
    if ws.space.terminal_count() > cfg["run.enum_cap"]:
        raise ConfigError(
            f"space has {ws.space.terminal_count()} terminals, exceeding "
            f"enum_cap {cfg['run.enum_cap']}"
        )
    run_hash = cfg.run_hash()

    def body(out, scorer, _):
        table = lsc.build_landscape(ws.space, scorer)
        basins = lsc.basin_map(table, ws.space)
        lsc.export_landscape_csv(out / "landscape.csv", table, basins, run_hash)
        grid = lsc.project_grid(table.target_prob, ws.space, basins)
        lsc.export_grid_json(out / "grid.json", grid, run_hash)
        masses = {
            key_text(table.keys[m]): mass
            for m, mass in sorted(basins.basin_mass.items())
        }
        with open(out / "basins.json", "w") as fh:
            json.dump({"config_hash": run_hash, "basin_mass": masses}, fh, indent=2)
        scorer.quantiles.to_json(out / "quantiles.json")
        return f"wrote {len(table.keys)} states to {out}", {}

    _run_stage(cfg, ws, "enumerate", [None], body)


def cmd_train(cfg: ExperimentConfig) -> None:
    ws = Workspace(cfg)
    run_hash = cfg.run_hash()

    def body(out, scorer, seed):
        result = gflownet.train(ws.space, scorer, cfg, seed)
        signature = gflownet.checkpoint_signature(ws.space, run_hash)
        gflownet.save_checkpoint(out / "checkpoint.bin", result.net, signature)
        with open(out / "train_log.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"# config_hash={run_hash}"])
            writer.writerow(["step", "tb_loss", "log_z", "unique_terminals"])
            for step, loss, log_z, uniq in result.log_rows:
                writer.writerow([step, repr(float(loss)), repr(float(log_z)), uniq])
        baselines.export_trace_csv(out / "trace.csv", result.keys, result.losses, run_hash)
        return (f"final tb_loss={result.log_rows[-1][1]:.4g}",
                {"stopped_early": result.stopped_early})

    _run_stage(cfg, ws, "train", cfg["run.seeds"], body)


def cmd_sample(cfg: ExperimentConfig) -> None:
    ws = Workspace(cfg)
    run_hash = cfg.run_hash()
    n = cfg["train.n_samples"]
    train, sample = cfg.out_root() / "train", cfg.out_root() / "sample"
    for seed in cfg["run.seeds"]:
        _require_done(train / str(seed))
    # every checkpoint a seed still to run reads is loaded and checked before
    # any stage directory is made, so a refused one leaves none behind
    signature = gflownet.checkpoint_signature(ws.space, run_hash)
    nets = {seed: gflownet.load_checkpoint(train / str(seed) / "checkpoint.bin", signature)
            for seed in cfg["run.seeds"] if not (sample / str(seed) / "done").exists()}

    def body(out, scorer, seed):
        net = nets.pop(seed)
        keys = gflownet.sample_terminals(
            net, ws.space, n, np.random.default_rng(seed + 10_000)
        )
        losses, _ = scorer.score(key_tuples(keys))
        baselines.export_trace_csv(out / "samples.csv", keys, losses, run_hash)
        return f"wrote {n} samples", {"n_samples": n}

    _run_stage(cfg, ws, "sample", cfg["run.seeds"], body)


def cmd_baseline(cfg: ExperimentConfig) -> None:
    ws = Workspace(cfg)
    method = cfg["run.method"]
    if method not in ("random", "tpe"):
        raise ConfigError("baseline requires run.method to be 'random' or 'tpe'")
    run_hash = cfg.run_hash()
    budget = cfg["baseline.budget"]

    def body(out, scorer, seed):
        if method == "random":
            keys, losses = baselines.random_search(ws.space, scorer, budget, seed)
        else:
            keys, losses = baselines.tpe_search(
                ws.space, scorer, budget, seed, gamma=cfg["baseline.gamma"],
                n_candidates=cfg["baseline.n_candidates"], startup=cfg["baseline.startup"],
            )
        baselines.export_trace_csv(out / "trace.csv", keys, losses, run_hash)
        return f"best loss {losses.min():.4g}", {"budget": budget}

    _run_stage(cfg, ws, f"baseline-{method}", cfg["run.seeds"], body)


def cmd_report(cfg: ExperimentConfig) -> None:
    ws = Workspace(cfg)
    run_hash = cfg.run_hash()
    root = cfg.out_root()
    # every input is read and checked before <run>/report is created, so a
    # failed report leaves no directory behind
    table = None
    if (root / "enumerate" / "done").exists():
        scorer = ws.scorer()
        table = lsc.build_landscape(ws.space, scorer)

    sources = {"gflownet": root / "train", "random": root / "baseline-random",
               "tpe": root / "baseline-tpe"}
    traces = {}
    for method, base in sources.items():
        if not base.exists():
            continue
        for seed in cfg["run.seeds"]:
            _require_done(base / str(seed))
            traces[(method, seed)] = baselines.read_trace_csv(
                base / str(seed) / "trace.csv", ws.space, run_hash)
    if not traces:
        raise MissingArtifact(f"no traces found under {root}")
    beta = cfg["reward.beta"]
    l_star = float(table.aggregates.min()) if table is not None else min(
        float(losses.min()) for _, losses in traces.values()
    )

    ks = [10, 20, 50]
    if table is not None:
        ks = sorted({min(k, len(table.keys)) for k in ks})
    reports = []
    for (method, seed), (keys, losses) in sorted(traces.items()):
        try:
            series = metrics.best_so_far(losses.tolist(), l_star, beta)
        except ValueError as exc:
            raise ValueError(f"{sources[method] / str(seed) / 'trace.csv'}: {exc}") from None
        med, ham, deficient = metrics.top20_stats(keys, losses)
        rep = metrics.RetrievalReport(
            method=method,
            seed=seed,
            best_loss=float(losses.min()),
            median_top20_loss=med,
            mean_hamming_top20=ham,
            sample_deficient=deficient,
            best_so_far=series,
            topk_recovery=(metrics.topk_recovery(keys, table, ws.space, ks)
                           if table is not None else []),
        )
        reports.append(rep)

    l1_per_seed = {}
    if table is not None:
        for seed in cfg["run.seeds"]:
            ckpt = root / "train" / str(seed) / "checkpoint.bin"
            if ckpt.exists():
                signature = gflownet.checkpoint_signature(ws.space, run_hash)
                net = gflownet.load_checkpoint(ckpt, signature)
                learned = gflownet.exact_terminal_distribution(net, ws.space)
                l1_per_seed[str(seed)] = lsc.l1_distance(table.target_prob, learned)

    out = root / "report"
    out.mkdir(parents=True, exist_ok=True)
    metrics.export_comparison_csv(out / "comparison.csv", metrics.compare_methods(reports),
                                  run_hash)
    manifest = {
        "config_hash": run_hash,
        "reward_hash": cfg.reward_hash(),
        "seeds": list(cfg["run.seeds"]),
        "l_star": l_star,
        "l1_exact_vs_learned": l1_per_seed,
    }
    metrics.export_report_json(out / "report.json", reports, manifest)
    print(f"report: {len(reports)} method/seed rows -> {out / 'comparison.csv'}")
    for seed, l1 in l1_per_seed.items():
        print(f"  L1(exact, learned) seed {seed}: {l1:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gfnadapt",
        description="GFlowNet-based adaptation of mechanistic crop simulators",
    )
    parser.add_argument("command",
                        choices=["enumerate", "train", "sample", "baseline", "report"])
    parser.add_argument("--config", help="experiment config file (YAML)")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config key (repeatable; wins over the file)",
    )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.overrides)
    except (ConfigError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    handler = {
        "enumerate": cmd_enumerate,
        "train": cmd_train,
        "sample": cmd_sample,
        "baseline": cmd_baseline,
        "report": cmd_report,
    }[args.command]
    try:
        handler(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (MissingArtifact, RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the allocation that failed
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
