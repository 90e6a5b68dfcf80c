"""Command-line front end: enumerate, train, sample, baseline, report.

Outputs are laid out as <out>/<run-hash>/<command>/[<seed>/]; the reward
cache is shared across commands and methods under <out>/cache/<reward-hash>/
(override with GFNADAPT_CACHE_DIR). Commands are idempotent: a completed
output directory is left untouched on re-run.

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
from .config import ConfigError, ExperimentConfig, load_config
from .rewards import QuantileTable, RewardConfig, TerminalScorer
from .simulator import builtin_space, generate_contexts, synthesize_observations
from .space import decode_state, space_from_dict


class MissingArtifact(RuntimeError):
    pass


class Workspace:
    """Lazily assembled space / contexts / scorer for one resolved config."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        space = builtin_space() if cfg.space_doc is None else space_from_dict(cfg.space_doc)
        if cfg["space.cycles"] is not None:
            space = dataclasses.replace(space, cycles=cfg["space.cycles"])
        if cfg["space.step_fraction"] is not None:
            space = dataclasses.replace(space, step_fraction=cfg["space.step_fraction"])
        self.space = space
        truth, radices = cfg["data.truth_key"], space.slot_radices
        if len(truth) % len(space.groups) or len(truth) > len(radices) or any(
            a >= r for a, r in zip(truth, radices)
        ):
            raise ConfigError(
                f"data.truth_key {truth} must fill whole cycles of the space's "
                f"slots, whose action counts are {radices}"
            )

    @property
    def enumerable(self) -> bool:
        return self.space.terminal_count() <= self.cfg["run.enum_cap"]

    def contexts(self):
        cfg = self.cfg
        contexts = generate_contexts(cfg["data.contexts_seed"], days=cfg["data.days"])
        truth = decode_state(self.space, tuple(cfg["data.truth_key"]))
        return synthesize_observations(
            contexts, truth, cfg["data.noise_rel"], seed=cfg["data.contexts_seed"] + 1
        )

    def scorer(self) -> TerminalScorer:
        """Fresh scorer (zeroed counters) backed by the shared reward cache."""
        cfg = self.cfg
        reward_cfg = RewardConfig(
            beta=cfg["reward.beta"],
            lam=cfg["reward.lambda"],
            k_tail=cfg["reward.k_tail"],
            lo_level=cfg["reward.lo_level"],
            hi_level=cfg["reward.hi_level"],
            warmup=cfg["reward.warmup"],
        )
        cache_dir = cfg.cache_dir()
        qpath = cache_dir / "quantiles.json"
        scorer = TerminalScorer(
            self.space,
            self.contexts(),
            reward_cfg,
            cache_path=cache_dir / "rewards.bin",
            quantiles=QuantileTable.from_json(qpath) if qpath.exists() else None,
        )
        if scorer.quantiles is None:
            if self.enumerable:
                scorer.fit_on_enumeration()
            else:
                scorer.fit_on_warmup(np.random.default_rng(cfg["data.contexts_seed"] + 2))
            scorer.quantiles.to_json(qpath)
        return scorer


def _done(path: Path) -> bool:
    return (path / "done").exists()


def _mark_done(path: Path) -> None:
    (path / "done").write_text("ok\n")


def _write_meta(path: Path, scorer: TerminalScorer, **fields) -> None:
    """meta.json of a stage, with the scorer's evaluation counts: keys
    requested, served by the cache, and simulated (quantile fit included)."""
    counts = {name: getattr(scorer, name)
              for name in ("requested", "cache_hits", "simulated", "sim_evals")}
    with open(path / "meta.json", "w") as fh:
        json.dump({**fields, **counts}, fh, indent=2, sort_keys=True)


def cmd_enumerate(cfg: ExperimentConfig) -> None:
    ws = Workspace(cfg)
    if not ws.enumerable:
        raise ConfigError(
            f"space has {ws.space.terminal_count()} terminals, exceeding "
            f"enum_cap {cfg['run.enum_cap']}"
        )
    out = cfg.out_root() / "enumerate"
    if _done(out):
        print(f"enumerate: {out} already complete, skipping")
        return
    out.mkdir(parents=True, exist_ok=True)
    scorer = ws.scorer()
    table = lsc.build_landscape(ws.space, scorer, cap=cfg["run.enum_cap"])
    basins = lsc.basin_map(table, ws.space)
    run_hash = cfg.run_hash()
    lsc.export_landscape_csv(out / "landscape.csv", table, basins, run_hash)
    grid = lsc.project_grid(table.target_prob, ws.space, basins)
    lsc.export_grid_json(out / "grid.json", grid, run_hash)
    masses = {
        "-".join(map(str, table.keys[m])): mass
        for m, mass in sorted(basins.basin_mass.items())
    }
    with open(out / "basins.json", "w") as fh:
        json.dump({"config_hash": run_hash, "basin_mass": masses}, fh, indent=2)
    scorer.quantiles.to_json(out / "quantiles.json")
    _write_meta(out, scorer, config_hash=run_hash, reward_hash=cfg.reward_hash())
    _mark_done(out)
    print(f"enumerate: wrote {len(table.keys)} states to {out}")


def cmd_train(cfg: ExperimentConfig) -> None:
    ws = Workspace(cfg)
    run_hash = cfg.run_hash()
    train_cfg = gflownet.TrainConfig(
        steps=cfg["train.steps"],
        batch=cfg["train.batch"],
        lr=cfg["train.lr"],
        log_z_lr=cfg["train.log_z_lr"],
        explore_eps=cfg["train.explore_eps"],
        hidden=tuple(cfg["train.hidden"]),
        budget=cfg["train.budget"],
    )
    for seed in cfg["run.seeds"]:
        out = cfg.out_root() / "train" / str(seed)
        if _done(out):
            print(f"train[{seed}]: {out} already complete, skipping")
            continue
        out.mkdir(parents=True, exist_ok=True)
        scorer = ws.scorer()
        start = time.monotonic()
        result = gflownet.train(ws.space, scorer, train_cfg, seed)
        wall = time.monotonic() - start
        signature = gflownet.checkpoint_signature(ws.space, run_hash)
        gflownet.save_checkpoint(out / "checkpoint.bin", result.net, signature)
        with open(out / "train_log.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"# config_hash={run_hash}"])
            writer.writerow(["step", "tb_loss", "log_z", "unique_terminals"])
            for step, loss, log_z, uniq in result.log_rows:
                writer.writerow([step, repr(float(loss)), repr(float(log_z)), uniq])
        baselines.export_trace_csv(out / "trace.csv", result.evaluated, run_hash)
        _write_meta(
            out,
            scorer,
            config_hash=run_hash,
            reward_hash=cfg.reward_hash(),
            seed=seed,
            wall_clock=wall,
            stopped_early=result.stopped_early,
        )
        _mark_done(out)
        print(f"train[{seed}]: final tb_loss={result.log_rows[-1][1]:.4g} ({wall:.1f}s)")


def cmd_sample(cfg: ExperimentConfig) -> None:
    ws = Workspace(cfg)
    run_hash = cfg.run_hash()
    n = cfg["train.n_samples"]
    for seed in cfg["run.seeds"]:
        ckpt = cfg.out_root() / "train" / str(seed) / "checkpoint.bin"
        if not ckpt.exists():
            raise MissingArtifact(f"missing checkpoint: {ckpt}")
        out = cfg.out_root() / "sample" / str(seed)
        if _done(out):
            print(f"sample[{seed}]: {out} already complete, skipping")
            continue
        out.mkdir(parents=True, exist_ok=True)
        net = gflownet.load_checkpoint(ckpt, gflownet.checkpoint_signature(ws.space, run_hash))
        scorer = ws.scorer()
        start = time.monotonic()
        keys = gflownet.sample_terminals(
            net, ws.space, n, np.random.default_rng(seed + 10_000)
        )
        losses, _ = scorer.score(keys)
        evaluated = list(zip(keys, losses.tolist()))
        baselines.export_trace_csv(out / "samples.csv", evaluated, run_hash)
        _write_meta(
            out,
            scorer,
            config_hash=run_hash,
            seed=seed,
            wall_clock=time.monotonic() - start,
            n_samples=n,
        )
        _mark_done(out)
        print(f"sample[{seed}]: wrote {n} samples")


def cmd_baseline(cfg: ExperimentConfig) -> None:
    ws = Workspace(cfg)
    method = cfg["run.method"]
    if method not in ("random", "tpe"):
        raise ConfigError("baseline requires run.method to be 'random' or 'tpe'")
    run_hash = cfg.run_hash()
    budget = cfg["baseline.budget"]
    for seed in cfg["run.seeds"]:
        out = cfg.out_root() / f"baseline-{method}" / str(seed)
        if _done(out):
            print(f"baseline-{method}[{seed}]: already complete, skipping")
            continue
        out.mkdir(parents=True, exist_ok=True)
        scorer = ws.scorer()
        start = time.monotonic()
        if method == "random":
            evaluated = baselines.random_search(ws.space, scorer, budget, seed)
        else:
            evaluated = baselines.tpe_search(
                ws.space, scorer, budget, seed, gamma=cfg["baseline.gamma"],
                n_candidates=cfg["baseline.n_candidates"], startup=cfg["baseline.startup"],
            )
        baselines.export_trace_csv(out / "trace.csv", evaluated, run_hash)
        _write_meta(
            out,
            scorer,
            config_hash=run_hash,
            reward_hash=cfg.reward_hash(),
            seed=seed,
            wall_clock=time.monotonic() - start,
            budget=budget,
        )
        _mark_done(out)
        print(f"baseline-{method}[{seed}]: best loss "
              f"{min(l for _, l in evaluated):.4g}")


def _check_hash(path: Path, run_hash: str) -> None:
    with open(path, newline="") as fh:
        first = fh.readline().strip()
    embedded = first.split("config_hash=")[-1].strip('"')
    if embedded != run_hash:
        raise RuntimeError(
            f"{path} carries config hash {embedded}, expected {run_hash}"
        )


def _read_wall_clock(path: Path) -> float:
    """The `wall_clock` seconds of a stage's meta.json (0.0 when absent);
    a file that is not a JSON mapping with a numeric value there raises
    ValueError naming it."""
    try:
        meta = json.loads(path.read_text())
        if not isinstance(meta, dict):
            raise ValueError("not a JSON object")
        return float(meta.get("wall_clock", 0.0))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"{path}: malformed meta.json: {exc}") from None


def cmd_report(cfg: ExperimentConfig) -> None:
    ws = Workspace(cfg)
    run_hash = cfg.run_hash()
    root = cfg.out_root()
    out = root / "report"
    out.mkdir(parents=True, exist_ok=True)

    table = None
    if (root / "enumerate" / "landscape.csv").exists():
        scorer = ws.scorer()
        table = lsc.build_landscape(ws.space, scorer, cap=cfg["run.enum_cap"])

    sources = [("gflownet", root / "train")]
    for method in ("random", "tpe"):
        sources.append((method, root / f"baseline-{method}"))
    found = []
    for method, base in sources:
        if not base.exists():
            continue
        for seed_dir in sorted(base.iterdir(), key=lambda p: p.name):
            trace_path = seed_dir / "trace.csv"
            meta_path = seed_dir / "meta.json"
            if not trace_path.exists():
                raise MissingArtifact(f"missing trace: {trace_path}")
            if not meta_path.exists():
                raise MissingArtifact(f"missing meta: {meta_path}")
            _check_hash(trace_path, run_hash)
            found.append((method, int(seed_dir.name), trace_path, meta_path))
    if not found:
        raise MissingArtifact(f"no traces found under {root}")

    beta = cfg["reward.beta"]
    all_losses = []
    traces = {}
    for method, seed, trace_path, meta_path in found:
        evaluated = baselines.read_trace_csv(trace_path, ws.space)
        traces[(method, seed)] = (evaluated, _read_wall_clock(meta_path))
        all_losses.extend(loss for _, loss in evaluated)
    l_star = (
        float(table.aggregates.min()) if table is not None else min(all_losses)
    )

    ks = [10, 20, 50]
    if table is not None:
        ks = sorted({min(k, len(table.keys)) for k in ks})
    reports = []
    for (method, seed), (evaluated, wall_clock) in sorted(traces.items()):
        losses = [loss for _, loss in evaluated]
        med, ham, deficient = metrics.top20_stats(evaluated)
        rep = metrics.RetrievalReport(
            method=method,
            seed=seed,
            best_loss=min(losses),
            median_top20_loss=med,
            mean_hamming_top20=ham,
            sample_deficient=deficient,
            wall_clock=wall_clock,
            best_so_far=metrics.best_so_far(losses, l_star, beta),
            topk_recovery=(
                metrics.topk_recovery(
                    {k for k, _ in evaluated}, table, ks
                )
                if table is not None
                else []
            ),
        )
        reports.append(rep)

    rows = metrics.compare_methods(reports)
    metrics.export_comparison_csv(out / "comparison.csv", rows, run_hash)

    l1_per_seed = {}
    if table is not None:
        for seed in cfg["run.seeds"]:
            ckpt = root / "train" / str(seed) / "checkpoint.bin"
            if ckpt.exists():
                signature = gflownet.checkpoint_signature(ws.space, run_hash)
                net = gflownet.load_checkpoint(ckpt, signature)
                learned = gflownet.exact_terminal_distribution(net, ws.space, cfg["run.enum_cap"])
                l1_per_seed[str(seed)] = lsc.l1_distance(table.target_prob, learned)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
