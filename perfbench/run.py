#!/usr/bin/env python3
"""Benchmark of the gfnadapt CLI stages, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload train-warm --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

It drives `gfnadapt.cli.main` in this one process, from the sources under
src/, on the workload built from --seed; checks the artifacts the stages
write; and prints a report whose last line is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json; with --trace 1 the per-layer ones of
perfbench/layers.py. perfbench/README.md describes workloads and metrics.
"""

import os

# One BLAS thread, fixed before numpy loads: at the policy's matrix sizes it
# is faster than the default, and a fixed count keeps runs comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
SEARCH_BUDGET = 1000
ORACLE_ROWS = 12        # rows per artifact recomputed by the scalar oracle
ORACLE_TOL = 1e-10
L1_GATE = 0.30
TOP50_GATE = 0.50
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


def import_program():
    """Import gfnadapt from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import gfnadapt.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import gfnadapt from {SRC}: {exc}")
    if SRC not in Path(gfnadapt.cli.__file__).resolve().parents:
        raise SystemExit(f"error: gfnadapt was imported from outside {SRC}")
    return gfnadapt


class Run:
    """One workload at one seed: stage calls, checks and their tally."""

    def __init__(self, gfnadapt, spec, seed: int, work: Path):
        self.g = gfnadapt
        self.spec = spec
        self.seed = seed
        self.work = work
        self.results: list[tuple[str, bool, str]] = []
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.work / f"{self._dirs:03d}-{label}"
        path.mkdir(parents=True)
        return path

    def sets(self, out_dir: Path) -> list[str]:
        """--set overrides shared by every stage of the workload."""
        return [f"run.out_dir={out_dir}", f"run.seeds=[{self.seed}]", *self.spec.overrides]

    def config(self, out_dir: Path):
        return self.g.config.load_config(None, self.sets(out_dir))

    @staticmethod
    def use_cache(path: Path) -> None:
        os.environ["GFNADAPT_CACHE_DIR"] = str(path)

    def record(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return ok

    def stage(self, command: str, out_dir: Path, *extra: str) -> float:
        """Run one CLI stage in-process; returns its wall time in seconds."""
        argv = [command]
        for value in [*self.sets(out_dir), *extra]:
            argv += ["--set", value]
        log = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = self.g.cli.main(argv)
        except Exception:
            code = None
            log.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        label = " ".join([command, *extra])
        if not self.record(f"stage `{label}` exits 0", code == 0, f"exit {code}"):
            print(log.getvalue(), file=sys.stderr)
        return elapsed


# ---------------------------------------------------------------------------
# Workloads. `overrides` are the workload's --set values besides the output
# directory and the seed; setup() fills a template directory; prepare()
# readies a fresh cycle directory from it, untimed, and returns the
# reward-cache root the cycle writes to; stages() runs the timed stages and
# returns {stage metric: seconds}; check() verifies the last cycle's
# artifacts and returns quality numbers.


class TrainWarm:
    """train (1000 steps) -> sample (5000) -> report over a cache and
    landscape filled by an enumerate during set-up."""

    overrides = ()

    def setup(self, run: Run, d: Path) -> None:
        run.use_cache(d / "cache")
        run.stage("enumerate", d / "out")

    def prepare(self, run: Run, template: Path, d: Path) -> Path:
        shutil.copytree(template / "out", d / "out")
        run.use_cache(template / "cache")
        return template / "cache"

    def stages(self, run: Run, d: Path) -> dict:
        return {
            "train_s": run.stage("train", d / "out"),
            "sample_s": run.stage("sample", d / "out"),
            "report_s": run.stage("report", d / "out"),
        }

    def check(self, run: Run, template: Path, d: Path) -> dict:
        cfg = run.config(d / "out")
        root = cfg.out_root()
        landscape = check_landscape(run, cfg, root / "enumerate" / "landscape.csv")
        seed_dir = str(run.seed)
        trace = read_trace(run, root / "train" / seed_dir / "trace.csv",
                           int(cfg["train.steps"]) * int(cfg["train.batch"]))
        samples = read_trace(run, root / "sample" / seed_dir / "samples.csv",
                             int(cfg["train.n_samples"]))
        check_oracle(run, cfg, template / "cache", "landscape", landscape)
        check_oracle(run, cfg, template / "cache", "train trace", trace)
        check_oracle(run, cfg, template / "cache", "samples", samples)
        quality = {"best_loss": min((loss for _, loss in trace + samples), default=None)}
        try:
            with open(root / "report" / "report.json") as fh:
                quality["l1_exact"] = json.load(fh)["l1_exact_vs_learned"][seed_dir]
        except (OSError, KeyError, ValueError) as exc:
            run.record("report.json holds L1 for the seed", False, repr(exc))
            return quality
        run.record(f"L1 to exact target <= {L1_GATE}", quality["l1_exact"] <= L1_GATE,
                   repr(quality["l1_exact"]))
        top50 = {r[0] for r in sorted(landscape, key=lambda r: (-r[2], r[0]))[:50]}
        quality["top50_recovery"] = len(top50 & {key for key, _ in samples}) / 50
        run.record(f"top-50 recovery >= {TOP50_GATE:.0%}",
                   quality["top50_recovery"] >= TOP50_GATE, repr(quality["top50_recovery"]))
        return quality


class Search2Cycle:
    """random then TPE baseline on the 2-cycle space (6.9 M terminals) from
    a cold cache whose quantiles come from the set-up warm-up."""

    overrides = ("space.cycles=2", f"baseline.budget={SEARCH_BUDGET}")

    def setup(self, run: Run, d: Path) -> None:
        run.use_cache(d / "cache")
        run.g.cli.Workspace(run.config(d / "out")).scorer()

    def prepare(self, run: Run, template: Path, d: Path) -> Path:
        shutil.copytree(template / "cache", d / "cache")
        run.use_cache(d / "cache")
        return d / "cache"

    def stages(self, run: Run, d: Path) -> dict:
        return {
            "baseline_random_s": run.stage("baseline", d / "out", "run.method=random"),
            "baseline_tpe_s": run.stage("baseline", d / "out", "run.method=tpe"),
        }

    def check(self, run: Run, template: Path, d: Path) -> dict:
        cfg = run.config(d / "out")
        losses = []
        for method in ("random", "tpe"):
            path = cfg.out_root() / f"baseline-{method}" / str(run.seed) / "trace.csv"
            rows = read_trace(run, path, SEARCH_BUDGET)
            check_oracle(run, cfg, d / "cache", f"{method} trace", rows)
            losses += [loss for _, loss in rows]
        return {"best_loss": min(losses)} if losses else {}


WORKLOADS = {
    "train-warm": TrainWarm,
    "search-2cycle": Search2Cycle,
}


# ---------------------------------------------------------------------------
# Output checks


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[2:]  # config-hash comment, then header


def _key(text: str) -> tuple[int, ...]:
    return tuple(int(a) for a in text.split("-"))


def read_trace(run: Run, path: Path, expected: int) -> list[tuple]:
    """(key, loss) rows of a trace or samples file; checks the row count."""
    try:
        rows = [(_key(r[1]), float(r[2])) for r in _csv_rows(path)]
    except (OSError, ValueError, IndexError) as exc:
        run.record(f"{path.name} readable", False, repr(exc))
        return []
    run.record(f"{path.parent.parent.name}/{path.name} has {expected} rows",
               len(rows) == expected, str(len(rows)))
    return rows


def check_landscape(run: Run, cfg, path: Path) -> list[tuple]:
    """(key, loss, target_prob) rows; checks count and normalization."""
    try:
        rows = [(_key(r[0]), float(r[1]), float(r[3])) for r in _csv_rows(path)]
    except (OSError, ValueError, IndexError) as exc:
        run.record("landscape.csv readable", False, repr(exc))
        return []
    ws = run.g.cli.Workspace(cfg)
    count = ws.space.terminal_count()
    run.record(f"landscape.csv has {count} rows", len(rows) == count, str(len(rows)))
    total = sum(p for _, _, p in rows)
    run.record("landscape target_prob sums to 1", abs(total - 1.0) <= 1e-9, repr(total))
    return rows


def check_oracle(run: Run, cfg, cache_root: Path, label: str, rows: list) -> None:
    """Recompute a seeded sample of losses with the scalar path
    decode_state -> simulate -> context_loss -> normalize -> aggregate."""
    if not rows:
        return
    g = run.g
    try:
        table = g.rewards.QuantileTable.from_json(
            cache_root / cfg.reward_hash() / "quantiles.json")
    except (OSError, KeyError, ValueError) as exc:
        run.record(f"{label}: quantiles.json readable", False, repr(exc))
        return
    ws = g.cli.Workspace(cfg)
    contexts = ws.contexts()
    lam, k = float(cfg["reward.lambda"]), int(cfg["reward.k_tail"])
    picked = random.Random(f"{run.seed}/{label}").sample(rows, min(ORACLE_ROWS, len(rows)))
    worst = 0.0
    for key, loss, *_ in picked:
        params = g.space.decode_state(ws.space, key)
        raw = [g.rewards.context_loss(g.simulator.simulate(params, c), c.obs_values)
               for c in contexts]
        expected = g.rewards.aggregate(g.rewards.normalize(raw, table), lam, k)
        worst = max(worst, abs(expected - loss))
    run.record(f"{label}: {len(picked)} losses match the scalar oracle",
               worst <= ORACLE_TOL, f"max |diff| {worst:.3g}")


# ---------------------------------------------------------------------------
# Measurement


def cache_bytes(root: Path) -> int:
    if not root.exists():
        return 0
    return sum(p.stat().st_size for p in root.rglob("rewards.bin"))


def run_workload(gfnadapt, workload: str, seed: int, seconds: float, trace: bool, work: Path):
    spec = WORKLOADS[workload]()
    run = Run(gfnadapt, spec, seed, work)
    os.environ.pop("GFNADAPT_CACHE_DIR", None)  # never an inherited cache
    tracer = None
    if trace:
        import layers
        from tracer import Tracer

        tracer = Tracer("gfnadapt", layers.OBSERVERS)

    def traced_call(fn, *args) -> tuple[object, list]:
        """fn's result and, when tracing, the spans it produced."""
        if tracer is None:
            return fn(*args), []
        tracer.install()
        try:
            return fn(*args), tracer.spans
        finally:
            tracer.uninstall()

    # the set-up is timed several times and the last one is the template;
    # a traced run sets up once, traced, for the set-up-side layers
    setup_times = []
    for _ in range(1 if trace else SETUP_REPEATS):
        template = run.fresh_dir("setup")
        start = time.perf_counter()
        _, setup_spans = traced_call(spec.setup, run, template)
        setup_times.append(time.perf_counter() - start)
    setup_written = cache_bytes(template)

    stage_times: dict[str, list[float]] = {}
    walls, traced_walls, traced = [], [], []
    start = time.perf_counter()
    while True:
        last = run.fresh_dir("cycle")
        spec.prepare(run, template, last)
        times = spec.stages(run, last)
        walls.append(sum(times.values()))
        for name, value in times.items():
            stage_times.setdefault(name, []).append(value)
        if trace:
            last = run.fresh_dir("cycle-traced")
            cache_root = spec.prepare(run, template, last)
            before = cache_bytes(cache_root)
            times, spans = traced_call(spec.stages, run, last)
            traced_walls.append(sum(times.values()))
            traced.append((spans, cache_bytes(cache_root) - before))
        if time.perf_counter() - start >= seconds:
            break

    quality = spec.check(run, template, last)
    report = {
        "stages": {k: statistics.median(v) for k, v in stage_times.items()},
        "cycles": len(walls),
        "setups": len(setup_times),
        "quality": quality,
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        overhead = statistics.median(traced_walls) / statistics.median(walls)
        setup_index = layers.SpanIndex(setup_spans)
        per_cycle = [
            layers.evaluate(
                {"setup": setup_index, "cycle": layers.SpanIndex(spans)},
                {"setup": {"cache_bytes_written": setup_written},
                 "cycle": {"cache_bytes_written": written, "overhead_ratio": overhead}},
                tracer.absent,
            )
            for spans, written in traced
        ]
        report["per_layer"] = {
            m.name: (None if per_cycle[0][m.name] is None
                     else statistics.median(c[m.name] for c in per_cycle))
            for m in layers.PER_LAYER
        }
        report["absent"] = sorted(tracer.absent)
        report["overhead_base"] = (statistics.median(traced_walls), statistics.median(walls))
        for name in layers.PREDICTED_ZERO[workload]:
            value = report["per_layer"][name]
            if value is not None:
                run.record(f"prediction: {name} stays 0", value == 0, repr(value))
        write_spans(workload, seed, setup_spans, traced[0][0])
    return run, report


def write_spans(workload: str, seed: int, setup_spans: list, cycle_spans: list) -> None:
    """Spans of the traced set-up and first traced cycle, as
    [name index, parent, start s, end s] rows, for offline inspection."""
    names: dict[str, int] = {}
    phases = {}
    for phase, spans in (("setup", setup_spans), ("cycle", cycle_spans)):
        t0 = spans[0][2] if spans else 0.0
        phases[phase] = [
            [names.setdefault(s[0], len(names)), s[1], round(s[2] - t0, 7), round(s[3] - t0, 7)]
            for s in spans
        ]
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{workload}-seed{seed}.json", "w") as fh:
        json.dump({"names": list(names), **phases}, fh, separators=(",", ":"))


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass  # numpy without show_config(mode="dicts")
    sha = "unknown (not a git checkout)"
    git = ROOT / ".git"
    if (git / "HEAD").exists():
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            packed = (git / "packed-refs").read_text() if (git / "packed-refs").exists() else ""
            loose = [(git / name).read_text()] if (git / name).exists() else []
            found = loose + [line for line in packed.splitlines() if line.endswith(" " + name)]
            ref = found[0].split()[0] if found else "unknown"
        sha = ref[:12]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": sha,
    }


def show(value) -> str:
    return "absent" if value is None else (f"{value:.6g}" if isinstance(value, float) else str(value))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)

    gfnadapt = import_program()
    work = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run, report = run_workload(
            gfnadapt, args.workload, args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not ok for _, ok, _ in run.results)
    attempted = len(run.results)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in environment().items():
        print(f"  env {key}: {value}")
    for name, ok, detail in run.results:
        print(f"  {'ok  ' if ok else 'FAIL'} {name} ({detail})")
    print(f"  fail_ratio: {failed}/{attempted} = {failed / attempted:.3g}")
    print(f"  setup_s: {report['setup_s']:.4f} s (median of {report['setups']} set-ups)")
    print(f"  wall_s: {report['wall_s']:.4f} s (median of {report['cycles']} cycles)")
    print(f"  peak_rss_mb: {report['peak_rss_mb']:.1f} MB")
    for name, value in report["stages"].items():
        print(f"  {name}: {value:.4f} s")
    for name, value in report["quality"].items():
        print(f"  {name}: {value!r}")

    if args.trace:
        import layers

        for m in layers.PER_LAYER:
            note = " (computed)" if m.computed else ""
            if m.base:
                note += f" (base: {m.base} = {show(report['per_layer'][m.base])})"
            print(f"  {m.name}: {show(report['per_layer'][m.name])} {m.unit}{note}")
        traced_s, base_s = report["overhead_base"]
        print(f"  trace.overhead_ratio base: {traced_s:.4f} s traced / {base_s:.4f} s untraced")
        print(f"  absent wrapped names: {', '.join(report['absent']) or 'none'}")
        metrics = {
            m.name: {"value": report["per_layer"][m.name] or 0, "unit": m.unit}
            for m in layers.PER_LAYER
        }
    else:
        metrics = {name: {"value": report[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            return proc.returncode or 2
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
