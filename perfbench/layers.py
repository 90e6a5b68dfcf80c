"""Per-layer metrics computed from the spans of one traced phase.

Every metric belongs to one gfnadapt module (its first name part, after a
"setup." prefix for metrics of the set-up phase). Times are seconds inside
the named call; `self_s` subtracts the time covered by its traced child
spans. Counts marked "computed" are derived from argument shapes or file
sizes and repeat exactly for a given seed. perfbench/README.md maps each
metric to the end-to-end metric it should move.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from dataclasses import dataclass, replace
from typing import Callable

from tracer import END, ERROR, INFO, NAME, PARENT, START

DECODE = "space.decode_state"
SIM = "simulator.simulate"
SYNTH = "simulator.synthesize_observations"
SCORE = "rewards.TerminalScorer.score"
RAW = "rewards.TerminalScorer.raw_losses"
FIT = ("rewards.TerminalScorer.fit_on_enumeration", "rewards.TerminalScorer.fit_on_warmup")
LOAD = "cache.RewardCache._load"
GET = "cache.RewardCache.get"
PUT = "cache.RewardCache.put"
TRUNK = "nn.PolicyNet.trunk_forward"
BACKWARD = "nn.PolicyNet.backward_slot"
ADAM = "nn.Adam.step"
TRAIN = "gflownet.train"
TB = "gflownet.tb_loss_and_grads"
ENCODE = "gflownet.encode_batch"
CHECKPOINT = ("gflownet.save_checkpoint", "gflownet.load_checkpoint")
EXPORT = ("landscape.export_landscape_csv", "landscape.export_grid_json")
RANDOM = "baselines.random_search"
TPE = "baselines.tpe_search"
STAGES = ("enumerate", "train", "sample", "baseline", "report")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _trunk_size(args, kwargs, result):
    """(rows, flop) of one trunk pass: 2*rows*in*out per dense layer."""
    net, x = _arg(args, kwargs, 0, "self"), _arg(args, kwargs, 1, "x")
    rows = int(x.shape[0])
    return rows, sum(2.0 * rows * w.shape[0] * w.shape[1] for w in net.trunk_w)


def _backward_size(args, kwargs, result):
    """(rows, flop) of one slot's backward pass: weight gradient and input
    gradient (2*rows*in*out each) for the head and every trunk layer."""
    net, slot = _arg(args, kwargs, 0, "self"), _arg(args, kwargs, 2, "slot")
    rows = int(_arg(args, kwargs, 3, "dlogits").shape[0])
    shapes = [w.shape for w in net.trunk_w] + [net.head_w[slot].shape]
    return rows, sum(4.0 * rows * a * b for a, b in shapes)


OBSERVERS: dict[str, Callable] = {
    SIM: lambda a, k, r: int(_arg(a, k, 1, "context").days),
    SCORE: lambda a, k, r: tuple(_arg(a, k, 1, "key")),
    GET: lambda a, k, r: r is not None,
    LOAD: lambda a, k, r: len(_arg(a, k, 0, "self")),
    TRUNK: _trunk_size,
    BACKWARD: _backward_size,
    ENCODE: lambda a, k, r: len(_arg(a, k, 1, "keys")),
}


class SpanIndex:
    """Lookups over one phase's spans: by name, by ancestry, self time."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.child_s = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            self.by_name[span[NAME]].append(i)
            if span[PARENT] >= 0:
                self.child_s[span[PARENT]] += span[END] - span[START]

    def _under(self, i: int, names) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0:
            if self.spans[p][NAME] in names:
                return True
            p = self.spans[p][PARENT]
        return False

    def select(self, *names, under=(), outside=()) -> list[int]:
        out = [i for n in names for i in self.by_name.get(n, ())]
        if under:
            out = [i for i in out if self._under(i, under)]
        if outside:
            out = [i for i in out if not self._under(i, outside)]
        return out

    def calls(self, *names, **where) -> int:
        return len(self.select(*names, **where))

    def seconds(self, *names, **where) -> float:
        return sum(self.spans[i][END] - self.spans[i][START] for i in self.select(*names, **where))

    def self_seconds(self, *names) -> float:
        return sum(
            self.spans[i][END] - self.spans[i][START] - self.child_s[i]
            for i in self.select(*names)
        )

    def info(self, *names, pos=None, **where) -> list:
        values = [self.spans[i][INFO] for i in self.select(*names, **where)]
        return values if pos is None else [v[pos] for v in values]

    def errors(self, name: str, error: str) -> int:
        return sum(self.spans[i][ERROR] == error for i in self.select(name))

    def step_ms(self) -> list[float]:
        """Duration of each training step: from the start of train (or the
        end of the previous optimizer step) to the end of this one."""
        out = []
        for t in self.select(TRAIN):
            last = self.spans[t][START]
            for i in self.select(ADAM):
                if self._parent_is(i, t):
                    out.append(1e3 * (self.spans[i][END] - last))
                    last = self.spans[i][END]
        return out

    def _parent_is(self, i: int, ancestor: int) -> bool:
        p = self.spans[i][PARENT]
        while p >= 0 and p != ancestor:
            p = self.spans[p][PARENT]
        return p == ancestor


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    spans: tuple[str, ...]  # wrapped names it needs; absent if any is missing
    value: Callable[[SpanIndex, dict], float]
    phase: str = "cycle"    # "cycle" or "setup": which traced phase it reads
    computed: bool = False  # derived from shapes or sizes; repeats exactly
    base: str | None = None  # for a ratio, the metric holding its denominator


def _m(name, unit, better, spans, value, **flags):
    spans = (spans,) if isinstance(spans, str) else tuple(spans)
    return Metric(name, unit, better, spans, value, **flags)


def _calls(*names, **where):
    return lambda x, e: x.calls(*names, **where)


def _seconds(*names, **where):
    return lambda x, e: x.seconds(*names, **where)


def _self_seconds(name):
    return lambda x, e: x.self_seconds(name)


def _timed(metric, *names):
    """A `<metric>` in seconds spent inside the named calls."""
    return _m(metric, "s", "lower", names, _seconds(*names))


SAMPLE = "gflownet.sample_terminals"
EXACT = "gflownet.exact_terminal_distribution"
BUILD = "landscape.build_landscape"
BASINS = "landscape.basin_map"
GRID = "landscape.project_grid"

PER_LAYER: list[Metric] = [
    _m("space.decode_state.calls", "count", "lower", DECODE, _calls(DECODE)),
    _timed("space.decode_state.s", DECODE),
    # observation synthesis simulates the truth once per context whenever a
    # stage builds its scorer; it is counted apart from scoring work
    _m("simulator.simulate.calls", "count", "lower", SIM, _calls(SIM, outside=(SYNTH,))),
    _m("simulator.simulate.s", "s", "lower", SIM, _seconds(SIM, outside=(SYNTH,))),
    _m("simulator.context_days", "count", "lower", SIM,
       lambda x, e: sum(x.info(SIM, outside=(SYNTH,))), computed=True),
    _m("simulator.synthesize_observations.calls", "count", "lower", SYNTH, _calls(SYNTH)),
    _m("rewards.score.calls", "count", "lower", SCORE, _calls(SCORE)),
    _timed("rewards.score.s", SCORE),
    _m("rewards.score.self_s", "s", "lower", SCORE, _self_seconds(SCORE)),
    _m("rewards.raw_losses.calls", "count", "lower", RAW, _calls(RAW)),
    _m("rewards.cache_hit_ratio", "ratio", "higher", (SCORE, GET),
       lambda x, e: _ratio(sum(x.info(GET, under=(SCORE,))), x.calls(SCORE)),
       base="rewards.score.calls"),
    _timed("rewards.fit_quantiles.s", *FIT),
    _m("rewards.simulator_errors", "count", "lower", RAW,
       lambda x, e: x.errors(RAW, "SimulatorError")),
    _timed("cache.load.s", LOAD),
    _m("cache.load.records", "count", "lower", LOAD, lambda x, e: sum(x.info(LOAD))),
    _m("cache.get.calls", "count", "lower", GET, _calls(GET)),
    _timed("cache.get.s", GET),
    _m("cache.put.calls", "count", "lower", PUT, _calls(PUT)),
    _timed("cache.put.s", PUT),
    # growth of the cache files over the phase
    _m("cache.bytes_written", "bytes", "lower", (), lambda x, e: e["cache_bytes_written"],
       computed=True),
    _m("nn.trunk_forward.calls", "count", "lower", TRUNK, _calls(TRUNK)),
    _m("nn.trunk_forward.rows", "count", "lower", TRUNK, lambda x, e: sum(x.info(TRUNK, pos=0))),
    _timed("nn.trunk_forward.s", TRUNK),
    _m("nn.trunk_forward.gflop", "gflop", "lower", TRUNK,
       lambda x, e: sum(x.info(TRUNK, pos=1)) / 1e9, computed=True),
    _m("nn.backward_slot.calls", "count", "lower", BACKWARD, _calls(BACKWARD)),
    _timed("nn.backward_slot.s", BACKWARD),
    _m("nn.backward_slot.gflop", "gflop", "lower", BACKWARD,
       lambda x, e: sum(x.info(BACKWARD, pos=1)) / 1e9, computed=True),
    _m("nn.adam_step.calls", "count", "lower", ADAM, _calls(ADAM)),
    _timed("nn.adam_step.s", ADAM),
    _m("gflownet.step.ms_p50", "ms", "lower", (TRAIN, ADAM),
       lambda x, e: _percentile(x.step_ms(), 50)),
    _m("gflownet.step.ms_p99", "ms", "lower", (TRAIN, ADAM),
       lambda x, e: _percentile(x.step_ms(), 99)),
    _m("gflownet.train.self_s", "s", "lower", TRAIN, _self_seconds(TRAIN)),
    _timed("gflownet.tb_loss_and_grads.s", TB),
    _m("gflownet.encode_batch.calls", "count", "lower", ENCODE, _calls(ENCODE)),
    _m("gflownet.encode_batch.rows", "count", "lower", ENCODE, lambda x, e: sum(x.info(ENCODE))),
    _timed("gflownet.encode_batch.s", ENCODE),
    # trunk passes inside train per optimizer step
    _m("gflownet.trunk_passes_per_step", "count", "lower", (TRAIN, TRUNK, ADAM),
       lambda x, e: _ratio(x.calls(TRUNK, under=(TRAIN,)), x.calls(ADAM, under=(TRAIN,))),
       computed=True),
    _timed("gflownet.sample_terminals.s", SAMPLE),
    _timed("gflownet.exact_terminal_distribution.s", EXACT),
    _timed("gflownet.checkpoint.s", *CHECKPOINT),
    _timed("landscape.build_landscape.s", BUILD),
    _timed("landscape.basin_map.s", BASINS),
    _timed("landscape.project_grid.s", GRID),
    _timed("landscape.export.s", *EXPORT),
    _m("baselines.random_search.self_s", "s", "lower", RANDOM, _self_seconds(RANDOM)),
    _m("baselines.tpe_search.self_s", "s", "lower", TPE, _self_seconds(TPE)),
    _m("baselines.proposals", "count", "lower", (RANDOM, TPE, SCORE),
       _calls(SCORE, under=(RANDOM, TPE))),
    _m("baselines.unique_ratio", "ratio", "higher", (RANDOM, TPE, SCORE),
       lambda x, e: _ratio(len(set(x.info(SCORE, under=(RANDOM, TPE)))),
                           x.calls(SCORE, under=(RANDOM, TPE))),
       base="baselines.proposals"),
    _timed("metrics.top20_stats.s", "metrics.top20_stats"),
    _timed("metrics.topk_recovery.s", "metrics.topk_recovery"),
    _timed("metrics.best_so_far.s", "metrics.best_so_far"),
    *[
        _m(f"cli.{stage}.self_s", "s", "lower", f"cli.cmd_{stage}",
           _self_seconds(f"cli.cmd_{stage}"))
        for stage in STAGES
    ],
    # traced cycle wall time over untraced cycle wall time
    _m("trace.overhead_ratio", "ratio", "lower", (), lambda x, e: e["overhead_ratio"]),
]

# Set-up work of the workloads (the cold enumerate of train-warm, the
# quantile warm-up of search-2cycle) is reported as "setup.<metric>".
SETUP_PHASE = (
    "space.decode_state.calls", "space.decode_state.s",
    "simulator.simulate.calls", "simulator.simulate.s", "simulator.context_days",
    "rewards.score.calls", "rewards.score.s", "rewards.score.self_s",
    "rewards.raw_losses.calls", "rewards.fit_quantiles.s",
    "cache.get.calls", "cache.get.s", "cache.put.calls", "cache.put.s", "cache.bytes_written",
    "nn.trunk_forward.calls",
    "landscape.build_landscape.s", "landscape.basin_map.s", "landscape.project_grid.s",
    "landscape.export.s",
    "cli.enumerate.self_s",
)
PER_LAYER += [
    replace(m, name=f"setup.{m.name}", phase="setup") for m in PER_LAYER if m.name in SETUP_PHASE
]

# Layers a workload bypasses by design: the traced run checks that these
# stay at exactly 0 (a metric whose spans are absent is not checked).
PREDICTED_ZERO: dict[str, tuple[str, ...]] = {
    "train-warm": (
        "simulator.simulate.calls", "rewards.raw_losses.calls", "cache.put.calls",
        "cache.bytes_written", "setup.nn.trunk_forward.calls",
    ),
    "search-2cycle": (
        "nn.trunk_forward.calls", "nn.adam_step.calls", "landscape.build_landscape.s",
        "landscape.basin_map.s", "setup.nn.trunk_forward.calls", "setup.cache.put.calls",
    ),
}


def evaluate(
    indexes: dict[str, SpanIndex], extras: dict[str, dict], absent: set[str]
) -> dict[str, float | None]:
    """Every per-layer metric, each from its phase's spans and extras
    (keyed by phase); None marks a metric whose spans are absent."""
    out: dict[str, float | None] = {}
    for metric in PER_LAYER:
        if absent.intersection(metric.spans):
            out[metric.name] = None
            continue
        out[metric.name] = metric.value(indexes[metric.phase], extras[metric.phase])
    return out
