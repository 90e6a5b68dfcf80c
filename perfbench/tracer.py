"""In-memory span tracer that wraps gfnadapt's layer boundaries from outside.

The program is not edited: each name in WRAPPED is replaced, for the length
of a traced phase, by a wrapper that records a span (name, parent span,
start, end, an optional size observation, the exception type if one was
raised). A module-level function is also replaced wherever another gfnadapt
module imported it, so `gfnadapt.rewards.simulate` is traced like
`gfnadapt.simulator.simulate`. A name the program no longer defines is
recorded as absent, not treated as an error.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute path) of every wrapped layer boundary; the span name is
# "<module>.<attribute path>".
WRAPPED = (
    ("space", "decode_state"),
    ("simulator", "simulate"),
    ("simulator", "synthesize_observations"),
    ("rewards", "TerminalScorer.score"),
    ("rewards", "TerminalScorer.raw_losses"),
    ("rewards", "TerminalScorer.fit_on_enumeration"),
    ("rewards", "TerminalScorer.fit_on_warmup"),
    ("cache", "RewardCache._load"),
    ("cache", "RewardCache.get"),
    ("cache", "RewardCache.put"),
    ("nn", "PolicyNet.trunk_forward"),
    ("nn", "PolicyNet.backward_slot"),
    ("nn", "Adam.step"),
    ("gflownet", "train"),
    ("gflownet", "tb_loss_and_grads"),
    ("gflownet", "encode_batch"),
    ("gflownet", "sample_terminals"),
    ("gflownet", "exact_terminal_distribution"),
    ("gflownet", "save_checkpoint"),
    ("gflownet", "load_checkpoint"),
    ("landscape", "build_landscape"),
    ("landscape", "basin_map"),
    ("landscape", "project_grid"),
    ("landscape", "export_landscape_csv"),
    ("landscape", "export_grid_json"),
    ("baselines", "random_search"),
    ("baselines", "tpe_search"),
    ("metrics", "top20_stats"),
    ("metrics", "topk_recovery"),
    ("metrics", "best_so_far"),
    ("cli", "cmd_enumerate"),
    ("cli", "cmd_train"),
    ("cli", "cmd_sample"),
    ("cli", "cmd_baseline"),
    ("cli", "cmd_report"),
)

# span fields
NAME, PARENT, START, END, INFO, ERROR = range(6)


class Tracer:
    """Records spans while installed; `observers` map a span name to a
    function (args, kwargs, result) -> size observation kept on the span."""

    def __init__(self, package: str, observers: dict):
        self.package = package
        self.observers = observers
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _modules(self) -> list:
        prefix = self.package + "."
        return [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == self.package or n.startswith(prefix))
        ]

    def install(self) -> None:
        """Wrap every name in WRAPPED; starts a fresh span list."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.spans = []
        self.absent = set()
        modules = self._modules()
        for mod_name, path in WRAPPED:
            name = f"{mod_name}.{path}"
            owner = sys.modules.get(f"{self.package}.{mod_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = vars(owner).get(attr) if owner is not None else None
            if not callable(raw):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, raw)
            self._patch(owner, attr, wrapper)
            if not isinstance(owner, type):
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is raw and module is not owner:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = self.observers.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0.0, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                span[INFO] = observe(args, kwargs, result)
            return result

        return wrapper
