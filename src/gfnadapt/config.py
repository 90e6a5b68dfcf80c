"""Experiment configuration: sectioned YAML files, overrides, stable hashes.

Precedence is flag override > config file > built-in default. Two digests
are derived from the resolved config: the reward hash (fields that determine
the reward landscape, used to locate the shared reward cache) and the run
hash (everything except method and output directory, used for the output
layout). Every output file embeds the run hash.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .simulator import DEFAULT_TRUTH_KEY, N_CONTEXTS

DEFAULTS: dict = {
    "space": {
        "file": "builtin",
        "cycles": None,          # None = value from the space file
        "step_fraction": None,
    },
    "reward": {
        "beta": 4.0,
        "lambda": 0.25,
        "k_tail": 2,
        "lo_level": 0.05,
        "hi_level": 0.95,
        "warmup": 256,
    },
    "data": {
        "contexts_seed": 7,
        "noise_rel": 0.03,
        "days": 180,
        "truth_key": list(DEFAULT_TRUTH_KEY),
    },
    "train": {
        "steps": 1000,
        "batch": 16,
        "lr": 5e-4,
        "log_z_lr": 0.1,
        "explore_eps": 0.05,
        "hidden": [256, 256, 256],
        "n_samples": 5000,
        "budget": None,          # cap on distinct keys requested; None = unlimited
    },
    "baseline": {
        "budget": 2000,
        "gamma": 0.25,
        "n_candidates": 24,
        "startup": 10,
    },
    "run": {
        "method": "gflownet",
        "seeds": [1, 2, 3],
        "out_dir": "runs",
        "enum_cap": 100_000,
    },
}

# keys that do not affect produced numbers and are excluded from the run hash
_HASH_EXCLUDE = {("run", "out_dir"), ("run", "method")}

_REWARD_SECTIONS = ("space", "reward", "data")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    values: dict
    space_doc: dict | None = None  # parsed space.file definition; None = built-in

    def __getitem__(self, dotted: str):
        node = self.values
        for part in dotted.split("."):
            node = node[part]
        return node

    # -- hashes -------------------------------------------------------------

    def _canonical(self, sections) -> dict:
        doc = {}
        for sec in sections:
            doc[sec] = {
                k: v
                for k, v in self.values[sec].items()
                if (sec, k) not in _HASH_EXCLUDE
            }
        if self.space_doc is not None:
            doc["space_definition"] = self.space_doc
        return doc

    def run_hash(self) -> str:
        return _digest(self._canonical(sorted(self.values)))

    def reward_hash(self) -> str:
        return _digest(self._canonical(_REWARD_SECTIONS))

    def out_root(self) -> Path:
        return Path(self.values["run"]["out_dir"]) / self.run_hash()

    def cache_dir(self) -> Path:
        override = os.environ.get("GFNADAPT_CACHE_DIR")
        if override:
            return Path(override) / self.reward_hash()
        return Path(self.values["run"]["out_dir"]) / "cache" / self.reward_hash()


def _digest(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _merge(base: dict, update: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in update.items():
        where = f"{path}.{key}" if path else key
        if key not in out:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(out[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be a section of settings, got {value!r}")
            out[key] = _merge(out[key], value, where)
        else:
            out[key] = value
    return out


def parse_overrides(pairs: list[str]) -> dict:
    """Turn --set section.key=value pairs into a nested update dict."""
    update: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like section.key=value: {pair}")
        dotted, raw = pair.split("=", 1)
        parts = dotted.split(".")
        if len(parts) != 2:
            raise ConfigError(f"override key must be section.key: {dotted}")
        node = update.setdefault(parts[0], {})
        node[parts[1]] = _parse_yaml(raw, dotted)
    return update


def _parse_yaml(stream, where: str):
    try:
        return yaml.safe_load(stream)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{where} is not valid YAML: {exc}") from exc


def _read_space_doc(path: str):
    """The parsed definition in a space file, as JSON types so that it hashes
    (dates and other YAML-only scalars become strings)."""
    try:
        with open(path) as fh:
            doc = _parse_yaml(fh, f"space.file {path}")
    except OSError as exc:
        raise ConfigError(f"space.file {path} cannot be read: {exc.strerror}") from exc
    return json.loads(json.dumps(doc, default=str))


def load_config(path=None, overrides: list[str] | None = None) -> ExperimentConfig:
    """Resolve defaults, file and overrides, and validate them. A space file
    other than the built-in one is read here, so that its definition, not
    its path, goes into the hashes."""
    values = copy.deepcopy(DEFAULTS)
    if path is not None:
        with open(path) as fh:
            doc = _parse_yaml(fh, f"config file {path}") or {}
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} is not a mapping")
        values = _merge(values, doc)
    if overrides:
        values = _merge(values, parse_overrides(overrides))
    cfg = ExperimentConfig(values=values)
    _validate(cfg)
    if cfg["space.file"] != "builtin":
        cfg.space_doc = _read_space_doc(cfg["space.file"])
    return cfg


# (kind, accepted interval, settings). None is accepted where it is the
# default; a list must be a non-empty list of integers in the interval.
_RULES = (
    (int, "[1, inf)", "space.cycles reward.warmup train.steps train.batch train.n_samples"
                      " train.budget baseline.budget baseline.n_candidates baseline.startup"),
    (int, "[0, inf)", "data.contexts_seed run.enum_cap"),
    (int, f"[1, {N_CONTEXTS}]", "reward.k_tail"),
    (int, "[14, inf)", "data.days"),  # at least one biweekly observation
    (float, "(0, inf)", "reward.beta train.lr train.log_z_lr"),
    (float, "(0, 1)", "reward.lo_level reward.hi_level baseline.gamma"),
    (float, "(0, 1]", "space.step_fraction"),
    (float, "[0, 1]", "reward.lambda train.explore_eps"),
    (float, "[0, inf)", "data.noise_rel"),
    (list, "[1, inf)", "train.hidden"),
    (list, "[0, inf)", "run.seeds data.truth_key"),  # truth key: see cli.Workspace
)
_KINDS = {int: "an integer", float: "a number", list: "a non-empty list of integers"}


def _fits(value, kind: type, interval: str) -> bool:
    if kind is list:
        return isinstance(value, list) and value != [] and all(
            _fits(x, int, interval) for x in value
        )
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        return False
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    above = lo < value if interval[0] == "(" else lo <= value
    return above and (value < hi if interval[-1] == ")" else value <= hi)


def _validate(cfg: ExperimentConfig) -> None:
    if cfg["run.method"] not in ("gflownet", "random", "tpe"):
        raise ConfigError(f"unknown method: {cfg['run.method']}")
    for dotted in ("space.file", "run.out_dir"):
        if not isinstance(cfg[dotted], str):
            raise ConfigError(f"{dotted} must be a string, got {cfg[dotted]!r}")
    for kind, interval, names in _RULES:
        for dotted in names.split():
            value = cfg[dotted]
            if value is None and ExperimentConfig(DEFAULTS)[dotted] is None:
                continue
            if not _fits(value, kind, interval):
                raise ConfigError(f"{dotted} must be {_KINDS[kind]} in {interval}, got {value!r}")
    if cfg["reward.lo_level"] >= cfg["reward.hi_level"]:
        raise ConfigError("reward.lo_level must be below reward.hi_level")
