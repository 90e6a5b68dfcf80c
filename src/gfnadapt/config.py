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
import re
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .simulator import DEFAULT_TRUTH_KEY, N_CONTEXTS
from .space import load_yaml

# Every setting: its default, its kind, and the values it accepts. A number
# or a list accepts an interval, written as its error message writes it; a
# list must be a non-empty list of integers in it. A string accepts any
# string, or one of the choices given. None is accepted where it is the default.
SETTINGS: dict[str, tuple] = {
    "space.file": ("builtin", str, None),
    "space.cycles": (None, int, "[1, inf)"),  # None = value from the space file
    "space.step_fraction": (None, float, "(0, 1]"),
    "reward.beta": (4.0, float, "(0, inf)"),
    "reward.lambda": (0.25, float, "[0, 1]"),
    "reward.k_tail": (2, int, f"[1, {N_CONTEXTS}]"),
    "reward.lo_level": (0.05, float, "(0, 1)"),
    "reward.hi_level": (0.95, float, "(0, 1)"),
    "reward.warmup": (256, int, "[2, inf)"),  # one key fits q_lo == q_hi in every context
    "data.contexts_seed": (7, int, "[0, inf)"),
    "data.noise_rel": (0.03, float, "[0, inf)"),
    "data.days": (180, int, "[14, inf)"),  # at least one biweekly observation
    "data.truth_key": (list(DEFAULT_TRUTH_KEY), list, "[0, inf)"),  # see cli.Workspace
    "train.steps": (1000, int, "[1, inf)"),
    "train.batch": (16, int, "[1, inf)"),
    "train.lr": (5e-4, float, "(0, inf)"),
    "train.log_z_lr": (0.1, float, "(0, inf)"),
    "train.explore_eps": (0.05, float, "[0, 1]"),
    "train.hidden": ([256, 256, 256], list, "[1, inf)"),
    "train.n_samples": (5000, int, "[1, inf)"),
    "train.budget": (None, int, "[1, inf)"),  # cap on distinct keys requested; None = unlimited
    "baseline.budget": (2000, int, "[1, inf)"),
    "baseline.gamma": (0.25, float, "(0, 1)"),
    "baseline.n_candidates": (24, int, "[1, inf)"),
    "baseline.startup": (10, int, "[1, inf)"),
    "run.method": ("gflownet", str, ("gflownet", "random", "tpe")),
    "run.seeds": ([1, 2, 3], list, "[0, inf)"),
    "run.out_dir": ("runs", str, None),
    "run.enum_cap": (100_000, int, "[0, inf)"),
}

_SECTIONS = {dotted.split(".")[0] for dotted in SETTINGS}

# keys that do not affect produced numbers and are excluded from the run hash
_HASH_EXCLUDE = {"run.out_dir", "run.method"}

_REWARD_SECTIONS = ("space", "reward", "data")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    values: dict  # {dotted name: value}, every setting of SETTINGS
    space_doc: dict | None = None  # parsed space.file definition; None = built-in

    def __getitem__(self, dotted: str):
        return self.values[dotted]

    # -- hashes -------------------------------------------------------------

    def _canonical(self, sections=_SECTIONS) -> dict:
        """The {section: {key: value}} document of `sections` that the hashes digest."""
        doc = {}
        for dotted, value in self.values.items():
            section, key = dotted.split(".")
            if section in sections and dotted not in _HASH_EXCLUDE:
                doc.setdefault(section, {})[key] = value
        if self.space_doc is not None:
            doc["space_definition"] = self.space_doc
        return doc

    def run_hash(self) -> str:
        return _digest(self._canonical())

    def reward_hash(self) -> str:
        return _digest(self._canonical(_REWARD_SECTIONS))

    def out_root(self) -> Path:
        return Path(self["run.out_dir"]) / self.run_hash()

    def cache_dir(self) -> Path:
        override = os.environ.get("GFNADAPT_CACHE_DIR")
        if override:
            return Path(override) / self.reward_hash()
        return Path(self["run.out_dir"]) / "cache" / self.reward_hash()


def _digest(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _set(values: dict, dotted: str, value) -> None:
    if dotted not in SETTINGS:
        section = dotted.split(".")[0]
        raise ConfigError(f"unknown config key: {dotted if section in _SECTIONS else section}")
    values[dotted] = value


def parse_overrides(pairs: list[str]) -> dict:
    """Turn --set section.key=value pairs into {section.key: value}."""
    update: dict = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"override must look like section.key=value: {pair}")
        dotted, raw = pair.split("=", 1)
        if dotted.count(".") != 1:
            raise ConfigError(f"override key must be section.key: {dotted}")
        update[dotted] = _parse_yaml(raw, dotted)
    return update


def _parse_yaml(stream, where: str):
    try:
        return load_yaml(stream)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
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
    values = copy.deepcopy({dotted: setting[0] for dotted, setting in SETTINGS.items()})
    if path is not None:
        with open(path) as fh:
            doc = _parse_yaml(fh, f"config file {path}") or {}
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {path} is not a mapping")
        for section, settings in doc.items():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config key: {section}")
            if not isinstance(settings, dict):
                raise ConfigError(f"{section} must be a section of settings, got {settings!r}")
            for key, value in settings.items():
                _set(values, f"{section}.{key}", value)
    for dotted, value in parse_overrides(overrides or []).items():
        _set(values, dotted, value)
    cfg = ExperimentConfig(values=values)
    _validate(cfg)
    if cfg["space.file"] != "builtin":
        cfg.space_doc = _read_space_doc(cfg["space.file"])
    return cfg


_KINDS = {int: "an integer", float: "a number", list: "a non-empty list of integers",
          str: "a string"}


def _fits(value, kind: type, accepted) -> bool:
    if kind is str:
        return isinstance(value, str) and (accepted is None or value in accepted)
    if kind is list:
        return isinstance(value, list) and value != [] and all(
            _fits(x, int, accepted) for x in value
        )
    if isinstance(value, bool) or not isinstance(value, (int, kind)):
        return False
    lo, hi = (float(x) for x in accepted[1:-1].split(","))
    above = lo < value if accepted[0] == "(" else lo <= value
    return above and (value < hi if accepted[-1] == ")" else value <= hi)


def _validate(cfg: ExperimentConfig) -> None:
    for dotted, (default, kind, accepted) in SETTINGS.items():
        value = cfg.values[dotted]
        # YAML 1.1 reads a decimal literal with an exponent as a string
        # unless it has a dot and a signed exponent (5e-4, 1E3); a float
        # setting stores it as the float it denotes
        if kind is float and isinstance(value, str) and re.fullmatch(
            r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+", value
        ):
            value = cfg.values[dotted] = float(value)
        if (value is None and default is None) or _fits(value, kind, accepted):
            continue
        if isinstance(accepted, tuple):
            raise ConfigError(f"unknown {dotted.split('.')[1]}: {value}")
        where = f" in {accepted}" if accepted else ""
        raise ConfigError(f"{dotted} must be {_KINDS[kind]}{where}, got {value!r}")
    if cfg["reward.lo_level"] >= cfg["reward.hi_level"]:
        raise ConfigError("reward.lo_level must be below reward.hi_level")
