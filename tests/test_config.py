import inspect
import re

import pytest
import yaml

from gfnadapt import baselines
from gfnadapt.config import (
    SETTINGS,
    ConfigError,
    load_config,
    parse_overrides,
)
from gfnadapt.simulator import generate_contexts


class TestDefaults:
    def test_load_without_file(self):
        cfg = load_config()
        assert cfg["reward.beta"] == 4.0
        assert cfg["data.truth_key"] == [2, 1, 3, 1, 4]
        assert cfg["run.seeds"] == [1, 2, 3]
        assert cfg["train.log_z_lr"] == 0.1

    def test_signature_defaults_agree_with_the_table(self):
        tpe = inspect.signature(baselines.tpe_search).parameters
        for name in ("gamma", "n_candidates", "startup"):
            assert tpe[name].default == SETTINGS[f"baseline.{name}"][0], name
        days = inspect.signature(generate_contexts).parameters["days"].default
        assert days == SETTINGS["data.days"][0]

    def test_dotted_lookup(self):
        cfg = load_config()
        assert cfg["baseline.gamma"] == cfg.values["baseline.gamma"] == 0.25
        assert list(cfg.values) == list(SETTINGS)
        with pytest.raises(KeyError):
            cfg["baseline.nope"]


class TestHashes:
    def test_hash_format_and_stability(self):
        a = load_config()
        b = load_config()
        assert a.run_hash() == b.run_hash()
        assert len(a.run_hash()) == 12
        assert set(a.run_hash()) <= set("0123456789abcdef")

    def test_method_and_out_dir_excluded_from_run_hash(self):
        base = load_config()
        assert (
            load_config(overrides=["run.method=random"]).run_hash() == base.run_hash()
        )
        assert (
            load_config(overrides=["run.out_dir=elsewhere"]).run_hash()
            == base.run_hash()
        )

    def test_numeric_settings_change_run_hash(self):
        base = load_config().run_hash()
        assert load_config(overrides=["reward.beta=8"]).run_hash() != base
        assert load_config(overrides=["run.seeds=[5]"]).run_hash() != base
        assert load_config(overrides=["train.steps=10"]).run_hash() != base

    def test_reward_hash_covers_landscape_settings_only(self):
        base = load_config()
        # training settings do not move the reward cache location
        same = load_config(overrides=["train.steps=7", "run.seeds=[9]"])
        assert same.reward_hash() == base.reward_hash()
        for override in [
            "reward.beta=2",
            "data.noise_rel=0.1",
            "space.step_fraction=0.5",
        ]:
            assert load_config(overrides=[override]).reward_hash() != base.reward_hash()

    def test_builtin_space_hashes_pinned(self):
        # existing caches and run roots of the built-in space must still resolve
        for overrides, run_hash, reward_hash in [
            ([], "f282710af8f0", "3dec7370ca19"),
            (["space.cycles=2"], "a16080365957", "3636d9782c3d"),
        ]:
            cfg = load_config(overrides=overrides)
            assert (cfg.run_hash(), cfg.reward_hash()) == (run_hash, reward_hash)

    def test_cache_dir_env_override(self, monkeypatch):
        cfg = load_config()
        default = cfg.cache_dir()
        assert default.parts[0] == "runs"
        monkeypatch.setenv("GFNADAPT_CACHE_DIR", "/shared/cache")
        assert str(cfg.cache_dir()) == f"/shared/cache/{cfg.reward_hash()}"

    def test_out_root_embeds_run_hash(self):
        cfg = load_config(overrides=["run.out_dir=somewhere"])
        assert str(cfg.out_root()) == f"somewhere/{cfg.run_hash()}"


class TestPrecedence:
    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("reward:\n  beta: 2.0\ntrain:\n  steps: 123\n")
        cfg = load_config(path, overrides=["reward.beta=8"])
        assert cfg["reward.beta"] == 8
        assert cfg["train.steps"] == 123  # untouched file value survives

    def test_file_beats_default(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text("baseline:\n  budget: 50\n")
        assert load_config(path)["baseline.budget"] == 50


class TestValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(overrides=["reward.betta=4"])
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(overrides=["rewards.beta=4"])

    def test_malformed_override(self):
        with pytest.raises(ConfigError, match="section.key=value"):
            parse_overrides(["reward.beta"])
        with pytest.raises(ConfigError, match="section.key"):
            parse_overrides(["beta=4"])

    @pytest.mark.parametrize(
        "text, message",
        [("reward: 5\n", "reward must be a section"), ("reward: [\n", "not valid YAML")],
    )
    def test_malformed_config_file(self, tmp_path, text, message):
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="unknown method"):
            load_config(overrides=["run.method=annealing"])

    def test_empty_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            load_config(overrides=["run.seeds=[]"])

    def test_step_fraction_bounds(self):
        with pytest.raises(ConfigError, match="step_fraction"):
            load_config(overrides=["space.step_fraction=0"])
        with pytest.raises(ConfigError, match="step_fraction"):
            load_config(overrides=["space.step_fraction=1.5"])

    def test_warmup_of_one_key_rejected(self):
        # one key gives a degenerate quantile table, q_lo == q_hi
        with pytest.raises(ConfigError, match=r"reward.warmup must be an integer in \[2, inf\)"):
            load_config(overrides=["reward.warmup=1"])
        assert load_config(overrides=["reward.warmup=2"])["reward.warmup"] == 2

    def test_negative_noise(self):
        with pytest.raises(ConfigError, match="noise_rel"):
            load_config(overrides=["data.noise_rel=-0.1"])

    @pytest.mark.parametrize("where", ["override", "file"])
    def test_float_setting_in_exponent_form(self, tmp_path, where):
        # YAML 1.1 reads 5e-4 (no dot) as a string; 5e-4 is train.lr's default
        if where == "override":
            cfg = load_config(overrides=["train.lr=5e-4", "reward.beta=4E0"])
        else:
            path = tmp_path / "exp.yaml"
            path.write_text("train:\n  lr: 5e-4\nreward:\n  beta: 4E0\n")
            cfg = load_config(path)
        assert cfg["train.lr"] == 0.0005 and type(cfg["train.lr"]) is float
        assert cfg["reward.beta"] == 4.0 and type(cfg["reward.beta"]) is float
        assert cfg.run_hash() == load_config(overrides=["train.lr=0.0005"]).run_hash()
        assert cfg.run_hash() == "f282710af8f0"  # the defaults' run hash

    def test_exponent_form_out_of_range_or_not_a_float_setting(self):
        with pytest.raises(ConfigError, match="train.lr must be a number in .*-0.0005"):
            load_config(overrides=["train.lr=-5e-4"])
        with pytest.raises(ConfigError, match="train.steps must be an integer"):
            load_config(overrides=["train.steps=1e3"])
        # string settings keep the string, and their hashes
        cfg = load_config(overrides=["run.out_dir=1e3", "run.method=random"])
        assert cfg["run.out_dir"] == "1e3"
        assert cfg.run_hash() == "f282710af8f0"

    def test_non_utf8_config_file_names_it(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_bytes(b"# caf\xff\ntrain:\n  steps: 10\n")
        with pytest.raises(ConfigError, match=f"config file {path} is not valid YAML"):
            load_config(path)

    def test_non_mapping_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError, match="not a mapping"):
            load_config(path)


# every error message a config's names and shape can draw, word for word:
# (config file text or None, overrides, message)
_MESSAGES = [
    (None, ["rewards.beta=4"], "unknown config key: rewards"),
    (None, ["reward.betta=4"], "unknown config key: reward.betta"),
    (None, [".beta=1"], "unknown config key: "),
    (None, ["run.=3"], "unknown config key: run."),
    (None, ["rewards.=1"], "unknown config key: rewards"),
    (None, ["reward.beta.x=1"], "override key must be section.key: reward.beta.x"),
    (None, ["beta=4"], "override key must be section.key: beta"),
    (None, ["reward.beta"], "override must look like section.key=value: reward.beta"),
    ("reward: 5\n", [], "reward must be a section of settings, got 5"),
    ("reward:\n", [], "reward must be a section of settings, got None"),
    ("nope: 5\n", [], "unknown config key: nope"),
    ("rewards: {beta: 3}\n", [], "unknown config key: rewards"),
    ("reward: {betta: 3}\n", [], "unknown config key: reward.betta"),
    ("5: 3\n", [], "unknown config key: 5"),
    ("reward: {5: 3}\n", [], "unknown config key: reward.5"),
    # the file's sections in order, each checked before the next
    ("reward: {betta: 3}\ntrain: 5\n", [], "unknown config key: reward.betta"),
    # the file before the overrides, and every override's form before any name
    ("nope: 5\n", ["beta=4"], "unknown config key: nope"),
    (None, ["rewards.beta=4", "beta=4"], "override key must be section.key: beta"),
]


@pytest.mark.parametrize("text, overrides, message", _MESSAGES,
                         ids=[f"{text!r}-{overrides}" for text, overrides, _ in _MESSAGES])
def test_config_error_message(tmp_path, text, overrides, message):
    path = None
    if text is not None:
        path = tmp_path / "exp.yaml"
        path.write_text(text)
    with pytest.raises(ConfigError) as info:
        load_config(path, overrides)
    assert str(info.value) == message


class TestParseOverrides:
    def test_typed_values(self):
        update = parse_overrides(
            ["reward.beta=8", "data.noise_rel=0.5", "run.seeds=[1,2]", "space.file=x.yaml"]
        )
        assert update == {"reward.beta": 8, "data.noise_rel": 0.5, "run.seeds": [1, 2],
                          "space.file": "x.yaml"}

    def test_null_value(self):
        assert parse_overrides(["train.budget=null"]) == {"train.budget": None}


# Every setting's kind and accepted values, written out here and not read
# from config.py, so that a rewrite of its table is checked against them:
# (setting, kind as the error message names it, accepted range as the
# message writes it, a value inside it). A null is accepted only where the
# default is null.
_NULLABLE = {"space.cycles", "space.step_fraction", "train.budget"}
_RANGES = [
    ("space.cycles", "an integer", "[1, inf)", "3"),
    ("space.step_fraction", "a number", "(0, 1]", "0.5"),
    ("reward.beta", "a number", "(0, inf)", "2.5"),
    ("reward.lambda", "a number", "[0, 1]", "0.5"),
    ("reward.k_tail", "an integer", "[1, 6]", "3"),
    ("reward.lo_level", "a number", "(0, 1)", "0.5"),
    ("reward.hi_level", "a number", "(0, 1)", "0.5"),
    ("reward.warmup", "an integer", "[2, inf)", "100"),
    ("data.contexts_seed", "an integer", "[0, inf)", "11"),
    ("data.noise_rel", "a number", "[0, inf)", "0.2"),
    ("data.days", "an integer", "[14, inf)", "90"),
    ("data.truth_key", "a non-empty list of integers", "[0, inf)", "[2, 0, 1]"),
    ("train.steps", "an integer", "[1, inf)", "50"),
    ("train.batch", "an integer", "[1, inf)", "8"),
    ("train.lr", "a number", "(0, inf)", "0.01"),
    ("train.log_z_lr", "a number", "(0, inf)", "0.5"),
    ("train.explore_eps", "a number", "[0, 1]", "0.5"),
    ("train.hidden", "a non-empty list of integers", "[1, inf)", "[32, 8]"),
    ("train.n_samples", "an integer", "[1, inf)", "100"),
    ("train.budget", "an integer", "[1, inf)", "500"),
    ("baseline.budget", "an integer", "[1, inf)", "500"),
    ("baseline.gamma", "a number", "(0, 1)", "0.5"),
    ("baseline.n_candidates", "an integer", "[1, inf)", "8"),
    ("baseline.startup", "an integer", "[1, inf)", "5"),
    ("run.seeds", "a non-empty list of integers", "[0, inf)", "[4, 5]"),
    ("run.enum_cap", "an integer", "[0, inf)", "1000"),
]
# the string settings: a value each accepts, and the message that refuses 5
_STRINGS = [
    ("space.file", "builtin", "space.file must be a string, got 5"),
    ("run.method", "random", "unknown method: 5"),
    ("run.out_dir", "elsewhere", "run.out_dir must be a string, got 5"),
]


def _bound_cases(kind: str, interval: str):
    """(value, accepted) at each finite bound of `interval`, and, beside a
    closed bound, a value just outside it (so [0] for train.hidden)."""
    lo, hi = interval[1:-1].split(", ")
    step = 0.5 if kind == "a number" else 1
    form = "[{}]" if kind.endswith("list of integers") else "{}"
    for bound, closed, outside in ((lo, interval[0] == "[", -step),
                                   (hi, interval[-1] == "]", step)):
        if bound != "inf":
            yield form.format(bound), closed
            if closed:
                yield form.format(type(step)(bound) + outside), False


def _setting_cases():
    for dotted, kind, interval, inside in _RANGES:
        refused = f"{dotted} must be {kind} in {interval}, got "
        yield f"{dotted}={inside}", None
        for value, accepted in _bound_cases(kind, interval):
            yield f"{dotted}={value}", None if accepted else refused
        bad = ["true", "x", "[]"]
        bad += ["[1, -1]"] if kind.endswith("list of integers") else []
        bad += ["2.5"] if kind == "an integer" else []
        bad += [] if dotted in _NULLABLE else ["null"]
        for value in bad:
            yield f"{dotted}={value}", refused
        if dotted in _NULLABLE:
            yield f"{dotted}=null", None
    for dotted, inside, refused_5 in _STRINGS:
        yield f"{dotted}={inside}", None
        yield f"{dotted}=5", refused_5
        yield f"{dotted}=null", refused_5.replace("5", "None")
    yield "run.method=annealing", "unknown method: annealing"
    yield "run.method=tpe", None
    yield "run.method=gflownet", None


class TestEverySetting:
    def test_the_table_names_every_setting_once(self):
        names = [row[0] for row in _RANGES + _STRINGS]
        assert len(names) == len(set(names)) == 29
        assert set(names) == set(SETTINGS)

    @pytest.mark.parametrize(
        "override, refused",
        [pytest.param(*case, id=f"{case[0]}-{'ok' if case[1] is None else 'refused'}")
         for case in _setting_cases()],
    )
    def test_accepted_and_refused_values(self, override, refused):
        if refused is None:
            dotted, raw = override.split("=")
            assert load_config(overrides=[override])[dotted] == yaml.safe_load(raw)
        else:
            with pytest.raises(ConfigError, match=re.escape(refused)):
                load_config(overrides=[override])
