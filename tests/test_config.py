import pytest

from gfnadapt.config import (
    ConfigError,
    load_config,
    parse_overrides,
)


class TestDefaults:
    def test_load_without_file(self):
        cfg = load_config()
        assert cfg["reward.beta"] == 4.0
        assert cfg["data.truth_key"] == [2, 1, 3, 1, 4]
        assert cfg["run.seeds"] == [1, 2, 3]
        assert cfg["train.log_z_lr"] == 0.1

    def test_dotted_lookup(self):
        cfg = load_config()
        assert cfg["baseline.gamma"] == cfg.values["baseline"]["gamma"] == 0.25
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

    def test_negative_noise(self):
        with pytest.raises(ConfigError, match="noise_rel"):
            load_config(overrides=["data.noise_rel=-0.1"])

    def test_non_mapping_file(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("- just\n- a list\n")
        with pytest.raises(ConfigError, match="not a mapping"):
            load_config(path)


class TestParseOverrides:
    def test_typed_values(self):
        update = parse_overrides(
            ["reward.beta=8", "data.noise_rel=0.5", "run.seeds=[1,2]", "space.file=x.yaml"]
        )
        assert update["reward"]["beta"] == 8
        assert update["data"]["noise_rel"] == 0.5
        assert update["run"]["seeds"] == [1, 2]
        assert update["space"]["file"] == "x.yaml"

    def test_null_value(self):
        assert parse_overrides(["train.budget=null"])["train"]["budget"] is None
