import csv
import json
import os
import shutil
import struct
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gfnadapt import baselines, cli, gflownet, landscape, rewards
from gfnadapt.cli import Workspace, cmd_train, main
from gfnadapt.config import SETTINGS, ConfigError, ExperimentConfig, load_config
from gfnadapt.simulator import builtin_space
from gfnadapt.space import load_yaml

# full crop parameter set, but only two small action groups: 6 terminals
TINY_SPACE_YAML = """\
cycles: 1
step_fraction: 0.3
parameters:
  - {name: LAI_max,     lower: 2.0,    upper: 5.0,    baseline: 3.2,   group: 1}
  - {name: SLA,         lower: 10.0,   upper: 30.0,   baseline: 20.0,  group: 1}
  - {name: n_plants,    lower: 2.0,    upper: 4.0,    baseline: 2.5,   group: 1}
  - {name: P_max,       lower: 0.005,  upper: 0.04,   baseline: 0.02,  group: 2}
  - {name: alpha_light, lower: 0.0005, upper: 0.004,  baseline: 0.002, group: 2}
  - {name: co2_half,    lower: 300.0,  upper: 1000.0, baseline: 600.0, group: 2}
  - {name: T_opt,       lower: 16.0,   upper: 28.0,   baseline: 22.0,  group: 3}
  - {name: T_width,     lower: 4.0,    upper: 14.0,   baseline: 8.0,   group: 3}
  - {name: s_sharp,     lower: 0.2,    upper: 1.5,    baseline: 0.6,   group: 3}
  - {name: TS_start,    lower: 50.0,   upper: 400.0,  baseline: 150.0, group: 4}
  - {name: TS_end,      lower: 250.0,  upper: 800.0,  baseline: 450.0, group: 4}
  - {name: dev_rate,    lower: 0.5,    upper: 2.0,    baseline: 1.0,   group: 4}
  - {name: rg_fruit,    lower: 0.3,    upper: 0.9,    baseline: 0.6,   group: 5}
  - {name: c_maint,     lower: 0.005,  upper: 0.03,   baseline: 0.015, group: 5}
  - {name: Q10,         lower: 1.5,    upper: 3.0,    baseline: 2.0,   group: 5}
groups:
  - order: 1
    name: canopy
    actions:
      - {name: none}
      - {name: increase, signs: {LAI_max: 1, SLA: 1, n_plants: 1}}
  - order: 2
    name: photosynthesis
    actions:
      - {name: none}
      - {name: increase, signs: {P_max: 1}}
      - {name: decrease, signs: {P_max: -1}}
"""


@pytest.fixture()
def workspace(tmp_path):
    """Config file over a six-terminal space, sized for fast end-to-end runs."""
    space_path = tmp_path / "space.yaml"
    space_path.write_text(TINY_SPACE_YAML)
    config_path = tmp_path / "exp.yaml"
    config_path.write_text(
        f"""\
space:
  file: {space_path}
reward:
  warmup: 6
data:
  contexts_seed: 3
  days: 60
  truth_key: [1, 2]
train:
  steps: 60
  batch: 8
  hidden: [16, 16]
  n_samples: 50
baseline:
  budget: 30
run:
  seeds: [1]
  out_dir: {tmp_path / "runs"}
"""
    )
    return config_path


@pytest.mark.parametrize("which", ["builtin", "tiny"])
def test_c_and_python_yaml_parsers_agree(which):
    # load_yaml parses with libyaml's CSafeLoader where PyYAML has it
    text = TINY_SPACE_YAML if which == "tiny" else (
        resources.files("gfnadapt").joinpath("data/greenhouse_space_v1.yaml").read_text())
    c_loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    python_doc = yaml.load(text, Loader=yaml.SafeLoader)
    assert yaml.load(text, Loader=c_loader) == python_doc
    assert load_yaml(text) == python_doc


def space_with_actions(tmp_path, n):
    """The workspace space with n actions in its second group."""
    doc = yaml.safe_load(TINY_SPACE_YAML)
    doc["groups"][1]["actions"] += [
        {"name": f"up{i}", "signs": {"P_max": 1}} for i in range(n - 3)
    ]
    path = tmp_path / f"space_{n}_actions.yaml"
    path.write_text(yaml.safe_dump(doc))
    return path


def run(config_path, command, *overrides):
    argv = [command, "--config", str(config_path)]
    for pair in overrides:
        argv += ["--set", pair]
    return main(argv)


def out_root(config_path, *overrides):
    return load_config(config_path, list(overrides)).out_root()


def _edit_header(ckpt, field, value):
    """Set a checkpoint header's `field` to `value`, or drop it for None;
    the parameter block stays as it is."""
    blob = ckpt.read_bytes()
    hlen = struct.unpack("<I", blob[:4])[0]
    header = json.loads(blob[4 : 4 + hlen])
    if value is None:
        del header[field]
    else:
        header[field] = value
    bad = json.dumps(header, sort_keys=True).encode()
    ckpt.write_bytes(struct.pack("<I", len(bad)) + bad + blob[4 + hlen :])


class TestExitCodes:
    def test_unknown_config_key(self, workspace):
        assert run(workspace, "enumerate", "reward.nope=1") == 1

    def test_missing_config_file(self, tmp_path):
        assert main(["enumerate", "--config", str(tmp_path / "absent.yaml")]) == 1

    def test_enum_cap_exceeded(self, workspace):
        assert run(workspace, "enumerate", "run.enum_cap=2") == 1

    def test_baseline_needs_baseline_method(self, workspace):
        assert run(workspace, "baseline") == 1  # default method is gflownet

    def test_sample_without_checkpoint(self, workspace):
        assert run(workspace, "sample") == 2

    # aggregate losses on the built-in space run from -0.12 to 2.75: at
    # beta=20000 rewards overflow to inf below loss 0 and underflow to 0
    # above about 0.04; at beta=400 the worst keys' underflow to 0
    @pytest.mark.parametrize("command, beta", [("enumerate", 20000), ("train", 400)])
    def test_reward_outside_float64_range_exits_2(
        self, tmp_path, capsys, monkeypatch, command, beta
    ):
        monkeypatch.setenv("GFNADAPT_CACHE_DIR", str(tmp_path / "cache"))
        assert main([
            command, "--set", f"run.out_dir={tmp_path / 'runs'}", "--set", "run.seeds=[1]",
            "--set", "train.steps=10", "--set", f"reward.beta={beta}",
        ]) == 2
        assert "reward.beta" in capsys.readouterr().err
        assert not [*(tmp_path / "runs").rglob("landscape.csv")]
        assert not [*(tmp_path / "runs").rglob("checkpoint.bin")]

    # at 1e308 the noise overflows to inf, and 0 * inf is NaN
    def test_overflowing_noise_exits_2_before_the_cache_opens(self, tmp_path, capsys,
                                                               monkeypatch):
        monkeypatch.setenv("GFNADAPT_CACHE_DIR", str(tmp_path / "cache"))
        assert main(["enumerate", "--set", f"run.out_dir={tmp_path / 'runs'}",
                     "--set", "data.noise_rel=1.0e308"]) == 2
        assert "noise_rel" in capsys.readouterr().err
        assert not [*tmp_path.rglob("rewards.bin")]
        assert not [*tmp_path.rglob("enumerate")]

    @pytest.mark.parametrize("command, module, name, overrides", [
        ("enumerate", landscape, "build_landscape", []),
        ("train", gflownet, "train", []),
        ("baseline", baselines, "random_search", ["run.method=random"]),
    ])
    def test_memory_exhaustion_exits_2_with_one_error_line(
        self, workspace, capsys, monkeypatch, command, module, name, overrides
    ):
        def exhausted(*args, **kwargs):
            # numpy's error for an allocation it cannot make; nothing is allocated
            raise MemoryError("Unable to allocate 149. GiB for an array with shape "
                              "(20000000000,) and data type float64")

        monkeypatch.setattr(module, name, exhausted)
        assert run(workspace, command, *overrides) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Unable to allocate 149. GiB" in err

    # at a learning rate of 1e308 the first Adam step overflows the parameters
    # (or log_z) to inf, so step 2's loss is not finite. Run in a new process,
    # where numpy's RuntimeWarnings would reach stderr as they do for a user
    @pytest.mark.parametrize("setting", ["train.lr", "train.log_z_lr"])
    def test_diverging_train_writes_one_error_line(self, workspace, tmp_path, setting):
        env = {**os.environ, "PYTHONPATH": str(Path(gflownet.__file__).parents[1])}
        env.pop("GFNADAPT_CACHE_DIR", None)
        proc = subprocess.run(
            [sys.executable, "-W", "default", "-m", "gfnadapt.cli", "train",
             "--config", str(workspace), "--set", f"{setting}=1e308",
             "--set", "train.steps=3"],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert proc.returncode == 2
        assert proc.stderr == "error: trajectory balance loss diverged at step 2\n"

    def test_report_without_traces(self, workspace):
        assert run(workspace, "report") == 2

    def test_failed_report_leaves_no_report_directory(self, workspace, capsys):
        assert run(workspace, "report") == 2
        assert "no traces found" in capsys.readouterr().err
        assert not (out_root(workspace) / "report").exists()

    @pytest.mark.parametrize(
        "override",
        [
            "train.steps=0",
            "train.batch=0",
            "reward.k_tail=9",
            "train.hidden=5",
            "run.seeds=5",
            "train.hidden=[0]",
            "data.truth_key=[1]",  # the workspace space has 2 slots
            "data.truth_key=[1,3]",  # slot 1 has 3 actions
            "reward.beta=abc",
            "train.lr=abc",
            "run.enum_cap=abc",
            "data.days=abc",
            "reward.lo_level=0.99",
            "baseline.gamma=2",
            "reward.warmup=1",  # one key fits q_lo == q_hi in every context
        ],
    )
    def test_out_of_range_rejected_before_work(self, workspace, override):
        assert run(workspace, "train", override) == 1
        assert not (workspace.parent / "runs").exists()  # no scoring, no done

    # the reward cache holds a key in one byte per slot, behind a one-byte
    # key length: at most 255 slots and 256 actions per group
    @pytest.mark.parametrize("cycles, refused", [(51, False), (52, True)])
    def test_slot_limit(self, cycles, refused):
        cfg = load_config(None, [f"space.cycles={cycles}"])  # built-in space: 5 groups
        if refused:
            with pytest.raises(ConfigError, match="at most 255 slots"):
                Workspace(cfg)
        else:
            assert Workspace(cfg).space.slots == 255

    @pytest.mark.parametrize("n_actions, refused", [(256, False), (257, True)])
    def test_action_limit(self, workspace, tmp_path, n_actions, refused):
        cfg = load_config(workspace, [f"space.file={space_with_actions(tmp_path, n_actions)}"])
        if refused:
            with pytest.raises(ConfigError, match="256 actions per group"):
                Workspace(cfg)
        else:
            assert Workspace(cfg).space.slot_radices == (2, 256)

    @pytest.mark.parametrize(
        "command, override",
        [("baseline", "space.cycles=128"), ("enumerate", "space.file={actions_257}")],
        ids=["256-slots", "257-actions"],
    )
    def test_unencodable_space_exits_1_before_simulating(self, workspace, tmp_path, capsys,
                                                         monkeypatch, command, override):
        def simulate_batch(*args):
            raise AssertionError("simulated")

        monkeypatch.setattr(rewards, "simulate_batch", simulate_batch)
        override = override.format(actions_257=space_with_actions(tmp_path, 257))
        assert run(workspace, command, override, "run.method=random") == 1
        assert "the reward cache encodes at most" in capsys.readouterr().err
        assert not (workspace.parent / "runs").exists()  # no cache file, no stage directory

    def test_space_without_simulator_parameter_exits_1_before_simulating(
        self, workspace, tmp_path, capsys
    ):
        doc = yaml.safe_load(TINY_SPACE_YAML)
        doc["parameters"] = [p for p in doc["parameters"] if p["name"] != "Q10"]
        bad = tmp_path / "bad_space.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert run(workspace, "enumerate", f"space.file={bad}") == 1
        assert "['Q10']" in capsys.readouterr().err
        assert not (workspace.parent / "runs").exists()  # no cache file, no stage directory

    def test_torn_quantile_table_exits_2_naming_it(self, workspace, capsys):
        assert run(workspace, "enumerate") == 0
        path = load_config(workspace).cache_dir() / "quantiles.json"
        whole = path.read_bytes()
        path.write_bytes(whole[:40])
        capsys.readouterr()
        assert run(workspace, "baseline", "run.method=tpe") == 2
        err = capsys.readouterr().err
        assert str(path) in err and "delete it to refit" in err
        assert not (out_root(workspace) / "baseline-tpe").exists()
        path.unlink()
        assert run(workspace, "baseline", "run.method=tpe") == 0
        assert path.read_bytes() == whole

    # the workspace has six contexts; each edit loads without a JSON error
    @pytest.mark.parametrize("edit", [
        {"q_lo": 0.0, "q_hi": 1.0},             # scalars broadcast over every context
        {"q_lo": [0.1, 0.2, 0.3]},              # three entries for six contexts
        {"q_hi": [[1.0] * 6]},                  # (1, 6) broadcasts too
        {"q_lo": [0.1] * 5 + [None]},           # null reads as NaN
        {"q_hi": [1.0] * 5 + [float("inf")]},
        {"eps": "x"},                           # no arithmetic on a string
        {"eps": float("nan")},                  # NaN rewards, blamed on reward.beta
        {"eps": True},                          # a bool is not a number here
        {"lo_level": [1]},
        {"hi_level": 0.01},                     # below lo_level 0.05
    ])
    def test_quantile_table_of_the_wrong_shape_exits_2_naming_it(self, workspace, capsys, edit):
        assert run(workspace, "enumerate") == 0
        path = load_config(workspace).cache_dir() / "quantiles.json"
        whole = path.read_bytes()
        path.write_text(json.dumps({**json.loads(whole), **edit}))
        capsys.readouterr()
        assert run(workspace, "baseline", "run.method=random") == 2
        err = capsys.readouterr().err
        assert str(path) in err and "delete it to refit" in err
        assert not (out_root(workspace) / "baseline-random").exists()
        path.unlink()
        assert run(workspace, "baseline", "run.method=random") == 0
        assert path.read_bytes() == whole

    @pytest.mark.parametrize("missing", ["parameters", "groups", "cycles", "step_fraction"])
    def test_space_file_without_key_exits_1(self, workspace, tmp_path, capsys, missing):
        doc = yaml.safe_load(TINY_SPACE_YAML)
        del doc[missing]
        bad = tmp_path / "bad_space.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert run(workspace, "enumerate", f"space.file={bad}") == 1
        assert f"'{missing}'" in capsys.readouterr().err

    def test_space_file_not_a_mapping_exits_1(self, workspace, tmp_path):
        bad = tmp_path / "bad_space.yaml"
        bad.write_text("- cycles\n- 1\n")
        assert run(workspace, "enumerate", f"space.file={bad}") == 1

    def test_missing_space_file_exits_1(self, workspace, tmp_path, capsys):
        absent = tmp_path / "absent_space.yaml"
        assert run(workspace, "enumerate", f"space.file={absent}") == 1
        assert str(absent) in capsys.readouterr().err

    def test_corrupt_cache_record_exits_2(self, workspace, capsys):
        assert run(workspace, "enumerate") == 0
        path = load_config(workspace).cache_dir() / "rewards.bin"
        blob = bytearray(path.read_bytes())
        size = (len(blob) - 8) // 6  # header, then one record per terminal
        blob[8 + 2 * size + 3] ^= 0x01  # inside the third record
        path.write_bytes(bytes(blob))
        assert run(workspace, "train") == 2
        assert f"record at byte {8 + 2 * size} fails its CRC32" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["[", "{a: 1", "!!python/object:os.system x", "'a"])
    def test_unparsable_override_exits_1(self, workspace, capsys, value):
        assert run(workspace, "enumerate", f"reward.beta={value}") == 1
        assert "reward.beta" in capsys.readouterr().err

    def test_unparsable_space_file_exits_1(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad_space.yaml"
        bad.write_text("parameters: [\n")
        assert run(workspace, "enumerate", f"space.file={bad}") == 1
        assert f"space.file {bad} is not valid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["config", "space.file"])
    def test_file_that_is_not_utf8_exits_1_naming_it(self, workspace, tmp_path, capsys, where):
        bad = tmp_path / "bad.yaml"
        if where == "config":
            bad.write_bytes(workspace.read_bytes() + b"# caf\xff\n")
            argv = ["train", "--config", str(bad)]
        else:
            bad.write_bytes(TINY_SPACE_YAML.encode() + b"# caf\xff\n")
            argv = ["train", "--config", str(workspace), "--set", f"space.file={bad}"]
        assert main(argv) == 1  # an exception escaping main is a traceback
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err
        assert not (workspace.parent / "runs").exists()

    def test_space_listing_a_parameter_twice_exits_1_before_simulating(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        def simulate_batch(*args):
            raise AssertionError("simulated")

        monkeypatch.setattr(rewards, "simulate_batch", simulate_batch)
        doc = load_yaml(
            resources.files("gfnadapt").joinpath("data/greenhouse_space_v1.yaml").read_text())
        [lai_max] = [p for p in doc["parameters"] if p["name"] == "LAI_max"]
        doc["parameters"].append(dict(lai_max, group=2, lower=1.0))
        bad = tmp_path / "bad_space.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert run(workspace, "enumerate", f"space.file={bad}") == 1
        assert "parameter LAI_max is listed twice" in capsys.readouterr().err
        assert not (workspace.parent / "runs").exists()  # no cache file, no stage directory

    def test_space_file_is_a_directory_exits_1(self, workspace, tmp_path):
        assert run(workspace, "enumerate", f"space.file={tmp_path}") == 1

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["parameters"][0].pop("lower"),
            lambda doc: doc["parameters"][0].update(lower=9.0),  # above its upper bound
            lambda doc: doc["groups"][0].update(actions=None),
            lambda doc: doc["groups"][0].update(order="first"),
            lambda doc: doc.update(groups=[]),
        ],
        ids=["missing-bound", "inverted-bounds", "actions-not-a-list", "order-not-a-number",
             "no-groups"],
    )
    def test_malformed_space_definition_exits_1(self, workspace, tmp_path, capsys, edit):
        doc = yaml.safe_load(TINY_SPACE_YAML)
        edit(doc)
        bad = tmp_path / "bad_space.yaml"
        bad.write_text(yaml.safe_dump(doc))
        assert run(workspace, "enumerate", f"space.file={bad}") == 1
        assert "invalid space definition" in capsys.readouterr().err


# every config key and a few that are not; values mostly small and in range
# (so that runs get past validation), the rest of every YAML shape
_CONFIG_KEYS = list(SETTINGS)
_JUNK_KEYS = ["nope.x", "reward", "reward.beta.x", "run.", ".beta", "space.file.x"]
_VALUES = st.one_of(
    st.integers(0, 20).map(str),
    st.floats(0.0, 1.5).map(repr),
    st.lists(st.integers(0, 4), min_size=1, max_size=4).map(str),
    st.sampled_from(["null", "random", "tpe", "2", "1", "0.5"]),
    st.sampled_from([
        "", "~", "true", "no", "abc", "x/y", "[]", "[1.5]", "[true]", "{a: 1}", "[", "{",
        "'a", "-3", "1e309", ".nan", "-.inf", "2020-01-01", "!!binary aGk=", "gflownet",
        "\x00", "a=b",
    ]),
)
_PAIR = st.tuples(st.sampled_from(_CONFIG_KEYS + _JUNK_KEYS), _VALUES).map("=".join)
_PAIRS = st.tuples(
    st.lists(_PAIR, max_size=3),
    # now and then a pair that lacks its '=' or its key
    st.sampled_from([[]] * 6 + [["reward.beta"], ["="], ["=="]]),
).map(lambda lists: lists[0] + lists[1])


class TestConfigFuzz:
    """Whatever `--set` pairs are given, the CLI exits 0, 1 or 2 and prints
    no traceback."""

    @settings(
        max_examples=40, deadline=None, database=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(method=st.sampled_from(["random", "tpe"]), pairs=_PAIRS)
    def test_random_overrides(self, workspace, monkeypatch, capsys, method, pairs):
        # relative out_dir values land in the test's directory
        monkeypatch.chdir(workspace.parent)
        monkeypatch.setenv("GFNADAPT_CACHE_DIR", str(workspace.parent / "fuzz-cache"))
        argv = ["baseline", "--config", str(workspace), "--set", f"run.method={method}",
                "--set", "baseline.budget=12"]
        for pair in pairs:
            argv += ["--set", pair]
        assert main(argv) in (0, 1, 2)  # an exception escaping main is a traceback
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err


class TestEnumerate:
    def test_artifacts(self, workspace):
        assert run(workspace, "enumerate") == 0
        out = out_root(workspace) / "enumerate"
        for name in ["landscape.csv", "grid.json", "basins.json", "quantiles.json",
                     "meta.json", "done"]:
            assert (out / name).exists()
        with open(out / "landscape.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        meta = json.loads((out / "meta.json").read_text())
        assert meta["simulated"] == 6
        assert meta["config_hash"] == load_config(workspace).run_hash()

    def test_rerun_skips(self, workspace):
        assert run(workspace, "enumerate") == 0
        out = out_root(workspace) / "enumerate"
        before = (out / "landscape.csv").stat().st_mtime_ns
        assert run(workspace, "enumerate") == 0
        assert (out / "landscape.csv").stat().st_mtime_ns == before

    def test_space_file_edit_moves_hashes_and_rescores(self, workspace):
        assert run(workspace, "enumerate") == 0
        before = load_config(workspace)
        (before.out_root() / "enumerate" / "done").unlink()  # force a re-run
        space_path = workspace.parent / "space.yaml"
        edited = TINY_SPACE_YAML.replace("lower: 0.005,  upper: 0.04", "lower: 0.002,  upper: 0.06")
        assert edited != TINY_SPACE_YAML
        space_path.write_text(edited)
        after = load_config(workspace)
        assert after.reward_hash() != before.reward_hash()
        assert after.run_hash() != before.run_hash()
        assert run(workspace, "enumerate") == 0
        meta = json.loads((after.out_root() / "enumerate" / "meta.json").read_text())
        assert meta["simulated"] > 0  # not served the old space's losses

    def test_rerun_after_marker_removal_hits_cache(self, workspace):
        assert run(workspace, "enumerate") == 0
        out = out_root(workspace) / "enumerate"
        first = (out / "landscape.csv").read_bytes()
        (out / "done").unlink()
        assert run(workspace, "enumerate") == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["sim_evals"] == 0  # every loss served from the cache
        assert (out / "landscape.csv").read_bytes() == first


    def test_quantile_fit_does_not_depend_on_enum_cap(self, tmp_path, monkeypatch):
        # the built-in space: its 2625 terminals are more than a warm-up fit
        # covers. A baseline under run.enum_cap=0 fits the shared table first
        def enumerate_after(cache, out, *stages):
            monkeypatch.setenv("GFNADAPT_CACHE_DIR", str(tmp_path / cache))
            where = f"run.out_dir={tmp_path / out}"
            for stage in [*stages, ["enumerate"]]:
                argv = [stage[0], "--set", where]
                for pair in stage[1:]:
                    argv += ["--set", pair]
                assert main(argv) == 0, stage
            return load_config(overrides=[where]).out_root() / "enumerate"

        shared = enumerate_after(
            "shared", "runs", ["baseline", "run.enum_cap=0", "run.method=random",
                               "baseline.budget=5", "run.seeds=[1]"])
        fresh = enumerate_after("fresh", "fresh-runs")
        for name in ("landscape.csv", "quantiles.json"):
            assert (shared / name).read_bytes() == (fresh / name).read_bytes(), name


class TestPipeline:
    def test_end_to_end(self, workspace):
        assert run(workspace, "enumerate") == 0
        assert run(workspace, "train") == 0
        assert run(workspace, "sample") == 0
        assert run(workspace, "baseline", "run.method=random") == 0
        assert run(workspace, "baseline", "run.method=tpe") == 0
        assert run(workspace, "report") == 0

        root = out_root(workspace)
        for rel in [
            "train/1/checkpoint.bin",
            "train/1/train_log.csv",
            "train/1/trace.csv",
            "sample/1/samples.csv",
            "baseline-random/1/trace.csv",
            "baseline-tpe/1/trace.csv",
            "report/comparison.csv",
            "report/report.json",
        ]:
            assert (root / rel).exists(), rel

        with open(root / "report" / "comparison.csv") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["gflownet", "random", "tpe"]

        doc = json.loads((root / "report" / "report.json").read_text())
        assert doc["config_hash"] == load_config(workspace).run_hash()
        assert "1" in doc["l1_exact_vs_learned"]
        assert 0.0 <= doc["l1_exact_vs_learned"]["1"] <= 2.0
        methods = {r["method"] for r in doc["reports"]}
        assert methods == {"gflownet", "random", "tpe"}
        for r in doc["reports"]:
            assert r["topk_recovery"]  # landscape was available

    def test_every_stage_hands_the_scorer_key_tuples(self, workspace, monkeypatch):
        # a stage holds its keys as an (n, slots) array, but the scorer's
        # cache lookup (and a tracer hashing tuple(keys)) needs a sequence of
        # hashable keys: every call must get a list of tuples of ints
        stages = [("enumerate",), ("train",), ("sample",), ("baseline", "run.method=random"),
                  ("baseline", "run.method=tpe"), ("report",)]
        calls = {stage: [] for stage in stages}
        current = []
        score = rewards.TerminalScorer.score

        def recording(self, keys):
            calls[current[-1]].append(keys)
            return score(self, keys)

        monkeypatch.setattr(rewards.TerminalScorer, "score", recording)
        for stage in stages:
            current.append(stage)
            assert run(workspace, stage[0], "train.steps=3", *stage[1:]) == 0
        for stage, args in calls.items():
            assert args, f"{stage} never called the scorer"
            for keys in args:
                assert isinstance(keys, list) and keys
                assert all(type(key) is tuple and len(key) == 2 for key in keys)
                assert all(type(a) is int for key in keys for a in key)
                assert len(set(tuple(keys))) <= len(keys)

    def test_budget_counts_requested_keys_whatever_the_cache_holds(self, workspace, tmp_path):
        # cold: the quantile fit simulates every terminal inside train;
        # warm: enumerate filled the cache first, so train simulates nothing
        budget = ["train.batch=1", "train.budget=5"]
        cold = tmp_path / "cold"
        assert run(workspace, "train", f"run.out_dir={cold}", *budget) == 0
        assert run(workspace, "enumerate", *budget) == 0
        assert run(workspace, "train", *budget) == 0
        dirs = [out_root(workspace, f"run.out_dir={cold}", *budget) / "train" / "1",
                out_root(workspace, *budget) / "train" / "1"]
        for name in ("train_log.csv", "trace.csv"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
        for d in dirs:
            assert json.loads((d / "meta.json").read_text())["stopped_early"]
        with open(dirs[0] / "train_log.csv") as fh:
            rows = list(csv.reader(fh))[2:]
        assert int(rows[-1][3]) == 5  # distinct keys requested at the stop
        assert int(rows[-2][3]) < 5

    def test_meta_counts_scoring(self, workspace):
        assert run(workspace, "enumerate") == 0
        assert run(workspace, "train") == 0
        assert run(workspace, "sample") == 0
        assert run(workspace, "baseline", "run.method=random") == 0
        root = out_root(workspace)
        enum = json.loads((root / "enumerate" / "meta.json").read_text())
        assert (enum["requested"], enum["cache_hits"], enum["simulated"]) == (6, 6, 6)
        (root / "train" / "1" / "done").unlink()
        assert run(workspace, "train") == 0  # forced re-run
        for stage in ("train/1", "sample/1", "baseline-random/1"):
            meta = json.loads((root / stage / "meta.json").read_text())
            assert meta["simulated"] == meta["sim_evals"] == 0, stage
            assert meta["cache_hits"] == meta["requested"] > 0, stage
        meta = json.loads((root / "train" / "1" / "meta.json").read_text())
        assert meta["requested"] == 60 * 8  # steps x batch

    def test_meta_has_the_same_base_fields_in_every_stage(self, workspace):
        for command, *overrides in [("enumerate",), ("train",), ("sample",),
                                    ("baseline", "run.method=random")]:
            assert run(workspace, command, *overrides) == 0
        root = out_root(workspace)
        cfg = load_config(workspace)
        base = {"config_hash", "reward_hash", "wall_clock", "requested", "cache_hits",
                "simulated", "sim_evals"}
        own = {"enumerate": set(), "train/1": {"stopped_early"}, "sample/1": {"n_samples"},
               "baseline-random/1": {"budget"}}
        for stage, fields in own.items():
            meta = json.loads((root / stage / "meta.json").read_text())
            seed = {"seed"} if "/" in stage else set()
            assert set(meta) == base | seed | fields, stage
            assert (meta["config_hash"], meta["reward_hash"]) == (
                cfg.run_hash(), cfg.reward_hash()), stage
            assert meta["wall_clock"] > 0.0, stage
            assert meta.get("seed", 1) == 1, stage

    def test_train_idempotent(self, workspace):
        assert run(workspace, "train") == 0
        ckpt = out_root(workspace) / "train" / "1" / "checkpoint.bin"
        before = ckpt.stat().st_mtime_ns
        assert run(workspace, "train") == 0
        assert ckpt.stat().st_mtime_ns == before

    def test_methods_share_run_root_and_cache(self, workspace):
        assert run(workspace, "baseline", "run.method=random") == 0
        assert run(workspace, "baseline", "run.method=tpe") == 0
        root = out_root(workspace)
        assert (root / "baseline-random" / "1" / "done").exists()
        assert (root / "baseline-tpe" / "1" / "done").exists()
        # six terminals total: the second method's run can only hit the cache
        meta = json.loads((root / "baseline-tpe" / "1" / "meta.json").read_text())
        assert meta["simulated"] == 0
        assert meta["cache_hits"] == meta["requested"] > 0
        cfg = load_config(workspace)
        assert (cfg.cache_dir() / "rewards.bin").exists()

    def test_report_reads_the_run_seeds_not_the_directory_listing(self, workspace):
        # a stray file beside the seed directories; the baselines have no
        # stage directory, so they are skipped
        assert run(workspace, "train") == 0
        (out_root(workspace) / "train" / ".DS_Store").touch()
        assert run(workspace, "report") == 0
        doc = json.loads((out_root(workspace) / "report" / "report.json").read_text())
        assert [(r["method"], r["seed"]) for r in doc["reports"]] == [("gflownet", 1)]

    def test_report_bytes_do_not_depend_on_wall_clock(self, workspace):
        # a re-run stage takes another time; its wall_clock stays in
        # meta.json, so the report over the same traces keeps its bytes
        assert run(workspace, "train") == 0
        assert run(workspace, "report") == 0
        report = out_root(workspace) / "report"
        before = {path.name: path.read_bytes() for path in report.iterdir()}
        meta = out_root(workspace) / "train" / "1" / "meta.json"
        meta.write_text(json.dumps(dict(json.loads(meta.read_text()), wall_clock=123.0)))
        assert run(workspace, "report") == 0
        assert {path.name: path.read_bytes() for path in report.iterdir()} == before
        assert "wall_clock" not in json.loads(before["report.json"])["reports"][0]

    def test_report_rejects_foreign_trace(self, workspace):
        assert run(workspace, "train") == 0
        trace = out_root(workspace) / "train" / "1" / "trace.csv"
        lines = trace.read_text().splitlines()
        lines[0] = "# config_hash=000000000000"
        trace.write_text("\n".join(lines) + "\n")
        assert run(workspace, "report") == 2

    # a row appended to the trace: {i} is its 1-based position, {best} the
    # trace's best loss so far
    @pytest.mark.parametrize(
        "row",
        ["{i},1-2", "{i},1-", "{i},1-2,0.5", "{i},x-2,0.5,0.5", "{i},1-2,nan,0.5",
         "{i},1-2,inf,0.5", "{i},1-2,-inf,0.5", "{i},1-2,0.5,x", "{i},1-2,0.5,-1e9",
         "{i},1-2,-1e9,{best}", "7,1-2,0.5,{best}", "0,1-2,0.5,{best}", "x,1-2,0.5,{best}"],
        ids=["short", "torn-key", "without-best", "non-integer-action", "nan-loss", "inf-loss",
             "minus-inf-loss", "best-not-a-number", "best-below-the-running-minimum",
             "best-above-the-running-minimum", "iteration-not-the-position",
             "iteration-zero", "iteration-not-a-number"],
    )
    def test_malformed_trace_row_exits_2(self, workspace, capsys, row):
        assert run(workspace, "train") == 0
        trace = out_root(workspace) / "train" / "1" / "trace.csv"
        lines = trace.read_text().splitlines()
        row = row.format(i=len(lines) - 1, best=lines[-1].split(",")[3])
        trace.write_text("\n".join(lines + [row]) + "\n")
        capsys.readouterr()
        assert run(workspace, "report") == 2
        assert f"{trace}, line {len(lines) + 1}" in capsys.readouterr().err
        assert not (out_root(workspace) / "report").exists()

    def test_header_only_trace_exits_2_naming_it(self, workspace, capsys):
        assert run(workspace, "train") == 0
        trace = out_root(workspace) / "train" / "1" / "trace.csv"
        trace.write_text("\n".join(trace.read_text().splitlines()[:2]) + "\n")
        capsys.readouterr()
        assert run(workspace, "report") == 2
        assert capsys.readouterr().err == f"error: {trace} holds no trace rows\n"
        assert not (out_root(workspace) / "report").exists()

    def test_trace_without_its_header_exits_2_naming_it(self, workspace, capsys):
        # the first data row in the header's place used to be skipped unread
        assert run(workspace, "train") == 0
        trace = out_root(workspace) / "train" / "1" / "trace.csv"
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        capsys.readouterr()
        assert run(workspace, "report") == 2
        assert f"{trace}, line 2: " in capsys.readouterr().err
        assert not (out_root(workspace) / "report").exists()

    def test_trace_whose_reward_leaves_the_float64_range_exits_2_naming_it(
        self, workspace, capsys
    ):
        # the row passes every trace check, but exp(-beta * loss) overflows
        # at the default reward.beta of 4; report.json used to read Infinity
        assert run(workspace, "train") == 0
        trace = out_root(workspace) / "train" / "1" / "trace.csv"
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines[:2] + ["1,1-2,-1000.0,-1000.0"]) + "\n")
        capsys.readouterr()
        assert run(workspace, "report") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace}: reward.beta=4 gives ") and err.count("\n") == 1
        assert not (out_root(workspace) / "report").exists()

    def test_trace_that_is_not_utf8_exits_2_naming_it(self, workspace, capsys):
        assert run(workspace, "train") == 0
        trace = out_root(workspace) / "train" / "1" / "trace.csv"
        blob = bytearray(trace.read_bytes())
        blob[len(blob) // 2] = 0xFF
        trace.write_bytes(bytes(blob))
        capsys.readouterr()
        assert run(workspace, "report") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {trace} ") and "0xff" in err
        assert not (out_root(workspace) / "report").exists()

    # the workspace space has radices (2, 3): two slots
    @pytest.mark.parametrize(
        "row",
        ["{i},1-3,0.5,0.5", "{i},9-9,0.5,0.5", "{i},1,0.5,0.5", "{i},1-2-0,0.5,0.5"],
        ids=["action-out-of-range", "all-out-of-range", "not-terminal", "too-long"],
    )
    def test_trace_key_outside_space_exits_2(self, workspace, capsys, row):
        assert run(workspace, "train") == 0
        trace = out_root(workspace) / "train" / "1" / "trace.csv"
        lines = trace.read_text().splitlines()
        row = row.format(i=len(lines) - 1)
        trace.write_text("\n".join(lines + [row]) + "\n")
        capsys.readouterr()
        assert run(workspace, "report") == 2
        assert f"{trace}, line {len(lines) + 1}" in capsys.readouterr().err
        assert not (out_root(workspace) / "report").exists()

    def test_sample_refuses_train_output_without_done(self, workspace, capsys):
        # a train directory without `done` may hold a partial or stale checkpoint
        assert run(workspace, "train") == 0
        seed_dir = out_root(workspace) / "train" / "1"
        (seed_dir / "done").unlink()
        capsys.readouterr()
        assert run(workspace, "sample") == 2
        assert f"{seed_dir} is missing or incomplete" in capsys.readouterr().err
        assert not (out_root(workspace) / "sample").exists()

    @pytest.mark.parametrize("stage", ["train", "baseline-random"])
    def test_report_refuses_stage_output_without_done(self, workspace, capsys, stage):
        assert run(workspace, "train") == 0
        assert run(workspace, "baseline", "run.method=random") == 0
        seed_dir = out_root(workspace) / stage / "1"
        (seed_dir / "done").unlink()
        capsys.readouterr()
        assert run(workspace, "report") == 2
        assert f"{seed_dir} is missing or incomplete" in capsys.readouterr().err
        assert not (out_root(workspace) / "report").exists()

    @pytest.mark.parametrize(
        "old, new, field",
        [
            # one more canopy action: a different slot layout
            ("      - {name: increase, signs: {LAI_max: 1, SLA: 1, n_plants: 1}}\n",
             "      - {name: increase, signs: {LAI_max: 1, SLA: 1, n_plants: 1}}\n"
             "      - {name: decrease, signs: {LAI_max: -1}}\n",
             "slot_radices"),
            # same layout, other bounds: only the run hash tells them apart
            ("lower: 0.005,  upper: 0.04", "lower: 0.002,  upper: 0.06", "run_hash"),
        ],
        ids=["other-radices", "other-bounds"],
    )
    def test_checkpoint_of_another_space_refused(self, workspace, tmp_path, capsys, old, new,
                                                 field):
        assert run(workspace, "train") == 0
        other = tmp_path / "other_space.yaml"
        other.write_text(TINY_SPACE_YAML.replace(old, new))
        override = f"space.file={other}"
        dest = out_root(workspace, override) / "train" / "1"
        dest.mkdir(parents=True)
        for name in ("checkpoint.bin", "done"):
            shutil.copy(out_root(workspace) / "train" / "1" / name, dest)
        capsys.readouterr()
        assert run(workspace, "sample", override) == 2
        assert f"{field} is" in capsys.readouterr().err
        assert not (out_root(workspace, override) / "sample" / "1" / "done").exists()

    def test_checkpoint_header_names_version_4_and_float32(self, workspace):
        assert run(workspace, "train") == 0
        blob = (out_root(workspace) / "train" / "1" / "checkpoint.bin").read_bytes()
        hlen = struct.unpack("<I", blob[:4])[0]
        header = json.loads(blob[4 : 4 + hlen])
        assert (header["version"], header["dtype"]) == (4, "float32")
        n = sum(a * b + b for a, b in header["trunk_dims"] + header["head_dims"])
        assert len(blob) - 4 - hlen == 4 * n

    def test_version_3_checkpoint_exits_2(self, workspace, capsys):
        # version 3 headers had no "dtype" and a float64 parameter block
        assert run(workspace, "train") == 0
        ckpt = out_root(workspace) / "train" / "1" / "checkpoint.bin"
        blob = ckpt.read_bytes()
        hlen = struct.unpack("<I", blob[:4])[0]
        header = dict(json.loads(blob[4 : 4 + hlen]), version=3)
        del header["dtype"]
        old = json.dumps(header, sort_keys=True).encode()
        body = np.frombuffer(blob[4 + hlen :], dtype="<f4").astype("<f8").tobytes()
        ckpt.write_bytes(struct.pack("<I", len(old)) + old + body)
        capsys.readouterr()
        assert run(workspace, "sample") == 2
        assert "has version 3; this program reads version 4" in capsys.readouterr().err
        assert not (out_root(workspace) / "sample" / "1" / "done").exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("signature", None), ("trunk_dims", None), ("head_dims", None), ("log_z", None),
            ("signature", ["run_hash"]), ("trunk_dims", "16x16"), ("head_dims", [[16]]),
            ("log_z", "0.5"), ("log_z", float("nan")), ("log_z", float("inf")),
            # the workspace policy: feature_dim 9, trunk [[9, 16], [16, 16]],
            # heads [[16, 2], [16, 3]]; swapped heads keep the parameter count
            ("head_dims", [[16, 3], [16, 2]]), ("trunk_dims", [[10, 16], [16, 16]]),
        ],
        ids=["no-signature", "no-trunk_dims", "no-head_dims", "no-log_z", "signature-list",
             "trunk_dims-string", "head_dims-pair-short", "log_z-string", "log_z-nan",
             "log_z-inf",
             "head_dims-slots-swapped", "trunk_dims-not-from-feature_dim"],
    )
    def test_malformed_header_field_exits_2(self, workspace, capsys, field, value):
        # the version is current, so only the field itself can be at fault
        assert run(workspace, "train") == 0
        ckpt = out_root(workspace) / "train" / "1" / "checkpoint.bin"
        _edit_header(ckpt, field, value)
        capsys.readouterr()
        assert run(workspace, "sample") == 2
        err = capsys.readouterr().err
        assert str(ckpt) in err and repr(field) in err
        assert not (out_root(workspace) / "sample" / "1" / "done").exists()

    def test_checkpoint_of_another_policy_shape_exits_2_in_report(self, workspace, capsys):
        # report reads the checkpoint for its L1 once the landscape is enumerated
        assert run(workspace, "enumerate") == 0
        assert run(workspace, "train") == 0
        ckpt = out_root(workspace) / "train" / "1" / "checkpoint.bin"
        _edit_header(ckpt, "head_dims", [[16, 3], [16, 2]])
        capsys.readouterr()
        assert run(workspace, "report") == 2
        err = capsys.readouterr().err
        assert err == f"error: checkpoint {ckpt} has a missing or malformed header field 'head_dims'\n"
        assert not (out_root(workspace) / "report").exists()

    @pytest.mark.parametrize("command", ["sample", "report"])
    def test_checkpoint_with_nan_parameters_exits_2(self, workspace, capsys, command):
        # report reads the checkpoint for its L1 once the landscape is enumerated
        assert run(workspace, "enumerate") == 0
        assert run(workspace, "train") == 0
        ckpt = out_root(workspace) / "train" / "1" / "checkpoint.bin"
        blob = ckpt.read_bytes()
        start = 4 + struct.unpack("<I", blob[:4])[0]
        nan = np.full((len(blob) - start) // 4, np.nan, dtype="<f4").tobytes()
        ckpt.write_bytes(blob[:start] + nan)
        capsys.readouterr()
        assert run(workspace, command) == 2
        assert capsys.readouterr().err == (
            f"error: checkpoint {ckpt} holds parameters that are not finite\n")
        # the checkpoint is refused before any stage directory is made
        root = out_root(workspace)
        assert not (root / "sample" / "1").exists() and not (root / "report").exists()

    @pytest.mark.parametrize(
        "blob",
        [b"\x01\x00", b"\x05\x00\x00\x00{\"a\"", b"\x02\x00\x00\x00{}", b"\x03\x00\x00\x00[1]"],
        ids=["torn-length", "torn-header", "header-without-version", "header-not-a-mapping"],
    )
    def test_corrupt_checkpoint_exits_2(self, workspace, capsys, blob):
        dest = out_root(workspace) / "train" / "1"
        dest.mkdir(parents=True)
        (dest / "checkpoint.bin").write_bytes(blob)
        assert run(workspace, "sample") == 2
        assert "checkpoint" in capsys.readouterr().err


class TestWorkspace:
    def test_builtin_space_is_shared_and_left_unchanged(self):
        # the packaged space is parsed once and shared: a workspace that
        # overrides its cycles gets a copy, so a later default workspace
        # still has the 5 slots, and the shared tables stay read-only
        two = Workspace(load_config(None, ["space.cycles=2"]))
        default = Workspace(load_config(None))
        assert two.space.slots == 10 and default.space.slots == 5
        assert default.space is builtin_space()
        assert len(default.space.slot_steps) == 5
        for steps in (*default.space.slot_steps, *default.space.parameter_arrays):
            assert not steps.flags.writeable

    def test_contexts_are_synthesized_once_per_workspace(self, workspace, monkeypatch):
        # two seeds, each with its own scorer, over one synthesis
        synthesized = []
        synthesize = cli.synthesize_observations

        def counting(*args, **kwargs):
            synthesized.append(args)
            return synthesize(*args, **kwargs)

        monkeypatch.setattr(cli, "synthesize_observations", counting)
        assert run(workspace, "train", "train.steps=3", "run.seeds=[1, 2]") == 0
        assert len(synthesized) == 1
        ws = Workspace(load_config(workspace))
        for scorer in (ws.scorer(), ws.scorer()):
            assert all(a is b for a, b in zip(scorer.contexts, ws.contexts(), strict=True))
        assert len(synthesized) == 2


class TestOverrides:
    def test_override_moves_run_root(self, workspace, tmp_path):
        assert run(workspace, "enumerate", "reward.beta=2") == 0
        default_root = out_root(workspace)
        beta2_root = out_root(workspace, "reward.beta=2")
        assert beta2_root != default_root
        assert (beta2_root / "enumerate" / "done").exists()
        assert not default_root.exists()

    def test_cache_dir_env(self, workspace, tmp_path, monkeypatch):
        shared = tmp_path / "shared-cache"
        monkeypatch.setenv("GFNADAPT_CACHE_DIR", str(shared))
        assert run(workspace, "enumerate") == 0
        cfg = load_config(workspace)
        assert (shared / cfg.reward_hash() / "rewards.bin").exists()

    def test_train_and_the_scorer_read_every_train_and_reward_setting(self, workspace,
                                                                        monkeypatch):
        # a setting that reaches neither would be accepted and then ignored;
        # train.n_samples is sample's. With FIT_ON_ENUMERATION_MAX at 0 the
        # quantiles are fitted on a warm-up sample, the one path that reads
        # reward.warmup
        read = set()

        class Recording(ExperimentConfig):
            def __getitem__(self, dotted):
                read.add(dotted)
                return super().__getitem__(dotted)

        monkeypatch.setattr("gfnadapt.cli.FIT_ON_ENUMERATION_MAX", 0)
        cfg = load_config(workspace, ["train.steps=3"])
        cmd_train(Recording(cfg.values, cfg.space_doc))
        wanted = {dotted for dotted in SETTINGS
                  if dotted.split(".")[0] in ("train", "reward")} - {"train.n_samples"}
        assert wanted - read == set()
