import csv
import json
import shutil

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gfnadapt.cli import main
from gfnadapt.config import DEFAULTS, load_config

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


def run(config_path, command, *overrides):
    argv = [command, "--config", str(config_path)]
    for pair in overrides:
        argv += ["--set", pair]
    return main(argv)


def out_root(config_path, *overrides):
    return load_config(config_path, list(overrides)).out_root()


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

    def test_report_without_traces(self, workspace):
        assert run(workspace, "report") == 2

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
        ],
    )
    def test_out_of_range_rejected_before_work(self, workspace, override):
        assert run(workspace, "train", override) == 1
        assert not (workspace.parent / "runs").exists()  # no scoring, no done

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

    def test_unparsable_space_file_exits_1(self, workspace, tmp_path):
        bad = tmp_path / "bad_space.yaml"
        bad.write_text("parameters: [\n")
        assert run(workspace, "enumerate", f"space.file={bad}") == 1

    def test_space_file_is_a_directory_exits_1(self, workspace, tmp_path):
        assert run(workspace, "enumerate", f"space.file={tmp_path}") == 1

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["parameters"][0].pop("lower"),
            lambda doc: doc["parameters"][0].update(lower=9.0),  # above its upper bound
            lambda doc: doc["groups"][0].update(actions=None),
            lambda doc: doc["groups"][0].update(order="first"),
        ],
        ids=["missing-bound", "inverted-bounds", "actions-not-a-list", "order-not-a-number"],
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
_CONFIG_KEYS = [f"{sec}.{key}" for sec, keys in DEFAULTS.items() for key in keys]
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
        cfg = load_config(workspace)
        assert (cfg.cache_dir() / "rewards.bin").exists()

    def test_report_rejects_foreign_trace(self, workspace):
        assert run(workspace, "train") == 0
        trace = out_root(workspace) / "train" / "1" / "trace.csv"
        lines = trace.read_text().splitlines()
        lines[0] = "# config_hash=000000000000"
        trace.write_text("\n".join(lines) + "\n")
        assert run(workspace, "report") == 2

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
        shutil.copy(out_root(workspace) / "train" / "1" / "checkpoint.bin", dest)
        capsys.readouterr()
        assert run(workspace, "sample", override) == 2
        assert f"{field} is" in capsys.readouterr().err
        assert not (out_root(workspace, override) / "sample" / "1" / "done").exists()

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
