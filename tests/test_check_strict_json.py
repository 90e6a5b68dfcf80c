"""scripts/check_strict_json.py, which CI runs over every study's JSON files:
a NaN or infinite token anywhere fails it, naming the file."""

import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_strict_json.py"


def check(*dirs) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(_SCRIPT), *map(str, dirs)],
                          capture_output=True, text=True)


def test_strict_files_pass(tmp_path):
    (tmp_path / "a" / "1").mkdir(parents=True)
    (tmp_path / "a" / "1" / "meta.json").write_text('{"wall_clock": 1.5, "seed": 1}')
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "quantiles.json").write_text("[0.1, 2e308]")  # too large, read as inf
    result = check(tmp_path / "a", tmp_path / "b", tmp_path / "missing")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "2 JSON files, every one strict\n"


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_token_fails_naming_its_file(tmp_path, token):
    (tmp_path / "ok.json").write_text("{}")
    bad = tmp_path / "run" / "meta.json"
    bad.parent.mkdir()
    bad.write_text(f'{{"wall_clock": {token}}}')
    result = check(tmp_path)
    assert result.returncode == 1
    assert result.stderr == f"{bad}: holds {token}, which strict JSON does not allow\n"
