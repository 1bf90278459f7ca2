"""Project files outside the package: the version declared in both
``pyproject.toml`` and ``boolring.__version__`` agrees, and
``tools/bench_cli.py`` refuses a run count it cannot summarise."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import boolring

ROOT = Path(__file__).resolve().parents[1]


def test_package_version_matches_pyproject():
    # read with a regex: Python 3.10 has no tomllib
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split("[project]", 1)[1]
    version = re.search(r'^version = "([^"]+)"$', project, re.M).group(1)
    assert boolring.__version__ == version


@pytest.mark.parametrize("runs", ["1", "0", "-3"])
def test_bench_cli_refuses_fewer_than_two_runs(tmp_path, runs):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "bench_cli.py"), "--base", str(ROOT),
         "--change", str(ROOT), "--runs", runs, "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines()[-1].endswith(f"--runs must be at least 2, got {runs}")
    assert "Traceback" not in proc.stderr
    assert not out.exists()
