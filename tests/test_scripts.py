"""Smoke test of scripts/profile.py on the benchmark's tiny plans."""

import importlib.util
import io
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "profile.py"


@pytest.fixture(scope="module")
def profile_script():
    spec = importlib.util.spec_from_file_location("cmfix_profile_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    spec.loader.exec_module(module)
    sys.path[:] = saved
    return module


@pytest.mark.parametrize("workload", ["filtration", "chartable", "quiver", "catalog"])
def test_profile_prints_the_top_functions(profile_script, workload, capsys):
    out = io.StringIO()
    assert profile_script.profile(workload, seed=3, sort="cumulative", tiny=True, out=out) == 0
    report = out.getvalue()
    assert "function calls" in report and "Ordered by: cumulative time" in report
    assert "cmfix/cli.py" in report
    assert capsys.readouterr().out == ""  # the workload's stdout is discarded
