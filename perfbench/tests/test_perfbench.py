"""Tests of the benchmark harness itself (not of cmfix)."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture
def quick(monkeypatch):
    """One set-up probe and one sample per run, to keep the smoke tests short."""
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 7]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    assert spans.self_times(parents, starts, ends) == [3.0, 3.0, 3.0, 1.0]
    header = {"layers": ["outer", "inner"], "count": 4}
    cols = {"names": [0, 1, 1, 0], "parents": parents, "starts": starts, "ends": ends}
    assert spans.layer_totals(header, cols) == {"outer": (2, 4.0), "inner": (2, 6.0)}


def test_tracer_patches_every_namespace_and_restores():
    import cmfix.cli
    import cmfix.partitions

    original = cmfix.partitions.core
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cmfix.cli.main(["cores", "--partition", "4,2,1", "--l", "3"]) == 0
    finally:
        tracer.restore()
    assert json.loads(out.getvalue()) == {"core": [1], "removals": 2}
    assert cmfix.partitions.core is original and cmfix.cli.core is original
    with run.workdir("test-tracer") as wd:
        tracer.dump(str(wd / "spans.bin"))
        totals = spans.layer_totals(*spans.load(str(wd / "spans.bin")))
    # cmd_cores calls core through the name cli imported, so that binding was wrapped
    assert totals["cli.main"][0] == 1
    assert totals["partitions.core"][0] == 1
    assert totals["linalg.mul"] == (0, 0.0)


def test_generator_is_deterministic_per_seed():
    def generate(seed, tag):
        with run.workdir(tag) as wd:
            argvs = {name: w.plan(seed, wd, False) for name, w in WORKLOADS.items()}
            files = {p.name: p.read_bytes() for p in wd.iterdir()}
        return argvs, files

    first, again, other = generate(5, "gen-a"), generate(5, "gen-b"), generate(6, "gen-c")
    assert first == again
    assert first[1] and first[1] != other[1]  # quiver files change with the seed
    assert first[0]["catalog"] != other[0]["catalog"]  # so do catalog parameters


def test_a_wrong_digest_counts_as_a_failure_and_the_run_goes_on(quick):
    pins = run.load_pins()
    label = " ".join(WORKLOADS["filtration"].plan(0, Path("."), True)[0])
    pins[label] = dict(pins[label], sha256=hashlib.sha256(b"wrong").hexdigest())
    out = run.measure("filtration", seed=0, seconds=0, trace=False, tiny=True, pins=pins)
    res = out["result"]
    assert res["attempted"] == run.MIN_SAMPLES
    assert res["failed"] == res["attempted"] and res["correct"] is False
    assert res["metrics"]["run_s"]["value"] > 0
    assert "stdout differs from the pinned digest" in out["reasons"][0]


def test_tally_counts_exceptions_tracebacks_and_exit_codes():
    good = hashlib.sha256(b"ok\n").hexdigest()
    tally = run.Tally({"a": {"rc": 0, "sha256": good}}, ["a"])
    for outcome in ((0, None, good, b""),
                    (None, "Traceback ...\nTypeError: boom", good, b""),
                    (0, None, good, b"Traceback (most recent call last):\n"),
                    (1, None, good, b"")):
        tally.check(run.Sample(setup_s=0.0, outcomes=[outcome]))
    tally.check(run.Sample(setup_s=0.0))  # child died before answering
    assert (tally.attempted, tally.failed) == (5, 4)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_tiny_workload(name, quick):
    plain = run.measure(name, seed=3, seconds=0, trace=False, tiny=True)["result"]
    assert plain["failed"] == 0 and plain["correct"] is True
    assert set(plain["metrics"]) == {m for m, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.measure(name, seed=3, seconds=0, trace=True, tiny=True)["result"]
    assert traced["failed"] == 0  # tracing does not change any output
    assert set(traced["metrics"]) == {m for m, _ in spans.per_layer_metrics()}
    # one untraced and one traced sample, each running every invocation once
    assert traced["metrics"]["cli.main.calls"]["value"] == traced["attempted"] // 2


def test_refuses_to_run_without_the_program():
    with run.workdir("bare") as wd:
        shutil.copy(run.ROOT / "BENCHMARK.json", wd)
        shutil.copytree(run.HERE, wd / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "quiver", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=wd, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert proc.stdout == ""
