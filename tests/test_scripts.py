"""Smoke tests of scripts/profile_workload.py on the benchmark's tiny plans,
of the exit codes of scripts/filtration_report.py, of
scripts/component_census.py, of scripts/uncovered.py, of
scripts/cold_start.py, of scripts/bench_pairs.py and of
scripts/norton_report.py."""

import importlib.util
import json
import io
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "profile_workload.py"
FILTRATION_REPORT = SCRIPT.with_name("filtration_report.py")
COMPONENT_CENSUS = SCRIPT.with_name("component_census.py")
UNCOVERED = SCRIPT.with_name("uncovered.py")
COLD_START = SCRIPT.with_name("cold_start.py")
BENCH_PAIRS = SCRIPT.with_name("bench_pairs.py")
NORTON_REPORT = SCRIPT.with_name("norton_report.py")


@pytest.fixture(scope="module")
def profile_script():
    spec = importlib.util.spec_from_file_location("cmfix_profile_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["filtration", "chartable", "quiver", "catalog"])
def test_profile_prints_the_top_functions(profile_script, workload, capsys):
    out = io.StringIO()
    assert profile_script.profile(workload, seed=3, sort="cumulative", tiny=True, out=out) == 0
    report = out.getvalue()
    assert "function calls" in report and "Ordered by: cumulative time" in report
    assert "cmfix/cli.py" in report
    assert capsys.readouterr().out == ""  # the workload's stdout is discarded


def test_profile_times_each_invocation_before_the_profile(profile_script, tmp_path, capsys):
    argvs = profile_script.WORKLOADS["catalog"].plan(3, tmp_path, True)
    out = io.StringIO()
    assert profile_script.profile("catalog", seed=3, tiny=True, out=out, times=True) == 0
    lines = out.getvalue().splitlines()
    seconds = []
    for argv, line in zip(argvs + [["total"]], lines):
        found = re.fullmatch(r"(\d+\.\d{4}) s  (.+)", line)
        assert found and found[2] == " ".join(argv), line
        seconds.append(float(found[1]))
    assert abs(sum(seconds[:-1]) - seconds[-1]) <= 0.0001 * len(argvs)
    assert "function calls" in lines[len(argvs) + 1]
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("grid,code", [
    ("1,2,2;2,2,2", 0),
    ("2,4", 2),
    ("2,-1,2", 2),
    ("1,2,2;x,2,2", 2),
    ("0,2,2", 2),
])
def test_filtration_report_exit_codes(grid, code):
    proc = subprocess.run([sys.executable, str(FILTRATION_REPORT), "--grid", grid],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    if code == 2:
        assert proc.stderr.startswith("error: ") and proc.stdout == ""
    else:
        assert proc.stdout.endswith("0 failures\n")


@pytest.fixture
def filtration_report():
    spec = importlib.util.spec_from_file_location("cmfix_filtration_report", FILTRATION_REPORT)
    module = importlib.util.module_from_spec(spec)
    saved = list(sys.path)
    spec.loader.exec_module(module)
    sys.path[:] = saved
    return module


def test_filtration_report_prints_one_line_per_point():
    proc = subprocess.run([sys.executable, str(FILTRATION_REPORT), "--grid", "1,2,2;2,2,2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *points, summary = proc.stdout.splitlines()
    assert summary == "0 failures"
    assert len(points) == 2
    for line, point in zip(points, ("l=1 n=2 k=2: 1 gamma in 1 orbits",
                                    "l=2 n=2 k=2: 2 gamma in 2 orbits")):
        assert re.fullmatch(rf"\[ok \] {point}, 0 failing, all gamma \d+\.\d\ds "
                            r"\(_columns \d+\.\d\ds, orbits \d+\.\d{3}s\), "
                            r"peak RSS \d+\.\d MiB", line), line


def test_filtration_report_counts_the_orbits_the_check_makes(filtration_report):
    # k does not divide n: (2,5,2)'s two gamma of each rank form one orbit,
    # (3,3,2)'s three of rank 1 form two, and its four of rank 0, with no
    # live class, are not searched
    from cmfix import wreath

    proc = subprocess.run([sys.executable, str(FILTRATION_REPORT), "--grid", "3,3,2;2,5,2"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    *points, summary = proc.stdout.splitlines()
    assert summary == "0 failures"
    assert points[0].startswith("[ok ] l=3 n=3 k=2: 7 gamma in 6 orbits, 0 failing")
    assert points[1].startswith("[ok ] l=2 n=5 k=2: 4 gamma in 2 orbits, 0 failing")
    point = filtration_report.measure_point(2, 5, 2)
    assert (point["gammas"], point["orbits"]) == (4, 2)
    assert 0 <= point["orbits_s"] <= point["gamma_s"]
    assert filtration_report.wreath._fibre_orbits is wreath._fibre_orbits  # unwrapped


def test_filtration_report_peak_is_the_points_own(tmp_path):
    # a point launched from a process that holds 96 MiB reports its own
    # peak, far below that, and not the spawning parent's
    code = ("import json, subprocess, sys\n"
            "held = b'x' * (96 << 20)\n"
            f"proc = subprocess.run([sys.executable, {str(FILTRATION_REPORT)!r}, '--point', '1,2,2'],"
            " stdout=subprocess.PIPE, text=True, check=True)\n"
            "print(json.loads(proc.stdout)['peak_rss_mib'], len(held) >> 20)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak, held = proc.stdout.split()
    assert held == "96" and 0 < float(peak) < 64


def test_filtration_report_tells_a_dead_point_from_a_certificate(filtration_report, monkeypatch,
                                                                 capsys):
    # the first point's process dies as a MemoryError would leave it; the second runs
    run = subprocess.run

    def first_point_dies(cmd, **kw):
        if cmd[-1] == "1,2,2":
            cmd = [sys.executable, "-c", "raise SystemExit(7)"]
        return run(cmd, **kw)

    monkeypatch.setattr(subprocess, "run", first_point_dies)
    assert filtration_report.run_grid([(1, 2, 2), (2, 2, 2)]) == 3
    out, err = capsys.readouterr()
    assert err == "error: point 1,2,2 exited with 7\n"
    *points, summary = out.splitlines()
    assert summary == "0 failures, 1 of 2 points did not finish"
    assert len(points) == 1 and points[0].startswith("[ok ] l=2 n=2 k=2: 2 gamma in 2 orbits, "
                                                     "0 failing")


def test_filtration_report_point_lists_each_failing_gamma(filtration_report, monkeypatch):
    # counting the fixed cycles in place of the rest is the wrong filtration
    from cmfix import wreath

    monkeypatch.setattr(wreath, "codim", lambda ctype, n=None: len(ctype[0]))
    point = filtration_report.measure_point(2, 2, 2)
    assert (point["gammas"], point["failing"]) == (2, 1)
    assert point["peak_rss_mib"] > 0 and 0 <= point["columns_s"] <= point["gamma_s"]
    assert filtration_report.wreath._columns is wreath._columns  # unwrapped after the point
    assert point["lines"] == [
        "      gamma=((), ())",
        "      violates: class ((), (1, 1)) (codim 0) -> ((1,), (), (), ()) (codim 1)"]


def test_component_census_counting_identity_holds_on_a_small_grid():
    proc = subprocess.run([sys.executable, str(COMPONENT_CENSUS),
                           "--lmax", "2", "--nmax", "3", "--kmax", "3"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "MISMATCH" not in proc.stdout
    assert len(proc.stdout.splitlines()) == 1 + 2 * 3 * 2  # header, one row per (l, n, k)


def test_uncovered_reports_the_lines_a_selection_never_runs():
    selection = Path(__file__).resolve().parent / "test_linalg.py"
    proc = subprocess.run([sys.executable, str(UNCOVERED), str(selection), "-q",
                           "-p", "no:cacheprovider"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

    def counts(module):
        found = re.search(rf"^cmfix/{module}\.py: (\d+) of (\d+) lines not run", proc.stdout, re.M)
        return int(found[1]), int(found[2])

    missed, total = counts("linalg")
    assert 0 < missed < total  # Mat runs, but not every branch of it
    missed, total = counts("cli")
    assert missed == total  # the selection never imports it
    assert re.search(r"^total: \d+ of \d+ executable lines not run$", proc.stdout, re.M)


def test_cold_start_prints_the_medians_and_the_added_modules(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("cmfix_cold_start", COLD_START)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", ["cold_start.py", "--runs", "1"])  # five interpreters
    assert module.main() == 0
    bare, cli, read, full, added = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"bare interpreter: median \d+\.\d{4} s over 1 runs", bare), bare
    assert re.fullmatch(r"import cmfix\.cli: median \d+\.\d{4} s over 1 runs "
                        r"\([+-]\d+\.\d{4} s\)", cli), cli
    assert re.fullmatch(r"registry read, what main does: median \d+\.\d{3} ms over 1 runs",
                        read), read
    assert re.fullmatch(r"full parser, for help and refusals, import, build and parse: "
                        r"median \d+\.\d{3} ms over 1 runs \([+-]\d+\.\d{3} ms\)", full), full
    count, names = re.fullmatch(r"modules outside cmfix that it adds \((\d+)\): (.*)", added).groups()
    assert int(count) == len(names.split())
    assert not {"cmfix", "dataclasses", "inspect", "argparse", "gettext"} & set(names.split())


@pytest.fixture
def bench_pairs(tmp_path):
    spec = importlib.util.spec_from_file_location("cmfix_bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    trees = []
    for name in ("old", "a-longer-checkout-name"):
        tree = tmp_path / name
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(name)
        (tree / ".git").mkdir()
        trees.append(tree)
    return module, trees


def fake_result(run_s, failed=0):
    return {"correct": not failed, "attempted": 4, "failed": failed,
            "metrics": {"run_s": {"value": run_s, "unit": "s"},
                        "peak_rss_mib": {"value": 18.0, "unit": "MiB"}}}


def test_bench_pairs_alternates_equal_paths_and_counts_wins(bench_pairs, monkeypatch, capsys):
    module, (old, new) = bench_pairs
    calls = []

    def fake(checkout, workload, seed, seconds):
        calls.append((checkout, workload, seed, seconds))
        source = old if checkout.name == "parent" else new
        assert (checkout / "perfbench" / "run.py").read_text() == source.name
        assert not (checkout / ".git").exists()
        # the change is faster in pairs 1 and 3 only
        return fake_result({1: 0.2, 2: 0.1, 5: 0.2}.get(len(calls), 0.15))

    monkeypatch.setattr(module, "run_bench", fake)
    argv = [str(old), str(new), "--workload", "quiver", "--seed", "4", "--pairs", "3",
            "--seconds", "0.5"]
    assert module.main(argv) == 0
    assert [c[0].name for c in calls] == ["parent", "change", "change", "parent",
                                          "parent", "change"]
    assert {c[1:] for c in calls} == {("quiver", 4, 0.5)}
    assert calls[0][0].parent == calls[1][0].parent
    assert not calls[0][0].exists()  # the copies are gone
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pair 1: run_s 0.2000 -> 0.1000  peak_rss_mib 18.0000 -> 18.0000"
    assert lines[4].split()[0] == "run_s" and lines[4].endswith("-25.0 %  2/3")
    assert lines[5].split()[0] == "peak_rss_mib" and lines[5].endswith("+0.0 %  0/3")


def test_bench_pairs_all_summarises_each_workload_and_fails_on_any(bench_pairs, monkeypatch,
                                                                  capsys):
    module, trees = bench_pairs
    calls = []

    def fake(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload))
        # the change is faster on filtration only; in the third run catalog fails
        fast = checkout.name == "change"
        return {"filtration": fake_result(0.1 if fast else 0.2),
                "catalog": fake_result(0.3, failed=int(len(calls) == 3))}

    monkeypatch.setattr(module, "run_bench", fake)
    argv = [*map(str, trees), "--workload", "all", "--seed", "3", "--pairs", "1"]
    assert module.main(argv) == 0
    assert calls == [("parent", "all"), ("change", "all")]
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == [
        "pair 1 filtration: run_s 0.2000 -> 0.1000  peak_rss_mib 18.0000 -> 18.0000",
        "pair 1 catalog: run_s 0.3000 -> 0.3000  peak_rss_mib 18.0000 -> 18.0000"]
    rows = [line.split()[:2] + line.split()[-3:] for line in lines[3:]]
    assert rows == [["filtration", "run_s", "-50.0", "%", "1/1"],
                    ["filtration", "peak_rss_mib", "+0.0", "%", "0/1"],
                    ["catalog", "run_s", "+0.0", "%", "0/1"],
                    ["catalog", "peak_rss_mib", "+0.0", "%", "0/1"]]
    # a failed invocation in any workload ends the comparison
    assert module.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: pair 1, parent: catalog: 1 of 4 invocations failed\n"


@pytest.mark.parametrize("failure", ["not correct", "exit code"])
def test_bench_pairs_exits_1_on_a_failed_run(bench_pairs, monkeypatch, capsys, failure):
    module, trees = bench_pairs
    calls = []

    def fake(checkout, workload, seed, seconds):
        calls.append(checkout.name)
        if len(calls) == 2:
            if failure == "exit code":
                raise module.RunFailed("exited with 1: boom")
            return fake_result(0.1, failed=1)
        return fake_result(0.1)

    monkeypatch.setattr(module, "run_bench", fake)
    argv = [*map(str, trees), "--workload", "quiver", "--seed", "1", "--pairs", "2"]
    assert module.main(argv) == 1
    assert calls == ["parent", "change"]
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: pair 1, change: ")


def test_bench_pairs_rejects_a_tree_without_the_benchmark(bench_pairs, tmp_path, capsys):
    module, (old, new) = bench_pairs
    assert module.main([str(old), str(tmp_path), "--workload", "quiver", "--seed", "1"]) == 2
    assert "has no perfbench/run.py" in capsys.readouterr().err
    assert module.main([str(old), str(new), "--workload", "quiver", "--seed", "1",
                        "--pairs", "0"]) == 2
    assert capsys.readouterr().err == "error: --pairs must be at least 1\n"


@pytest.fixture(scope="module")
def norton_report():
    spec = importlib.util.spec_from_file_location("cmfix_norton_report", NORTON_REPORT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_norton_lines(norton_report, *flags, seconds=r"\d+\.\d{3} s"):
    # one line per tiny case at seed 3, each with the verdict, label and trial
    # count the test gives in this process, and the seconds as `seconds` reads
    from cmfix.quiver import norton_simplicity

    proc = subprocess.run([sys.executable, str(NORTON_REPORT), "--tiny", "--seed", "3", *flags],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    cases = norton_report.cases(3, True)
    lines = proc.stdout.splitlines()
    assert len(lines) == len(cases) == 5
    for case, line in zip(cases, lines):
        found = re.fullmatch(r"\[(\w+) *\] (.+): (\d+) trials, (\d+) roots, (\d+) settled, "
                             + seconds + r"; charpoly \d+ %, roots \d+ %, echelons \d+ %, "
                             r"kernels \d+ %, F_P spins \d+ %", line)
        assert found, line
        rep, seed = norton_report.build(case)
        res = norton_simplicity(rep, seed=seed)
        assert found.groups()[:3] == (res.status, norton_report.label(case), str(res.trials))
        # a Simple verdict settles its one decisive root, and only that one
        seen, settled = int(found[4]), int(found[5])
        assert settled <= seen and (res.status != "Simple" or res.trials == 0 or settled == 1)


def test_norton_report_prints_each_case_with_its_verdict_and_shares(norton_report):
    _check_norton_lines(norton_report)


def test_norton_report_prints_the_cold_and_the_warm_seconds_with_repeats(norton_report):
    _check_norton_lines(norton_report, "--repeats", "2",
                        seconds=r"\d+\.\d{3} s cold, \d+\.\d{3} s warm")


def test_norton_report_exits_3_on_a_dead_case(norton_report, monkeypatch, capsys):
    def run(argv, **kwargs):
        case = json.loads(argv[-1])
        if case[0] == "cm":
            return subprocess.CompletedProcess(argv, -9, "")
        result = {"status": "Simple", "trials": 1, "seen": 3, "settled": 1, "seconds": 0.5,
                  "parts": {"charpoly": 0.1, "roots": 0.2, "echelons": 0.025, "kernels": 0.0,
                            "F_P spins": 0.05}}
        return subprocess.CompletedProcess(argv, 0, json.dumps(result))

    monkeypatch.setattr(norton_report.subprocess, "run", run)
    assert norton_report.main(["--tiny"]) == 3
    out, err = capsys.readouterr()
    assert out.splitlines()[0].endswith("1 trials, 3 roots, 1 settled, 0.500 s; charpoly 20 %, "
                                        "roots 40 %, echelons 5 %, kernels 0 %, F_P spins 10 %")
    assert len(out.splitlines()) == 3
    assert err.splitlines() == ["error: cm d=(3) (seed 0) exited with -9",
                                "error: cm d=(3) (seed 20200513) exited with -9"]


def test_norton_report_takes_the_median_of_the_warm_calls(norton_report, monkeypatch):
    # one cold call, then the median of the seconds of `repeats` more
    calls, medians = [], []
    test = norton_report.quiver.norton_simplicity
    monkeypatch.setattr(norton_report.quiver, "norton_simplicity",
                        lambda *args, **kwargs: calls.append(1) or test(*args, **kwargs))
    monkeypatch.setattr(norton_report.statistics, "median",
                        lambda xs: medians.append(list(xs)) or 0.5)
    result = norton_report.measure(["cm", 3, 0], repeats=3)
    assert len(calls) == 4 and [len(xs) for xs in medians] == [3] and result["warm"] == 0.5
    assert norton_report.measure(["cm", 3, 0])["warm"] is None and len(calls) == 5
    assert " 1.000 s cold, 0.500 s warm; " in norton_report.line(["cm", 3, 0], {
        **result, "seconds": 1.0})
    with pytest.raises(SystemExit) as exc:
        norton_report.main(["--tiny", "--repeats", "-1"])
    assert exc.value.code == 2
