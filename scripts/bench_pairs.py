#!/usr/bin/env python3
"""Compare two checkouts on benchmark workloads in alternated pairs.

    python scripts/bench_pairs.py PARENT CHANGE --workload quiver --seed 1 --pairs 10 --seconds 30
    python scripts/bench_pairs.py PARENT CHANGE --workload all --seed 1 --pairs 10 --seconds 4

PARENT and CHANGE are checkouts of this repository.  Each is copied, without
``.git`` and the leftovers of earlier runs, into one new temporary directory,
as the siblings ``parent`` and ``change``: the two paths have equal length,
since ``perfbench/run.py``'s ``peak_rss_mib`` and ``run_s`` move with the
path of a checkout, not only with its code.  Then ``perfbench/run.py --trace
0`` runs once in each copy per pair, the parent first in odd pairs and the
change first in even ones.  With ``--workload all`` each run measures every
workload.  Each run inherits the caller's environment.

The script prints one line per pair and workload, then for each workload and
end-to-end metric the median and quartiles of both sides and the number of
pairs in which the change reads lower (every end-to-end metric is better
lower); with ``--workload all`` each row names its workload.  It edits
nothing in either checkout and removes the copies at the end.

Exit status: 0; 1 if a run exits non-zero, or if a workload of it is not
``correct`` or has a failed invocation (the run is named on stderr and no
summary is printed); 2 on a checkout without ``perfbench/run.py`` or fewer
than one pair.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")
LEFTOVERS = shutil.ignore_patterns(".git", "__pycache__", ".perfbench", ".pytest_cache",
                                   "*.egg-info")


class RunFailed(Exception):
    """A benchmark run exited non-zero."""


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON result line of one ``perfbench/run.py --trace 0`` run in checkout:
    one workload's result, or for ``all`` a {workload: result} object."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdin=subprocess.DEVNULL, capture_output=True, text=True)
    if proc.returncode:
        raise RunFailed(f"exited with {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def column(values: list[float], unit: str) -> tuple[str, float]:
    """'median [lower quartile, upper quartile] unit', and the median."""
    med = statistics.median(values)
    q1, q3 = med, med
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{med:.4f} [{q1:.4f}, {q3:.4f}] {unit}", med


def summary(runs: dict[str, list[dict]], named: bool) -> None:
    """One row per workload and metric of runs[side][pair][workload][metric];
    each row names its workload when named."""
    pairs = len(runs["parent"])
    rows = [(f"{w} {m}" if named else m, w, m, first["unit"])
            for w, metrics in runs["parent"][0].items() for m, first in metrics.items()]
    width = max(14, *(len(label) + 2 for label, *_ in rows))
    print(f"{'metric':<{width}}{'parent median [q1, q3]':<32}{'change median [q1, q3]':<32}"
          f"{'change':>9}  wins")
    for label, workload, metric, unit in rows:
        old, new = ([r[workload][metric]["value"] for r in runs[s]] for s in SIDES)
        (old_col, p), (new_col, c) = column(old, unit), column(new, unit)
        rel = f"{100 * (c - p) / p:+.1f} %" if p else "n/a"
        wins = sum(b < a for a, b in zip(old, new))
        print(f"{label:<{width}}{old_col:<32}{new_col:<32}{rel:>9}  {wins}/{pairs}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path, help="the checkout to compare against")
    ap.add_argument("change", type=Path, help="the checkout under test")
    ap.add_argument("--workload", required=True,
                    help="one workload of perfbench/workloads.py, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0, help="--seconds of each run")
    args = ap.parse_args(argv)
    trees = dict(zip(SIDES, (args.parent, args.change)))
    for side, tree in trees.items():
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"error: {side} checkout {tree} has no perfbench/run.py", file=sys.stderr)
            return 2
    if args.pairs < 1:
        print("error: --pairs must be at least 1", file=sys.stderr)
        return 2
    named = args.workload == "all"
    runs: dict[str, list[dict]] = {s: [] for s in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies = {s: Path(shutil.copytree(tree, Path(tmp) / s, ignore=LEFTOVERS))
                  for s, tree in trees.items()}
        for pair in range(1, args.pairs + 1):
            for side in SIDES if pair % 2 else SIDES[::-1]:
                try:
                    res = run_bench(copies[side], args.workload, args.seed, args.seconds)
                except RunFailed as exc:
                    print(f"error: pair {pair}, {side}: {exc}", file=sys.stderr)
                    return 1
                results = res if named else {args.workload: res}
                for workload, r in results.items():
                    if not r["correct"] or r["failed"]:
                        print(f"error: pair {pair}, {side}: {workload}: {r['failed']} of "
                              f"{r['attempted']} invocations failed", file=sys.stderr)
                        return 1
                runs[side].append({w: r["metrics"] for w, r in results.items()})
            for workload, metrics in runs["change"][-1].items():
                line = "  ".join(
                    f"{m} {runs['parent'][-1][workload][m]['value']:.4f} -> {v['value']:.4f}"
                    for m, v in metrics.items())
                print(f"pair {pair}{' ' + workload if named else ''}: {line}", flush=True)
    summary(runs, named)
    return 0


if __name__ == "__main__":
    sys.exit(main())
