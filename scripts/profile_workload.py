#!/usr/bin/env python3
"""Profile one benchmark workload under cProfile.

    python scripts/profile_workload.py WORKLOAD [--seed S] [--sort tottime|cumulative] [--times]

WORKLOAD names a workload of ``perfbench/workloads.py`` (filtration,
chartable, quiver, catalog).  Its inputs for seed S are written to a
temporary directory, and its CLI invocations run one after another through
``cmfix.cli.main`` in this one process, as in one benchmark sample.  Their
stdout is discarded; the top 25 functions of the profile go to stderr.  The
exit status is 1 when an invocation exits nonzero.

With ``--times`` the plan first runs once without the profiler, as in one
benchmark sample, and each invocation's wall seconds go to stderr, one line
``SECONDS s  ARGV`` each and then ``SECONDS s  total``, before the profile.
The profiled run then follows in a process that this first run has warmed:
the package's caches (``partitions.partitions_of``, the character tables,
the powers of zeta) hold what the first run put there.

The profile cannot show cold-start costs: this script imports argparse,
and with it ``gettext`` and ``locale``, to read its own arguments, and
``cmfix.cli``, before the workload starts, so what the first CLI call in a
fresh process pays for imports and first-use compilation is not in it.
``scripts/cold_start.py`` measures those in fresh interpreters.

cProfile keys a function by (file, line, name), so of two functions with
one key the report keeps only one: the outer and inner generator
expressions on the one line of ``linalg.Mat.apply`` both read
``linalg.py:LINE(<genexpr>)``, and which of them the report shows depends
on code elsewhere.  The total of function calls and the call counts of
such generator expressions are then not comparable across changes; compare
named functions.
"""

import argparse
import contextlib
import cProfile
import io
import os
import pstats
import sys
import tempfile
import time
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from cmfix.cli import main as cli_main
from workloads import WORKLOADS

TOP = 25


def _run(argvs: list[list[str]], call, out) -> tuple[int, list[float]]:
    """Each argv through ``call(argv)`` with stdout discarded; the number
    that exited nonzero, each named on ``out``, and each one's wall seconds."""
    failed, seconds = 0, []
    for argv in argvs:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            rc = call(argv)
            seconds.append(time.perf_counter() - start)
        if rc != 0:
            failed += 1
            print(f"exit {rc}: {' '.join(argv)}", file=out)
    return failed, seconds


def profile(name: str, seed: int = 1, sort: str = "tottime", tiny: bool = False,
            out=None, times: bool = False) -> int:
    """Run the workload under cProfile and print the top TOP to ``out``.

    ``tiny`` selects the reduced plan of the benchmark's own tests.  With
    ``times``, the plan first runs once unprofiled, and each invocation's
    wall seconds and their total are printed before the profile.  Returns
    the number of invocations that exited nonzero in the profiled run.
    ``out`` defaults to stderr.
    """
    out = sys.stderr if out is None else out
    prof = cProfile.Profile()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        argvs = WORKLOADS[name].plan(seed, Path(tmp), tiny)
        os.chdir(tmp)  # the plans name their input files relative to it
        try:
            if times:
                _, seconds = _run(argvs, cli_main, out)
                for argv, s in zip(argvs, seconds):
                    print(f"{s:.4f} s  {' '.join(argv)}", file=out)
                print(f"{sum(seconds):.4f} s  total", file=out)
            failed, _ = _run(argvs, partial(prof.runcall, cli_main), out)
        finally:
            os.chdir(cwd)
    pstats.Stats(prof, stream=out).sort_stats(sort).print_stats(TOP)
    return failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime")
    ap.add_argument("--times", action="store_true",
                    help="first run the plan unprofiled and print each invocation's seconds")
    args = ap.parse_args()
    return 1 if profile(args.workload, args.seed, args.sort, times=args.times) else 0


if __name__ == "__main__":
    sys.exit(main())
