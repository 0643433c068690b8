#!/usr/bin/env python3
"""Profile one benchmark workload under cProfile.

    python scripts/profile_workload.py WORKLOAD [--seed S] [--sort tottime|cumulative]

WORKLOAD names a workload of ``perfbench/workloads.py`` (filtration,
chartable, quiver, catalog).  Its inputs for seed S are written to a
temporary directory, and its CLI invocations run one after another through
``cmfix.cli.main`` in this one process, as in one benchmark sample.  Their
stdout is discarded; the top 25 functions of the profile go to stderr.  The
exit status is 1 when an invocation exits nonzero.

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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from cmfix.cli import main as cli_main
from workloads import WORKLOADS

TOP = 25


def profile(name: str, seed: int = 1, sort: str = "tottime", tiny: bool = False,
            out=None) -> int:
    """Run the workload under cProfile and print the top TOP to ``out``.

    ``tiny`` selects the reduced plan of the benchmark's own tests.  Returns
    the number of invocations that exited nonzero.  ``out`` defaults to
    stderr.
    """
    out = sys.stderr if out is None else out
    prof = cProfile.Profile()
    failed = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        argvs = WORKLOADS[name].plan(seed, Path(tmp), tiny)
        os.chdir(tmp)  # the plans name their input files relative to it
        try:
            for argv in argvs:
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = prof.runcall(cli_main, argv)
                if rc != 0:
                    failed += 1
                    print(f"exit {rc}: {' '.join(argv)}", file=out)
        finally:
            os.chdir(cwd)
    pstats.Stats(prof, stream=out).sort_stats(sort).print_stats(TOP)
    return failed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--sort", choices=("tottime", "cumulative"), default="tottime")
    args = ap.parse_args()
    return 1 if profile(args.workload, args.seed, args.sort) else 0


if __name__ == "__main__":
    sys.exit(main())
