#!/usr/bin/env python3
"""Time Norton's simplicity test case by case, and where its time goes.

    python scripts/norton_report.py [--seed S] [--tiny]

The cases are the six representations of the ``quiver`` benchmark workload
for seed S (``perfbench/workloads.quiver_reps``), each tested at the
workload's Norton seed, and the Jordan-quiver Calogero-Moser points
d = (6), (7), (8) of ``perfbench/workloads._cm_point``, drawn with
``random.Random(0)`` and tested at Norton seeds 0 and 20200513.  ``--tiny``
takes the workload's three tiny representations and the point d = (3).

Each case runs in its own cold ``python`` process, which makes one
``quiver.norton_simplicity`` call with the default budget.  The script
prints one line per case: the verdict, the trial count, the seconds of the
call, the rational roots the trials saw and how many of them were settled
(had their kernels read and spun), and the shares of the seconds spent in
the charpoly (``quiver._charpoly``), the root search
(``roots.rational_roots``), the echelons (``linalg._echelon`` as the trials
call it), the kernel reads (``linalg.kernel``, likewise) and the F_P spins
(``quiver._spins_whole_mod_p``), each timed by wrapping the function in the
case's process.

A root is seen when the root search hands it to the trial loop, which
builds its echelon.  A settled root reads its kernel, and when its spins
find no witness there, also builds and reads the echelon of the transpose;
so settled = kernel reads - echelons + seen.

Exit status: 0; 2 on a bad argument; 3 if a case's process did not finish
(its exit code goes to stderr).
"""

import argparse
import json
import random
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from cmfix import quiver, roots
from cmfix.cli import _read_rep
from cmfix.linalg import Mat
from workloads import NORTON_SEED, _cm_point, quiver_reps

# (share label, owner, attribute) of each timed function
PARTS = (("charpoly", quiver, "_charpoly"), ("roots", roots, "rational_roots"),
         ("echelons", quiver, "_echelon"), ("kernels", quiver, "kernel"),
         ("F_P spins", quiver, "_spins_whole_mod_p"))


def cases(seed: int, tiny: bool) -> list[list]:
    """Each case as the JSON list ``measure`` takes: a workload stem, or a point."""
    out = [["workload", stem, seed, tiny, NORTON_SEED] for stem in quiver_reps(seed, tiny)]
    return out + [["cm", n, norton] for n in ((3,) if tiny else (6, 7, 8))
                  for norton in (0, NORTON_SEED)]


def label(case: list) -> str:
    if case[0] == "workload":
        return f"{case[1]} (seed {case[4]})"
    return f"cm d=({case[1]}) (seed {case[2]})"


def build(case: list) -> tuple[quiver.QuiverRep, int]:
    """The representation of a case and its Norton seed."""
    if case[0] == "workload":
        _, stem, seed, tiny, norton = case
        return _read_rep(quiver_reps(seed, tiny)[stem]), norton
    _, n, norton = case
    (X,), (Y,) = _cm_point(random.Random(0), (n,))
    return quiver.QuiverRep((n,), (Mat(n, n, X),), (Mat(n, n, Y),)), norton


def measure(case: list) -> dict:
    """Verdict, trial count, roots seen and settled, seconds and seconds per
    part of one case, in this process."""
    rep, norton = build(case)
    spent = dict.fromkeys((name for name, *_ in PARTS), 0.0)
    calls = dict.fromkeys(spent, 0)
    seen = 0

    def timed(name, func):
        def wrapper(*args):
            calls[name] += 1
            start = time.perf_counter()
            try:
                return func(*args)
            finally:
                spent[name] += time.perf_counter() - start
        return wrapper

    def counted(found):
        nonlocal seen
        for t in found:
            seen += 1
            yield t

    originals = [(owner, attr, getattr(owner, attr)) for _, owner, attr in PARTS]
    for (name, *_), (owner, attr, func) in zip(PARTS, originals):
        setattr(owner, attr, timed(name, func))
    search = roots.rational_roots
    roots.rational_roots = lambda *args: counted(search(*args))
    try:
        start = time.perf_counter()
        res = quiver.norton_simplicity(rep, seed=norton)
        seconds = time.perf_counter() - start
    finally:
        for owner, attr, func in originals:
            setattr(owner, attr, func)
    return {"status": res.status, "trials": res.trials, "seen": seen,
            "settled": calls["kernels"] - calls["echelons"] + seen,
            "seconds": seconds, "parts": spent}


def line(case: list, result: dict) -> str:
    total = result["seconds"] or 1.0
    shares = ", ".join(f"{name} {100 * s / total:.0f} %" for name, s in result["parts"].items())
    return (f"[{result['status']:<9}] {label(case)}: {result['trials']} trials, "
            f"{result['seen']} roots, {result['settled']} settled, "
            f"{result['seconds']:.3f} s; {shares}")


def run(seed: int, tiny: bool) -> int:
    crashed = 0
    for case in cases(seed, tiny):
        proc = subprocess.run([sys.executable, __file__, "--case", json.dumps(case)],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode:
            print(f"error: {label(case)} exited with {proc.returncode}", file=sys.stderr,
                  flush=True)
            crashed += 1
            continue
        print(line(case, json.loads(proc.stdout)), flush=True)
    return 3 if crashed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1, help="seed of the workload representations")
    ap.add_argument("--tiny", action="store_true", help="the tiny representations and d = (3)")
    ap.add_argument("--case", help=argparse.SUPPRESS)  # one case, reported as JSON
    args = ap.parse_args(argv)
    if args.case is not None:
        print(json.dumps(measure(json.loads(args.case))))
        return 0
    return run(args.seed, args.tiny)


if __name__ == "__main__":
    sys.exit(main())
