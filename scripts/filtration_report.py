#!/usr/bin/env python3
"""Run the codimension-filtration check over a grid and print a summary.

Every component restriction morphism Z(C G(l,1,n)) ->> Z(C G(kl,1,r)) is
checked class sum by class sum.  Each grid point runs in its own cold
``python`` process, which checks every gamma of the point in one call.  The
script prints one line per point: its verdict, the all-gamma time, the share
of it spent in ``wreath._columns`` (the rim-hook recursion, timed by wrapping
it in the point's process) and the process's peak RSS (``ru_maxrss``),
followed by the certificate lines of any failing gamma.

Exit status: 1 if a certificate of violation shows up, 2 on a malformed
--grid, 3 if no certificate shows up but some point's process did not finish
(its exit code goes to stderr).
"""

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmfix import wreath
from cmfix.partitions import enumerate_core_tuples

# the points from (2,4,2) on have components of rank r >= 2, where the verdict
# can fail; the last five, (2,6,3), (3,8,3), (3,7,2), (5,5,2) and (3,8,2) of
# rank 4, take under a second each
DEFAULT_GRID = ("1,2,2;1,3,2;1,4,2;2,2,2;2,3,2;3,2,2;"
                "2,4,2;2,5,2;3,4,2;1,6,3;2,6,2;3,6,2;4,5,2;2,9,2;"
                "2,6,3;3,8,3;3,7,2;5,5,2;3,8,2")


def parse_grid(text: str) -> list[tuple[int, int, int]]:
    grid = []
    for spec in text.split(";"):
        try:
            l, n, k = (int(x) for x in spec.split(","))
        except ValueError:
            raise ValueError(f"grid point {spec!r} is not three integers l,n,k") from None
        if l < 1 or k < 1 or n < 0:
            raise ValueError(f"grid point {spec!r} needs l >= 1, n >= 0 and k >= 1")
        grid.append((l, n, k))
    return grid


def certificate_lines(rep) -> list[str]:
    return [f"      violates: class {cert[0]} (codim {cert[1]}) -> {cert[2]} (codim {cert[3]})"
            for cert in rep.certificates]


def measure_point(l: int, n: int, k: int) -> dict:
    """All-gamma time, its _columns share, peak RSS and failures of one
    point in this process."""
    gammas = enumerate_core_tuples(k, l, n)
    columns, spent = wreath._columns, []

    def timed(*args):
        t = time.perf_counter()
        try:
            return columns(*args)
        finally:
            spent.append(time.perf_counter() - t)

    wreath._columns = timed
    try:
        t0 = time.perf_counter()
        reports = wreath.verify_filtration(l, n, k, gammas)
        t1 = time.perf_counter()
    finally:
        wreath._columns = columns
    bad = [rep for rep in reports if not rep.passed]
    return {
        "gammas": len(reports),
        "failing": len(bad),
        "gamma_s": t1 - t0,
        "columns_s": sum(spent),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,  # KiB on Linux
        "lines": [line for rep in bad
                  for line in [f"      gamma={rep.gamma}", *certificate_lines(rep)]],
    }


def run_grid(grid) -> int:
    failures = crashed = 0
    for l, n, k in grid:
        proc = subprocess.run([sys.executable, __file__, "--point", f"{l},{n},{k}"],
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode:
            print(f"error: point {l},{n},{k} exited with {proc.returncode}",
                  file=sys.stderr, flush=True)
            crashed += 1
            continue
        point = json.loads(proc.stdout)
        print(f"[{'BAD' if point['failing'] else 'ok '}] l={l} n={n} k={k}: "
              f"{point['gammas']} gamma, {point['failing']} failing, "
              f"all gamma {point['gamma_s']:.2f}s (_columns {point['columns_s']:.2f}s), "
              f"peak RSS {point['peak_rss_mib']:.1f} MiB",
              flush=True)
        for line in point["lines"]:
            print(line)
        failures += point["failing"]
    tail = f", {crashed} of {len(grid)} points did not finish" if crashed else ""
    print(f"{failures} failures{tail}")
    return 1 if failures else 3 if crashed else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--grid", default=DEFAULT_GRID,
                    help="semicolon-separated l,n,k triples")
    ap.add_argument("--point", help=argparse.SUPPRESS)  # one grid point, reported as JSON
    args = ap.parse_args()
    try:
        grid = parse_grid(args.grid if args.point is None else args.point)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.point is not None:
        print(json.dumps(measure_point(*grid[0])))
        return 0
    return run_grid(grid)


if __name__ == "__main__":
    sys.exit(main())
