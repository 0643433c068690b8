#!/usr/bin/env python3
"""Run the codimension-filtration check over a grid and print a summary.

Every component restriction morphism Z(C G(l,1,n)) ->> Z(C G(kl,1,r)) is
checked class sum by class sum.  The script exits 1 if any certificate of
violation shows up and 2 on a malformed --grid.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cmfix.partitions import enumerate_core_tuples
from cmfix.wreath import verify_filtration

# the last eight points have components of rank r >= 2, where the verdict can fail
DEFAULT_GRID = ("1,2,2;1,3,2;1,4,2;2,2,2;2,3,2;3,2,2;"
                "2,4,2;2,5,2;3,4,2;1,6,3;2,6,2;3,6,2;4,5,2;2,9,2")


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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", default=DEFAULT_GRID,
                    help="semicolon-separated l,n,k triples")
    args = ap.parse_args()
    try:
        grid = parse_grid(args.grid)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failures = 0
    for l, n, k in grid:
        t0 = time.time()
        for gamma in enumerate_core_tuples(k, l, n):
            rep = verify_filtration(l, n, k, gamma)
            mark = "ok " if rep.passed else "BAD"
            print(f"[{mark}] l={l} n={n} k={k} gamma={gamma} "
                  f"({rep.checked} classes, {time.time()-t0:.2f}s)")
            if not rep.passed:
                failures += 1
                for cert in rep.certificates:
                    print(f"      violates: class {cert[0]} (codim {cert[1]}) "
                          f"-> {cert[2]} (codim {cert[3]})")
    print(f"{failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
