"""Regenerate pins.json, the reference output of every benchmark invocation.

    python3 perfbench/pin.py

Runs every workload at both sizes for seeds 0 .. VARIANTS-1 and records the
exit code and stdout digest of each invocation, keyed by its command line.
Seeds only enter quiver inputs through a change of basis, so an invocation
that appears under several seeds must give the same output under all of
them; the script refuses to pin otherwise, and refuses any invocation that
raised or printed a traceback.  Re-pin only when an output change is
intended, and say why in the change that does it.
"""

from __future__ import annotations

import json
import sys

from run import PINS, run_sample, workdir
from workloads import VARIANTS, WORKLOADS


def main() -> int:
    pins: dict[str, dict] = {}
    seen = set()
    for name, workload in WORKLOADS.items():
        for tiny in (False, True):
            for seed in range(VARIANTS):
                with workdir("pin") as wd:
                    argvs = workload.plan(seed, wd, tiny)
                    inputs = (tuple(map(tuple, argvs)),
                              tuple(sorted((p.name, p.read_bytes()) for p in wd.iterdir())))
                    if inputs in seen:
                        continue
                    seen.add(inputs)
                    sample = run_sample(wd, argvs)
                for argv, outcome in zip(argvs, sample.outcomes):
                    label = " ".join(argv)
                    rc, exc, digest, errb = outcome
                    if exc or b"Traceback (most recent call last)" in errb:
                        print(f"refusing to pin {label}: {exc or errb.decode()}", file=sys.stderr)
                        return 1
                    entry = {"rc": rc, "sha256": digest}
                    if pins.setdefault(label, entry) != entry:
                        print(f"refusing to pin {label}: output differs between seeds",
                              file=sys.stderr)
                        return 1
                    print(f"{name:<11} seed {seed:<3} rc {rc} {digest[:12]} {label}")
                if len(sample.outcomes) != len(argvs):
                    print(f"refusing to pin {name}: the child did not finish", file=sys.stderr)
                    return 1
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pins)} pins to {PINS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
