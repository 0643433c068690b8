"""One benchmark sample: a fresh interpreter that runs CLI invocations.

Usage: ``python3 child.py PLAN`` where PLAN is a JSON file
``{"argvs": [[...], ...], "spans": null | "path"}``.

Protocol on stdout, read by ``run.py``:

1. ``ready\\n`` once ``cmfix.cli`` is imported (and, with ``spans``, the
   tracer installed);
2. a JSON line ``{"cal": seconds}``, the time of ``calibrate()`` just before
   the first invocation;
3. per invocation, a JSON header line ``{"rc", "exc", "out", "err"}``
   followed by ``out`` bytes of its stdout and ``err`` bytes of its stderr;
4. a final JSON line ``{"peak_rss_kib", "cal"}``, written after the spans
   file, with the time of ``calibrate()`` just after the last invocation.

Each invocation goes through ``cmfix.cli.main(argv)``, the path the
``cmfix`` console script takes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from fractions import Fraction

# calibrate() on the reference machine (2 vCPU Intel Xeon VM, Python 3.11.7);
# run.py scales every time it reports by CAL_REF_S / calibrate()
CAL_REF_S = 0.08


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of Fraction, tuple and dict work.

    The machine's speed drifts by a fifth over minutes when it is shared;
    timing this loop in the same process right before and after the
    invocations measures that drift where the work runs.
    """
    t = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 20000):
        acc += Fraction(i % 97, i % 89 + 1)
        seen[(i % 61, i % 7)] = acc.numerator % 1000
    return time.perf_counter() - t


def peak_rss_kib() -> int:
    """VmHWM of this process image.

    Not ``ru_maxrss``: Linux carries the forking parent's peak over into the
    child's ``ru_maxrss`` across exec, while VmHWM starts afresh with the
    image.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    pipe = sys.stdout.buffer

    import cmfix.cli

    tracer = None
    if plan["spans"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    pipe.write(b"ready\n")
    pipe.flush()
    pipe.write(json.dumps({"cal": calibrate()}).encode() + b"\n")
    pipe.flush()

    for run_id, argv in enumerate(plan["argvs"]):
        if tracer:
            tracer.run_id = run_id
        out, err = io.StringIO(), io.StringIO()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cmfix.cli.main(argv)
            except SystemExit as stop:  # argparse usage errors
                rc = stop.code
            except Exception:
                rc = None
                exc = traceback.format_exc()
        body, errb = out.getvalue().encode(), err.getvalue().encode()
        head = {"rc": rc, "exc": exc, "out": len(body), "err": len(errb)}
        pipe.write(json.dumps(head).encode() + b"\n" + body + errb)
        pipe.flush()

    if tracer:
        tracer.dump(plan["spans"])
    done = {"peak_rss_kib": peak_rss_kib(), "cal": calibrate()}
    pipe.write(json.dumps(done).encode() + b"\n")
    pipe.flush()


if __name__ == "__main__":
    main()
