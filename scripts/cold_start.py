#!/usr/bin/env python3
"""Cold-start profile of ``import cmfix.cli`` and of reading its command line.

    python scripts/cold_start.py [--runs N]

Starts N fresh interpreters that only start (``pass``) and N that run
``import cmfix.cli``, alternated, and prints the median wall time of each.
Then N more pairs of fresh interpreters each import ``cmfix.cli`` and time,
inside the interpreter, reading a ``verify-filtration`` command line two
ways: from the command registry (``cmfix.cli._read_argv``), which is what
``cmfix.cli.main`` does with a well-formed line, and with the parser of that
one command, which ``main`` now builds only for help and refusals.  The
parser's first build in a process also imports argparse and pays for what it
loads and compiles on first use, so each timing needs its own interpreter.
It prints the median of each.  One more interpreter then lists the modules
outside cmfix that importing ``cmfix.cli`` adds to those the bare
interpreter had already loaded.

Every interpreter imports the ``src`` of this checkout and inherits the
caller's environment, so it reads and writes bytecode caches as the caller's
``PYTHONDONTWRITEBYTECODE`` and ``__pycache__`` directories allow.  The
machine's ``site`` runs in both kinds of interpreter, so the difference of
the two medians is the cost of the import.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ARGV = ["verify-filtration", "--l", "3", "--n", "3", "--k", "2"]
# seconds to read {0!r} from the command registry
READ = ("import time, cmfix.cli as cli; start = time.perf_counter(); "
        "cli._read_argv({0!r}); print(time.perf_counter() - start)")
# seconds to build the parser of command {0!r} and parse {1!r}
PARSE = ("import time, cmfix.cli as cli; start = time.perf_counter(); "
         "cli.build_parser({0!r}).parse_known_args({1!r}); print(time.perf_counter() - start)")
ADDED = ("import sys; before = set(sys.modules); import cmfix.cli; "
         "print(*sorted(m for m in set(sys.modules) - before if m.split('.')[0] != 'cmfix'))")


def _python(code: str) -> tuple[float, str]:
    """Wall time and stdout of one fresh interpreter running ``code``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return time.perf_counter() - start, proc.stdout


def cold_start(runs: int) -> tuple[float, float, float, float, list[str]]:
    """Median seconds of a bare start, of ``import cmfix.cli``, of reading ARGV
    from the registry and of building the one-command parser and parsing ARGV
    with it, and the modules outside cmfix that the import adds; 4 * runs + 1
    interpreters."""
    bare, cli, read, one = [], [], [], []
    for _ in range(runs):
        bare.append(_python("pass")[0])
        cli.append(_python("import cmfix.cli")[0])
        read.append(float(_python(READ.format(ARGV))[1]))
        one.append(float(_python(PARSE.format(ARGV[0], ARGV))[1]))
    return (statistics.median(bare), statistics.median(cli), statistics.median(read),
            statistics.median(one), _python(ADDED)[1].split())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=20, help="interpreters of each kind (default 20)")
    args = ap.parse_args()
    if args.runs < 1:
        ap.error("--runs must be >= 1")
    bare, cli, read, one, added = cold_start(args.runs)
    print(f"bare interpreter: median {bare:.4f} s over {args.runs} runs")
    print(f"import cmfix.cli: median {cli:.4f} s over {args.runs} runs "
          f"({cli - bare:+.4f} s)")
    print(f"registry read, what main does: median {read * 1e3:.3f} ms over {args.runs} runs")
    print(f"one-command parser, for help and refusals, import, build and parse: median "
          f"{one * 1e3:.3f} ms over {args.runs} runs ({(one - read) * 1e3:+.3f} ms)")
    print(f"modules outside cmfix that it adds ({len(added)}): {' '.join(added)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
