"""The cmfix benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run every
workload in turn and print one table.  Run from anywhere inside a checkout
that has ``src/cmfix``; inputs are generated into ``.perfbench/`` at the
checkout root and removed afterwards.

Closed loop, one client: each sample starts a fresh interpreter
(``child.py``), which imports ``cmfix.cli`` and then runs the workload's
invocations one after another through ``cmfix.cli.main``, so every sample
pays the cold ``lru_cache``s that every CLI user pays.  Samples repeat until
the next one would end after ``--seconds``; at least ``MIN_SAMPLES`` run.

Every invocation's exit code and stdout digest are checked against
``pins.json``; a mismatch, a raised exception or a printed traceback counts as
a failed invocation and the run goes on.

``--trace 0`` reports the end-to-end metrics (medians over the samples):

* ``setup_s``: interpreter start plus ``import cmfix.cli``, up to the first
  invocation (``SETUP_PROBES`` extra set-ups are added to the samples');
* ``run_s``: from the first invocation to the last byte of output;
* ``peak_rss_mib``: peak resident memory of the sample's process.

Times are scaled to the reference machine's speed: each child also times
``child.calibrate()`` just before its first and after its last invocation,
and a sample's times are multiplied by ``CAL_REF_S`` over the mean of the
two (see NOTES.md for why and how well that tracks a shared machine).

``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of ``spans.py`` plus ``trace_overhead_s``, the traced
minus the untraced median ``run_s``.

The last line of stdout is the JSON result; the lines before it are the same
numbers for people, with sample counts and ``fail_ratio``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

import spans
from child import CAL_REF_S
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINS = HERE / "pins.json"
WORK = ROOT / ".perfbench"

SETUP_PROBES = 5
MIN_SAMPLES = 3
# a sample still running after this many seconds is killed; its missing
# invocations count as failed
CHILD_TIMEOUT = 150

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mib", "MiB"))


class BenchError(Exception):
    """The benchmark could not measure at all (as opposed to a failed invocation)."""


@dataclass
class Sample:
    setup_s: float
    cals: list = field(default_factory=list)  # calibrate() seconds, before and after the invocations
    run_s: float | None = None  # None when the child did not finish
    rss_mib: float | None = None
    outcomes: list = field(default_factory=list)  # (rc, exc, stdout sha256, stderr) per invocation
    layers: tuple | None = None  # traced: (spans header, {layer: (calls, self s)})

    @property
    def speed(self) -> float:
        """The machine's speed around this sample, relative to the reference machine."""
        return CAL_REF_S / statistics.mean(self.cals)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CM_SEED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_sample(workdir: Path, argvs: list[list[str]], spans_path: Path | None = None) -> Sample:
    """Run one fresh interpreter over argvs; time it from outside."""
    plan = workdir / "plan.json"
    plan.write_text(json.dumps({"argvs": argvs, "spans": spans_path and str(spans_path)}))
    errlog = workdir / "child.err"
    with open(errlog, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(plan)],
            cwd=workdir, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err,
        )
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            if proc.stdout.readline() != b"ready\n":
                proc.wait()
                raise BenchError(f"the child did not start:\n{errlog.read_text(errors='replace')}")
            sample = Sample(setup_s=time.perf_counter() - t0)
            sample.cals.append(json.loads(proc.stdout.readline())["cal"])
            t1 = time.perf_counter()
            frames = []
            for _ in argvs:
                head = proc.stdout.readline()
                if not head:
                    break
                head = json.loads(head)
                frames.append((head, proc.stdout.read(head["out"]), proc.stdout.read(head["err"])))
            t2 = time.perf_counter()
            # keep digests only, so the parent stays small (a forked child starts
            # with the parent's memory)
            sample.outcomes = [(h["rc"], h["exc"], hashlib.sha256(body).hexdigest(), errb)
                               for h, body, errb in frames]
            tail = proc.stdout.readline()
            if len(sample.outcomes) == len(argvs) and tail:
                tail = json.loads(tail)
                sample.run_s = t2 - t1
                sample.rss_mib = tail["peak_rss_kib"] / 1024
                sample.cals.append(tail["cal"])
            proc.stdout.close()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return sample


class Tally:
    """Invocation outcomes checked against the pinned references."""

    def __init__(self, pins: dict, labels: list[str]):
        self.pins = pins
        self.labels = labels
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def check(self, sample: Sample) -> None:
        for i, label in enumerate(self.labels):
            self.attempted += 1
            why = None
            pin = self.pins.get(label)
            if i >= len(sample.outcomes):
                why = "no output: the child died or timed out"
            else:
                rc, exc, digest, errb = sample.outcomes[i]
                if exc:
                    why = "raised " + exc.strip().splitlines()[-1]
                elif b"Traceback (most recent call last)" in errb:
                    why = "printed a traceback"
                elif pin is None:
                    why = "no pinned reference"
                elif rc != pin["rc"]:
                    why = f"exit code {rc}, pinned {pin['rc']}"
                elif digest != pin["sha256"]:
                    why = "stdout differs from the pinned digest"
            if why:
                self.failed += 1
                self.reasons.append(f"{label}: {why}")


def load_pins() -> dict:
    return json.loads(PINS.read_text(encoding="utf-8"))


@contextmanager
def workdir(tag: str):
    path = WORK / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with suppress(OSError):
            WORK.rmdir()


def _repeat(fn, deadline: float, minimum: int) -> list:
    """Call fn until the next call would end after deadline (at least minimum times)."""
    out, walls = [], []
    while True:
        t = time.perf_counter()
        out.append(fn())
        walls.append(time.perf_counter() - t)
        if len(out) >= minimum and time.perf_counter() + statistics.median(walls) > deadline:
            return out


def _finished(samples: list[Sample]) -> list[Sample]:
    done = [s for s in samples if s.run_s is not None]
    if not done:
        raise BenchError("no sample finished")
    return done


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, pins: dict | None = None) -> dict:
    """One benchmark run.

    Returns {"result": <the JSON result line>, "samples": {metric:
    per-sample values}, "info": {label: (value, unit)}, "reasons": [why each
    failed invocation failed]}.
    """
    pins = load_pins() if pins is None else pins
    with workdir(name) as wd:
        argvs = WORKLOADS[name].plan(seed, wd, tiny)
        tally = Tally(pins, [" ".join(a) for a in argvs])
        deadline = time.perf_counter() + seconds
        if trace:
            values, samples, info = _traced(wd, argvs, tally, deadline)
        else:
            probes = [run_sample(wd, []) for _ in range(SETUP_PROBES)]
            runs = _repeat(lambda: run_sample(wd, argvs), deadline, MIN_SAMPLES)
            for s in runs:
                tally.check(s)
            done = _finished(runs)
            samples = {
                "setup_s": [s.setup_s * s.speed for s in probes + runs],
                "run_s": [s.run_s * s.speed for s in done],
                "peak_rss_mib": [s.rss_mib for s in done],
            }
            values = {k: statistics.median(v) for k, v in samples.items()}
            info = {"unscaled run_s": (statistics.median(s.run_s for s in done), "s"),
                    "machine speed": (statistics.median(s.speed for s in done), "x ref")}
    units = dict(END_TO_END + tuple(spans.per_layer_metrics()))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    return {"result": result, "samples": samples, "info": info, "reasons": tally.reasons}


def _traced(wd: Path, argvs, tally: Tally, deadline: float):
    def pair():
        plain = run_sample(wd, argvs)
        path = wd / "spans.bin"
        traced = run_sample(wd, argvs, spans_path=path)
        if traced.run_s is not None:
            header, cols = spans.load(str(path))
            traced.layers = header, spans.layer_totals(header, cols)
        path.unlink(missing_ok=True)
        return plain, traced

    pairs = _repeat(pair, deadline, 1)
    for plain, traced in pairs:
        tally.check(plain)
        tally.check(traced)
    plain = _finished([p for p, _ in pairs])
    traced = _finished([t for _, t in pairs])
    header, first = traced[0].layers
    values = {}
    for layer in spans.LAYERS:
        values[f"{layer}.calls"] = first[layer][0]
        values[f"{layer}.self_s"] = statistics.median(s.layers[1][layer][1] * s.speed for s in traced)
        if layer in spans.CACHED:
            hits, misses = header["caches"][layer]
            values[f"{layer}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    norton = first["quiver.norton_simplicity"][0]
    values["quiver.trials"] = header["trials"]
    values["quiver.decided_ratio"] = header["decided"] / norton if norton else 0.0
    samples = {"untraced run_s": [s.run_s * s.speed for s in plain],
               "traced run_s": [s.run_s * s.speed for s in traced]}
    info = {k: (statistics.median(v), "s") for k, v in samples.items()}
    values["trace_overhead_s"] = info["traced run_s"][0] - info["untraced run_s"][0]
    return values, samples, info


def _tail(values: list[float]) -> str:
    # the highest percentile with at least ten samples above it
    n = len(values)
    k = n - 10
    if 2 * k <= n:
        return f"median of {n}; a tail percentile needs more than 20 samples"
    return f"median of {n}; p{100 * k / n:.0f} = {sorted(values)[k - 1]:.6g}"


def report(name: str, run: dict, out=sys.stdout) -> None:
    """The run's numbers for people: one line per metric, with units and sample counts."""
    res = run["result"]
    samples = run["samples"]

    def line(label, value, unit, note=""):
        out.write(f"{name:<11} {label:<44} {value:<12.6g} {unit:<6} {note}\n")

    for metric, m in res["metrics"].items():
        layer = metric.rsplit(".", 1)[0]
        if layer in spans.LAYERS and res["metrics"][f"{layer}.calls"]["value"] == 0:
            continue  # the workload never calls this layer
        line(metric, m["value"], m["unit"], _tail(samples[metric]) if metric in samples else "")
    for label, (value, unit) in run["info"].items():
        line(label, value, unit, _tail(samples[label]) if label in samples else "")
    line("fail_ratio", res["failed"] / res["attempted"], "ratio",
         f"{res['failed']} of {res['attempted']} invocations failed")
    for why in run["reasons"][:10]:
        out.write(f"{name:<11} FAILED {why}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Benchmark the cmfix CLI.")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "cmfix" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'cmfix'} not found; run inside a cmfix checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            run = measure(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        report(name, run)
        results[name] = run["result"]
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
