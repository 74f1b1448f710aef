"""Benchmark of the antiassoc verifier, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One client runs the workload's operations in a closed loop, in this
process and without threads, pass after pass until ``--seconds`` is
spent.  Every result is checked against a known answer, and every time
is scaled to a nominal host speed (see ``HostSpeed``).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5
MIN_PASSES = 3

# The reference loop: a fixed piece of pure-Python Fraction arithmetic, the
# kind of work the library does, timed every SAMPLE_EVERY_S to track the
# host's speed.  Its nominal time is about its median on the 2-vCPU VM the
# benchmark was built on; every reported time is scaled to that speed.
REFERENCE = tuple(tuple(Fraction(3 * i - 2 * j + 1, i + j + 2) for j in range(5)) for i in range(5))
REFERENCE_NOMINAL_S = 2.0e-3
REFERENCE_REPEATS = 3
SAMPLE_EVERY_S = 0.25

MODULES = ("algebra", "bimodules", "classify2d", "cli", "dendriform", "doubles",
           "forms", "io", "linalg", "matched", "operators")


class Library:
    """A fresh import of the antiassoc package from this checkout's ``src``."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "antiassoc" or m.startswith("antiassoc.")]:
            del sys.modules[name]
        self.package = importlib.import_module("antiassoc")
        if Path(self.package.__file__).resolve().parent.parent != SRC:
            raise ImportError(f"antiassoc imported from {self.package.__file__}, not {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"antiassoc.{name}"))

    def namespaces(self) -> list:
        return [self.package] + [getattr(self, name) for name in MODULES]


def reference_loop() -> None:
    cols = tuple(zip(*REFERENCE))
    for _ in range(3):
        [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols] for row in REFERENCE]


class HostSpeed:
    """The host's speed, from the reference loop sampled on a timer.

    The shared host runs the same code at speeds up to about 1.6x apart,
    each lasting from under a second to minutes, so raw times of one
    program differ more between runs than a regression bound allows.
    Inside ``sampling()`` a SIGALRM handler times the reference loop every
    SAMPLE_EVERY_S, in this thread, also in the middle of an operation.
    ``at_nominal`` turns an interval into its time at nominal speed.
    """

    def __init__(self):
        reference_loop()  # warm up
        self.samples: list[tuple[float, float, float]] = []  # (start, end, reference time)
        self.starts: list[float] = []
        self.busy = False
        self.sample()

    def sample(self) -> None:
        """Time the reference loop now (skipped if a sample is under way)."""
        if self.busy:
            return
        self.busy = True
        begin = time.perf_counter()
        times = []
        for _ in range(REFERENCE_REPEATS):
            start = time.perf_counter()
            reference_loop()
            times.append(time.perf_counter() - start)
        self.samples.append((begin, time.perf_counter(), statistics.median(times)))
        self.starts.append(begin)
        self.busy = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def at_nominal(self, start: float, end: float) -> float:
        """The time from ``start`` to ``end``, less the samples taken inside
        it, scaled by nominal / reference.  The reference is the mean of the
        samples from the last one before ``start`` to the first one after
        ``end``, which must have been taken."""
        first = bisect.bisect_right(self.starts, start) - 1
        after = bisect.bisect_left(self.starts, end)
        inside = self.samples[first + 1:after]
        reference = statistics.fmean(r for _, _, r in self.samples[first:after + 1])
        raw = end - start - sum(e - s for s, e, _ in inside)
        return raw * REFERENCE_NOMINAL_S / reference


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def execute(op, tracer=None, op_id=-1) -> tuple[float, float, str]:
    """Run one operation and check it; returns (start, end, outcome)."""
    if tracer is not None:
        tracer.op_id = op_id
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising operation is a failed operation
        return start, time.perf_counter(), f"raised {type(exc).__name__}: {exc}"
    end = time.perf_counter()
    try:
        return start, end, op.check(result)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return start, end, f"unreadable result: {type(exc).__name__}: {exc}"


class Tally:
    def __init__(self):
        self.attempted = self.failed = self.queries = self.undecided = 0
        self.reasons: dict[str, int] = {}

    def add(self, op, outcome: str) -> None:
        self.attempted += 1
        self.queries += op.query
        if outcome == "undecided":
            self.undecided += 1
        elif outcome != "ok":
            self.failed += 1
            key = f"{op.kind}: {outcome}"
            self.reasons[key] = self.reasons.get(key, 0) + 1


def run_pass(ops, tally: Tally, speed: HostSpeed, tracer=None) -> list[float]:
    """One pass; each operation's time at nominal speed."""
    intervals = []
    for k, op in enumerate(ops):
        start, end, outcome = execute(op, tracer, k)
        intervals.append((start, end))
        tally.add(op, outcome)
    speed.sample()
    return [speed.at_nominal(start, end) for start, end in intervals]


def setup(workload: str, seed: int, workdir: Path, speed: HostSpeed):
    """Import the library, write the seeded corpus and warm up; timed as a
    whole, at nominal speed."""
    start = time.perf_counter()
    lib = Library()
    ops, warmups = workloads.WORKLOADS[workload](lib, random.Random(seed), workdir)
    for op in warmups:
        execute(op)
    end = time.perf_counter()
    speed.sample()
    return speed.at_nominal(start, end), lib, ops


def measure(ops, seconds: float, tally: Tally, speed: HostSpeed) -> list[list[float]]:
    """Untraced passes until the next would overrun ``seconds`` (at least MIN_PASSES)."""
    passes: list[list[float]] = []
    begin = time.perf_counter()
    with speed.sampling():
        while True:
            passes.append(run_pass(ops, tally, speed))
            spent = time.perf_counter() - begin
            if len(passes) >= MIN_PASSES and spent + spent / len(passes) > seconds:
                return passes


def end_to_end(setup_times, passes, tally: Tally) -> dict:
    samples = [t for p in passes for t in p]
    deciles = statistics.quantiles(samples, n=10)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        # a pass's time from each operation's median across passes, so a
        # host stall in one pass does not carry into the whole pass's sum
        "wall_s": (sum(statistics.median(times) for times in zip(*passes)), "s"),
        "op_p50_ms": (statistics.median(samples) * 1e3, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "failed_ratio": (tally.failed / tally.attempted, "ratio"),
        "undecided_ratio": (tally.undecided / tally.queries if tally.queries else 0.0, "ratio"),
    }


def traced(lib, ops, seconds: float, tally: Tally, speed: HostSpeed, trace_path: Path,
           header: str) -> dict:
    """Alternate untraced and traced passes until the next pair would overrun
    ``seconds`` (at least one pair); per-layer metrics from the traced ones.
    The reference loop is sampled only at the ends of a traced pass, so
    that no span holds a sample."""
    tracer = tracing.Tracer()
    plain, summaries, first = [], [], None
    begin = time.perf_counter()
    while True:
        with speed.sampling():
            plain.append(sum(run_pass(ops, tally, speed)))
        tracer.reset()
        tracer.install(lib)
        try:
            summaries.append((sum(run_pass(ops, tally, speed, tracer)), tracer.summary()))
        finally:
            tracer.uninstall()
        first = first or tracer.spans
        spent = time.perf_counter() - begin
        if spent + spent / len(summaries) > seconds:
            break
    tracer.write(str(trace_path), header, first)
    overhead = statistics.median(w for w, _ in summaries) / statistics.median(plain)
    return tracing.per_layer_metrics([s for _, s in summaries], overhead)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop("ANTIASSOC_FIXTURES", None)  # always audit the bundled fixtures
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        speed = HostSpeed()
        setup_times = []
        with speed.sampling():
            for _ in range(SETUP_REPEATS):
                elapsed, lib, ops = setup(args.workload, args.seed, workdir, speed)
                setup_times.append(elapsed)
        tally = Tally()
        env = environment()
        header = json.dumps({"workload": args.workload, "seed": args.seed, **env})
        print(f"# {header}")
        if args.trace:
            trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.tsv.gz"
            metrics = traced(lib, ops, args.seconds, tally, speed, trace_path, header)
            print(f"# spans of the first traced pass: {trace_path.relative_to(ROOT)}")
        else:
            passes = measure(ops, args.seconds, tally, speed)
            values = end_to_end(setup_times, passes, tally)
            print(f"# {len(passes)} passes of {len(ops)} operations; "
                  f"op_p90_ms over {sum(map(len, passes))} samples")
            references = [r for _, _, r in speed.samples]
            deciles = statistics.quantiles(references, n=10)
            print(f"# reference loop over {len(references)} samples: median "
                  f"{statistics.median(references) * 1e3:.3f} ms, deciles 1-9 "
                  f"{deciles[0] * 1e3:.3f}-{deciles[8] * 1e3:.3f} ms; times below are "
                  f"scaled to its nominal {REFERENCE_NOMINAL_S * 1e3:g} ms")
            for name, (value, unit) in values.items():
                print(f"{name} {value:.6g} {unit}")
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()
                if name not in ("failed_ratio", "undecided_ratio")
            }
    except ImportError as exc:
        print(f"error: cannot import antiassoc from {SRC}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for reason, count in sorted(tally.reasons.items()):
        print(f"# failed x{count}: {reason}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
