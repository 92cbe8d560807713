"""End-to-end and per-layer benchmark of the ``dpcolor`` command.

Usage (from the repository root)::

    python3 bench/run.py --workload critical_families --seed 1 --seconds 40 --trace 0

Workloads: ``critical_families``, ``fdp_mine``, ``potential_scan`` (see
``workloads.py`` and ``README.md``). One process imports dpcolor from
``src/`` and calls ``dpcolor.cli.main`` in-process on each job, capturing its
stdout; every distinct output is checked by ``checks.py`` after the timed
part. Jobs run in rounds, each job once per round, and rounds continue while
the next one still fits in ``--seconds``.

The host's speed drifts by tens of percent over minutes, so every timing is
also taken at reference speed: divided by the mean time of a fixed loop run
just before and just after it, and multiplied by REF_SECONDS. A time metric
is the sum over jobs of each job's median across rounds of that figure.

``--trace 0`` reports the end-to-end metrics ``setup_s``, ``wall`` and
``peak_rss_mb``. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of ``tracer.py`` plus ``trace.overhead``; it
also writes the spans of the last traced pass to ``bench/.work/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; per-job medians go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import tracer  # noqa: E402
from workloads import WORKLOADS, Job  # noqa: E402

WORK = HERE / ".work"
SETUP_REPEATS = 15
# A fixed scale, about what reference_seconds() reads on a 2-vCPU Xeon host
# (5-7 ms): it turns times measured against the reference loop into seconds.
REF_SECONDS = 0.006
DPCOLOR_MODULES = ("cli", "constructions", "critical", "graph")


def import_dpcolor() -> SimpleNamespace:
    """Import dpcolor afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "dpcolor" or m.startswith("dpcolor.")]:
        del sys.modules[name]
    package = importlib.import_module("dpcolor")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "dpcolor":
        raise ImportError(f"dpcolor came from {package.__file__}, not from {ROOT / 'src'}")
    return SimpleNamespace(**{m: importlib.import_module(f"dpcolor.{m}") for m in DPCOLOR_MODULES})


def reference_seconds() -> float:
    """Time a fixed pure-Python loop, a gauge of how fast the host runs right now."""
    xs = list(range(64))
    start = perf_counter()
    total = 0
    for k in range(1500):
        for x in xs:
            if (x ^ k) & 3 == 0:
                total += 1
    return perf_counter() - start


def timed(fn):
    """Run fn(); return its result, its seconds, and its seconds at reference speed.

    The last divides the time by the mean of the reference loop timed just
    before and just after, then multiplies by REF_SECONDS.
    """
    before = reference_seconds()
    start = perf_counter()
    result = fn()
    elapsed = perf_counter() - start
    after = reference_seconds()
    return result, elapsed, elapsed * 2 * REF_SECONDS / (before + after)


def set_up(workload: str, seed: int, workdir: Path) -> tuple[float, SimpleNamespace, list[Job]]:
    """Import dpcolor and prepare the inputs SETUP_REPEATS times; median seconds
    at reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)

        def once():
            dp = import_dpcolor()
            return dp, WORKLOADS[workload](dp, random.Random(seed), workdir)

        (dp, jobs), _, seconds = timed(once)
        times.append(seconds)
    return statistics.median(times), dp, jobs


class Runner:
    """Runs jobs through ``cli.main``, keeping times, exit codes and outputs."""

    def __init__(self, dp: SimpleNamespace, jobs: list[Job]):
        self.dp = dp
        self.jobs = jobs
        # (job name, pass kind) -> [(seconds, seconds at reference speed)]
        self.times: dict[tuple[str, str], list[tuple[float, float]]] = {}
        self.outputs: dict[str, set[str]] = {job.name: set() for job in jobs}
        self.attempted = 0
        self.failed = 0

    def run(self, job: Job, key: str, trace: tracer.Tracer | None = None) -> None:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            if trace is None:
                code, raw, norm = timed(lambda: self.dp.cli.main(list(job.argv)))
            else:
                code, raw, norm = timed(lambda: trace.call("cli.main", self.dp.cli.main, list(job.argv)))
        self.attempted += 1
        if code != 0:
            self.failed += 1
            print(f"FAILED (exit {code}): dpcolor {' '.join(job.argv)}", file=sys.stderr)
        self.times.setdefault((job.name, key), []).append((raw, norm))
        self.outputs[job.name].add(buf.getvalue())

    def median(self, job: Job, key: str, which: int) -> float:
        return statistics.median(t[which] for t in self.times[(job.name, key)])

    def wall(self, key: str) -> float:
        """Sum over jobs of each job's median seconds at reference speed."""
        return sum(self.median(job, key, 1) for job in self.jobs)

    def check(self) -> bool:
        correct = True
        for job in self.jobs:
            for out in self.outputs[job.name]:
                reason = job.check(out)
                if reason is not None:
                    correct = False
                    print(f"WRONG: {job.name}: {reason}", file=sys.stderr)
        return correct

    def report(self, keys: tuple[str, ...]) -> None:
        """Per job and pass kind: median seconds, and at reference speed."""
        for job in self.jobs:
            cols = "  ".join(
                f"{key} {self.median(job, key, 0):7.3f} s ({self.median(job, key, 1):7.3f})"
                for key in keys
            )
            rounds = len(self.times[(job.name, keys[0])])
            print(f"{job.name:42s} {cols}  {rounds} rounds", file=sys.stderr)


def in_rounds(seconds: float, one_round, at_least: int) -> None:
    """Call one_round(r) for r = 0, 1, ...: at least ``at_least`` times, then
    while the next round, as long as the longest so far, still ends in time."""
    start = perf_counter()
    longest = 0.0
    r = 0
    while r < at_least or perf_counter() - start + longest <= seconds:
        began = perf_counter()
        one_round(r)
        r += 1
        longest = max(longest, perf_counter() - began)


def end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    def one_round(r: int) -> None:
        for job in runner.jobs:
            runner.run(job, "wall")

    in_rounds(seconds, one_round, at_least=2)
    runner.report(("wall",))
    return {"wall": runner.wall("wall")}


def per_layer(
    runner: Runner, seconds: float, workload: str, seed: int, workdir: Path, spans_path: Path
) -> dict[str, float]:
    trace = tracer.Tracer()
    passes: list[dict[str, float]] = []

    def traced_pass() -> None:
        trace.spans.clear()
        trace.install(runner.dp)
        try:
            # The inputs are prepared again under the tracer, so set-up layers show.
            WORKLOADS[workload](runner.dp, random.Random(seed), workdir)
            for job in runner.jobs:
                runner.run(job, "traced", trace)
        finally:
            trace.uninstall()
        passes.append(tracer.layer_metrics(trace.spans))

    def plain_pass() -> None:
        for job in runner.jobs:
            runner.run(job, "plain")

    def one_round(r: int) -> None:
        for step in (plain_pass, traced_pass) if r % 2 == 0 else (traced_pass, plain_pass):
            step()

    in_rounds(seconds, one_round, at_least=1)
    runner.report(("plain", "traced"))
    spans_path.write_text(json.dumps(trace.dump()) + "\n", encoding="utf-8")
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead"] = runner.wall("traced") - runner.wall("plain")
    return metrics


def peak_rss_mb() -> float:
    """Peak resident set of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


END_TO_END_UNITS = {"setup_s": "s", "wall": "s", "peak_rss_mb": "MiB"}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_s, dp, jobs = set_up(args.workload, args.seed, workdir)
        runner = Runner(dp, jobs)
        if args.trace:
            spans_path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
            values = per_layer(runner, args.seconds, args.workload, args.seed, workdir, spans_path)
            units = tracer.LAYER_UNITS
        else:
            values = end_to_end(runner, args.seconds)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = peak_rss_mb()
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = runner.check()
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
