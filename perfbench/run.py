"""Benchmark of the stockpolytope CLI on four seeded workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-year --seed 1 --seconds 15 --trace 0

Set-up imports ``stockpolytope`` from the checkout's ``src`` and writes the
workload's CSVs under ``.perfbench/``.  Then one caller, in this process and
with no threads, runs the workload's jobs through ``stockpolytope.cli.main``
as a closed loop: each job starts when the previous one ends.  Jobs run in
whole rounds, the same list each round, until ``--seconds`` have passed
and at least the workload's minimum number of rounds is done.  Every
output of the first round is checked against independent formulas
(``checks.py``) after the timed phase; every later output must equal the
first round's output for the same job.

``--trace 0`` prints the end-to-end metrics, with times at reference
speed (see ``REFERENCE_MS``).  ``--trace 1`` runs each job twice, once
as it is and once with spans around the program's public functions
(``tracing.py``); the two outputs must be equal.  It prints the
per-layer metrics.  The last line of
stdout is the result as JSON; a copy goes to ``.perfbench/results/``.
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
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
sys.path[:0] = [HERE, SRC]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Per workload: the tail percentile and the fewest rounds a run makes.
# The rounds guarantee at least ten jobs beyond that percentile.
TAIL = {
    "analyze-year": (75, 4),    # 11 jobs a round, >= 44 jobs
    "chain-quarter": (80, 7),   # 8 jobs a round, >= 56 jobs
    "render-decade": (90, 4),   # 30 jobs a round, >= 120 jobs
    "facets-sweep": (99, 3),    # 414 jobs a round, >= 1242 jobs
}
SETUP_REPEATS = 9

# Times are reported at reference speed.  The host's speed drifts by a
# quarter and more over minutes, the same for every job of a run, so each
# job's wall time is scaled by REFERENCE_MS over the time a fixed
# computation of the benchmark's own (``reference``) takes right after it.
# The reference runs after at least REFERENCE_EVERY_S of job time.
REFERENCE_MS = 10.0
REFERENCE_EVERY_S = 0.1


def _reference_cells():
    rng = random.Random("perfbench reference")
    cells = []
    for n in (12, 13):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        cells.append(checks.Cell.of(tuple(images), frozenset()))
    return cells, tuple(range(30, 0, -1))


_REFERENCE = _reference_cells()


def reference_ms() -> float:
    """Wall time of a fixed, program-like computation: bases, blocks, dimensions."""
    cells, reverse = _REFERENCE
    start = perf_counter()
    for cell in cells:
        cell.bases()
        cell.components()
    for _ in range(8):
        checks.Cell.of(reverse, frozenset()).dimension()
    return (perf_counter() - start) * 1000


def import_program():
    """Import ``stockpolytope`` afresh from this checkout; return its CLI module."""
    if not os.path.isfile(os.path.join(SRC, "stockpolytope", "cli.py")):
        raise SystemExit(f"perfbench: no src/stockpolytope/cli.py under {ROOT}")
    for name in [m for m in sys.modules if m == "stockpolytope" or m.startswith("stockpolytope.")]:
        del sys.modules[name]
    importlib.import_module("stockpolytope")
    cli = importlib.import_module("stockpolytope.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported {cli.__file__}, not the checkout's copy")
    return cli


def setup(workload: str, seed: int, workdir: str):
    """Import and generate, ``SETUP_REPEATS`` times; then write the CSVs once.

    Returns the CLI module, the jobs and the median set-up time in seconds,
    raw and at reference speed.  Writing the files stays out of the timed
    set-up: how long creating a file takes depends on the directory and the
    host, not on the program (see the README).
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        cli = import_program()
        jobs, files = workloads.build(workload, seed, workdir)
        raw.append(perf_counter() - start)
        scaled.append(raw[-1] * REFERENCE_MS / reference_ms())
    os.makedirs(workdir, exist_ok=True)
    workloads.write(files)
    return cli, jobs, statistics.median(raw), statistics.median(scaled)


def call(main, argv) -> tuple[int, str]:
    """One CLI call; returns the exit code and what it printed to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash fails the job; the run goes on
            traceback.print_exc()
            code = 1
    if code != 0:
        sys.stderr.write(f"perfbench: exit {code} from {' '.join(argv)}\n{err.getvalue()}")
    return code, out.getvalue()


class Loop:
    """Whole rounds of the job list; remembers the first output of each job."""

    def __init__(self, jobs, seconds: float, min_rounds: int) -> None:
        self.jobs, self.seconds, self.min_rounds = jobs, seconds, min_rounds
        self.first: list[str | None] = [None] * len(jobs)
        self.attempts: list[tuple[int, bool]] = []   # (job, same as its first output)
        self.times: list[float] = []    # wall seconds per job
        self.scale: list[float] = []    # per job, REFERENCE_MS over the reference after it
        self.references: list[float] = []
        self.twin_mismatches: list[int] = []

    def run(self, main, twin=None) -> None:
        """Run whole rounds of ``main``; with ``twin``, each job runs twice.

        ``twin(job)`` runs the job a second way and returns (exit code,
        output), which must equal the plain call's.  The twin goes first
        on every other job, so neither way always runs on the caches the
        other has warmed, and no reference is timed in between.
        """
        start = perf_counter()
        rounds, since = 0, 0.0
        while rounds < self.min_rounds or perf_counter() - start < self.seconds:
            for j, job in enumerate(self.jobs):
                twin_first = twin is not None and len(self.times) % 2 == 1
                if twin_first:
                    twin_result = twin(job)
                t0 = perf_counter()
                code, out = call(main, job.argv)
                self.times.append(perf_counter() - t0)
                since += self.times[-1]
                if rounds == 0 and code == 0:
                    self.first[j] = out
                self.attempts.append((j, code == 0 and out == self.first[j]))
                if twin is not None:
                    if not twin_first:
                        twin_result = twin(job)
                    if twin_result != (code, out):
                        self.twin_mismatches.append(j)
                        sys.stderr.write(f"perfbench: the two ways differ on {' '.join(job.argv)}\n")
                elif since >= REFERENCE_EVERY_S:
                    self._reference()
                    since = 0.0
            rounds += 1
        if twin is None and len(self.scale) < len(self.times):
            self._reference()

    def _reference(self) -> None:
        self.references.append(reference_ms())
        self.scale.extend([REFERENCE_MS / self.references[-1]] * (len(self.times) - len(self.scale)))

    def check(self) -> tuple[bool, int]:
        """Check first outputs; returns (all checked outputs correct, failed attempts)."""
        checker = checks.Checker()
        passed = []
        for job, out in zip(self.jobs, self.first):
            if out is None:
                passed.append(False)
                continue
            try:
                checker.check(job, out)
                passed.append(True)
            except checks.CheckFailed as exc:
                sys.stderr.write(f"perfbench: check failed for {' '.join(job.argv)}: {exc!r}\n")
                passed.append(False)
        correct = all(ok for ok, out in zip(passed, self.first) if out is not None)
        failed = sum(1 for j, same in self.attempts if not (same and passed[j]))
        return correct, failed


def end_to_end(times_ms: list[float], setup_s: float, tail: int) -> dict:
    return {
        "jobs_per_s": {"value": 1000 * len(times_ms) / sum(times_ms), "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(times_ms), "unit": "ms"},
        "job_tail_ms": {
            "value": statistics.quantiles(times_ms, n=100, method="inclusive")[tail - 1], "unit": "ms"
        },
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, "work", tag)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    try:
        cli, jobs, raw_setup_s, setup_s = setup(args.workload, args.seed, workdir)
        tail, min_rounds = TAIL[args.workload]
        if not args.trace:
            loop = Loop(jobs, args.seconds, min_rounds)
            loop.run(cli.main)
            metrics = end_to_end([t * s * 1000 for t, s in zip(loop.times, loop.scale)], setup_s, tail)
            raw = end_to_end([t * 1000 for t in loop.times], raw_setup_s, tail)
            correct, failed = loop.check()
        else:
            tracer = tracing.Tracer()
            patches = tracer.patches()
            loop = Loop(jobs, args.seconds, 1)
            loop.run(cli.main, twin=lambda job: tracer.run_job(patches, lambda: call(cli.main, job.argv)))
            metrics = tracing.layer_metrics(tracer, [t * 1000 for t in loop.times])
            raw = metrics
            tracer.write(os.path.join(OUT, "results", tag + ".jsonl"))
            correct, failed = loop.check()
            correct = correct and not loop.twin_mismatches
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": correct, "attempted": len(loop.attempts), "failed": failed, "metrics": metrics}
    line = json.dumps(result)
    record = {"result": result, "raw_metrics": raw, "reference_ms": loop.references}
    with open(os.path.join(OUT, "results", tag + ".json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
