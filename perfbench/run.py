"""The repository benchmark: three workloads, end-to-end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload study-serial --seed 1 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--workload`` is one of ``study-serial``, ``crawl-sharded``,
``service-jobs`` (see ``workloads.py`` for what each runs and why) or
``all``, which runs the three in turn, each in its own process.
``BENCHMARK.json`` lists only ``crawl-sharded`` and ``service-jobs``:
on a shared 2-vCPU host the serial study's medians drifted by a quarter
between two sets of runs of the same code, so judge it only from
interleaved pairs (``compare.py``).  With ``--trace 0`` the run
reports the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
it reports the per-layer metrics instead, from a traced run that also
measures the tracing overhead against untraced operations of the same
invocation.

End-to-end metrics, per workload:

* ``study_s`` — median latency of one checked study: process spawn to
  exit for the two study workloads, ``POST /studies`` to the fetched
  ``/result`` for ``service-jobs`` (the served study; printed there as
  ``job_p50_s`` too, beside ``job_tail_s``).
* ``setup_s`` — median time from spawn until the program can do its
  first unit of work: the first ``Study.crawl`` entry, or the first
  ``GET /healthz`` that answers 200.  Measured on every operation plus
  three set-up-only start-ups after each one, and on five server
  start-ups per ``service-jobs`` run.
* ``cpu_s`` — user plus system CPU of the program's processes per
  operation, workers included (``RUSAGE_CHILDREN`` deltas); on
  ``service-jobs`` the server's CPU over the steady jobs only, per job.
* ``peak_rss_mb`` — the largest max-RSS of any program process.
* ``jobs_per_s`` — completed operations per second in the closed loop.

Every operation's output is checked (see ``workloads.py``); failures
are counted against attempts, a line ``failed_ratio`` is printed, and a
run with any failure exits 1.  The last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.
``--out PATH`` also writes the full result, stamped with the host class
(``cpu_count``, Python version, platform) and the start time that
``compare.py`` checks.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HARNESS_DIR = os.path.join(ROOT, "benchmarks")


def _require_tree() -> None:
    """Refuse to run outside a full checkout of the repository."""
    needed = [os.path.join(ROOT, "src", "repro", "__init__.py"),
              os.path.join(HARNESS_DIR, "harness.py")]
    missing = [path for path in needed if not os.path.isfile(path)]
    if missing:
        print("perfbench: not a checkout of the repository (missing %s)"
              % ", ".join(os.path.relpath(path, ROOT) for path in missing),
              file=sys.stderr)
        sys.exit(2)


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 work: str):
    """``(outcome, {metric: (value, unit)}, correct)`` of one workload.

    A traced run reports every per-layer metric; a layer that does not
    run on the workload reads 0.
    """
    from layers import METRICS
    from workloads import WORKLOADS
    outcome = WORKLOADS[name](seed, seconds, traced, work)
    if traced:
        metrics = {metric: (outcome.layers.get(metric, 0.0), unit)
                   for metric, unit, _ in METRICS}
        measured = bool(outcome.layers)
    else:
        metrics = outcome.metrics
        measured = bool(metrics)
    return outcome, metrics, outcome.failed == 0 and measured


def _print_outcome(name: str, outcome, metrics, correct: bool) -> None:
    print("workload %s: %d attempted, %d failed"
          % (name, outcome.attempted, outcome.failed))
    for error in outcome.errors:
        print("  FAILED %s" % error)
    for metric, (value, unit) in metrics.items():
        print("  %-32s %14.6f %s" % (metric, value, unit))
    for note in outcome.notes:
        print("  %s" % note)
    print("  failed_ratio %.4f (%d/%d)"
          % (outcome.failed / outcome.attempted if outcome.attempted else 1.0,
             outcome.failed, outcome.attempted))
    if not correct:
        print("  output check FAILED")


WORKLOAD_NAMES = ("study-serial", "crawl-sharded", "service-jobs")


def run_all(args) -> int:
    """Each workload in its own process, so each gets fresh rusage totals."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.out:
            stem, extension = os.path.splitext(args.out)
            command += ["--out", "%s.%s%s" % (stem, name, extension or ".json")]
        sys.stdout.flush()
        status = max(status, subprocess.call(command))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repository benchmark.")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full result here "
                                      "(one file per workload with 'all')")
    args = parser.parse_args(argv)

    _require_tree()
    started_at = time.time()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, HARNESS_DIR)
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from harness import BenchReport

    # Byte-compile up front so no measured start-up pays for it.
    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(HERE, ".work"))
    try:
        outcome, metrics, correct = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _print_outcome(args.workload, outcome, metrics, correct)
    report = BenchReport(name="perfbench")
    for case in outcome.cases:
        case.params = {"workload": args.workload, "seed": args.seed}
        report.add(case)
    report.notes.extend(outcome.notes + outcome.errors)
    host_class = report.environment()
    print("host_class %s" % json.dumps(host_class, sort_keys=True))
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    if args.out:
        document = report.as_dict()
        document.update(result, host_class=host_class,
                        started_at=started_at,
                        workload=args.workload, seed=args.seed,
                        seconds=args.seconds, trace=args.trace)
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
