"""Serial vs. parallel crawl benchmark (the perf trajectory anchor).

Times the sharded crawl engine (:class:`repro.crawler.ParallelCrawler`)
at several worker counts over growing populations and writes a
machine-readable ``BENCH_parallel_crawl.json`` (wall-clock, sites/sec,
speedup vs. the 1-worker serial reference, worker count, host CPU count)
so future PRs can regress against a recorded trajectory.

Run standalone (CI uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_parallel_crawl.py --quick
    PYTHONPATH=src python benchmarks/bench_parallel_crawl.py   # full sweep

Full mode sweeps the calibrated 404-site population plus generated 1k-
and 5k-site webs with 1/2/4 workers; quick mode crawls a generated
404-site web with 1/2 workers.  Every sweep also *verifies* the engine's
fingerprint contract — all worker counts must produce bit-identical
merged datasets — so the benchmark doubles as an integration check.

Parallel speedup is bounded by physical cores: on a 1-CPU host the
workers serialize and the speedup column reads ~1.0x.  The JSON records
``environment.cpu_count`` so a trajectory reader can tell "no speedup
because no cores" from a real regression; CI runners with 4 vCPUs are
where the >= 2x @ 4-worker expectation is meaningful.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from harness import BenchCase, BenchReport, StageTimes, timed  # noqa: E402

from repro import hashes  # noqa: E402
from repro.core import Study, StudyConfig  # noqa: E402
from repro.crawler import (  # noqa: E402
    CalibratedPopulationSpec,
    GeneratedPopulationSpec,
    ParallelCrawler,
)
from repro.obs import Recorder, write_trace  # noqa: E402
from repro.websim.generator import GeneratorConfig  # noqa: E402

#: Shard count used for every measurement: fixed (and >= the largest
#: worker count) so the layout — and hence the fingerprint — is the same
#: across the whole sweep and speedup isolates pure scheduling.
NUM_SHARDS = 8

OUT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                        "BENCH_parallel_crawl.json")


def _generated_spec(n_sites: int) -> GeneratedPopulationSpec:
    return GeneratedPopulationSpec(
        seed=404, config=GeneratorConfig(n_sites=n_sites, n_trackers=20,
                                         leak_probability=0.5,
                                         confirmation_probability=0.2))


def _sweeps(quick: bool):
    """(population label, spec, site count) triples to measure."""
    if quick:
        return [("generated-404", _generated_spec(404), 404)]
    return [
        ("calibrated-404", CalibratedPopulationSpec(), 404),
        ("generated-1k", _generated_spec(1000), 1000),
        ("generated-5k", _generated_spec(5000), 5000),
    ]


def run(quick: bool = False, out_path: str = OUT_PATH,
        worker_counts=None, trace_path=None) -> BenchReport:
    """Execute the sweep and write the JSON report; returns the report.

    Raises :class:`AssertionError` if any worker count produces a
    different merged fingerprint than the serial reference — the bench
    refuses to record timings for a broken engine.

    ``trace_path`` additionally runs every engine with a
    :class:`repro.obs.Recorder`, asserts the merged recorder snapshot is
    identical across worker counts (the tracing analogue of the
    fingerprint contract), and writes the first population's baseline
    trace — crawl plus detect/analyze stages — as JSONL.
    """
    if worker_counts is None:
        worker_counts = (1, 2) if quick else (1, 2, 4)
    report = BenchReport(name="parallel_crawl")
    report.note("speedup is relative to the 1-worker serial reference of "
                "the same population and shard layout (num_shards=%d)"
                % NUM_SHARDS)
    cpu_count = os.cpu_count() or 1
    if cpu_count < max(worker_counts):
        report.note("host has %d CPU(s): worker processes serialize and "
                    "speedup cannot exceed ~1.0x here" % cpu_count)

    traced = None  # (population label, baseline recorder) for --trace
    for label, spec, n_sites in _sweeps(quick):
        fingerprints = {}
        snapshots = {}
        for workers in worker_counts:
            # Every case starts cold — a fresh parent population, an
            # empty chain memo — so a case measures the same thing
            # whether the sweep runs in one process or one invocation
            # per worker count (as CI does).  The parent population is
            # lent to the engine exactly as Study.crawl lends its own.
            hashes.clear_chain_cache()
            recorder = Recorder() if trace_path else None
            engine = ParallelCrawler(spec, workers=workers,
                                     num_shards=NUM_SHARDS,
                                     built_population=spec.build(),
                                     recorder=recorder,
                                     resources=True)
            stages = StageTimes()
            with timed() as timer:
                with stages.time("crawl"):
                    run_result = engine.run()
            assert run_result.complete, (
                "benchmark crawl incomplete for %s workers=%d" % (label,
                                                                  workers))
            dataset = run_result.dataset
            fingerprints[workers] = dataset.fingerprint()
            if recorder is not None:
                # Snapshot before any analyze spans are added: the
                # crawl trace must be identical at every worker count.
                snapshots[workers] = recorder.snapshot()
            # Per-stage breakdown for *every* case — parallel cases
            # report the same crawl/analyze split as the serial
            # reference (wall_seconds stays crawl-only for trajectory
            # comparability with earlier reports), and analyze builds
            # its token set and detector the way a real study does.
            study = Study(dataset.population,
                          config=StudyConfig(recorder=recorder))
            with stages.time("analyze"):
                study.analyze(dataset)
            if recorder is not None and workers == worker_counts[0]:
                traced = traced or (label, recorder)
            case = report.add(BenchCase(
                label="%s/workers-%d" % (label, workers),
                wall_seconds=timer.seconds, items=len(dataset.flows),
                params={"population": label, "sites": n_sites,
                        "workers": workers, "num_shards": NUM_SHARDS},
                stages=stages.as_dict()))
            # Per-case resource cost (CPU/GC summed, RSS maxed across
            # shards) alongside the timings; pure ops telemetry, the
            # fingerprint assertions below are unaffected.
            report.record_resources(case, run_result.resources.values())
            baseline = "%s/workers-1" % label
            speedup = report.speedup_over(baseline, case)
            if speedup is not None:
                case.extra["speedup_vs_serial"] = round(speedup, 2)
            print("%-26s %7.2fs  %6.1f sites/s  speedup %sx"
                  % (case.label, case.wall_seconds, case.items_per_second,
                     "%.2f" % speedup if speedup else "  - "))
        serial_fp = fingerprints[worker_counts[0]]
        assert all(fp == serial_fp for fp in fingerprints.values()), (
            "fingerprint mismatch across worker counts for %s" % label)
        report.note("%s: merged fingerprint %s identical across workers %s"
                    % (label, serial_fp[:16], list(worker_counts)))
        if snapshots:
            first = snapshots[worker_counts[0]]
            assert all(snap == first for snap in snapshots.values()), (
                "merged recorder snapshot differs across worker counts "
                "for %s" % label)
            report.note("%s: merged trace identical across workers %s"
                        % (label, list(worker_counts)))

    if trace_path and traced is not None:
        label, recorder = traced
        write_trace(recorder, trace_path)
        report.note("trace (%s baseline run) written to %s"
                    % (label, trace_path))
        print("wrote %s" % trace_path)

    path = report.write(out_path)
    print("wrote %s" % path)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serial vs. parallel sharded crawl benchmark.")
    parser.add_argument("--quick", action="store_true",
                        help="small CI-sized sweep (generated 404-site "
                             "population, 1-2 workers)")
    parser.add_argument("--out", default=OUT_PATH, metavar="PATH",
                        help="where to write BENCH_parallel_crawl.json "
                             "(default: benchmarks/out/)")
    parser.add_argument("--workers", type=int, nargs="+", default=None,
                        metavar="N", help="override the worker counts "
                                          "to sweep (first is baseline)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="also record repro.obs traces, assert the "
                             "merged trace is identical across worker "
                             "counts, and write the baseline trace here "
                             "as JSONL")
    args = parser.parse_args(argv)
    run(quick=args.quick, out_path=args.out,
        worker_counts=tuple(args.workers) if args.workers else None,
        trace_path=args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
