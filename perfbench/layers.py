"""Which program functions the traced run wraps, and what it reports.

:func:`install` runs inside the program's process (see ``child.py``)
before control passes to the program's own entry point.  It wraps the
public entry points of each layer — ``websim``, ``netsim``, ``dnssim``,
``browser``, ``crawler``, ``core``, ``policy``, ``reporting`` — plus
``gc.callbacks``.  :func:`layer_metrics` runs in the benchmark process
and turns the span files of one traced operation into the per-layer
metrics named in ``BENCHMARK.json``.

Layers that do not run on a workload report 0 (for example
``parallel.*`` on the serial CLI study, ``service.*`` off the service).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import statistics
from typing import Dict, List, Sequence

from spans import Tracer, layer_totals

#: (per-layer metric, unit, better) in report order.  The service rows
#: and ``proc.cpu_s``/``trace.*`` are filled in by the workload code.
#: Each group names the end-to-end metric it should move, and where.
METRICS = (
    # websim server: study_s on both study workloads.
    ("websim.handle.calls", "count", "lower"),
    ("websim.handle.busy_s", "s", "lower"),
    # netsim cookie jar: study_s on study-serial, little on crawl-sharded.
    ("netsim.cookies_for.calls", "count", "lower"),
    ("netsim.cookies_for.busy_s", "s", "lower"),
    ("netsim.jar_size.max", "count", "lower"),
    # browser engine (nav self time holds the snippet storage scan):
    # study_s on study-serial.
    ("browser.nav.calls", "count", "lower"),
    ("browser.nav.self_s", "s", "lower"),
    ("browser.requests", "count", "lower"),
    ("websim.parse_page.busy_s", "s", "lower"),
    ("dnssim.resolve.busy_s", "s", "lower"),
    # crawler flows: study_s and failures on crawl-sharded.
    ("crawler.flow.calls", "count", "lower"),
    ("crawler.flow.busy_s", "s", "lower"),
    ("crawler.flow.success_ratio", "ratio", "higher"),
    ("crawler.flow.retried", "count", "lower"),
    # crawler parallel: study_s and cpu_s on crawl-sharded, nothing on
    # study-serial.
    ("parallel.first_heartbeat_s", "s", "lower"),
    ("parallel.shard_busy_s.max", "s", "lower"),
    ("parallel.shard_busy_s.median", "s", "lower"),
    ("parallel.shard_skew", "ratio", "lower"),
    ("parallel.merge_s", "s", "lower"),
    ("parallel.shard_cpu_s", "s", "lower"),
    # core tokens: study_s on study-serial, study_s on service-jobs.
    ("core.tokens.build_s", "s", "lower"),
    ("core.tokens.count", "count", "lower"),
    ("core.tokens.scan.calls", "count", "lower"),
    ("core.tokens.scan.busy_s", "s", "lower"),
    # core detector: study_s on crawl-sharded.
    ("core.detector.run_s", "s", "lower"),
    ("core.detector.entries", "count", "lower"),
    ("core.detector.leaking_ratio", "ratio", "higher"),
    # analysis, heuristics, policy, reporting: a small share of study_s.
    ("core.analysis_s", "s", "lower"),
    ("core.heuristics_s", "s", "lower"),
    ("policy.classify_s", "s", "lower"),
    ("reporting.render_s", "s", "lower"),
    # service: study_s (the job latency) and jobs_per_s on service-jobs.
    ("service.submit_s", "s", "lower"),
    ("service.queue_wait_s", "s", "lower"),
    ("service.job_run_s", "s", "lower"),
    ("service.sse_events", "count", "lower"),
    # interpreter: study_s on service-jobs and study-serial.
    ("gc.busy_s", "s", "lower"),
    ("gc.collections", "count", "lower"),
    ("proc.cpu_s", "s", "lower"),
    # traced minus untraced study_s of the same invocation.
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Span name -> (module, attribute path) of every function it wraps.
#: Functions imported by name into another module are wrapped where
#: the caller looks them up too.
SPANS = {
    "websim.handle": [("repro.websim.server", "WebServer.handle"),
                      ("repro.websim.faults", "FaultyServer.handle")],
    "netsim.cookies_for": [("repro.netsim.cookies", "CookieJar.cookies_for")],
    "browser.nav": [("repro.browser.engine", "Browser.visit"),
                    ("repro.browser.engine", "Browser.submit_form"),
                    ("repro.browser.engine", "Browser.click_link")],
    "websim.parse_page": [("repro.websim.html", "parse_page"),
                          ("repro.browser.engine", "parse_page")],
    "dnssim.resolve": [("repro.dnssim.resolver", "Resolver.resolve"),
                       ("repro.dnssim.flaky", "FlakyResolver.resolve"),
                       ("repro.dnssim.cache", "CachingResolver.resolve")],
    "crawler.flow": [("repro.crawler.flows", "AuthFlowRunner.run")],
    "parallel.run": [("repro.crawler.parallel", "ParallelCrawler.run")],
    "parallel.shard": [("repro.crawler.parallel", "run_shard_job")],
    "parallel.merge": [("repro.crawler.parallel", "merge_shard_datasets")],
    "core.tokens.build": [("repro.core.tokens", "CandidateTokenSet.__init__")],
    "core.tokens.scan": [("repro.core.tokens", "CandidateTokenSet.scan"),
                         ("repro.core.tokens",
                          "CandidateTokenSet.scan_distinct")],
    "core.detector.run": [("repro.core.detector", "LeakDetector.run")],
    "core.analysis": [("repro.core.analysis", "LeakAnalysis.__init__"),
                      ("repro.tracking.persistence",
                       "PersistenceAnalyzer.report")],
    "core.heuristics": [("repro.core.heuristics", "HeuristicDetector.detect")],
    "policy.classify": [("repro.policy", "classify_policies"),
                        ("repro.core.pipeline", "classify_policies")],
}


def _owner(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def _process_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def install(tracer: Tracer, trace_dir: str) -> None:
    """Wrap every layer entry point and ``gc.callbacks`` for ``tracer``.

    Forked crawl workers inherit the wrappers: the shard wrapper
    restarts the tracer in a new process and writes that process's
    spans to ``trace_dir`` when its shard returns, since workers exit
    without running exit handlers.  It also charges each shard the
    CPU its process spent inside it (``getrusage(RUSAGE_SELF)``).
    """
    hooks: Dict[str, Dict[str, object]] = {
        "netsim.cookies_for": {"before": lambda args, kwargs:
                               tracer.maximum("netsim.jar_size",
                                              len(args[0]))},
        "crawler.flow": {"after": lambda args, kwargs, result: (
            tracer.count("crawler.flow.succeeded",
                         1 if result.succeeded else 0),
            tracer.count("crawler.flow.retried",
                         1 if result.attempts > 1 else 0))},
        "core.tokens.build": {"after": lambda args, kwargs, result:
                              tracer.maximum("core.tokens.count",
                                             args[0].token_count)},
        "core.detector.run": {"after": lambda args, kwargs, result: (
            tracer.count("core.detector.entries",
                         result.entries_scanned
                         + result.entries_blocked_skipped),
            tracer.count("core.detector.leaking",
                         result.leaking_entry_count))},
    }
    main_pid = tracer.pid
    shard_cpu_start: List[float] = []

    def shard_before(args, kwargs) -> None:
        if os.getpid() != tracer.pid:
            tracer.restart()
        shard_cpu_start.append(_process_cpu_s())

    def shard_after(args, kwargs, result) -> None:
        tracer.count("parallel.shard_cpu_s",
                     _process_cpu_s() - shard_cpu_start.pop())
        if os.getpid() != main_pid:
            tracer.dump(os.path.join(trace_dir,
                                     "spans-%d.json" % os.getpid()))

    hooks["parallel.shard"] = {"before": shard_before, "after": shard_after}
    for name, targets in SPANS.items():
        for module_name, path in targets:
            owner, attr = _owner(module_name, path)
            tracer.wrap(owner, attr, name, **hooks.get(name, {}))

    reporting = importlib.import_module("repro.reporting")
    for attr in dir(reporting):
        if attr.startswith("render_"):
            tracer.wrap(reporting, attr, "reporting.render")

    from repro.browser.engine import Browser
    request = Browser._request

    @functools.wraps(request)
    def counted_request(*args, **kwargs):
        tracer.count("browser.requests")
        return request(*args, **kwargs)

    Browser._request = counted_request
    tracer.watch_gc()


def load_dumps(trace_dir: str) -> List[Dict[str, object]]:
    """Every span file a traced operation left in ``trace_dir``."""
    dumps = []
    for name in sorted(os.listdir(trace_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(trace_dir, name)) as handle:
                dumps.append(json.load(handle))
    return dumps


def layer_metrics(dumps: Sequence[Dict[str, object]],
                  operations: int) -> Dict[str, float]:
    """Per-layer metrics of ``operations`` operations traced into ``dumps``.

    Totals (calls, busy and self time, counts) are per operation;
    maxima, medians and ratios are taken over everything recorded.
    """
    totals: Dict[str, Dict[str, float]] = {}
    counts: Dict[str, float] = {}
    maxima: Dict[str, float] = {}
    runs: List[tuple] = []
    shards: List[tuple] = []
    for dump in dumps:
        rows = dump["spans"]
        for name, entry in layer_totals(rows).items():
            into = totals.setdefault(name, {"calls": 0, "busy_s": 0.0,
                                            "self_s": 0.0})
            for key, value in entry.items():
                into[key] += value
        for name, parent, start, end in rows:
            if name == "parallel.run":
                runs.append((start, end))
            elif name == "parallel.shard":
                shards.append((start, end))
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, value in dump["maxima"].items():
            maxima[name] = max(maxima.get(name, value), value)

    def total(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0.0) / operations

    def count(name: str) -> float:
        return counts.get(name, 0) / operations

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    first_beats = []
    for start, end in runs:
        starts = [shard_start for shard_start, _ in shards
                  if start <= shard_start <= end]
        if starts:
            first_beats.append(min(starts) - start)
    shard_times = [end - start for start, end in shards]
    shard_median = statistics.median(shard_times) if shard_times else 0.0
    flows = totals.get("crawler.flow", {}).get("calls", 0)
    entries = counts.get("core.detector.entries", 0)
    return {
        "websim.handle.calls": total("websim.handle", "calls"),
        "websim.handle.busy_s": total("websim.handle", "busy_s"),
        "netsim.cookies_for.calls": total("netsim.cookies_for", "calls"),
        "netsim.cookies_for.busy_s": total("netsim.cookies_for", "busy_s"),
        "netsim.jar_size.max": maxima.get("netsim.jar_size", 0),
        "browser.nav.calls": total("browser.nav", "calls"),
        "browser.nav.self_s": total("browser.nav", "self_s"),
        "browser.requests": count("browser.requests"),
        "websim.parse_page.busy_s": total("websim.parse_page", "busy_s"),
        "dnssim.resolve.busy_s": total("dnssim.resolve", "busy_s"),
        "crawler.flow.calls": total("crawler.flow", "calls"),
        "crawler.flow.busy_s": total("crawler.flow", "busy_s"),
        "crawler.flow.success_ratio": ratio(
            counts.get("crawler.flow.succeeded", 0), flows),
        "crawler.flow.retried": count("crawler.flow.retried"),
        "parallel.first_heartbeat_s": (statistics.median(first_beats)
                                       if first_beats else 0.0),
        "parallel.shard_busy_s.max": max(shard_times, default=0.0),
        "parallel.shard_busy_s.median": shard_median,
        "parallel.shard_skew": ratio(max(shard_times, default=0.0),
                                     shard_median),
        "parallel.merge_s": total("parallel.merge", "busy_s"),
        "parallel.shard_cpu_s": count("parallel.shard_cpu_s"),
        "core.tokens.build_s": total("core.tokens.build", "busy_s"),
        "core.tokens.count": maxima.get("core.tokens.count", 0),
        "core.tokens.scan.calls": total("core.tokens.scan", "calls"),
        "core.tokens.scan.busy_s": total("core.tokens.scan", "busy_s"),
        "core.detector.run_s": total("core.detector.run", "busy_s"),
        "core.detector.entries": count("core.detector.entries"),
        "core.detector.leaking_ratio": ratio(
            counts.get("core.detector.leaking", 0), entries),
        "core.analysis_s": total("core.analysis", "busy_s"),
        "core.heuristics_s": total("core.heuristics", "busy_s"),
        "policy.classify_s": total("policy.classify", "busy_s"),
        "reporting.render_s": total("reporting.render", "busy_s"),
        "gc.busy_s": total("gc", "busy_s"),
        "gc.collections": total("gc", "calls"),
    }
