"""Operational runtime telemetry: the wall-clock side of observability.

Everything in :mod:`repro.obs` so far lives in the *deterministic*
domain — recorders on tick clocks, traces that are bit-identical run
to run.  This module is deliberately the other half: a thread-safe,
dependency-free :class:`RuntimeMetrics` registry the service updates
on every request and job transition (queue depth, jobs by state,
submit/run latency, SSE subscribers, bytes served), plus per-shard
*resource accounting* (:class:`ResourceSampler` over
``resource.getrusage`` + GC stats) that rides the existing heartbeat
channel.

The contract that keeps the two domains apart:

* **Runtime telemetry never feeds a fingerprint or a trace.**  Nothing
  here writes into a :class:`~repro.obs.recorder.Recorder`; resource
  samples travel on :class:`~repro.obs.progress.HeartbeatEvent` (the
  live view that is already outside every determinism contract) and
  surface in ``progress.jsonl``, bench reports and the study manifest
  — never in ``trace.jsonl`` and never in a dataset.  A crawl with
  resource telemetry on is bit-identical to one with it off, at any
  worker count (``tests/test_obs_resources.py`` pins this).
* **Wall-clock and OS counters are the point**, so the module sits in
  the statan determinism scope with explicit ``DET101`` suppressions:
  every host-clock read below is ops telemetry by contract.

Scrape side: :func:`repro.obs.exposition.render_prometheus` turns a
registry into Prometheus text for ``GET /metrics``; ``repro-study
metrics`` is the one-shot/``--live`` scraper (see
docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import gc
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .metrics import Histogram

try:                        # Unix-only; the sampler degrades gracefully.
    import resource as _resource
except ImportError:         # pragma: no cover - non-Unix platforms
    _resource = None  # type: ignore[assignment]

#: Latency bucket upper bounds (seconds) for service histograms:
#: 5ms to 5min, wide enough for both a submit() and a whole study run.
LATENCY_BUCKETS: Tuple[float, ...] = (
    0.005, 0.02, 0.1, 0.5, 2.0, 10.0, 60.0, 300.0,
)

KIND_COUNTER = "counter"
KIND_GAUGE = "gauge"
KIND_HISTOGRAM = "histogram"

#: A series is keyed by its sorted ``(label, value)`` pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def wall_now() -> float:
    """Wall-clock seconds for runtime telemetry (monotonic).

    The sanctioned ops clock: latency histograms and uptime only —
    nothing returned here may reach a fingerprint or a trace.
    """
    return time.perf_counter()  # statan: ignore[DET101] -- ops telemetry clock by contract; never feeds a fingerprint or trace


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(key), str(value))
                        for key, value in labels.items()))


@dataclass
class _Family:
    """One metric family: a name, a kind, and its labeled series."""

    name: str
    kind: str
    help: str = ""
    bounds: Tuple[float, ...] = LATENCY_BUCKETS
    #: counter/gauge series hold floats; histogram series Histograms.
    series: Dict[LabelKey, object] = field(default_factory=dict)


class RuntimeMetrics:
    """A thread-safe registry of labeled counters, gauges, histograms.

    Deliberately dependency-free and small: families are created on
    first touch, every mutation happens under one lock, and
    :meth:`families` returns a deep snapshot so the exposition layer
    renders a consistent view while updates keep landing.  Instances
    are parent-side service state — they never cross a process
    boundary (workers report resources via heartbeats instead).

    Kind conflicts fail loudly: touching ``name`` as a counter after
    it existed as a gauge raises :class:`ValueError` rather than
    silently corrupting the series.
    """

    def __init__(self) -> None:
        # Service-side only: the registry never crosses the process
        # boundary (resource samples ride picklable heartbeats).
        self._lock = threading.Lock()  # statan: ignore[PKL303] -- parent-side registry, never pickled
        self._families: Dict[str, _Family] = {}

    # -- mutation --------------------------------------------------------

    def inc(self, name: str, amount: float = 1.0, help: str = "",
            labels: Optional[Mapping[str, str]] = None) -> None:
        """Add ``amount`` to a counter series (created at 0)."""
        key = _label_key(labels)
        with self._lock:
            family = self._family_locked(name, KIND_COUNTER, help)
            family.series[key] = float(family.series.get(key, 0.0)) + amount

    def set_gauge(self, name: str, value: float, help: str = "",
                  labels: Optional[Mapping[str, str]] = None) -> None:
        """Set a gauge series to ``value`` (last write wins)."""
        key = _label_key(labels)
        with self._lock:
            family = self._family_locked(name, KIND_GAUGE, help)
            family.series[key] = float(value)

    def add_gauge(self, name: str, delta: float, help: str = "",
                  labels: Optional[Mapping[str, str]] = None) -> None:
        """Adjust a gauge series by ``delta`` (e.g. subscriber +1/-1)."""
        key = _label_key(labels)
        with self._lock:
            family = self._family_locked(name, KIND_GAUGE, help)
            family.series[key] = float(family.series.get(key, 0.0)) + delta

    def observe(self, name: str, value: float, help: str = "",
                labels: Optional[Mapping[str, str]] = None,
                bounds: Optional[Tuple[float, ...]] = None) -> None:
        """Record ``value`` into a histogram series.

        ``bounds`` fixes the bucket upper edges on first touch
        (default: :data:`LATENCY_BUCKETS`); later observations reuse
        the family's bounds.
        """
        key = _label_key(labels)
        with self._lock:
            family = self._family_locked(name, KIND_HISTOGRAM, help,
                                         bounds=bounds)
            histogram = family.series.get(key)
            if histogram is None:
                histogram = Histogram(name=name, bounds=family.bounds)
                family.series[key] = histogram
            histogram.observe(float(value))  # type: ignore[union-attr]

    def _family_locked(self, name: str, kind: str, help: str,
                       bounds: Optional[Tuple[float, ...]] = None
                       ) -> _Family:
        family = self._families.get(name)
        if family is None:
            family = _Family(name=name, kind=kind, help=help,
                             bounds=tuple(bounds or LATENCY_BUCKETS))
            self._families[name] = family
        elif family.kind != kind:
            raise ValueError(
                "metric %r is a %s; cannot use it as a %s"
                % (name, family.kind, kind))
        if help and not family.help:
            family.help = help
        return family

    # -- reading ---------------------------------------------------------

    def value(self, name: str,
              labels: Optional[Mapping[str, str]] = None) -> float:
        """A counter/gauge series' current value (0.0 when absent)."""
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None or family.kind == KIND_HISTOGRAM:
                return 0.0
            return float(family.series.get(key, 0.0))  # type: ignore[arg-type]

    def families(self) -> List[Dict[str, object]]:
        """A consistent, JSON-able snapshot of every family.

        Families and series come out name-sorted so two snapshots of
        the same state render byte-identically (the golden-file
        property the exposition tests pin).
        """
        out: List[Dict[str, object]] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                series: List[Dict[str, object]] = []
                for key in sorted(family.series):
                    value = family.series[key]
                    entry: Dict[str, object] = {"labels": dict(key)}
                    if isinstance(value, Histogram):
                        entry["histogram"] = value.as_dict()
                    else:
                        entry["value"] = float(value)  # type: ignore[arg-type]
                    series.append(entry)
                out.append({"name": family.name, "kind": family.kind,
                            "help": family.help,
                            "bounds": list(family.bounds),
                            "series": series})
        return out


# ---------------------------------------------------------------------------
# Per-shard resource accounting (getrusage + GC).
# ---------------------------------------------------------------------------

def sample_resources() -> Dict[str, float]:
    """One raw process-resource sample: CPU, peak RSS, GC tallies.

    ``cpu_user_seconds``/``cpu_system_seconds`` are the executing
    process's *cumulative* rusage counters; ``max_rss_kb`` its peak
    resident set (KiB on Linux); ``gc_collections``/``gc_collected``
    sum the interpreter's per-generation GC stats.  On platforms
    without the ``resource`` module only the GC keys appear.
    """
    sample: Dict[str, float] = {}
    if _resource is not None:
        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        sample["cpu_user_seconds"] = round(usage.ru_utime, 6)
        sample["cpu_system_seconds"] = round(usage.ru_stime, 6)
        sample["max_rss_kb"] = float(usage.ru_maxrss)
    collections = 0
    collected = 0
    for stats in gc.get_stats():
        collections += int(stats.get("collections", 0))
        collected += int(stats.get("collected", 0))
    sample["gc_collections"] = float(collections)
    sample["gc_collected"] = float(collected)
    return sample


class ResourceSampler:
    """Delta-based resource samples, scoped to one shard attempt.

    Cumulative rusage counters cannot be summed across shards that
    share a process (the serial path runs every shard in one), so the
    sampler takes a baseline at construction and reports *deltas since
    shard start* for CPU and GC — which sum correctly across shards no
    matter how they were scheduled.  Peak keys (``max_*``) stay
    absolute: a high-water mark has no meaningful delta.

    Plain picklable-free worker-side state: built inside
    :func:`~repro.crawler.parallel.drive_session`, never crosses a
    process boundary itself — only its dict samples do, riding
    :class:`~repro.obs.progress.HeartbeatEvent.resources`.
    """

    def __init__(self) -> None:
        self._base = sample_resources()

    def sample(self) -> Dict[str, float]:
        """The delta sample since construction (``max_*`` absolute)."""
        now = sample_resources()
        out: Dict[str, float] = {}
        for key, value in now.items():
            if key.startswith("max_"):
                out[key] = value
            else:
                out[key] = round(value - self._base.get(key, 0.0), 6)
        return out


def aggregate_resources(samples: Iterable[Mapping[str, float]]
                        ) -> Dict[str, float]:
    """Fold per-shard delta samples into study-wide totals.

    Delta keys (CPU seconds, GC counts) sum; peak keys (``max_*``)
    take the maximum.  Returns ``{}`` for an empty iterable.
    """
    totals: Dict[str, float] = {}
    for sample in samples:
        for key, value in sample.items():
            if key.startswith("max_"):
                totals[key] = max(totals.get(key, 0.0), float(value))
            else:
                totals[key] = round(totals.get(key, 0.0) + float(value), 6)
    return dict(sorted(totals.items()))


# ---------------------------------------------------------------------------
# The one-line ops ticker (repro-study metrics --live).
# ---------------------------------------------------------------------------

def render_ticker(values: Mapping[str, float]) -> str:
    """One status line from scraped series values.

    ``values`` maps flat series names — ``name{label="x"}`` exactly as
    :func:`repro.obs.exposition.parse_exposition` returns them — to
    numbers; missing series render as 0, so the ticker works against
    any subset of the service's families.
    """
    def val(name: str) -> float:
        return float(values.get(name, 0.0))

    jobs = []
    prefix = 'repro_service_jobs{state="'
    for name in sorted(values):
        if name.startswith(prefix):
            state = name[len(prefix):].rstrip('"}')
            jobs.append("%s %d" % (state, int(values[name])))
    parts = [
        "jobs " + (" ".join(jobs) if jobs else "none"),
        "queue %d/%d" % (int(val("repro_service_queue_depth")),
                         int(val("repro_service_queue_capacity"))),
        "sse %d" % int(val("repro_service_sse_subscribers")),
        "%s sent" % _human_bytes(val("repro_http_bytes_sent_total")),
        "up %ds" % int(val("repro_service_uptime_seconds")),
    ]
    return " | ".join(parts)


def _human_bytes(count: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if count < 1024.0 or unit == "GB":
            return ("%d %s" % (count, unit) if unit == "B"
                    else "%.1f %s" % (count, unit))
        count /= 1024.0
    return "%.1f GB" % count


__all__ = [
    "KIND_COUNTER",
    "KIND_GAUGE",
    "KIND_HISTOGRAM",
    "LATENCY_BUCKETS",
    "ResourceSampler",
    "RuntimeMetrics",
    "aggregate_resources",
    "render_ticker",
    "sample_resources",
    "wall_now",
]
