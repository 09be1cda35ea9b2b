"""Tests of the benchmark's own arithmetic and span recording.

Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import gc
import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from compare import Refused, interleaved_pairs, verdict  # noqa: E402
from layers import layer_metrics  # noqa: E402
from spans import Tracer, layer_totals, tail_percentile  # noqa: E402


# -- the tail percentile rule -------------------------------------------

@pytest.mark.parametrize("count", [0, 1, 10])
def test_no_tail_without_more_than_ten_samples(count):
    assert tail_percentile([float(i) for i in range(count)]) is None


@pytest.mark.parametrize("count", [11, 12, 20, 37, 100, 1000])
def test_tail_has_exactly_ten_samples_beyond(count):
    samples = [float(i) for i in range(count, 0, -1)]    # distinct, unsorted
    percentile, value = tail_percentile(samples)
    assert sum(1 for sample in samples if sample > value) == 10
    assert percentile == pytest.approx(100.0 * (count - 10) / count)


def test_tail_is_the_highest_such_percentile():
    samples = [float(i) for i in range(1, 101)]
    assert tail_percentile(samples) == (90.0, 90.0)
    # One rank higher would leave only nine samples beyond.
    assert sum(1 for sample in samples if sample > 91.0) == 9
    assert tail_percentile(samples[:20]) == (50.0, 10.0)


def test_self_time_subtracts_direct_children_only():
    rows = [
        ("flow", -1, 0.0, 10.0),       # 0
        ("nav", 0, 1.0, 7.0),          # 1
        ("handle", 1, 2.0, 3.0),       # 2
        ("cookies", 1, 4.0, 6.5),      # 3
        ("gc", 3, 5.0, 5.5),           # 4
        ("handle", 0, 8.0, 9.0),       # 5
    ]
    totals = layer_totals(rows)
    assert totals["flow"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert totals["nav"]["self_s"] == pytest.approx(6.0 - 1.0 - 2.5)
    assert totals["cookies"]["self_s"] == pytest.approx(2.5 - 0.5)
    assert totals["handle"] == {"calls": 2, "busy_s": 2.0, "self_s": 2.0}
    assert totals["gc"]["busy_s"] == pytest.approx(0.5)
    # Self times partition the root span exactly.
    assert sum(entry["self_s"] for entry in totals.values()) == \
        pytest.approx(10.0)


def test_nested_same_name_spans_count_once_for_calls_and_busy():
    rows = [
        ("nav", -1, 0.0, 4.0),         # click_link ...
        ("nav", 0, 1.0, 3.0),          # ... calling visit
        ("handle", 1, 1.5, 2.0),
        ("nav", -1, 5.0, 6.0),
    ]
    nav = layer_totals(rows)["nav"]
    assert nav["calls"] == 2
    assert nav["busy_s"] == pytest.approx(5.0)
    assert nav["self_s"] == pytest.approx(5.0 - 0.5)


# -- the tracer ---------------------------------------------------------

class _Layer:
    def outer(self, tracer_gc=False):
        self.inner()
        if tracer_gc:
            gc.collect()
        return "done"

    def inner(self):
        return sum(range(1000))


def test_tracer_records_nested_spans_and_gc(tmp_path):
    tracer = Tracer()
    tracer.wrap(_Layer, "inner", "inner",
                after=lambda args, kwargs, result: tracer.count("inner.n"))
    tracer.wrap(_Layer, "outer", "outer")
    # Only the explicit collection inside outer() may record a gc span.
    enabled = gc.isenabled()
    gc.disable()
    tracer.watch_gc()
    try:
        assert _Layer().outer(tracer_gc=True) == "done"
    finally:
        gc.callbacks.pop()
        if enabled:
            gc.enable()
    rows = tracer.rows()
    names = [row[0] for row in rows]
    assert names[:2] == ["outer", "inner"]
    assert "gc" in names
    outer = names.index("outer")
    assert all(row[1] == outer for row in rows if row[0] in ("inner", "gc"))
    assert all(end >= start for _, _, start, end in rows)
    path = tmp_path / "spans-1.json"
    tracer.dump(str(path))
    dumped = json.loads(path.read_text())
    assert dumped["counts"] == {"inner.n": 1}
    assert [tuple(row) for row in dumped["spans"]] == rows


def test_restart_forgets_inherited_spans():
    tracer = Tracer()
    tracer.wrap(_Layer, "inner", "inner")
    _Layer().inner()
    tracer.count("x")
    tracer.restart()
    assert tracer.rows() == [] and tracer.counts == {}
    _Layer().inner()
    assert [row[0] for row in tracer.rows()] == ["inner"]


@pytest.fixture(autouse=True)
def _restore_layer():
    saved = dict(_Layer.__dict__)
    yield
    for name in ("outer", "inner"):
        setattr(_Layer, name, saved[name])


# -- per-layer metrics --------------------------------------------------

def test_layer_metrics_per_operation_and_fan_out():
    parent = {"spans": [("parallel.run", -1, 10.0, 20.0),
                        ("parallel.merge", 0, 19.0, 19.5),
                        ("crawler.flow", -1, 21.0, 22.0)],
              "counts": {"crawler.flow.succeeded": 1},
              "maxima": {"netsim.jar_size": 7}}
    workers = [{"spans": [("parallel.shard", -1, start, start + busy)],
                "counts": {}, "maxima": {"netsim.jar_size": 9}}
               for start, busy in ((10.25, 4.0), (10.5, 2.0), (14.5, 3.0))]
    metrics = layer_metrics([parent] + workers, operations=2)
    assert metrics["parallel.first_heartbeat_s"] == pytest.approx(0.25)
    assert metrics["parallel.shard_busy_s.max"] == pytest.approx(4.0)
    assert metrics["parallel.shard_busy_s.median"] == pytest.approx(3.0)
    assert metrics["parallel.shard_skew"] == pytest.approx(4.0 / 3.0)
    assert metrics["parallel.merge_s"] == pytest.approx(0.25)
    assert metrics["crawler.flow.calls"] == pytest.approx(0.5)
    assert metrics["crawler.flow.success_ratio"] == pytest.approx(1.0)
    assert metrics["netsim.jar_size.max"] == 9
    assert metrics["gc.busy_s"] == 0.0


# -- interleaved comparison ---------------------------------------------

def _run(side: str, started_at: float, seed: int, study_s: float):
    return {"workload": "w", "seed": seed, "seconds": 25, "trace": 0,
            "started_at": started_at, "side": side, "correct": True,
            "metrics": {"study_s": {"value": study_s, "unit": "s"}}}


def _interleaved(count: int, drift: float = 0.0):
    """Pairs started in turns, alternating which side goes first."""
    base, new = [], []
    for number in range(count):
        level = 1.0 + drift * number
        first, second = ((base, new) if number % 2 == 0 else (new, base))
        first.append(_run("base" if first is base else "new",
                          2.0 * number, number, level))
        second.append(_run("base" if second is base else "new",
                           2.0 * number + 1, number, level))
    return base, new


def test_interleaved_pairs_match_base_with_new():
    base, new = _interleaved(10)
    pairs = interleaved_pairs(base, new)
    assert len(pairs) == 10
    assert all(pair_base["side"] == "base" and pair_new["side"] == "new"
               and pair_base["seed"] == pair_new["seed"]
               for pair_base, pair_new in pairs)


def test_sets_run_one_after_the_other_are_refused():
    base = [_run("base", float(number), number, 1.0) for number in range(10)]
    new = [_run("new", 100.0 + number, number, 1.0) for number in range(10)]
    with pytest.raises(Refused, match="not interleaved"):
        interleaved_pairs(base, new)


def test_too_few_or_mismatched_pairs_are_refused():
    with pytest.raises(Refused, match="at least 10"):
        interleaved_pairs(*_interleaved(9))
    base, new = _interleaved(10)
    new[3]["seed"] = 99
    with pytest.raises(Refused, match="seed"):
        interleaved_pairs(base, new)


def test_pair_ratios_cancel_drift_between_pairs():
    # The host slows by 10% a pair; the change is 5% slower within each.
    base, new = _interleaved(10, drift=0.1)
    for document in new:
        document["metrics"]["study_s"]["value"] *= 1.05
    pairs = interleaved_pairs(base, new)
    ratios = [pair_new["metrics"]["study_s"]["value"]
              / pair_base["metrics"]["study_s"]["value"]
              for pair_base, pair_new in pairs]
    assert verdict(ratios, "lower", 0.25) == "ok (+5.0%)"
    assert verdict(ratios, "lower", 0.04).startswith("REGRESSION")
    assert verdict(ratios, "higher", 0.25) == "ok (+5.0%)"
