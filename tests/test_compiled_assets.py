"""A crawl lent the parent's already-built population.

``ParallelCrawler(spec, built_population=...)`` reuses a population the
caller has already built (compiled once, in the parent) for layout and
merge, while every shard still crawls its own ``spec.build()``. These
tests pin down

* the hard invariant: the merged ``CrawlDataset.fingerprint()`` is
  bit-identical with and without a lent population, at every worker
  count, seeds 0-4, faults on and off, and
* identity: the merged dataset carries the caller's own object.
"""

from __future__ import annotations

import pytest

from repro.crawler import GeneratedPopulationSpec, ParallelCrawler
from repro.netsim.faults import FaultPlan
from repro.websim.generator import GeneratorConfig

_CONFIG = GeneratorConfig(n_sites=10, n_trackers=4, leak_probability=0.6,
                          confirmation_probability=0.5)
_NUM_SHARDS = 5


def _spec(seed: int) -> GeneratedPopulationSpec:
    return GeneratedPopulationSpec(seed=seed, config=_CONFIG)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_fingerprint_invariant_across_workers_and_faults(seed):
    """Seeds 0-4 x workers {1,2,4} +/- faults: lent path == plain path."""
    def fingerprint(workers, fault_seed, lent):
        plan = (FaultPlan(seed=fault_seed, transient_rate=0.25)
                if fault_seed is not None else None)
        return ParallelCrawler(_spec(seed), workers=workers,
                               num_shards=_NUM_SHARDS, fault_plan=plan,
                               built_population=lent).crawl().fingerprint()

    for fault_seed in (None, seed + 100):
        reference = fingerprint(1, fault_seed, lent=None)
        for workers in (1, 2, 4):
            assert fingerprint(workers, fault_seed,
                               lent=_spec(seed).build()) == reference


def test_parallel_crawler_reuses_the_assets_population():
    lent = _spec(0).build()
    engine = ParallelCrawler(_spec(0), workers=1, num_shards=_NUM_SHARDS,
                             built_population=lent)
    dataset = engine.crawl()
    assert dataset.population is lent
