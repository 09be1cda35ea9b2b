"""The workloads' inputs, each a pure function of the workload seed.

Shared by the program side (``child.py``) and the benchmark side
(``run.py``), so the in-process reference runs see exactly the inputs
the measured program saw.
"""

from __future__ import annotations

from typing import Dict

#: The sharded crawl's population shape: about 1,000 generated sites.
SHARDED_SITES = 1000
SHARDED_WORKERS = 2
SHARDED_SHARDS = 8
#: Share of exchanges that fail transiently and are retried.
SHARDED_FAULT_RATE = 0.05

#: Sites in one served job's generated population.
JOB_SITES = 24


def sharded_population_spec(seed: int):
    """The sharded crawl's seeded population recipe."""
    from repro.crawler import GeneratedPopulationSpec
    from repro.websim.generator import GeneratorConfig
    return GeneratedPopulationSpec(seed=seed, config=GeneratorConfig(
        n_sites=SHARDED_SITES, n_trackers=20, leak_probability=0.5,
        confirmation_probability=0.2))


def fault_plan(seed: int):
    """The seeded transient-fault plan of the sharded crawl."""
    from repro.netsim.faults import FaultPlan
    return FaultPlan(seed=seed, transient_rate=SHARDED_FAULT_RATE)


def job_spec(seed: int, index: int) -> Dict[str, object]:
    """The ``POST /studies`` body of served job ``index``.

    Every job gets its own population seed, so no two jobs of a run
    share inputs (or a compiled-assets memo entry).
    """
    return {"kind": "study", "population": "generated",
            "seed": seed * 100003 + index, "sites": JOB_SITES,
            "workers": 1}
