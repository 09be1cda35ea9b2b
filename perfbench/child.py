"""The program side of the benchmark: one process per program run.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/child.py [--trace-dir DIR | --setup-only] cli ARGS...
    python3 perfbench/child.py [--trace-dir DIR] serve ARGS...
    python3 perfbench/child.py [--trace-dir DIR | --setup-only] \\
        crawl-sharded --seed N

``cli`` hands ``ARGS`` to ``repro.cli.main`` (``repro-study``) and
``serve`` to ``repro.service.cli.main`` (``repro-serve``).
``crawl-sharded`` runs ``Study.crawl`` over the seeded generated
population of :mod:`inputs` (its ``SHARDED_*`` layout), then
``Study.analyze``, and prints the headline followed by a JSON summary
line.

Untraced, the only thing added to the program is one stage stamp: in the
study modes the first entry into ``Study.crawl`` writes
``perfbench-setup <monotonic seconds>`` to standard error, which is
where set-up ends; ``--setup-only`` exits right there.  With
``--trace-dir`` the layer wrappers of :mod:`layers` are installed too,
and span files are written into ``DIR`` when the program returns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

SETUP_STAMP = "perfbench-setup"


def _stamp_crawl_entry(exit_after: bool) -> None:
    from repro.core.pipeline import Study
    crawl = Study.crawl

    def stamped(self, *args, **kwargs):
        Study.crawl = crawl
        os.write(2, ("%s %r\n" % (SETUP_STAMP, time.monotonic())).encode())
        if exit_after:
            os._exit(0)
        return crawl(self, *args, **kwargs)

    Study.crawl = stamped


def crawl_sharded(argv) -> int:
    parser = argparse.ArgumentParser(prog="child.py crawl-sharded")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)

    from repro.core import Study, StudyConfig
    from repro.reporting import render_headline
    import inputs

    spec = inputs.sharded_population_spec(args.seed)
    config = StudyConfig(workers=inputs.SHARDED_WORKERS,
                         num_shards=inputs.SHARDED_SHARDS,
                         fault_plan=inputs.fault_plan(args.seed))
    study = Study(spec.build(), config=config, population_spec=spec)
    outcome = study.crawl()
    if not outcome.complete:
        print(json.dumps({"complete": False,
                          "missing": list(outcome.incomplete_shards)}))
        return 1
    result = study.analyze(outcome.dataset)
    print(render_headline(result.analysis, total_sites=inputs.SHARDED_SITES,
                          leaking_requests=result.leaking_request_count))
    print(json.dumps({
        "complete": True,
        "fingerprint": outcome.dataset.fingerprint(),
        "senders": len(result.analysis.senders()),
        "receivers": len(result.analysis.receivers()),
        "leaking_requests": result.leaking_request_count,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("--trace-dir")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit at the set-up stamp (set-up probes)")
    parser.add_argument("mode", choices=("cli", "serve", "crawl-sharded"))
    parser.add_argument("args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_dir:
        from layers import install
        from spans import Tracer
        tracer = Tracer()
        install(tracer, args.trace_dir)
    if args.mode != "serve":
        _stamp_crawl_entry(exit_after=args.setup_only)
    try:
        if args.mode == "cli":
            from repro.cli import main as entry
            return entry(args.args)
        if args.mode == "serve":
            from repro.service.cli import main as entry
            return entry(args.args)
        return crawl_sharded(args.args)
    finally:
        if tracer is not None:
            tracer.dump(os.path.join(args.trace_dir,
                                     "spans-%d.json" % os.getpid()))


if __name__ == "__main__":
    sys.exit(main())
