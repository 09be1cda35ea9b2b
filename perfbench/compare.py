"""Compare benchmark results of two commits from interleaved runs.

The host this benchmark runs on drifts by tens of percent over minutes,
so two sets of runs taken one after the other differ on unchanged code.
This command therefore judges only *interleaved* runs: the parent and
the change are run in turns, a pair at a time, and every pair is judged
by its own ratio, so drift between pairs cancels out.  Make the runs
from the repository root of each tree, for example::

    for seed in 1 2 3 4 5 6 7 8 9 10; do
        (cd PARENT && python3 perfbench/run.py --workload W --seed $seed \\
            --seconds 25 --trace 0 --out OUT/base-$seed.json)
        (cd CHANGE && python3 perfbench/run.py --workload W --seed $seed \\
            --seconds 25 --trace 0 --out OUT/new-$seed.json)
    done
    python3 perfbench/compare.py --base OUT/base-*.json --new OUT/new-*.json

(alternating which tree goes first from one pair to the next is better
still).  Each file is one ``run.py --out`` result.  Per workload, the
runs are sorted by start time and taken two at a time; each pair must
hold one run of each side on the same seed and settings, and there
must be at least :data:`MIN_PAIRS` pairs.  Anything else is refused.

For each metric, each side's median and quartiles are printed, with
how many pairs the change won.  An end-to-end metric whose median
``new / base`` ratio over the pairs is worse than 1 by more than its
``BENCHMARK.json`` bound is a regression; one whose ratios spread
(quartile distance over median) wider than the bound is reported
unresolved instead, unless every pair reads better on the change.

Results from different host classes (CPU count, Python version,
platform) are never compared.  Exits 2 when refusing, 1 on any
regression or failed run, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fewest interleaved parent/change pairs a comparison accepts.
MIN_PAIRS = 10

Document = Dict[str, object]


class Refused(ValueError):
    """The results cannot be compared fairly."""


def load(paths: List[str]) -> List[Document]:
    documents = []
    for path in paths:
        with open(path) as handle:
            documents.append(json.load(handle))
    return documents


def host_classes(documents: Sequence[Document]) -> List[str]:
    return sorted({json.dumps(document["host_class"], sort_keys=True)
                   for document in documents})


def interleaved_pairs(base: Sequence[Document], new: Sequence[Document],
                      minimum: int = MIN_PAIRS
                      ) -> List[Tuple[Document, Document]]:
    """``(base, new)`` pairs of one workload's runs, in start order.

    Raises :class:`Refused` unless the runs, sorted by ``started_at``,
    fall into consecutive pairs of one base and one new run each, on
    the same seed and settings, and there are at least ``minimum``.
    """
    if len(base) != len(new):
        raise Refused("%d base runs against %d new runs"
                      % (len(base), len(new)))
    if len(base) < minimum:
        raise Refused("%d pairs; at least %d interleaved pairs are needed"
                      % (len(base), minimum))
    runs = sorted([(document["started_at"], "base", document)
                   for document in base]
                  + [(document["started_at"], "new", document)
                     for document in new], key=lambda run: run[0])
    pairs = []
    for first, second in zip(runs[0::2], runs[1::2]):
        if first[1] == second[1]:
            raise Refused("two %s runs in a row (started %.0f and %.0f): "
                          "the sets were not interleaved"
                          % (first[1], first[0], second[0]))
        sides = {first[1]: first[2], second[1]: second[2]}
        for key in ("seed", "seconds", "trace"):
            if sides["base"][key] != sides["new"][key]:
                raise Refused("a pair differs in %s: %r against %r"
                              % (key, sides["base"][key], sides["new"][key]))
        pairs.append((sides["base"], sides["new"]))
    return pairs


def spread(values: Sequence[float]) -> float:
    """Quartile distance over median."""
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def wins(ratios: Sequence[float], better: str) -> int:
    """Pairs in which the change reads strictly better."""
    return sum(1 for ratio in ratios
               if (ratio < 1.0 if better == "lower" else ratio > 1.0))


def verdict(ratios: Sequence[float], better: str, bound: float) -> str:
    """Judge the per-pair ``new / base`` ratios of one metric."""
    change = statistics.median(ratios) - 1.0
    worse = change if better == "lower" else -change
    if worse > bound:
        return "REGRESSION (%+.1f%%, bound %.0f%%)" % (100 * change,
                                                       100 * bound)
    if spread(ratios) > bound and wins(ratios, better) < len(ratios):
        return "unresolved (pair ratios spread > bound)"
    return "ok (%+.1f%%)" % (100 * change)


def _summary(values: Sequence[float]) -> str:
    low, _, high = statistics.quantiles(values, n=4)
    return "%.4f [%.4f, %.4f]" % (statistics.median(values), low, high)


def compare(base: Sequence[Document], new: Sequence[Document],
            definitions: Dict[str, Document]) -> int:
    for document in list(base) + list(new):
        if not document["correct"]:
            print("failed run: %s seed %s" % (document["workload"],
                                              document["seed"]))
            return 1
    status = 0
    workloads = sorted({document["workload"] for document in base}
                       | {document["workload"] for document in new})
    for workload in workloads:
        pairs = interleaved_pairs(
            [doc for doc in base if doc["workload"] == workload],
            [doc for doc in new if doc["workload"] == workload])
        print("workload %s (%d pairs)" % (workload, len(pairs)))
        names = [name for name in pairs[0][0]["metrics"]
                 if all(name in doc["metrics"] for pair in pairs
                        for doc in pair)]
        for name in names:
            values = [(pair_base["metrics"][name]["value"],
                       pair_new["metrics"][name]["value"])
                      for pair_base, pair_new in pairs]
            text = "%-24s base %s  new %s" % (
                name, _summary([value for value, _ in values]),
                _summary([value for _, value in values]))
            definition = definitions.get(name)
            if definition is not None:
                ratios = [after / before for before, after in values]
                better = str(definition["better"])
                result = verdict(ratios, better, float(definition["bound"]))
                if result.startswith("REG"):
                    status = 1
                text += "  wins %d/%d  %s" % (wins(ratios, better),
                                              len(ratios), result)
            print("  " + text)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare interleaved run.py results of two commits.")
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    classes = host_classes(base + new)
    if len(classes) > 1:
        print("refusing to compare results from different host classes:\n  "
              + "\n  ".join(classes), file=sys.stderr)
        return 2
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    definitions = {metric["name"]: metric
                   for metric in benchmark["end_to_end"]}
    try:
        return compare(base, new, definitions)
    except Refused as refusal:
        print("refusing to compare: %s" % refusal, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
