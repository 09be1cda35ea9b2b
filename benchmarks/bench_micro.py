"""Micro-benchmarks for the performance-critical primitives.

Two modes:

* under pytest (``pytest benchmarks/bench_micro.py``) the
  pytest-benchmark cases below time individual primitives;
* standalone (``python benchmarks/bench_micro.py`` or via
  ``harness.py --update-baseline --bench micro``) :func:`run` times the
  hot-path primitives — blocklist matching, encoding-chain enumeration,
  and the candidate token set's build and scan — and writes a harness
  :class:`~harness.BenchReport` so the registry can gate them against a
  committed ``BENCH_micro.json`` baseline.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest

from repro import hashes
from repro.blocklist import RequestContext, RuleSet, easyprivacy_text
from repro.core import CandidateTokenSet, TokenSetConfig
from repro.core.persona import DEFAULT_PERSONA

_EMAIL = DEFAULT_PERSONA.email.encode()


@pytest.mark.parametrize("name", ["md5", "sha256", "md4", "ripemd160",
                                  "whirlpool", "snefru128", "md2"])
def test_bench_hash_throughput(benchmark, name):
    transform = hashes.get(name)
    benchmark(transform.apply, _EMAIL)


def test_bench_token_set_build(benchmark):
    benchmark.pedantic(
        lambda: CandidateTokenSet(DEFAULT_PERSONA,
                                  TokenSetConfig(max_depth=2)),
        rounds=2, iterations=1)


def test_bench_token_scan(benchmark):
    tokens = CandidateTokenSet(DEFAULT_PERSONA, recorder=None)
    texts = _scan_workload(tokens)
    hits = benchmark(lambda: sum(len(tokens.scan(text)) for text in texts))
    assert hits > 0


_HIT_CONTEXT = RequestContext(
    url="https://www.facebook.com/tr?ev=identify&udff%5Bem%5D=abcd",
    resource_type="image", page_domain="shop.com",
    is_third_party=True)
_MISS_CONTEXT = RequestContext(
    url="https://api.custora.com/v1/track?uid=abcd",
    resource_type="image", page_domain="shop.com",
    is_third_party=True)


def test_bench_blocklist_match(benchmark):
    rules = RuleSet.from_text(easyprivacy_text())
    result = benchmark(rules.match, _HIT_CONTEXT)
    assert result.blocked


def test_bench_blocklist_miss(benchmark):
    rules = RuleSet.from_text(easyprivacy_text())
    result = benchmark(rules.match, _MISS_CONTEXT)
    assert not result.blocked


def test_bench_chain_enumeration_cold(benchmark):
    """Full encoding-chain enumeration with a cold apply_chain memo."""
    def build():
        hashes.clear_chain_cache()
        return CandidateTokenSet(DEFAULT_PERSONA, recorder=None)

    tokens = benchmark.pedantic(build, rounds=2, iterations=1)
    assert tokens.token_count > 1000


def test_bench_wire_serialization(benchmark):
    from repro.netsim import Headers, HttpRequest, Url
    from repro.netsim.wire import parse_request, serialize_request
    request = HttpRequest(
        method="POST",
        url=Url.parse("https://www.facebook.com/tr?ev=identify&uid=abc"),
        headers=Headers([("Referer", "https://www.shop.example/"),
                         ("Content-Type",
                          "application/x-www-form-urlencoded")]),
        body=b"udff%5Bem%5D=" + b"a" * 64)
    raw = serialize_request(request)
    benchmark(parse_request, raw)


def test_bench_caching_resolver(benchmark, study_spec):
    from repro.dnssim import CachingResolver
    clock = [0.0]
    resolver = CachingResolver(study_spec.population.resolver(),
                               lambda: clock[0])
    resolver.resolve("www.facebook.com")  # warm the cache

    def lookup():
        return resolver.resolve("www.facebook.com")

    benchmark(lookup)
    assert resolver.stats.hit_ratio > 0.9


# ---------------------------------------------------------------------------
# Standalone harness mode: the hot-path primitives, recorded into the
# baseline registry as bench "micro".
# ---------------------------------------------------------------------------

OUT_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out",
                        "BENCH_micro.json")

#: Passes over the URL workload per matcher measurement — sized so each
#: case clears the registry's 0.05s noise floor on CI hardware.
MATCH_PASSES = 2000

#: Cold token-set builds per enumeration measurement.
ENUMERATION_BUILDS = 3

#: Warm token-set builds per build measurement (the apply_chain memo
#: is left as the previous build left it).
TOKEN_BUILDS = 3

#: Passes over the scan workload per scan measurement.
SCAN_PASSES = 50


def _match_workload():
    """A deterministic hit/miss mix of request contexts.

    Derived from the study's real endpoint shapes (tracking pixels,
    attribution beacons) plus benign lookalikes, expanded with varying
    paths so the matcher sees distinct URLs rather than one memoised
    string.
    """
    shapes = [
        ("https://www.facebook.com/tr?ev=identify&udff%%5Bem%%5D=v%d",
         "image"),
        ("https://bat.bing.com/action/0?ti=4%d&evt=pageLoad", "script"),
        ("https://px.ads.linkedin.com/collect?pid=1%d&fmt=gif", "image"),
        ("https://api.custora.com/v1/track?uid=u%d", "image"),
        ("https://cdn.shopcorp.example/assets/app-%d.js", "script"),
        ("https://static.shop.example/img/product-%d.jpg", "image"),
    ]
    contexts = []
    for i in range(24):
        template, resource = shapes[i % len(shapes)]
        contexts.append(RequestContext(
            url=template % i, resource_type=resource,
            page_domain="shop.example", is_third_party=True))
    return contexts


def _scan_workload(tokens):
    """A deterministic mix of leaking and clean request texts.

    Every 50th candidate token is embedded in a tracking-pixel URL (so
    the scan confirms real hits, plain and hashed alike), interleaved
    with benign URLs of the same shape.
    """
    texts = []
    for i, token in enumerate(tokens.tokens()[::50]):
        texts.append("https://www.facebook.com/tr?ev=identify&v=%d"
                     "&udff%%5Bem%%5D=%s&cd=%s" % (i, token, token[:5]))
        texts.append("https://static.shop.example/img/product-%d.jpg"
                     "?w=640&h=480&q=%s" % (i, "0" * (i % 40)))
    return texts


def run(quick=True, out_path=OUT_PATH):
    """Time the hot-path primitives; returns a harness BenchReport.

    ``quick`` is accepted for harness-runner symmetry; the micro sweep
    is already CI-sized, so it is ignored.
    """
    from harness import BenchCase, BenchReport, timed

    del quick
    report = BenchReport(name="micro")
    rules = RuleSet.from_text(easyprivacy_text())
    contexts = _match_workload()
    with timed() as timer:
        for _ in range(MATCH_PASSES):
            for context in contexts:
                rules.match(context)
    case = report.add(BenchCase(
        label="blocklist-match/interpreted", wall_seconds=timer.seconds,
        items=MATCH_PASSES * len(contexts),
        params={"passes": MATCH_PASSES, "urls": len(contexts),
                "filters": len(rules)}))
    print("%-32s %7.3fs  %8.0f matches/s"
          % (case.label, case.wall_seconds, case.items_per_second))

    token_count = 0
    with timed() as timer:
        for _ in range(ENUMERATION_BUILDS):
            hashes.clear_chain_cache()
            tokens = CandidateTokenSet(DEFAULT_PERSONA, recorder=None)
            token_count = tokens.token_count
    case = report.add(BenchCase(
        label="chain-enumeration/cold", wall_seconds=timer.seconds,
        items=ENUMERATION_BUILDS * token_count,
        params={"builds": ENUMERATION_BUILDS, "tokens": token_count}))
    print("%-32s %7.3fs  %8.0f tokens/s"
          % (case.label, case.wall_seconds, case.items_per_second))

    with timed() as timer:
        for _ in range(TOKEN_BUILDS):
            tokens = CandidateTokenSet(DEFAULT_PERSONA, recorder=None)
    case = report.add(BenchCase(
        label="token-build", wall_seconds=timer.seconds,
        items=TOKEN_BUILDS * tokens.token_count,
        params={"builds": TOKEN_BUILDS, "tokens": tokens.token_count}))
    print("%-32s %7.3fs  %8.0f tokens/s"
          % (case.label, case.wall_seconds, case.items_per_second))

    texts = _scan_workload(tokens)
    hits = 0
    with timed() as timer:
        for _ in range(SCAN_PASSES):
            for text in texts:
                hits += len(tokens.scan(text))
    assert hits, "the scan workload found no tokens"
    case = report.add(BenchCase(
        label="token-scan", wall_seconds=timer.seconds,
        items=SCAN_PASSES * len(texts),
        params={"passes": SCAN_PASSES, "texts": len(texts),
                "tokens": tokens.token_count}))
    print("%-32s %7.3fs  %8.0f texts/s"
          % (case.label, case.wall_seconds, case.items_per_second))

    path = report.write(out_path)
    print("wrote %s" % path)
    return report


if __name__ == "__main__":
    sys.exit(0 if run().cases else 1)
