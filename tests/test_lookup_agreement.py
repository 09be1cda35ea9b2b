"""The prefix-index candidate scan equals the naive per-token scan.

Companion to ``benchmarks/bench_ablation_lookup.py``: the benchmark
measures the speed difference, this test pins the equivalence — the
same matches in the same order — on real crawl traffic.
"""

from .reference_tokens import naive_scan


def test_lookup_strategies_agree_on_crawl_traffic(crawl, tokens):
    texts = []
    for entry in crawl.log:
        if entry.was_blocked:
            continue
        texts.append(str(entry.request.url))
        if len(texts) >= 300:
            break
    for text in texts:
        assert tokens.scan(text) == naive_scan(tokens, text)
