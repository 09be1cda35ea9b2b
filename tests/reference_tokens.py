"""Slow reference implementations for the candidate token set.

``CandidateTokenSet`` derives each chain depth from the previous one and
scans through a prefix index; the naive versions here re-walk every chain
and ``str.find`` every token, and the tests hold the fast paths to them
exactly — same tokens, same origins, same order.
"""

from itertools import product
from typing import Dict, Iterable, List, Sequence, Tuple

from repro import hashes
from repro.core.tokens import CandidateTokenSet, Match, TokenOrigin

_HEX = set("0123456789abcdef")


def naive_chains(config, all_names: Sequence[str]) -> Iterable[Tuple[str, ...]]:
    """Every transform chain, depth by depth, first transform outermost."""
    for depth in range(1, config.max_depth + 1):
        if depth <= config.full_corpus_depth:
            first_choices: Sequence[str] = all_names
        else:
            first_choices = config.chain_alphabet
        if depth == 1:
            for name in first_choices:
                yield (name,)
            continue
        for first in first_choices:
            for rest in product(config.chain_alphabet, repeat=depth - 1):
                yield (first,) + rest


def naive_origins(persona, config) -> Dict[str, List[TokenOrigin]]:
    """Token -> origins, in the naive per-chain product order."""
    all_names = [t.name for t in hashes.all_transforms()]
    origins: Dict[str, List[TokenOrigin]] = {}

    def add(token: str, origin: TokenOrigin) -> None:
        if len(token) < config.min_token_length:
            return
        variants = [token]
        if (config.include_case_variants and len(token) >= 8
                and set(token) <= _HEX):
            variants.append(token.upper())
        for variant in variants:
            bucket = origins.setdefault(variant, [])
            if origin not in bucket:
                bucket.append(origin)

    for pii_type, forms in persona.surface_forms().items():
        for form in forms:
            add(form, TokenOrigin(pii_type, form, ()))
            for chain in naive_chains(config, all_names):
                add(hashes.apply_chain(form, chain),
                    TokenOrigin(pii_type, form, chain))
    return origins


def naive_scan(token_set: CandidateTokenSet, text: str) -> List[Match]:
    """Every occurrence of every token, found with ``str.find``.

    Ordered by end offset, then longest token first, then each token's
    origins in insertion order.
    """
    matches = []
    for token in token_set.tokens():
        start = text.find(token)
        while start != -1:
            for origin in token_set.origins_of(token):
                matches.append(Match(start, start + len(token), token, origin))
            start = text.find(token, start + 1)
    matches.sort(key=lambda match: (match.end, -len(match.pattern)))
    return matches
