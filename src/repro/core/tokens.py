"""Candidate token precomputation (§3.1).

The paper pre-computes, for every PII value, the set of strings produced by
"all supported encodings, hashes, and checksums", chained up to three layers
deep.  A leak is then found by searching raw HTTP traffic for any of those
strings.

Enumerating the *full* transform corpus at every chain depth is
combinatorially explosive (33^3 per surface form), so the default
configuration mirrors how the search space behaves in practice:

* depth 1 applies the entire corpus (trackers pick arbitrary single
  transforms);
* depths 2-3 chain over the alphabet of transforms actually observed in
  multi-layer obfuscations (base64/md5/sha1/sha256 — Table 1b's "SHA256 of
  MD5" and "BASE64, SHA1 and SHA256" forms).

Both knobs are configurable; ``benchmarks/bench_ablation_depth.py`` measures
the recall/cost trade-off.

Scanning indexes every token by its first ``K`` characters, ``K`` being
the shortest token length in the set: each text position costs one dict
probe, and each candidate is confirmed with ``str.startswith``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .. import hashes
from ..obs import NULL_RECORDER, Recorder
from .persona import Persona

_HEX_CHARS = set("0123456789abcdef")


@dataclass(frozen=True)
class TokenOrigin:
    """Provenance of one candidate token."""

    pii_type: str
    surface_form: str
    chain: Tuple[str, ...]  # () for plaintext

    @property
    def encoding_label(self) -> str:
        return hashes.chain_label(self.chain)


@dataclass(frozen=True)
class Match:
    """One token occurrence: ``text[start:end] == pattern``."""

    start: int
    end: int
    pattern: str
    payload: TokenOrigin


@dataclass(frozen=True)
class TokenSetConfig:
    """Tuning for candidate-set generation."""

    max_depth: int = 3
    full_corpus_depth: int = 1
    chain_alphabet: Tuple[str, ...] = hashes.OBSERVED_CHAIN_ALPHABET
    min_token_length: int = 6
    include_case_variants: bool = True

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.full_corpus_depth > self.max_depth:
            raise ValueError("full_corpus_depth cannot exceed max_depth")
        unknown = [n for n in self.chain_alphabet if not hashes.has(n)]
        if unknown:
            raise ValueError("unknown transforms: %s" % unknown)


class CandidateTokenSet:
    """All strings whose appearance in traffic constitutes a PII leak."""

    def __init__(self, persona: Persona,
                 config: Optional[TokenSetConfig] = None,
                 recorder: Optional[Recorder] = None) -> None:
        """``recorder`` (a :class:`repro.obs.Recorder`) records the
        candidate-generation funnel — tokens emitted, pruned as too
        short, and deduplicated — as counters and gauges."""
        self.persona = persona
        self.config = config or TokenSetConfig()
        self.recorder = recorder or NULL_RECORDER
        self._origins: Dict[str, List[TokenOrigin]] = {}
        self._scan_distinct_memo: Dict[str, List[TokenOrigin]] = {}
        self._generate()
        # Every token is at least `_prefix_len` characters long, so the
        # first that-many characters at a text position name every token
        # that can start there.
        self._prefix_len = min(map(len, self._origins), default=0)
        self._index: Dict[str, List[str]] = {}
        for token in self._origins:
            self._index.setdefault(token[:self._prefix_len], []).append(token)
        self.recorder.gauge("tokens.candidates", len(self._origins))

    # -- generation --------------------------------------------------------

    def _generate(self) -> None:
        all_names = [t.name for t in hashes.all_transforms()]
        config = self.config
        alphabet = config.chain_alphabet
        for pii_type, forms in self.persona.surface_forms().items():
            for form in forms:
                self._add_token(form, TokenOrigin(pii_type, form, ()))
                # Chains share prefixes massively (every depth-d chain
                # extends a depth-(d-1) chain over the same alphabet),
                # so each level is derived from the previous level's
                # values with exactly one transform application per
                # chain instead of re-walking the whole chain.  The
                # enumeration order below is identical to the naive
                # per-chain product (all depth-1 chains, then depth 2,
                # ...; first transform outermost) — token insertion
                # order, and with it every downstream scan, must not
                # change.
                previous: Dict[Tuple[str, ...], str] = {(): form}
                for depth in range(1, config.max_depth + 1):
                    level: Dict[Tuple[str, ...], str] = {}
                    if depth <= config.full_corpus_depth:
                        first_choices: Sequence[str] = all_names
                    else:
                        first_choices = alphabet
                    if depth == 1:
                        for name in first_choices:
                            level[(name,)] = hashes.get(name).apply_text(form)
                    else:
                        for first in first_choices:
                            for mid in product(alphabet, repeat=depth - 2):
                                prefix = (first,) + mid
                                base = previous.get(prefix)
                                if base is None:
                                    base = hashes.apply_chain(form, prefix)
                                for last in alphabet:
                                    level[prefix + (last,)] = (
                                        hashes.get(last).apply_text(base))
                    for chain, token in level.items():
                        self._add_token(
                            token, TokenOrigin(pii_type, form, chain))
                    previous = level

    def _add_token(self, token: str, origin: TokenOrigin) -> None:
        if len(token) < self.config.min_token_length:
            self.recorder.count("tokens.pruned_too_short")
            return
        self._register(token, origin)
        if self.config.include_case_variants and _is_hex(token):
            self._register(token.upper(), origin)

    def _register(self, token: str, origin: TokenOrigin) -> None:
        bucket = self._origins.setdefault(token, [])
        if origin not in bucket:
            bucket.append(origin)
            self.recorder.count("tokens.origins")
        else:
            self.recorder.count("tokens.duplicate_origins")

    # -- queries -----------------------------------------------------------

    @property
    def token_count(self) -> int:
        return len(self._origins)

    def tokens(self) -> List[str]:
        """All candidate tokens (deterministic order)."""
        return list(self._origins)

    def origins_of(self, token: str) -> List[TokenOrigin]:
        """Provenance records for an exact token."""
        return list(self._origins.get(token, []))

    def _occurrences(self, text: str) -> Iterator[Tuple[int, str]]:
        """``(start, token)`` per occurrence, in start order."""
        width = self._prefix_len
        index = self._index
        if not index:
            return
        for start in range(len(text) - width + 1):
            candidates = index.get(text[start:start + width])
            if candidates:
                for token in candidates:
                    if text.startswith(token, start):
                        yield start, token

    def scan(self, text: str) -> List[Match]:
        """All candidate-token occurrences in ``text``.

        Ordered by end offset, then longest token first, then each
        token's origins in insertion order.
        """
        hits = sorted((start + len(token), -len(token), token)
                      for start, token in self._occurrences(text))
        return [Match(end + negative_length, end, token, origin)
                for end, negative_length, token in hits
                for origin in self._origins[token]]

    def scan_distinct(self, text: str) -> List[TokenOrigin]:
        """Distinct origins whose token occurs in ``text``.

        Results are memoised per text: the same header values, URLs and
        cookie strings recur across thousands of captured requests, and
        the origin list is a pure function of the (immutable) token set.
        """
        cached = self._scan_distinct_memo.get(text)
        if cached is not None:
            return list(cached)
        seen: List[TokenOrigin] = []
        for match in self.scan(text):
            if match.payload not in seen:
                seen.append(match.payload)
        if len(self._scan_distinct_memo) >= 8192:
            self._scan_distinct_memo.clear()
        self._scan_distinct_memo[text] = seen
        return list(seen)

    def contains_leak(self, text: str) -> bool:
        """Fast check: does ``text`` contain any candidate token?"""
        return next(self._occurrences(text), None) is not None


def _is_hex(token: str) -> bool:
    return len(token) >= 8 and all(ch in _HEX_CHARS for ch in token)
