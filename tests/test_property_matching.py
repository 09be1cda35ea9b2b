"""Property-based tests for the matchers (candidate-token scan, ABP patterns)."""

import functools
import string

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.blocklist import compile_pattern, parse_filter
from repro.core import CandidateTokenSet, Persona, TokenSetConfig

from .reference_tokens import naive_scan

# A tiny alphabet makes persona fields collide, nest and repeat: tokens
# share prefixes, a last name is a suffix of the full name, equal field
# values give one token several origins, and all-hex values (plus the
# crc32 outputs) get uppercase variants.
_FIELD = st.text(alphabet="ab12", min_size=1, max_size=9)
_PERSONAS = st.builds(
    Persona, email=_FIELD, username=_FIELD, first_name=_FIELD,
    last_name=_FIELD, phone=_FIELD, date_of_birth=_FIELD, gender=_FIELD,
    job_title=_FIELD, street=_FIELD, city=_FIELD, postcode=_FIELD)
_SCAN_CONFIG = TokenSetConfig(max_depth=2, full_corpus_depth=0,
                              chain_alphabet=("rot13", "crc32"),
                              min_token_length=3)

#: Hand-picked persona and text that exercise every tricky shape at once
#: (pinned by `test_reference_example_covers_the_tricky_shapes`).
_TRICKY_PERSONA = Persona(
    email="abab", username="abab", first_name="abab", last_name="bab",
    phone="ab12ab12", date_of_birth="b1b", gender="a", job_title="aaa",
    street="ab1", city="ab2", postcode="212")
_TRICKY_TEXT = "xababababbab+AB12AB12aaaaa|abab bab;ab12ab12"


@functools.lru_cache(maxsize=None)
def _token_set(persona):
    return CandidateTokenSet(persona, config=_SCAN_CONFIG)


@st.composite
def _scan_cases(draw):
    persona = draw(_PERSONAS)
    tokens = _token_set(persona).tokens()
    piece = st.one_of(st.sampled_from(tokens),
                      st.text(alphabet="ab12AB+", max_size=4))
    return persona, "".join(draw(st.lists(piece, max_size=8)))


@given(_scan_cases())
@example((_TRICKY_PERSONA, _TRICKY_TEXT))
@settings(deadline=None)
def test_token_scan_equals_naive_find(case):
    persona, text = case
    token_set = _token_set(persona)
    assert token_set.scan(text) == naive_scan(token_set, text)


@given(_scan_cases())
@example((_TRICKY_PERSONA, _TRICKY_TEXT))
@settings(deadline=None)
def test_contains_leak_consistent_with_scan(case):
    persona, text = case
    token_set = _token_set(persona)
    assert token_set.contains_leak(text) == bool(token_set.scan(text))


def test_reference_example_covers_the_tricky_shapes():
    token_set = _token_set(_TRICKY_PERSONA)
    tokens = token_set.tokens()
    assert any(a != b and a[:3] == b[:3] for a in tokens for b in tokens)
    assert any(a != b and a.endswith(b) for a in tokens for b in tokens)
    assert len(token_set.origins_of("abab")) > 1
    assert "AB12AB12" in tokens
    matches = token_set.scan(_TRICKY_TEXT)
    assert any(m.pattern == "AB12AB12" for m in matches)
    spans = sorted({(m.start, m.end) for m in matches
                    if m.pattern == "abab"})
    assert any(b[0] < a[1] for a, b in zip(spans, spans[1:]))


@given(st.tuples(
    st.sampled_from(["track", "pixel", "collect", "b/ss", "tr"]),
    st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=8)))
def test_substring_rules_match_iff_substring(parts):
    token, noise = parts
    rule = parse_filter("/%s/" % token)
    url_with = "https://%s.net/%s/x" % (noise, token)
    url_without = "https://%s.net/other/x" % noise
    assert rule.matches_url(url_with)
    assert ("/%s/" % token) not in url_without or \
        rule.matches_url(url_without)


@given(st.text(alphabet=string.ascii_lowercase + string.digits,
               min_size=2, max_size=10))
def test_domain_anchor_never_matches_inside_path(domain_label):
    rule = parse_filter("||%s.net^" % domain_label)
    assert rule.matches_url("https://%s.net/x" % domain_label)
    assert rule.matches_url("https://a.%s.net/x" % domain_label)
    assert not rule.matches_url("https://other.com/%s.net/x" % domain_label)


@given(st.text(alphabet=string.ascii_lowercase + "/.-", min_size=1,
               max_size=12))
def test_compiled_pattern_literal_is_substring_match(literal):
    regex = compile_pattern(literal, match_case=False)
    assert regex.search("prefix" + literal + "suffix")
