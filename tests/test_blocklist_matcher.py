"""Rule-set matching: blocking, exceptions, context options, bundled lists."""


from repro.blocklist import (
    RequestContext,
    RuleSet,
    UNLISTED_PROVIDERS,
    easylist_covered_domains,
    easylist_text,
    easyprivacy_covered_domains,
    easyprivacy_text,
)


def _rules(*lines):
    return RuleSet.from_text("\n".join(lines))


def test_block_and_miss():
    rules = _rules("||tracker.net^$third-party")
    assert rules.should_block("https://tracker.net/p", page_domain="shop.com")
    assert not rules.should_block("https://other.net/p",
                                  page_domain="shop.com")


def test_exception_overrides_block():
    rules = _rules("||cdn.net^", "@@||cdn.net^$script")
    blocked_image = rules.match(RequestContext(
        url="https://cdn.net/x.gif", resource_type="image"))
    assert blocked_image.blocked
    allowed_script = rules.match(RequestContext(
        url="https://cdn.net/x.js", resource_type="script"))
    assert not allowed_script.blocked
    assert allowed_script.exception_filter is not None


def test_third_party_option_respects_context():
    rules = _rules("||shop.com^$third-party")
    own_request = RequestContext(url="https://shop.com/a",
                                 page_domain="shop.com",
                                 is_third_party=False)
    assert not rules.match(own_request).blocked
    embedded = RequestContext(url="https://shop.com/a",
                              page_domain="other.com",
                              is_third_party=True)
    assert rules.match(embedded).blocked


def test_domain_option_scoping():
    rules = _rules("||t.net^$domain=shop.com")
    on_shop = RequestContext(url="https://t.net/p", page_domain="shop.com")
    on_other = RequestContext(url="https://t.net/p", page_domain="x.com")
    assert rules.match(on_shop).blocked
    assert not rules.match(on_other).blocked


def test_resource_type_scoping():
    rules = _rules("||t.net^$image")
    image = RequestContext(url="https://t.net/p.gif",
                           resource_type="image")
    script = RequestContext(url="https://t.net/t.js",
                            resource_type="script")
    assert rules.match(image).blocked
    assert not rules.match(script).blocked


def test_union_combines_lists():
    easylist = _rules("||ads.net^")
    easyprivacy = _rules("||trk.net^")
    combined = RuleSet.union((easylist, easyprivacy), name="combined")
    assert combined.should_block("https://ads.net/p", is_third_party=True)
    assert combined.should_block("https://trk.net/p", is_third_party=True)
    assert len(combined) == 2


def test_should_block_derives_party_from_page_domain():
    rules = _rules("||shop.com^$third-party")
    assert not rules.should_block("https://cdn.shop.com/x",
                                  page_domain="shop.com")
    assert rules.should_block("https://cdn.shop.com/x",
                              page_domain="other.com")


def test_path_rule_catches_cloaked_host():
    # The EasyPrivacy Adobe strategy: path match, no party restriction.
    rules = _rules("/b/ss^")
    cloaked = RequestContext(url="https://metrics.shop.com/b/ss?ev=1",
                             page_domain="shop.com", is_third_party=False)
    assert rules.match(cloaked).blocked


# -- bundled snapshots ---------------------------------------------------------

def test_bundled_lists_parse():
    easylist = RuleSet.from_text(easylist_text())
    easyprivacy = RuleSet.from_text(easyprivacy_text())
    assert len(easylist) > 5
    assert len(easyprivacy) > 30


def test_easyprivacy_blocks_facebook_pixel():
    rules = RuleSet.from_text(easyprivacy_text())
    assert rules.should_block(
        "https://www.facebook.com/tr?ev=identify&udff%5Bem%5D=abc",
        resource_type="image", page_domain="shop.com",
        is_third_party=True)


def test_easyprivacy_blocks_cloaked_adobe_beacon():
    rules = RuleSet.from_text(easyprivacy_text())
    assert rules.should_block(
        "https://metrics.loccitane.com/b/ss?ev=PageView",
        resource_type="image", page_domain="loccitane.com",
        is_third_party=False)


def test_unlisted_providers_not_blocked():
    combined = RuleSet.union((RuleSet.from_text(easylist_text()),
                              RuleSet.from_text(easyprivacy_text())))
    for domain in UNLISTED_PROVIDERS:
        url = "https://api.%s/v1/track?uid=abc" % domain
        assert not combined.should_block(url, page_domain="shop.com",
                                         is_third_party=True), domain


def test_easylist_scope_is_ads_only():
    easylist = RuleSet.from_text(easylist_text())
    assert easylist.should_block("https://stats.g.doubleclick.net/j/collect",
                                 page_domain="shop.com",
                                 is_third_party=True)
    assert not easylist.should_block("https://www.facebook.com/tr?x=1",
                                     page_domain="shop.com",
                                     is_third_party=True)


def test_coverage_sets_disjoint_from_unlisted():
    covered = set(easylist_covered_domains()) | \
        set(easyprivacy_covered_domains())
    assert not covered.intersection(UNLISTED_PROVIDERS)


def test_token_boundary_edge_cases():
    """Index tokens only count on whole token runs of the URL."""
    rules = _rules("||tracker.example^", "/beacon/")
    for url, blocked in [
        ("https://tracker.example/x", True),           # token at host
        ("https://nottracker.examplelong/x", False),   # inside a longer run
        ("https://a.example/beacon/1", True),          # bounded by separators
        ("https://a.example/xbeacony/1", False),       # embedded in a run
        ("https://a.example/p?q=beacon", False),       # token at end of URL
        ("HTTPS://TRACKER.EXAMPLE/X", True),           # case folding
    ]:
        context = RequestContext(url=url, resource_type="image",
                                 page_domain="shop.example",
                                 is_third_party=True)
        assert rules.match(context).blocked is blocked, url
