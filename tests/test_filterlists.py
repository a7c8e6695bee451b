"""The Adblock-Plus filter engine and the embedded lists."""

import re
import sys
import threading

import pytest

from repro.analysis import Study
from repro.analysis.filterlists import (
    FilterList,
    FilterRule,
    FilterRuleError,
    RuleOptions,
)
from repro.analysis.lists_data import (LIST_NAMES, build_lists, combined_list,
                                       default_combined_list)


class TestRuleParsing:
    def test_domain_anchor(self):
        rule = FilterRule("||tracker.com^")
        assert rule.anchor_domain == "tracker.com"
        assert rule.matches("https://tracker.com/t.js")
        assert rule.matches("https://cdn.tracker.com/t.js")
        assert not rule.matches("https://nottracker.com/t.js")

    def test_domain_anchor_separator(self):
        rule = FilterRule("||ads.com^")
        assert rule.matches("https://ads.com/x")
        assert rule.matches("https://ads.com")
        assert not rule.matches("https://ads.com.evil.net/x")

    def test_start_anchor(self):
        rule = FilterRule("|https://exact.com/path")
        assert rule.matches("https://exact.com/path/x")
        assert not rule.matches("https://other.com/https://exact.com/path")

    def test_end_anchor(self):
        rule = FilterRule("/analytics.js|")
        assert rule.matches("https://x.com/analytics.js")
        assert not rule.matches("https://x.com/analytics.js?v=2")

    def test_plain_substring(self):
        rule = FilterRule("/pagead/")
        assert rule.matches("https://x.com/pagead/js/ads.js")

    def test_wildcard(self):
        rule = FilterRule("/banner/*/ad")
        assert rule.matches("https://x.com/banner/300x250/ad.png")
        assert not rule.matches("https://x.com/banner/img.png")

    def test_comment_rejected(self):
        with pytest.raises(FilterRuleError):
            FilterRule("! this is a comment")

    def test_cosmetic_rule_rejected(self):
        with pytest.raises(FilterRuleError):
            FilterRule("example.com##.ad-banner")

    def test_empty_rejected(self):
        with pytest.raises(FilterRuleError):
            FilterRule("   ")

    def test_unknown_option_rejected(self):
        with pytest.raises(FilterRuleError):
            FilterRule("||x.com^$websocket-frames")


class TestRuleOptions:
    def test_third_party_option(self):
        rule = FilterRule("||t.com^$third-party")
        assert rule.matches("https://t.com/x", is_third_party=True)
        assert not rule.matches("https://t.com/x", is_third_party=False)

    def test_first_party_only(self):
        rule = FilterRule("||t.com^$~third-party")
        assert rule.matches("https://t.com/x", is_third_party=False)
        assert not rule.matches("https://t.com/x", is_third_party=True)

    def test_resource_type_option(self):
        rule = FilterRule("||t.com^$script")
        assert rule.matches("https://t.com/x.js", resource_type="script")
        assert not rule.matches("https://t.com/px.gif", resource_type="image")

    def test_multiple_types(self):
        rule = FilterRule("||t.com^$script,image")
        assert rule.matches("https://t.com/x", resource_type="image")
        assert rule.matches("https://t.com/x", resource_type="script")
        assert not rule.matches("https://t.com/x", resource_type="xhr")

    def test_domain_option_include(self):
        rule = FilterRule("||t.com^$domain=news.com")
        assert rule.matches("https://t.com/x", page_domain="news.com")
        assert not rule.matches("https://t.com/x", page_domain="blog.com")

    def test_domain_option_exclude(self):
        rule = FilterRule("||t.com^$domain=~news.com")
        assert not rule.matches("https://t.com/x", page_domain="news.com")
        assert rule.matches("https://t.com/x", page_domain="blog.com")

    def test_options_permit_api(self):
        options = RuleOptions(resource_types=("script",), third_party=True)
        assert options.permits(resource_type="script", is_third_party=True,
                               page_domain="x.com")
        assert not options.permits(resource_type="script",
                                   is_third_party=False, page_domain="x.com")


class TestFilterList:
    def test_should_block(self):
        flist = FilterList(["||tracker.com^", "! comment", "/pixel?"])
        assert flist.should_block("https://cdn.tracker.com/t.js")
        assert flist.should_block("https://x.com/pixel?id=1")
        assert not flist.should_block("https://benign.com/app.js")

    def test_exception_rule_wins(self):
        flist = FilterList(["||cdn.com^", "@@||cdn.com/safe/"])
        assert flist.should_block("https://cdn.com/ads/x.js")
        assert not flist.should_block("https://cdn.com/safe/x.js")

    def test_skipped_lines_recorded(self):
        flist = FilterList(["! comment", "||ok.com^", "bad.com##.ad"])
        assert len(flist.skipped) == 2
        assert flist.rule_count == 1

    def test_combine(self):
        a = FilterList(["||a.com^"], name="a")
        b = FilterList(["||b.com^"], name="b")
        combined = FilterList.combine([a, b])
        assert combined.should_block("https://a.com/x")
        assert combined.should_block("https://b.com/x")

    def test_domain_bucketing_walks_up(self):
        flist = FilterList(["||tracker.co.uk^"])
        assert flist.should_block("https://deep.sub.tracker.co.uk/x.js")

    @pytest.mark.parametrize("url, plain", [
        ("HTTPS://WWW.GOOGLETAGMANAGER.COM/gtm.js",
         "https://www.googletagmanager.com/gtm.js"),
        ("https://user:pw@doubleclick.net/x.js",
         "https://doubleclick.net/x.js"),
        ("https://doubleclick.net./x.js", "https://doubleclick.net/x.js"),
    ])
    def test_url_decided_like_its_lower_case_plain_host_form(self, url,
                                                             plain):
        """Adblock Plus matches case-insensitively (this engine has no
        ``$match-case``) and on the host alone."""
        flist = combined_list()
        assert flist.should_block(plain)
        assert flist.should_block(url)
        assert flist.should_block_cached(url)

    @pytest.mark.parametrize("url", [
        "https://a.com#x",           # plain: decided by host
        "https://a.com/#x",
        "https://a.com:8080#x",
        "https://x;.a.com#x",        # not plain: decided by the regex
    ])
    def test_fragment_after_the_host_ends_it(self, url):
        """The host ends at ``#`` as the rule regex's authority does, so
        the list finds the rule its regex matches."""
        assert FilterRule("||a.com^").matches(url)
        assert FilterList(["||a.com^"]).should_block(url)

    def test_rules_match_case_insensitively(self):
        flist = FilterList(["/Ads/Banner.js"])
        assert flist.should_block("https://x.com/ads/banner.js")
        assert flist.should_block("https://x.com/ADS/BANNER.JS")


class TestEmbeddedLists:
    def test_nine_lists_built(self):
        lists = build_lists()
        assert set(lists) == set(LIST_NAMES)
        assert len(LIST_NAMES) == 9

    def test_known_trackers_blocked(self):
        combined = combined_list()
        for url in ("https://www.googletagmanager.com/gtm.js",
                    "https://connect.facebook.net/en_US/fbevents.js",
                    "https://bat.bing.com/bat.js",
                    "https://cdn.cookielaw.org/scripttemplates/otSDKStub.js",
                    "https://snap.licdn.com/li.lms-analytics/insight.min.js"):
            assert combined.should_block(url, resource_type="script",
                                         page_domain="site.com"), url

    def test_libraries_not_blocked(self):
        combined = combined_list()
        for url in ("https://code.jquery.com/jquery-3.7.1.min.js",
                    "https://cdn.jsdelivr.net/npm/bootstrap/dist/js/bootstrap.bundle.min.js",
                    "https://fonts.googleapis.com/css2-loader.js"):
            assert not combined.should_block(url, resource_type="script",
                                             page_domain="site.com"), url

    def test_unlisted_generic_trackers_missed(self):
        # Filter lists have blind spots by design.
        from repro.ecosystem.catalog import generic_services
        combined = combined_list()
        unlisted = [s for s in generic_services(240)
                    if s.category == "advertising" and not s.tracking]
        assert unlisted
        assert not combined.should_block(unlisted[0].script_url,
                                         resource_type="script",
                                         page_domain="site.com")

    def test_cmp_in_fanboy_annoyances(self):
        lists = build_lists()
        assert lists["fanboy-annoyances"].should_block(
            "https://cdn-cookieyes.com/client_data/cookieyes.js",
            page_domain="site.com")


#: URL shapes the crawl does not produce, each aimed at a listed host.
#: The later ones sit on either side of the plain-URL shape whose host
#: decides a ``||domain^`` rule, so a host decision that strays from
#: the rule's regex fails ``test_lazy_match_equals_eager_regex``.
EDGE_URLS = (
    "HTTPS://WWW.GOOGLETAGMANAGER.COM/gtm.js",   # upper-case scheme, host
    "https://doubleclick.net:8443/pagead/js/x.js",  # port
    "https://user:pw@doubleclick.net/x.js",      # userinfo
    "https://doubleclick.net./x.js",             # trailing dot
    "https://bücher.doubleclick.net/x.js",       # non-ASCII host
    "doubleclick.net/pagead/js/x.js",            # no scheme
    "//google-analytics.com/analytics.js",       # no scheme, no colon
    "https://x.com/analytics.js\n",              # trailing newline
    "https://a.com#x",                           # fragment after the host
    "https://doubleclick.net;x/",                # separators in the
    "https://doubleclick.net&/",                 # authority
    "https://doubleclick.net\\x/",
    "https://doubleclick.net:80.x/",             # a port that is not one
    "https://doubleclick.net:/",                 # an empty port
    "https://_x.doubleclick.net/",               # word characters,
    "https://doubleclick.net%2f/x",              # no separator
    "https://xdoubleclick.net/",                 # not a dot-aligned suffix
    "https://doubleclick.net-x/",                # a longer host
    "h_t://doubleclick.net/",                    # schemes the regex
    "1http://doubleclick.net/",                  # refuses
    "wss://a.b.doubleclick.net/",                # another scheme
)

#: Every (resource_type, is_third_party) a rule's options tell apart.
COMBOS = [(rtype, third) for rtype in ("script", "image")
          for third in (True, False)]


@pytest.fixture(scope="module")
def crawled_urls(crawl_logs):
    """Every script URL of the crawl, every 40th distinct request URL,
    and the edge cases."""
    scripts = {s.url for log in crawl_logs for s in log.scripts if s.url}
    requests = sorted({r.url for log in crawl_logs for r in log.requests})
    return sorted(scripts) + requests[::40] + list(EDGE_URLS)


def _eager(flist):
    for rule in flist.rules:
        rule._regex = re.compile(FilterRule._to_regex(rule.pattern))
    return flist


def _decisions(flist, urls):
    return [flist.should_block(url, resource_type=rtype,
                               page_domain="site.com", is_third_party=third)
            for url in urls for rtype, third in COMBOS]


class TestLazyCompile:
    """A ``||domain^`` rule decides a plain URL by host, and any other
    rule or URL compiles the rule's regex on first match: the same
    decisions as compiling every rule up front."""

    def test_lazy_match_equals_eager_regex(self, crawled_urls):
        for rule in default_combined_list().rules:
            eager = re.compile(FilterRule._to_regex(rule.pattern))
            for url in crawled_urls:
                found = eager.search(url) is not None
                for rtype, third in COMBOS:
                    expected = rule.options.permits(
                        resource_type=rtype, is_third_party=third,
                        page_domain="") and found
                    assert rule.matches(url, resource_type=rtype,
                                        is_third_party=third) == expected, \
                        (rule, url, rtype, third)

    @pytest.mark.parametrize("text", ["||x^", "||80.x^", "||net^",
                                      "||net-x^", "||net%2f^",
                                      "||_x.doubleclick.net^"])
    def test_host_rules_off_the_lists_match_like_their_regex(self, text):
        """Domains the lists lack, each ending where an edge URL's port,
        separator or word character could mislead a host decision."""
        rule = FilterRule(text)
        eager = re.compile(FilterRule._to_regex(rule.pattern))
        for url in EDGE_URLS:
            assert rule.matches(url) == (eager.search(url) is not None), url

    def test_lazy_list_decides_like_eager_list(self, crawled_urls):
        assert _decisions(combined_list(), crawled_urls) == _decisions(
            _eager(combined_list()), crawled_urls)

    def test_threads_sharing_a_lazy_list_decide_like_eager(
            self, crawled_urls):
        """Threads racing to compile one rule each keep an equal
        pattern, so no thread's decision can differ."""
        expected = _decisions(_eager(combined_list()), crawled_urls)
        shared = combined_list()
        results = [None] * 4
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def run(slot):
                results[slot] = _decisions(shared, crawled_urls)
            threads = [threading.Thread(target=run, args=(slot,))
                       for slot in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * len(results)

    def test_a_study_compiles_only_the_rules_it_reaches(self, crawl_logs):
        """The crawl's script URLs are plain, so every ``||domain^``
        rule decides them by host: only unanchored or exception rules
        may compile a regex."""
        default_combined_list.cache_clear()
        flist = default_combined_list()
        assert not any(rule._regex for rule in flist.rules)
        Study(crawl_logs)
        host_rules = [rule for rule in flist.rules
                      if re.fullmatch(r"\|\|[\w.%-]+\^", rule.pattern)]
        assert host_rules
        assert not any(rule._regex for rule in host_rules)
        compiled = [rule for rule in flist.rules if rule._regex is not None]
        assert compiled
        assert all(rule.anchor_domain is None or rule.is_exception
                   for rule in compiled)
