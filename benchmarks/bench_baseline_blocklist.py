"""Baseline comparison — blocklist blocking vs CookieGuard isolation.

The paper's §1 argument, quantified: filter lists stop only *listed*
trackers (and nothing cloaked or self-hosted), while CookieGuard's
ownership policy needs no enumeration.  The blocklist, on the other hand,
prevents listed trackers from running at all — including their
first-party cookie *creation*.
"""

from repro.crawler import CrawlConfig, Crawler
from repro.evaluation.access_control import _site_action_rates

from conftest import banner


def _blocklist_crawl(population, sites):
    """Crawl with the ad-blocker baseline instead of the guard."""
    from repro.browser.browser import Browser  # noqa: F401 (doc import)
    from repro.cookieguard.blocklist import BlocklistExtension

    crawler = Crawler(population, CrawlConfig(seed=2025))
    blockers = []
    original_build = crawler._build_browser

    def build_with_blocker(site, rng):
        browser = original_build(site, rng)
        blocker = BlocklistExtension()
        browser.install(blocker)
        blockers.append(blocker)
        return browser

    crawler._build_browser = build_with_blocker
    logs = crawler.crawl(sites)
    return logs, blockers


def test_blocklist_vs_cookieguard(benchmark, population):
    sites = list(population.iter_sites(
        range(1, min(len(population), 250) + 1)))

    regular = Crawler(population, CrawlConfig(seed=2025)).crawl(sites)
    blocklist_logs, blockers = benchmark.pedantic(
        _blocklist_crawl, args=(population, sites), rounds=1, iterations=1)
    guarded = Crawler(population, CrawlConfig(
        seed=2025, install_guard=True)).crawl(sites)

    regular_rates = _site_action_rates(regular)
    blocklist_rates = _site_action_rates(blocklist_logs)
    guarded_rates = _site_action_rates(guarded)

    banner("Baseline — blocklist vs CookieGuard",
           "lists stop listed trackers only; ownership isolation covers all")
    print(f"{'action':<14} {'regular %':>10} {'blocklist %':>12} "
          f"{'cookieguard %':>14}")
    for action in ("overwriting", "deleting", "exfiltration"):
        print(f"{action:<14} {regular_rates[action]:>10.1f} "
              f"{blocklist_rates[action]:>12.1f} "
              f"{guarded_rates[action]:>14.1f}")
    total_blocked = sum(b.blocked_scripts for b in blockers)
    print(f"scripts blocked by lists: {total_blocked}")

    # Both defenses reduce cross-domain activity...
    for action in ("overwriting", "exfiltration"):
        assert blocklist_rates[action] < regular_rates[action]
        assert guarded_rates[action] < regular_rates[action]
    # ...at very different costs: the blocklist prevents hundreds of
    # scripts from running at all (ads, analytics — functionality the
    # paper's Table 3 tries to preserve), while CookieGuard executes
    # everything and polices only the cookie jar.
    assert total_blocked > 100

    # Evasion check — the blind spots the paper names: unlisted trackers
    # execute untouched under the blocklist, and anything cloaked or
    # self-hosted carries a first-party URL no rule matches.
    unlisted_domains = {s.domain for s in population.services.values()
                        if s.category == "advertising" and not s.tracking}
    ran_unlisted = set()
    for log in blocklist_logs:
        for script in log.scripts:
            if script.domain in unlisted_domains:
                ran_unlisted.add(script.domain)
    print(f"unlisted tracker domains executing under the blocklist: "
          f"{len(ran_unlisted)}")
    assert ran_unlisted, "filter-list blind spots must survive the baseline"
    blocked_unlisted = [url for b in blockers for url in b.blocked_urls
                        if any(d in url for d in ran_unlisted)]
    assert not blocked_unlisted
