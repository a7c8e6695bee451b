"""Ablation — the owner-full-access policy (§6.1).

With it, site-owner scripts see the whole jar (the paper's deployable
default; Figure 5's residual bars come from exactly this).  Without it,
the residual cross-domain activity disappears — but so does legitimate
first-party functionality (session management breaks).
"""

from repro.cookieguard.policy import PolicyConfig
from repro.crawler import CrawlConfig, Crawler
from repro.evaluation.access_control import _site_action_rates

from conftest import banner


def test_owner_access_ablation(benchmark, population):
    sites = list(population.iter_sites(
        range(1, min(len(population), 200) + 1)))

    def run(owner_full_access):
        crawler = Crawler(population, CrawlConfig(
            seed=2025, install_guard=True,
            guard_policy=PolicyConfig(owner_full_access=owner_full_access)))
        return _site_action_rates(crawler.crawl(sites))

    with_owner = benchmark.pedantic(run, args=(True,), rounds=1, iterations=1)
    without_owner = run(False)
    banner("Ablation — owner full access",
           "residual Figure 5 activity is owner-script activity")
    print(f"{'action':<14} {'owner-access %':>15} {'no-owner %':>12}")
    for action in ("overwriting", "deleting", "exfiltration"):
        print(f"{action:<14} {with_owner[action]:>15.1f} "
              f"{without_owner[action]:>12.1f}")
    # Removing owner access removes (nearly) all residual actions.
    for action in ("overwriting", "deleting"):
        assert without_owner[action] <= with_owner[action]
    assert without_owner["exfiltration"] < with_owner["exfiltration"]
