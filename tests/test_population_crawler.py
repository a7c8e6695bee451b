"""Population sampling and the crawl harness."""

import numpy as np
import pytest

from repro.crawler import CrawlConfig, Crawler
from repro.ecosystem import PopulationConfig, generate_population


class TestPopulation:
    def test_deterministic(self):
        a = generate_population(PopulationConfig(n_sites=100, seed=9))
        b = generate_population(PopulationConfig(n_sites=100, seed=9))
        assert [s.domain for s in a.iter_sites()] == \
            [s.domain for s in b.iter_sites()]
        assert [s.direct_services for s in a.iter_sites()] == \
            [s.direct_services for s in b.iter_sites()]

    def test_seed_changes_population(self):
        a = generate_population(PopulationConfig(n_sites=100, seed=1))
        b = generate_population(PopulationConfig(n_sites=100, seed=2))
        assert [s.domain for s in a.iter_sites()] != \
            [s.domain for s in b.iter_sites()]

    def test_site_count(self, population):
        assert len(population) == 400

    def test_domains_unique(self, population):
        domains = [s.domain for s in population.iter_sites()]
        assert len(domains) == len(set(domains))

    def test_special_sites_at_fixed_ranks(self, population):
        by_rank = {s.rank: s for s in population.iter_sites()}
        assert by_rank[12].domain == "facebook.com"
        assert by_rank[48].domain == "zoom.us"
        assert by_rank[61].domain == "cnn.com"

    def test_facebook_has_cdn_dependency(self, population):
        facebook = [s for s in population.iter_sites()
                    if s.domain == "facebook.com"][0]
        assert "fbcdn-widget" in facebook.direct_services
        assert any(d.reader_key == "fbcdn-widget"
                   for d in facebook.functional_deps)

    def test_zoom_uses_microsoft_live_sso(self, population):
        zoom = [s for s in population.iter_sites()
                if s.domain == "zoom.us"][0]
        assert zoom.sso.setter_key == "microsoft-sso"
        assert zoom.sso.reader_key == "live-sso"

    def test_crawl_failure_rate(self):
        population = generate_population(PopulationConfig(n_sites=2000, seed=3))
        failed = sum(1 for s in population.iter_sites() if s.crawl_fails)
        assert 0.20 < failed / 2000 < 0.31

    def test_gtm_excludes_standalone_ga(self, population):
        # Cloaked inclusions are exempt: a CNAME-cloaked analytics.js is a
        # *self-hosted* integration, not a second Google tag.
        for site in population.iter_sites():
            keys = set(site.direct_services)
            for children in site.indirect_assignments.values():
                keys.update(children)
            if "googletagmanager" in keys:
                assert "google-analytics" not in keys
                assert "ua-legacy" not in keys

    def test_loaders_exist_for_assignments(self, population):
        for site in population.iter_sites():
            keys = set(site.all_service_keys())
            for loader in site.indirect_assignments:
                assert loader in keys

    def test_services_resolvable(self, population):
        for site in population.iter_sites():
            for key in site.all_service_keys():
                assert key in population.services

    def test_sso_rate(self):
        population = generate_population(PopulationConfig(n_sites=2000, seed=5))
        with_sso = sum(1 for s in population.iter_sites()
                       if s.sso is not None)
        assert 0.10 < with_sso / 2000 < 0.24

    def test_successful_sites_helper(self, population):
        successes = population.successful_sites()
        assert all(not s.crawl_fails for s in successes)
        assert len(successes) < len(population)


class TestCrawler:
    def test_failed_sites_skipped(self, population):
        crawler = Crawler(population)
        failed = [s for s in population.iter_sites() if s.crawl_fails][0]
        assert crawler.visit_site(failed) is None

    def test_logs_deterministic(self, population):
        site = population.successful_sites()[0]
        log_a = Crawler(population, CrawlConfig(seed=11)).visit_site(site)
        log_b = Crawler(population, CrawlConfig(seed=11)).visit_site(site)
        assert len(log_a.cookie_writes) == len(log_b.cookie_writes)
        assert [w.cookie_value for w in log_a.cookie_writes] == \
            [w.cookie_value for w in log_b.cookie_writes]

    def test_retention_filter(self, crawl_logs, population):
        successes = len(population.successful_sites())
        assert 0 < len(crawl_logs) <= successes
        assert all(log.complete for log in crawl_logs)

    def test_script_counts_populated(self, crawl_logs):
        busy = [log for log in crawl_logs if log.n_third_party_scripts > 0]
        assert busy
        for log in busy[:20]:
            assert log.n_direct_third_party + log.n_indirect_third_party \
                == log.n_third_party_scripts
            assert len(log.scripts) == log.n_scripts

    def test_interaction_flag(self, crawl_logs):
        assert all(log.interacted for log in crawl_logs)

    def test_cloaked_scripts_look_first_party(self, population):
        cloaked_sites = [s for s in population.successful_sites()
                         if s.cloaked_services]
        if not cloaked_sites:
            pytest.skip("no cloaked site in small sample")
        log = Crawler(population).visit_site(cloaked_sites[0])
        cloaked_urls = [s for s in log.scripts
                        if s.url and s.url.startswith(
                            f"https://metrics.{log.site}")]
        assert cloaked_urls
        assert all(s.domain == log.site for s in cloaked_urls)

    def test_http_session_cookie_logged(self, population):
        site = [s for s in population.successful_sites()
                if s.http_session_cookie and not s.http_session_httponly][:1]
        if not site:
            pytest.skip("no visible-session site in sample")
        log = Crawler(population).visit_site(site[0])
        assert any(h.cookie_name == "php_sessid" for h in log.header_cookies)

    def test_guarded_crawl_collects_guards(self, population):
        crawler = Crawler(population, CrawlConfig(install_guard=True))
        crawler.crawl(population.successful_sites()[:5])
        assert len(crawler.guards) == 5

    def test_cookie_op_count_positive(self, crawl_logs):
        assert any(log.cookie_op_count > 0 for log in crawl_logs)


class TestCalibration:
    """Aggregate statistics stay in the paper's neighbourhood."""

    def test_avg_third_party_scripts(self, crawl_logs):
        counts = [log.n_third_party_scripts for log in crawl_logs]
        assert 12 < np.mean(counts) < 26  # paper: 19

    def test_indirect_ratio(self, crawl_logs):
        direct = sum(log.n_direct_third_party for log in crawl_logs)
        indirect = sum(log.n_indirect_third_party for log in crawl_logs)
        assert 1.7 < indirect / direct < 3.3  # paper: 2.5

    def test_sites_with_third_party(self, crawl_logs):
        share = sum(1 for log in crawl_logs
                    if log.n_third_party_scripts > 0) / len(crawl_logs)
        assert share > 0.84  # paper: 93.3%
