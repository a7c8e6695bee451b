"""End-to-end scenarios, including the paper's three case studies."""

import numpy as np
import pytest

from repro.analysis import Study
from repro.analysis.columnar import ShardBatch, build_ownership_batch
from repro.analysis.exfiltration import split_candidates
from repro.browser.browser import Browser
from repro.browser.scripts import Script
from repro.cookieguard.guard import CookieGuardExtension
from repro.crawler import CrawlConfig, Crawler
from repro.ecosystem import PopulationConfig, generate_population
from repro.ecosystem.behaviors import build_behavior
from repro.ecosystem.catalog import service_index
from repro.encoding import b64
from repro.extension.instrumentation import InstrumentationExtension


def exfiltration_of(log):
    return Study([log]).exfil_events


def crawl_single(site_spec, population, guard=False):
    crawler = Crawler(population, CrawlConfig(seed=2025, install_guard=guard))
    return crawler.visit_site(site_spec)


@pytest.fixture(scope="module")
def services():
    return service_index()


class TestOptimonkCaseStudy:
    """§5.4: LinkedIn's insight tag Base64-exfiltrates GTM's _ga."""

    @pytest.fixture(scope="class")
    def log(self, population):
        site = [s for s in population.iter_sites()
                if s.domain == "optimonk.com"][0]
        crawler = Crawler(population, CrawlConfig(seed=2025))
        return crawler.visit_site(site)

    def test_ga_created_by_gtm(self, log):
        ownership = build_ownership_batch(ShardBatch.from_logs([log]), 0)
        assert ownership.creators.get("_ga") == "googletagmanager.com"

    def test_linkedin_exfiltrates_ga_base64(self, log):
        events = [e for e in exfiltration_of(log)
                  if e.actor == "licdn.com" and e.pair.name == "_ga"]
        assert events
        ownership = build_ownership_batch(ShardBatch.from_logs([log]), 0)
        encoded = {b64(candidate) for value in ownership.values["_ga"]
                   for candidate in split_candidates(value)}
        destinations = {e.destination for e in events}
        assert any(encoded & set(split_candidates(r.query))
                   for r in log.requests
                   if r.script_domain == "licdn.com"
                   and r.domain in destinations)

    def test_linkedin_request_targets_px_ads(self, log):
        pixel = [r for r in log.requests
                 if r.script_domain == "licdn.com"
                 and "px.ads.linkedin.com" in r.url]
        assert pixel


class TestGoosecreekCaseStudy:
    """§5.4: Osano (a CMP!) forwards facebook.net's _fbp to Criteo."""

    @pytest.fixture(scope="class")
    def log(self, population):
        site = [s for s in population.iter_sites()
                if s.domain == "goosecreekcandle.com"][0]
        return Crawler(population, CrawlConfig(seed=2025)).visit_site(site)

    def test_fbp_created_by_facebook(self, log):
        ownership = build_ownership_batch(ShardBatch.from_logs([log]), 0)
        assert ownership.creators.get("_fbp") == "facebook.net"

    def test_osano_sends_fbp_to_criteo(self, log):
        events = [e for e in exfiltration_of(log)
                  if e.actor == "osano.com" and e.pair.name == "_fbp"]
        assert events
        assert any("criteo" in e.destination for e in events)


class TestCtoBundleCaseStudy:
    """§5.5: Pubmatic overwrites Criteo's cto_bundle (competition)."""

    def test_pubmatic_clobbers_cto_bundle(self, services):
        criteo = services["criteo-onetag"].with_overrides(children=(),
                                                          child_count=(0, 0))
        pubmatic = services["pubmatic"].with_overrides(
            children=(), child_count=(0, 0), overwrite_prob=1.0)
        browser = Browser(rng=np.random.default_rng(1))
        inst = InstrumentationExtension()
        browser.install(inst)
        page = browser.visit("https://shop.example/", scripts=[
            Script.external(criteo.script_url,
                            behavior=build_behavior(criteo)),
            Script.external(pubmatic.script_url,
                            behavior=build_behavior(pubmatic))])
        log = inst.log_for(page)
        actions = [a for a in Study([log]).manipulations
                   if a.pair.name == "cto_bundle"]
        assert actions
        assert actions[0].actor == "pubmatic.com"
        assert actions[0].pair.creator == "criteo.com"


class TestGuardEndToEnd:
    def test_guard_blocks_case_study_exfiltration(self, population):
        site = [s for s in population.iter_sites()
                if s.domain == "optimonk.com"][0]
        regular = crawl_single(site, population, guard=False)
        guarded = crawl_single(site, population, guard=True)
        regular_thefts = [e for e in exfiltration_of(regular)
                          if e.actor == "licdn.com"]
        guarded_thefts = [e for e in exfiltration_of(guarded)
                          if e.actor == "licdn.com"]
        assert regular_thefts
        assert not guarded_thefts

    def test_guard_preserves_first_party_session(self, population):
        site = population.successful_sites()[0]
        log = crawl_single(site, population, guard=True)
        fp_writes = [w for w in log.cookie_writes
                     if w.cookie_name == "fp_session"
                     and w.kind in ("set", "overwrite")]
        assert fp_writes


class TestCloakingEvasion:
    """§8: CNAME-cloaked trackers evade URL-based attribution."""

    def test_cloaked_tracker_treated_as_owner(self, population, services):
        cloaked_sites = [s for s in population.successful_sites()
                         if s.cloaked_services]
        if not cloaked_sites:
            pytest.skip("no cloaked site in sample")
        site = cloaked_sites[0]
        log = crawl_single(site, population, guard=True)
        # The cloaked script's writes were attributed to the site itself.
        cloaked_writes = [w for w in log.cookie_writes
                          if w.script_url
                          and w.script_url.startswith(
                              f"https://metrics.{site.domain}")]
        for write in cloaked_writes:
            assert write.script_domain == site.domain
            assert write.kind != "blocked"


class TestFullPipeline:
    def test_study_runs_on_guarded_logs(self, guarded_logs):
        study = Study(guarded_logs)
        rows = {(r.cookie_type, r.action): r for r in study.table1()}
        regular_like = rows[("document.cookie", "exfiltration")]
        assert regular_like.pct_websites < 25  # guard collapses prevalence

    def test_deterministic_end_to_end(self):
        def run():
            population = generate_population(
                PopulationConfig(n_sites=60, seed=77))
            logs = Crawler(population, CrawlConfig(seed=77)).crawl()
            study = Study(logs)
            return [(r.pct_websites, r.n_cookies) for r in study.table1()]

        assert run() == run()
