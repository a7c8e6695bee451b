#!/usr/bin/env python3
"""The paper's three §5.4/§5.5 case studies, reproduced end-to-end.

1. optimonk.com — LinkedIn's insight tag parses GTM's `_ga`, Base64-encodes
   the client id, and ships it to px.ads.linkedin.com.
2. goosecreekcandle.com — Osano (a consent-management script!) forwards
   facebook.net's `_fbp` to Criteo's sslwidget endpoint.
3. Criteo vs Pubmatic — `cto_bundle` is overwritten cross-domain
   (collusion-or-competition).

Run:  python examples/case_studies.py
"""

import numpy as np

from repro.analysis import Study
from repro.analysis.columnar import ShardBatch, build_ownership_batch
from repro.analysis.exfiltration import split_candidates
from repro.browser import Browser, Script
from repro.crawler import CrawlConfig, Crawler
from repro.ecosystem import PopulationConfig, generate_population
from repro.ecosystem.behaviors import build_behavior
from repro.ecosystem.catalog import service_index
from repro.encoding import encoded_forms
from repro.extension import InstrumentationExtension

FORMS = ("plain", "b64", "md5", "sha1")   # encoded_forms' order


def carried_form(query, candidates):
    """The first of the candidates' four forms that ``query`` carries."""
    tokens = set(split_candidates(query))
    for candidate in candidates:
        for name, encoded in zip(FORMS, encoded_forms(candidate)):
            if encoded in tokens:
                return name
    return None


def case_optimonk(population):
    print("== Case 1: targeted parsing on optimonk.com ==")
    site = next(s for s in population.iter_sites()
                if s.domain == "optimonk.com")
    log = Crawler(population, CrawlConfig(seed=2025)).visit_site(site)
    study = Study([log])
    ownership = build_ownership_batch(ShardBatch.from_logs([log]), 0)
    print(f"  _ga creator: {ownership.creators.get('_ga')}")
    print(f"  _ga value:   {ownership.values['_ga'][0]}")
    candidates = split_candidates(ownership.values["_ga"][0])
    for event in study.exfil_events:
        if event.actor == "licdn.com" and event.pair.name == "_ga":
            # The event says who sent the cookie where; the request and
            # the form the id took in it are read off the log.
            for request in log.requests:
                form = (request.script_domain == "licdn.com"
                        and request.domain == event.destination
                        and carried_form(request.query, candidates))
                if form:
                    print(f"  licdn.com exfiltrated ({form}) -> "
                          f"{event.destination}")
                    print(f"  URL: {request.url[:110]}...")
                    break


def case_goosecreek(population):
    print("\n== Case 2: cross-company sharing on goosecreekcandle.com ==")
    site = next(s for s in population.iter_sites()
                if s.domain == "goosecreekcandle.com")
    log = Crawler(population, CrawlConfig(seed=2025)).visit_site(site)
    study = Study([log])
    ownership = build_ownership_batch(ShardBatch.from_logs([log]), 0)
    print(f"  _fbp creator: {ownership.creators.get('_fbp')}")
    print(f"  _fbp value:   {ownership.values['_fbp'][0]}")
    for event in study.exfil_events:
        if event.actor == "osano.com":
            print(f"  osano.com (a CMP) sent {event.pair.name} -> "
                  f"{event.destination}")


def case_cto_bundle():
    print("\n== Case 3: cto_bundle overwriting (Criteo vs Pubmatic) ==")
    services = service_index()
    criteo = services["criteo-onetag"].with_overrides(children=(),
                                                      child_count=(0, 0))
    pubmatic = services["pubmatic"].with_overrides(
        children=(), child_count=(0, 0), overwrite_prob=1.0)
    browser = Browser(rng=np.random.default_rng(1))
    instrumentation = InstrumentationExtension()
    browser.install(instrumentation)
    page = browser.visit("https://shop.example/", scripts=[
        Script.external(criteo.script_url, behavior=build_behavior(criteo)),
        Script.external(pubmatic.script_url,
                        behavior=build_behavior(pubmatic))])
    log = instrumentation.log_for(page)
    before = [w for w in log.cookie_writes
              if w.cookie_name == "cto_bundle" and w.kind == "set"][0]
    for action in Study([log]).manipulations:
        if action.pair.name == "cto_bundle":
            after = page.jar.find("cto_bundle")[0]
            print(f"  creator:   {action.pair.creator} "
                  f"(value length {len(before.cookie_value)})")
            print(f"  overwriter: {action.actor} "
                  f"(new value length {len(after.value)})")
            print(f"  attributes changed: {', '.join(action.attrs_changed)}")


def main():
    population = generate_population(PopulationConfig(n_sites=400, seed=2025))
    case_optimonk(population)
    case_goosecreek(population)
    case_cto_bundle()


if __name__ == "__main__":
    main()
