"""Website-breakage evaluation (Table 3).

The paper's authors manually tested 100 random sites from the Tranco top
10k in four categories — navigation, SSO, appearance, and other
functionality — labeling breakage minor or major.  Here the manual
assessment is replaced by *executing the functionality* through the real
guard: each site's declared SSO flow and functional dependencies run as
scripts in a guarded browser, and a flow is broken exactly when the
cookie read it requires comes back empty.

Running with the entity whitelist (DuckDuckGo-entities grouping) is the
§7.2 refinement that reduces SSO breakage from 11% to 3%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..analysis.entities import default_entity_map
from ..browser.browser import Browser
from ..browser.scripts import Script
from ..cookieguard.guard import CookieGuardExtension
from ..cookieguard.policy import PolicyConfig
from ..cookies.serialize import serialize_set_cookie
from ..ecosystem.population import Population
from ..ecosystem.site import SiteSpec

__all__ = ["BreakageResult", "Table3", "evaluate_breakage"]

CATEGORIES = ("navigation", "sso", "appearance", "functionality")


@dataclass
class BreakageResult:
    """One site's outcome: category → severity ("ok"|"minor"|"major")."""

    site: str
    outcomes: Dict[str, str] = field(default_factory=dict)

    def worst(self) -> str:
        order = {"ok": 0, "minor": 1, "major": 2}
        return max(self.outcomes.values(), key=lambda s: order[s],
                   default="ok")


@dataclass
class Table3:
    """Aggregated breakage percentages (the paper's Table 3)."""

    n_sites: int
    minor: Dict[str, float] = field(default_factory=dict)
    major: Dict[str, float] = field(default_factory=dict)
    results: List[BreakageResult] = field(default_factory=list)

    @property
    def pct_sites_sso_broken(self) -> float:
        return self.minor.get("sso", 0.0) + self.major.get("sso", 0.0)

    def render(self) -> str:
        lines = [f"{'':<10}" + "".join(f"{cat:>14}" for cat in CATEGORIES)]
        for severity, table in (("Minor", self.minor), ("Major", self.major)):
            lines.append(f"{severity:<10}" + "".join(
                f"{table.get(cat, 0.0):>13.0f}%" for cat in CATEGORIES))
        return "\n".join(lines)


def _provider_script(population: Population, key: str, *, sets: str = "",
                     reads: str = "", sink: Dict[str, bool] = None) -> Script:
    """A provider-domain script that sets or checks a flow cookie."""
    service = population.services[key]

    def behavior(js) -> None:
        if sets:
            js.set_cookie(serialize_set_cookie(
                sets, f"tok{abs(hash((key, js.site_domain))) % 10**14}",
                domain=js.site_domain, path="/", max_age=3600.0))
        if reads:
            jar = dict(
                pair.split("=", 1) for pair in js.get_cookie().split("; ")
                if "=" in pair)
            sink[reads] = reads in jar

    return Script.external(service.script_url, behavior=behavior,
                           label=f"flow:{key}")


def _site_script(site: SiteSpec, *, sets: str) -> Script:
    def behavior(js) -> None:
        js.set_cookie(serialize_set_cookie(sets,
                                           f"fp{abs(hash(site.domain)) % 10**12}",
                                           path="/", max_age=3600.0))
    return Script.external(f"https://{site.domain}/static/main.js",
                           behavior=behavior, label="flow:site")


def _evaluate_site(population: Population, site: SiteSpec,
                   policy: Optional[PolicyConfig]) -> BreakageResult:
    result = BreakageResult(site=site.domain,
                            outcomes={cat: "ok" for cat in CATEGORIES})
    browser = Browser()
    browser.install(CookieGuardExtension(policy))
    # Navigation and appearance do not depend on script-visible cookies:
    # the guard never blocks document requests or CSS, so these stay "ok"
    # (matching the paper's 0% rows).

    # --- SSO flow -------------------------------------------------------
    if site.sso is not None:
        seen: Dict[str, bool] = {}
        setter = _provider_script(population, site.sso.setter_key,
                                  sets="sso_session")
        reader = _provider_script(population, site.sso.reader_key,
                                  reads="sso_session", sink=seen)
        browser.visit(site.url, scripts=[setter, reader])
        if not seen.get("sso_session", False):
            result.outcomes["sso"] = site.sso.severity

    # --- functional dependencies ------------------------------------------
    for dep in site.functional_deps:
        seen = {}
        scripts: List[Script] = []
        if dep.creator == "site":
            scripts.append(_site_script(site, sets=dep.cookie_name))
        else:
            scripts.append(_provider_script(population, dep.creator,
                                            sets=dep.cookie_name))
        scripts.append(_provider_script(population, dep.reader_key,
                                        reads=dep.cookie_name, sink=seen))
        browser.visit(site.url, scripts=scripts)
        if not seen.get(dep.cookie_name, False):
            current = result.outcomes["functionality"]
            if dep.severity == "major" or current == "ok":
                result.outcomes["functionality"] = dep.severity
    return result


def evaluate_breakage(population: Population,
                      sites: Optional[Sequence[SiteSpec]] = None,
                      *, sample_size: int = 100, top_k: int = 10_000,
                      seed: int = 2025,
                      use_entity_whitelist: bool = False) -> Table3:
    """Reproduce Table 3 over a random sample of the top ``top_k`` sites."""
    import numpy as np

    if sites is None:
        # Rank-range query: the fail filter replays only each rank's RNG
        # draw prefix, so sampling never synthesizes the population.
        eligible = [rank for rank in range(1, min(top_k, len(population)) + 1)
                    if not population.rank_crawl_fails(rank)]
        rng = np.random.default_rng([seed, 100])
        picks = rng.choice(len(eligible),
                           size=min(sample_size, len(eligible)),
                           replace=False)
        sites = list(population.iter_sites(
            [eligible[int(i)] for i in sorted(picks)]))

    policy = PolicyConfig()
    if use_entity_whitelist:
        policy = PolicyConfig(entity_of=default_entity_map().entity_of)

    table = Table3(n_sites=len(sites))
    counts = {"minor": {cat: 0 for cat in CATEGORIES},
              "major": {cat: 0 for cat in CATEGORIES}}
    for site in sites:
        result = _evaluate_site(population, site, policy)
        table.results.append(result)
        for category, outcome in result.outcomes.items():
            if outcome in ("minor", "major"):
                counts[outcome][category] += 1
    n = max(len(sites), 1)
    table.minor = {cat: 100.0 * counts["minor"][cat] / n for cat in CATEGORIES}
    table.major = {cat: 100.0 * counts["major"][cat] / n for cat in CATEGORIES}
    return table
