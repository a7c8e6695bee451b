"""Access-control evaluation (Figure 5).

Crawls the same site sample twice — regular browser vs. CookieGuard
installed — and compares the percentage of sites on which cross-domain
overwriting, deleting, and exfiltration still occur.  The paper reports
reductions of 82.2% (overwriting), 86.2% (deletion) and 83.2%
(exfiltration); residual activity comes from site-owner scripts, which
keep full jar access by design (§6.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..analysis.reports import Study
from ..cookieguard.policy import PolicyConfig
from ..crawler.crawler import CrawlConfig, Crawler
from ..ecosystem.population import Population
from ..ecosystem.site import SiteSpec
from ..records import VisitLog

__all__ = ["Figure5Row", "AccessControlEvaluation", "evaluate_access_control"]


@dataclass(frozen=True)
class Figure5Row:
    """One action's bar pair in Figure 5."""

    action: str                 # "overwriting" | "deleting" | "exfiltration"
    pct_sites_regular: float
    pct_sites_guarded: float

    @property
    def reduction_pct(self) -> float:
        if self.pct_sites_regular == 0:
            return 0.0
        return 100.0 * (1.0 - self.pct_sites_guarded / self.pct_sites_regular)


@dataclass
class AccessControlEvaluation:
    """Both conditions' logs plus the derived Figure 5 rows."""

    rows: List[Figure5Row]
    n_sites: int
    regular_logs: List[VisitLog]
    guarded_logs: List[VisitLog]

    def render(self) -> str:
        lines = [f"{'action':<14} {'regular %':>10} {'guarded %':>10} "
                 f"{'reduction':>10}"]
        for row in self.rows:
            lines.append(f"{row.action:<14} {row.pct_sites_regular:>10.1f} "
                         f"{row.pct_sites_guarded:>10.1f} "
                         f"{row.reduction_pct:>9.1f}%")
        return "\n".join(lines)


def _site_action_rates(logs: Sequence[VisitLog]) -> Dict[str, float]:
    study = Study(logs)
    n = max(study.n_sites, 1)
    sites = {"overwriting": set(), "deleting": set(),
             "exfiltration": {event.site for event in study.exfil_events}}
    for action in study.manipulations:
        key = "overwriting" if action.kind == "overwrite" else "deleting"
        sites[key].add(action.site)
    return {key: 100.0 * len(value) / n for key, value in sites.items()}


def evaluate_access_control(population: Population,
                            sites: Optional[Sequence[SiteSpec]] = None,
                            seed: int = 2025,
                            guard_policy: Optional[PolicyConfig] = None
                            ) -> AccessControlEvaluation:
    """Run the paired crawls and build Figure 5.

    The same seed drives both conditions, so the only difference between
    the two crawls is the guard itself.
    """
    # sites=None streams the whole population lazily inside each crawl
    # (Crawler.crawl synthesizes per rank), so no eager site list here.
    regular = Crawler(population, CrawlConfig(seed=seed)).crawl(sites)
    guarded = Crawler(population, CrawlConfig(
        seed=seed, install_guard=True, guard_policy=guard_policy)).crawl(sites)

    regular_rates = _site_action_rates(regular)
    guarded_rates = _site_action_rates(guarded)
    rows = [Figure5Row(action,
                       regular_rates[action],
                       guarded_rates[action])
            for action in ("overwriting", "deleting", "exfiltration")]
    return AccessControlEvaluation(rows=rows, n_sites=len(regular),
                                   regular_logs=regular,
                                   guarded_logs=guarded)
