"""Runtime-performance evaluation (Table 4, Figures 6, 7, 9, 10).

The paper visits the top 10k sites with and without CookieGuard,
collects ``dom_content_loaded`` / ``dom_interactive`` / ``load_event``
via Selenium, keeps the 8,171 sites valid in both conditions, and reports
means/medians (Table 4), paired log/linear boxplots (Figures 6/9) and
per-site overhead ratios (Figures 7/10, medians 1.108 / 1.111 / 1.122).

Here the page-composition inputs (third-party script count, cookie-API
call count) come from an actual crawl of the population, and the paired
timings come from :class:`~repro.browser.timing.PageLoadModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..browser.timing import PageLoadModel
from ..ecosystem.population import Population
from ..records import VisitLog
from ..stats.boxplot import BoxplotStats

__all__ = ["METRICS", "PerformanceReport", "evaluate_performance",
           "paired_timings_from_logs"]

METRICS: Tuple[str, ...] = ("dom_content_loaded", "dom_interactive",
                            "load_event")

_METRIC_LABELS = {
    "dom_content_loaded": "DOM Content Loaded",
    "dom_interactive": "DOM Interactive",
    "load_event": "Load Event",
}


@dataclass
class PerformanceReport:
    """Everything Table 4 and Figures 6/7/9/10 need."""

    n_sites: int
    #: metric → (normal samples, guarded samples), in ms.
    samples: Dict[str, Tuple[np.ndarray, np.ndarray]]

    # -- Table 4 -----------------------------------------------------------
    def table4(self) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for metric in METRICS:
            normal, guarded = self.samples[metric]
            out[metric] = {
                "normal_mean": float(normal.mean()),
                "normal_median": float(np.median(normal)),
                "guard_mean": float(guarded.mean()),
                "guard_median": float(np.median(guarded)),
            }
        return out

    def mean_overhead_ms(self) -> float:
        """The paper's headline "average overhead of 0.3 seconds"."""
        deltas = [self.samples[m][1].mean() - self.samples[m][0].mean()
                  for m in METRICS]
        return float(np.mean(deltas))

    # -- Figures 6 / 9 -------------------------------------------------------
    def boxplots(self) -> Dict[str, Dict[str, BoxplotStats]]:
        """Paired distributions per metric (log/linear is a plotting
        choice; the stats are identical)."""
        out: Dict[str, Dict[str, BoxplotStats]] = {}
        for metric in METRICS:
            normal, guarded = self.samples[metric]
            out[metric] = {
                "no_extension": BoxplotStats.from_samples(normal),
                "with_extension": BoxplotStats.from_samples(guarded),
            }
        return out

    # -- Figures 7 / 10 --------------------------------------------------------
    def overhead_ratios(self) -> Dict[str, np.ndarray]:
        return {metric: self.samples[metric][1] / self.samples[metric][0]
                for metric in METRICS}

    def ratio_stats(self) -> Dict[str, BoxplotStats]:
        return {metric: BoxplotStats.from_samples(ratios)
                for metric, ratios in self.overhead_ratios().items()}

    def median_ratios(self) -> Dict[str, float]:
        return {metric: float(np.median(ratios))
                for metric, ratios in self.overhead_ratios().items()}

    # -- rendering ----------------------------------------------------------------
    def render_table4(self) -> str:
        lines = [f"{'Metric':<22} {'Normal (mean, median)':>26} "
                 f"{'CookieGuard (mean, median)':>30}"]
        table = self.table4()
        for metric in METRICS:
            row = table[metric]
            lines.append(
                f"{_METRIC_LABELS[metric]:<22} "
                f"{row['normal_mean']:>12.0f} ms, {row['normal_median']:>6.0f} ms "
                f"{row['guard_mean']:>14.0f} ms, {row['guard_median']:>6.0f} ms")
        return "\n".join(lines)

    def render_ratios(self) -> str:
        lines = ["Per-site overhead ratio (With / No), medians:"]
        for metric, value in self.median_ratios().items():
            lines.append(f"  {_METRIC_LABELS[metric]:<22} {value:.3f}")
        return "\n".join(lines)


def paired_timings_from_logs(logs: Sequence[VisitLog],
                             model: Optional[PageLoadModel] = None,
                             seed: int = 2025,
                             drop_invalid: float = 0.183
                             ) -> PerformanceReport:
    """Generate paired timings for the sites in ``logs``.

    ``drop_invalid`` models the paper's pairing/cleaning loss
    (10,000 visited → 8,171 valid pairs).  Page composition — script count
    and cookie-operation count — comes from each site's actual visit log,
    so busier pages genuinely pay more CookieGuard overhead.
    """
    model = model or PageLoadModel()
    rng = np.random.default_rng([seed, 4])
    kept = [log for log in logs if rng.random() >= drop_invalid]
    normals: Dict[str, List[float]] = {m: [] for m in METRICS}
    guardeds: Dict[str, List[float]] = {m: [] for m in METRICS}
    for log in kept:
        normal, guarded = model.sample_pair(
            rng,
            n_third_party_scripts=log.n_third_party_scripts,
            cookie_ops=log.cookie_op_count)
        for metric in METRICS:
            normals[metric].append(getattr(normal, metric))
            guardeds[metric].append(getattr(guarded, metric))
    samples = {metric: (np.asarray(normals[metric]),
                        np.asarray(guardeds[metric]))
               for metric in METRICS}
    return PerformanceReport(n_sites=len(kept), samples=samples)


def evaluate_performance(population: Population, *, top_k: int = 10_000,
                         seed: int = 2025,
                         model: Optional[PageLoadModel] = None,
                         logs: Optional[Sequence[VisitLog]] = None
                         ) -> PerformanceReport:
    """Crawl the top ``top_k`` sites (or reuse ``logs``) and build the
    report."""
    if logs is None:
        from ..crawler.crawler import CrawlConfig, Crawler
        sites = population.iter_sites(
            range(1, min(top_k, len(population)) + 1))
        logs = Crawler(population, CrawlConfig(seed=seed)).crawl(sites)
    return paired_timings_from_logs(logs, model=model, seed=seed)
