"""The site population sampler (the synthetic Tranco top-20k … top-10M).

Generates :class:`~repro.ecosystem.site.SiteSpec` instances whose aggregate
statistics are calibrated to the paper's §5 measurements:

==================================================  =======================
Paper statistic                                      Config lever
==================================================  =======================
93.3% of sites embed ≥1 third-party script           ``p_third_party``
avg 19 distinct third-party scripts per site         ``direct_median`` ×
                                                     ``indirect_factor``
indirect : direct = 2.5×                             ``indirect_factor``
~70% of scripts are ad/tracking                      catalog popularities
document.cookie on 96.3% / cookieStore on 2.8%       ``p_no_cookie_site``,
                                                     ``p_shopify``+``p_admiral``
crawl retention 14,917 / 20,000                      ``p_crawl_fail``
SSO breakage 11% → 3% with entity whitelist          ``p_sso`` × flow mix
cross-domain DOM modification on 9.4% of sites       ``p_dom_modifier``
==================================================  =======================

Sampling is fully deterministic given the seed, and — since
``POPULATION_VERSION`` 2 — *per rank*: every site is synthesized from a
dedicated RNG stream seeded ``[seed, _SITE_STREAM, rank]``, so any site can
be produced on demand without generating the ranks before it.  That is what
lets :class:`Population` stay lazy: a worker crawling one shard of a
10M-site plan synthesizes exactly the ranks in its shard and holds O(shard)
memory.  Domain collisions are avoided rank-deterministically (the rank is
embedded in every generated domain) instead of via a shared ``used`` set.

The per-rank stream deliberately differs in shape from the visit stream
``[seed, site.rank]`` used by the crawler, so population draws never alias
visit draws.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .catalog import full_catalog, service_index
from .services import ServiceSpec
from .site import FirstPartyConfig, FunctionalDep, SiteSpec, SsoFlow

__all__ = ["PopulationConfig", "Population", "generate_population",
           "synthesize_site", "POPULATION_VERSION"]

#: Version of the site-synthesis algorithm.  Folded into
#: ``population_fingerprint`` so cached shards from older synthesis
#: algorithms can never be confused with current ones.  Bump whenever a
#: change alters the bytes of any synthesized site.
#:
#: * 1 — eager generation, one RNG threaded sequentially through all ranks.
#: * 2 — lazy per-rank RNG streams ``[seed, _SITE_STREAM, rank]`` with
#:   rank-embedded (collision-free by construction) generated domains.
POPULATION_VERSION = 2

#: Sites :meth:`Population.site` keeps, least recently used first out.
SITE_CACHE_SIZE = 4096

#: Namespace constant separating the population stream from the visit
#: stream (visits are seeded ``[seed, rank]``; sites are seeded
#: ``[seed, _SITE_STREAM, rank]``).
_SITE_STREAM = 0x517E

_WORDS_A = ("shop", "news", "blue", "tech", "daily", "green", "meta", "home",
            "star", "cloud", "prime", "swift", "nova", "urban", "alpha",
            "bright", "royal", "hyper", "solid", "lunar")
_WORDS_B = ("verse", "port", "mart", "press", "base", "nest", "forge",
            "field", "point", "works", "line", "hub", "gate", "peak",
            "craft", "space", "lane", "view", "wire", "den")
_SITE_TLDS = ("com", "com", "com", "net", "org", "io", "co", "de", "co.uk",
              "fr", "ru", "jp")

#: Real sites wired to the paper's case studies, placed at fixed ranks.
_SPECIAL_SITES: Tuple[Tuple[int, str], ...] = (
    (12, "facebook.com"),
    (48, "zoom.us"),
    (61, "cnn.com"),
    (180, "prettylittlething.com"),
    (240, "optimonk.com"),
    (310, "goosecreekcandle.com"),
)

_SPECIAL_BY_RANK = dict(_SPECIAL_SITES)

_ALWAYS_CRAWLABLE = {domain for _rank, domain in _SPECIAL_SITES}


@dataclass(frozen=True)
class PopulationConfig:
    """Every calibration lever in one place."""

    n_sites: int = 20_000
    seed: int = 2025
    generic_service_count: int = 240
    p_crawl_fail: float = 0.254
    p_third_party: float = 0.933
    #: Direct third-party inclusions: lognormal median / sigma, clamp.
    direct_median: float = 5.0
    direct_sigma: float = 0.55
    direct_max: int = 16
    #: Indirect = direct × factor (lognormal around 2.5).
    indirect_factor: float = 2.5
    indirect_sigma: float = 0.22
    p_gtm_boost: float = 0.55          # force googletagmanager presence
    p_inline: float = 0.82
    p_no_cookie_site: float = 0.037    # no document.cookie at all
    p_shopify: float = 0.022
    p_admiral: float = 0.007
    p_sso: float = 0.16
    #: Mix of SSO flow shapes: same-domain, same-entity pair, cross-entity.
    sso_flow_mix: Tuple[float, float, float] = (0.30, 0.50, 0.20)
    p_sso_minor: float = 0.08          # minor (cnn.com-style reload loss)
    p_fp_deletes: float = 0.013
    p_fp_overwrites: float = 0.080
    p_fp_self_hosted: float = 0.120
    p_dom_modifier: float = 0.094      # forced dom_modifier service
    p_cloaked: float = 0.015
    p_ads_dep: float = 0.035           # ad slot needing a partner cookie
    p_widget_dep: float = 0.030        # chat/cart needing first-party cookie
    p_http_marketing_cookie: float = 0.45
    p_http_session_httponly: float = 0.85


class _SamplingContext:
    """Population-wide sampling pools, derived once from the catalog.

    Everything here is a pure function of the service catalog — O(services)
    to build, shared by every per-rank synthesis call.
    """

    __slots__ = ("pool_keys", "pool_weights", "loader_keys", "sso_keys",
                 "dom_modifier_keys", "cloakable_keys")

    def __init__(self, services: Dict[str, ServiceSpec]):
        # SSO and same-entity CDNs are placed by rule, not by popularity,
        # so exclude them from the generic pool.
        self.pool_keys = [k for k, s in services.items()
                          if s.category not in ("sso", "cdn")
                          and s.archetype != "dom_modifier"
                          and k not in ("shopify-perf", "admiral")]
        self.pool_weights = np.array(
            [services[k].popularity for k in self.pool_keys])
        self.loader_keys = {k for k, s in services.items()
                            if s.category in ("tag_manager",)
                            or s.archetype == "ad_exchange"}
        self.sso_keys = [k for k, s in services.items()
                         if s.category == "sso"]
        self.dom_modifier_keys = [k for k, s in services.items()
                                  if s.archetype == "dom_modifier"]
        self.cloakable_keys = [k for k, s in services.items()
                               if s.archetype in ("pixel", "analytics")
                               and s.tracking]


class _SuccessfulSites(Sequence):
    """Lazy, sequence-like view over the sites that crawl successfully.

    Iteration synthesizes sites on demand and never materializes the
    population.  ``len()`` / indexing / slicing resolve the successful rank
    list on first use (O(population) cheap RNG-prefix scans, O(successes)
    ints retained) and then synthesize only the requested sites.
    """

    def __init__(self, population: "Population"):
        self._population = population
        self._ranks: Optional[Tuple[int, ...]] = None

    def _successful_ranks(self) -> Tuple[int, ...]:
        if self._ranks is None:
            pop = self._population
            self._ranks = tuple(r for r in pop.ranks
                                if not pop.rank_crawl_fails(r))
        return self._ranks

    def __iter__(self) -> Iterator[SiteSpec]:
        pop = self._population
        for rank in pop.ranks:
            if not pop.rank_crawl_fails(rank):
                yield pop.site(rank)

    def __len__(self) -> int:
        return len(self._successful_ranks())

    def __getitem__(self, index):
        ranks = self._successful_ranks()
        if isinstance(index, slice):
            return [self._population.site(r) for r in ranks[index]]
        return self._population.site(ranks[index])


class Population:
    """A lazily synthesized site population plus its service catalog.

    Sites are synthesized on demand from ``[seed, rank]`` — constructing a
    ``Population`` is O(services) regardless of ``config.n_sites``, and a
    consumer that touches only one shard's ranks holds O(shard) memory.

    Protocol:

    * ``len(population)`` — the configured site count.
    * ``population.site(rank)`` — synthesize (with an LRU cache of
      :data:`SITE_CACHE_SIZE` sites) the site at ``rank`` (1-based).
    * ``population.iter_sites(ranks=None)`` — stream sites for ``ranks``
      (default: every rank, in order).
    * ``population.successful_sites()`` — a lazy sequence view of the
      sites whose crawl succeeds.

    There is no eager whole-population list: every consumer names its
    ranks, so a 10M-site population never allocates 10M specs.
    """

    def __init__(self, config: PopulationConfig):
        self.config = config
        self._services: Optional[Dict[str, ServiceSpec]] = None
        self._ctx: Optional[_SamplingContext] = None
        self._cache: "OrderedDict[int, SiteSpec]" = OrderedDict()

    # -- catalog -----------------------------------------------------------

    @property
    def services(self) -> Dict[str, ServiceSpec]:
        if self._services is None:
            self._services = service_index(
                full_catalog(self.config.generic_service_count))
        return self._services

    @property
    def _context(self) -> _SamplingContext:
        if self._ctx is None:
            self._ctx = _SamplingContext(self.services)
        return self._ctx

    # -- lazy protocol -----------------------------------------------------

    @property
    def ranks(self) -> range:
        """Every rank in the population (1-based, ascending)."""
        return range(1, self.config.n_sites + 1)

    def __len__(self) -> int:
        return self.config.n_sites

    def site(self, rank: int) -> SiteSpec:
        """Synthesize (or fetch from cache) the site at ``rank``."""
        if not 1 <= rank <= self.config.n_sites:
            raise IndexError(f"rank {rank} outside population "
                             f"1..{self.config.n_sites}")
        cached = self._cache.get(rank)
        if cached is not None:
            self._cache.move_to_end(rank)
            return cached
        site = self.synthesize(rank)
        self._cache[rank] = site
        if len(self._cache) > SITE_CACHE_SIZE:
            self._cache.popitem(last=False)
        return site

    def synthesize(self, rank: int) -> SiteSpec:
        """Synthesize the site at ``rank``, bypassing the cache."""
        return synthesize_site(self.config, rank, self.services,
                               self._context)

    def iter_sites(self, ranks: Optional[Iterable[int]] = None
                   ) -> Iterator[SiteSpec]:
        """Stream sites for ``ranks`` (default: the whole population)."""
        for rank in (self.ranks if ranks is None else ranks):
            yield self.site(rank)

    def rank_crawl_fails(self, rank: int) -> bool:
        """Whether ``rank``'s crawl fails, without full synthesis.

        Replays only the RNG-draw prefix leading up to the ``crawl_fails``
        decision, so filtering a huge population by crawl outcome costs a
        cheap per-rank check instead of a full ``SiteSpec`` synthesis.
        Kept in draw-for-draw lockstep with :func:`synthesize_site`
        (guarded by ``tests/test_lazy_population.py``).
        """
        cached = self._cache.get(rank)
        if cached is not None:
            return cached.crawl_fails
        if rank in _SPECIAL_BY_RANK:
            return False
        rng = np.random.default_rng(
            [self.config.seed, _SITE_STREAM, rank])
        _site_domain(rng, rank)
        return bool(rng.random() < self.config.p_crawl_fail)

    def successful_sites(self) -> _SuccessfulSites:
        """Lazy sequence view of the sites whose crawl succeeds.

        Supports iteration, ``len()``, indexing, and slicing without
        materializing the population.
        """
        return _SuccessfulSites(self)

    # -- pickling ----------------------------------------------------------

    def __getstate__(self):
        # Workers rebuild the catalog and caches locally: the pickle is a
        # config, not a site list.
        return {"config": self.config}

    def __setstate__(self, state):
        self.__init__(state["config"])


def generate_population(config: Optional[PopulationConfig] = None
                        ) -> Population:
    """Build the synthetic top-N population (lazily — O(services) cost)."""
    return Population(config or PopulationConfig())


def synthesize_site(config: PopulationConfig, rank: int,
                    services: Dict[str, ServiceSpec],
                    ctx: _SamplingContext) -> SiteSpec:
    """Synthesize the single site at ``rank`` from its dedicated stream."""
    rng = np.random.default_rng([config.seed, _SITE_STREAM, rank])
    domain = _SPECIAL_BY_RANK.get(rank) or _site_domain(rng, rank)
    return _generate_site(rng, rank, domain, config, services, ctx)


def _site_domain(rng: np.random.Generator, rank: int) -> str:
    """A generated domain with the rank embedded.

    Embedding the rank makes generated domains injective per rank (so the
    whole population is collision-free with no shared state), and they can
    never collide with the fixed special-site domains.
    """
    a = _WORDS_A[rng.integers(0, len(_WORDS_A))]
    b = _WORDS_B[rng.integers(0, len(_WORDS_B))]
    tld = _SITE_TLDS[rng.integers(0, len(_SITE_TLDS))]
    return f"{a}{b}{rank}.{tld}"


def _weighted_sample(rng: np.random.Generator, keys: Sequence[str],
                     weights: np.ndarray, count: int,
                     exclude: set) -> List[str]:
    """Sample ``count`` distinct keys by weight, skipping ``exclude``."""
    mask = np.array([k not in exclude for k in keys])
    if not mask.any():
        return []
    probs = weights * mask
    total = probs.sum()
    if total <= 0:
        return []
    probs = probs / total
    count = min(count, int(mask.sum()))
    picks = rng.choice(len(keys), size=count, replace=False, p=probs)
    return [keys[int(i)] for i in picks]


def _generate_site(rng, rank, domain, config, services,
                   ctx: _SamplingContext) -> SiteSpec:
    crawl_fails = (rng.random() < config.p_crawl_fail
                   and domain not in _ALWAYS_CRAWLABLE)
    has_third_party = rng.random() < config.p_third_party
    no_cookie_site = rng.random() < config.p_no_cookie_site

    direct: List[str] = []
    indirect: Dict[str, Tuple[str, ...]] = {}
    chosen: set = set()

    if has_third_party and not no_cookie_site:
        n_direct = int(round(float(rng.lognormal(
            math.log(config.direct_median), config.direct_sigma))))
        n_direct = max(1, min(n_direct, config.direct_max))
        if rng.random() < config.p_gtm_boost:
            direct.append("googletagmanager")
            chosen.add("googletagmanager")
            n_direct = max(n_direct - 1, 0)
        direct.extend(_weighted_sample(rng, ctx.pool_keys, ctx.pool_weights,
                                       n_direct, chosen))
        chosen.update(direct)
        # Sites run ONE Google analytics integration: gtag via GTM or the
        # standalone analytics.js, never both (this is why Table 2 lists
        # (_ga, googletagmanager.com) and (_ga, google-analytics.com) as
        # distinct pairs with disjoint site sets).
        if "googletagmanager" in chosen:
            for clash in ("google-analytics", "ua-legacy"):
                if clash in chosen:
                    direct.remove(clash)
                    chosen.discard(clash)

        # Indirect inclusions: 2.5× the direct count, hung off loaders.
        factor = float(rng.lognormal(math.log(config.indirect_factor),
                                     config.indirect_sigma))
        n_indirect = int(round(len(direct) * factor))
        present_loaders = [k for k in direct if k in ctx.loader_keys]
        if n_indirect > 0 and not present_loaders:
            direct.append("googletagmanager")
            chosen.add("googletagmanager")
            present_loaders = ["googletagmanager"]
            # Re-apply the one-Google-integration rule: the forced GTM may
            # have joined a site that already sampled analytics.js.
            for clash in ("google-analytics", "ua-legacy"):
                if clash in chosen:
                    direct.remove(clash)
                    chosen.discard(clash)
        if n_indirect > 0:
            exclude = set(chosen)
            if "googletagmanager" in chosen:
                exclude.update(("google-analytics", "ua-legacy"))
            children = _weighted_sample(rng, ctx.pool_keys, ctx.pool_weights,
                                        n_indirect, exclude)
            chosen.update(children)
            buckets: Dict[str, List[str]] = {k: [] for k in present_loaders}
            # Nested chains: a loader child can itself become a loader.
            nested_loaders = [c for c in children if c in ctx.loader_keys]
            for child in children:
                if nested_loaders and child not in nested_loaders \
                        and rng.random() < 0.35:
                    parent = nested_loaders[int(rng.integers(0, len(nested_loaders)))]
                    buckets.setdefault(parent, []).append(child)
                else:
                    parent = present_loaders[int(rng.integers(0, len(present_loaders)))]
                    buckets[parent].append(child)
            indirect = {k: tuple(v) for k, v in buckets.items() if v}

        # Final one-Google-integration normalization: GTM and the
        # standalone analytics.js can both arrive through one children
        # batch; keep only the tag-manager integration.
        everything = set(direct)
        for child_list in indirect.values():
            everything.update(child_list)
        if "googletagmanager" in everything:
            for clash in ("google-analytics", "ua-legacy"):
                if clash in direct:
                    direct.remove(clash)
                chosen.discard(clash)
            indirect = {loader: tuple(c for c in children
                                      if c not in ("google-analytics",
                                                   "ua-legacy"))
                        for loader, children in indirect.items()}
            indirect = {k: v for k, v in indirect.items() if v}

        if rng.random() < config.p_shopify:
            direct.append("shopify-perf")
        if rng.random() < config.p_admiral:
            direct.append("admiral")
        if rng.random() < config.p_dom_modifier:
            pick = ctx.dom_modifier_keys[
                int(rng.integers(0, len(ctx.dom_modifier_keys)))]
            if pick not in chosen:
                direct.append(pick)
                chosen.add(pick)

    # SSO flows.
    sso: Optional[SsoFlow] = None
    if has_third_party and rng.random() < config.p_sso:
        shape = rng.random()
        same_dom, same_ent, _cross = config.sso_flow_mix
        if domain == "zoom.us":
            sso = SsoFlow("microsoft-sso", "live-sso", severity="major")
        elif shape < same_dom:
            key = ctx.sso_keys[int(rng.integers(0, len(ctx.sso_keys)))]
            sso = SsoFlow(key, key, severity="major")
        elif shape < same_dom + same_ent:
            sso = SsoFlow("microsoft-sso", "live-sso",
                          severity="minor" if rng.random() < config.p_sso_minor
                          else "major")
        else:
            pair = rng.choice(len(ctx.sso_keys), size=2, replace=False)
            setter = ctx.sso_keys[int(pair[0])]
            reader = ctx.sso_keys[int(pair[1])]
            sso = SsoFlow(setter, reader, severity="major")
        for key in (sso.setter_key, sso.reader_key):
            if key not in chosen:
                direct.append(key)
                chosen.add(key)
    if domain == "zoom.us" and sso is None:
        sso = SsoFlow("microsoft-sso", "live-sso", severity="major")
        for key in ("microsoft-sso", "live-sso"):
            if key not in chosen:
                direct.append(key)
                chosen.add(key)
    if domain == "cnn.com" and sso is None:
        sso = SsoFlow("microsoft-sso", "live-sso", severity="minor")
        for key in ("microsoft-sso", "live-sso"):
            if key not in chosen:
                direct.append(key)
                chosen.add(key)

    # Functional cross-domain dependencies (Table 3's functionality rows).
    deps: List[FunctionalDep] = []
    # Sorted: a set's order follows the per-process string-hash salt,
    # and the first two picks become a dependency's reader and creator.
    ad_services = [k for k in sorted(chosen)
                   if services[k].archetype == "ad_exchange"]
    if domain == "facebook.com":
        direct.append("fbcdn-widget")
        chosen.add("fbcdn-widget")
        deps.append(FunctionalDep(kind="chat", reader_key="fbcdn-widget",
                                  creator="site", cookie_name="fp_session",
                                  severity="major"))
    else:
        if len(ad_services) >= 2 and rng.random() < config.p_ads_dep:
            deps.append(FunctionalDep(
                kind="ads", reader_key=ad_services[0], creator=ad_services[1],
                cookie_name=(services[ad_services[1]].cookies[0].name
                             if services[ad_services[1]].cookies else "ad-id"),
                severity="minor"))
        widget_services = [k for k in sorted(chosen)
                           if services[k].category == "widget"]
        if widget_services and rng.random() < config.p_widget_dep:
            deps.append(FunctionalDep(
                kind="chat", reader_key=widget_services[0], creator="site",
                cookie_name="fp_session", severity="major"))

    # First-party script behaviour.
    fp_deletes: Tuple[str, ...] = ()
    fp_overwrites: Tuple[str, ...] = ()
    if domain == "prettylittlething.com" or rng.random() < config.p_fp_deletes:
        fp_deletes = ("_ga", "_fbp", "_uetvid", "_gcl_au", "_gid")
    if rng.random() < config.p_fp_overwrites:
        fp_overwrites = ("_ga", "utag_main", "_fbp")[:int(rng.integers(1, 4))]
    self_hosted = rng.random() < config.p_fp_self_hosted
    first_party = FirstPartyConfig(
        session=not no_cookie_site,
        prefs=not no_cookie_site,
        reads_jar=not no_cookie_site,
        deletes=fp_deletes,
        overwrites=fp_overwrites,
        self_hosted_tracking=self_hosted,
        exfil_destination="stats.g.doubleclick.net" if self_hosted else "",
    )

    # CNAME-cloaked trackers (§8 evasion).
    cloaked: Tuple[str, ...] = ()
    if has_third_party and rng.random() < config.p_cloaked:
        pick = ctx.cloakable_keys[
            int(rng.integers(0, len(ctx.cloakable_keys)))]
        if pick not in chosen:
            cloaked = (pick,)

    def _pin_direct_pair(creator_key: str, stealer_key: str) -> None:
        # Case-study wiring must not depend on the organic draw: the
        # cookie creator has to run before the stealer, so both are
        # pulled out of any indirect chain and pinned, in order, at the
        # end of the direct list.
        nonlocal indirect
        pair = (creator_key, stealer_key)
        indirect = {loader: pruned for loader, children in indirect.items()
                    if (pruned := tuple(c for c in children
                                        if c not in pair))}
        direct[:] = [k for k in direct if k not in pair]
        direct.extend(pair)
        chosen.update(pair)

    service_overrides: Dict[str, Dict] = {}
    if domain == "optimonk.com":
        _pin_direct_pair("googletagmanager", "linkedin-insight")
        # The §5.4 case study: the insight tag deterministically parses
        # and Base64-exfiltrates the _ga client id on this site.
        service_overrides["linkedin-insight"] = {"steal_prob": 1.0,
                                                 "async_prob": 0.0}
    if domain == "goosecreekcandle.com":
        _pin_direct_pair("facebook-pixel", "osano")
        # The §5.4 Osano→Criteo identifier-sharing case study.
        service_overrides["osano"] = {"steal_prob": 1.0, "async_prob": 0.0,
                                      "delete_prob": 0.0}

    return SiteSpec(
        domain=domain,
        rank=rank,
        https=True,
        direct_services=tuple(direct),
        indirect_assignments=indirect,
        service_overrides=service_overrides,
        first_party=first_party,
        has_inline_script=rng.random() < config.p_inline,
        cloaked_services=cloaked,
        sso=sso,
        functional_deps=tuple(deps),
        crawl_fails=crawl_fails,
        http_session_cookie=True,
        http_session_httponly=rng.random() < config.p_http_session_httponly,
        http_marketing_cookie=rng.random() < config.p_http_marketing_cookie,
        n_links=int(rng.integers(3, 12)),
    )
