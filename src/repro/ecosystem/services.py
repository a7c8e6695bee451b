"""Declarative specifications of third-party services.

A :class:`ServiceSpec` captures everything the simulator needs to know
about one third-party service: where its script is hosted (and therefore
its eTLD+1 attribution), which entity owns it, whether filter lists flag
it, which cookies it sets, what it steals/overwrites/deletes, and which
other services it transitively includes.  The concrete catalog lives in
:mod:`repro.ecosystem.catalog`; behaviour *logic* lives in
:mod:`repro.ecosystem.behaviors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["CookieSpec", "ServiceSpec", "DAY", "YEAR"]

DAY = 86_400.0
YEAR = 365 * DAY


@dataclass(frozen=True)
class CookieSpec:
    """One cookie a service sets.

    ``maker`` names an :class:`~repro.ecosystem.identifiers.IdFactory`
    method that produces the value, so values carry realistic identifier
    formats.
    """

    name: str
    maker: str = "generic_id"
    max_age: float = 390 * DAY  # common tracker default (13 months)
    api: str = "document.cookie"  # or "cookieStore"
    #: False → set with ``Domain=<site eTLD+1>`` (the SDK norm, and what
    #: makes cross-service overwrites collide on the same jar key).
    host_only: bool = False


@dataclass(frozen=True)
class ServiceSpec:
    """One third-party service in the ecosystem."""

    key: str                  # unique id, e.g. "google-analytics"
    domain: str               # eTLD+1 of the script host ("google-analytics.com")
    entity: str               # owning entity ("Google")
    category: str             # analytics | advertising | social | cmp | tag_manager
                              # | sso | cdn | widget | performance
    tracking: bool            # True → filter lists flag its URLs
    archetype: str            # behaviour factory name in behaviors.ARCHETYPES
    script_host: str = ""     # host serving the script (default: domain)
    script_path: str = "/sdk.js"
    collect_host: str = ""    # endpoint receiving beacons (default: script host)
    cookies: Tuple[CookieSpec, ...] = ()
    #: Foreign cookie names this service exfiltrates when present.
    steal_targets: Tuple[str, ...] = ()
    steal_prob: float = 1.0
    #: Probability of pattern-based harvesting: grabbing identifier-shaped
    #: cookies (``*_id``, ``*_uid``, ``*utk`` …) it has no fixed list for.
    #: This is what lets tag managers top Figure 2.
    harvest_prob: float = 0.0
    encode: str = "plain"     # how stolen identifiers are encoded in URLs
    #: Additional recipient domains (ID-sync partners, RTB bidders).
    destinations: Tuple[str, ...] = ()
    overwrite_targets: Tuple[str, ...] = ()
    overwrite_prob: float = 0.0
    delete_targets: Tuple[str, ...] = ()
    delete_prob: float = 0.0
    #: Service keys this one dynamically includes (tag managers, loaders).
    children: Tuple[str, ...] = ()
    #: How many children are included per page (inclusive range).
    child_count: Tuple[int, int] = (0, 0)
    #: Probability the service does its work inside ``setTimeout`` —
    #: exercising the async-attribution path (§8).
    async_prob: float = 0.08
    #: Zipf-ish sampling weight in the population.
    popularity: float = 1.0
    #: Whether the service's server answers with its own Set-Cookie
    #: (third-party HTTP cookie).
    sets_http_cookie: bool = False

    @property
    def effective_script_host(self) -> str:
        return self.script_host or self.domain

    @property
    def effective_collect_host(self) -> str:
        return self.collect_host or self.effective_script_host

    @property
    def script_url(self) -> str:
        return f"https://{self.effective_script_host}{self.script_path}"

    @property
    def collect_url(self) -> str:
        return f"https://{self.effective_collect_host}/collect"

    def with_overrides(self, **kwargs) -> "ServiceSpec":
        """A copy with selected fields replaced (used by generic templates)."""
        from dataclasses import replace
        return replace(self, **kwargs)
