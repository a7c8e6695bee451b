"""Embedded snapshots of the nine crowd-sourced filter lists (§4.3).

The paper combines EasyList, EasyPrivacy, two Fanboy lists, Peter Lowe's
list, Blockzilla, Squid, Anti-Adblock Killer and the warning-removal list.
Here each list is a synthetic snapshot whose rules target the reproduction
ecosystem the way the real lists target the real web: advertising domains
in EasyList, analytics/telemetry in EasyPrivacy, CMP banners in Fanboy
Annoyances, social widgets in Fanboy Social, a hosts-style domain dump in
Peter Lowe's, and so on.

Like the real lists, coverage is *incomplete by design*: a slice of the
generic tracker tail carries ``tracking=False`` in the catalog and appears
in no list, reproducing the known blind spots of crowd-sourced blocking.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from ..ecosystem.catalog import full_catalog
from ..ecosystem.services import ServiceSpec
from .filterlists import FilterList

__all__ = ["build_lists", "combined_list", "default_combined_list",
           "LIST_NAMES"]

LIST_NAMES: Tuple[str, ...] = (
    "easylist", "easyprivacy", "fanboy-annoyances", "fanboy-social",
    "peter-lowe", "blockzilla", "anti-adblock-killer", "squid",
    "warning-removal",
)

_CATEGORY_TO_LIST: Dict[str, str] = {
    "advertising": "easylist",
    "analytics": "easyprivacy",
    "performance": "easyprivacy",
    "tag_manager": "easyprivacy",
    "cmp": "fanboy-annoyances",
    "social": "fanboy-social",
    "widget": "easyprivacy",
}

_STATIC_RULES: Dict[str, List[str]] = {
    "easylist": [
        "! EasyList synthetic snapshot",
        "||doubleclick.net^$third-party",
        "||googlesyndication.com^$third-party",
        "/pagead/js/*$script",
        "/adserver/*$script,third-party",
        "&ad_type=*$image",
        "@@||adsafeprotected.com^$script",  # exception-rule exercise
    ],
    "easyprivacy": [
        "! EasyPrivacy synthetic snapshot",
        "||google-analytics.com^$third-party",
        "/analytics.js|$script",
        "/collect?*$image,third-party",
        "/beacon.js$script",
    ],
    "fanboy-annoyances": [
        "! Fanboy Annoyances synthetic snapshot",
        "/cookieconsent*$script",
    ],
    "fanboy-social": [
        "! Fanboy Social synthetic snapshot",
        "||platform-api.sharethis.com^$third-party",
    ],
    "peter-lowe": [
        "! Peter Lowe's list synthetic snapshot (domain dump)",
    ],
    "blockzilla": [
        "! Blockzilla synthetic snapshot",
        "||taboola.com^",
        "||mountain.com^$third-party",
    ],
    "anti-adblock-killer": [
        "! Anti-Adblock Killer synthetic snapshot",
        "||blockthrough.com^$script",
    ],
    "squid": [
        "! Squid blacklist synthetic snapshot",
        "||ezodn.com^",
        "||pub.network^",
    ],
    "warning-removal": [
        "! Warning-removal synthetic snapshot",
    ],
}


def _service_rules(service: ServiceSpec) -> List[str]:
    rules = [f"||{service.domain}^$third-party"]
    host = service.effective_script_host
    if host != service.domain:
        rules.append(f"||{host}^")
    return rules


def build_lists(services: Sequence[ServiceSpec] = ()) -> Dict[str, FilterList]:
    """Build the nine lists over ``services`` (default: full catalog)."""
    services = list(services) or full_catalog()
    texts: Dict[str, List[str]] = {name: list(_STATIC_RULES[name])
                                   for name in LIST_NAMES}
    for service in services:
        if not service.tracking:
            continue  # deliberately unlisted (blind spots)
        target = _CATEGORY_TO_LIST.get(service.category, "easyprivacy")
        texts[target].extend(_service_rules(service))
        # Peter Lowe's list is a plain domain dump duplicating big names.
        if service.popularity >= 5.0:
            texts["peter-lowe"].append(f"||{service.domain}^")
    return {name: FilterList(lines, name=name)
            for name, lines in texts.items()}


def combined_list(services: Sequence[ServiceSpec] = ()) -> FilterList:
    """All nine lists merged — what the classification step queries."""
    lists = build_lists(services)
    return FilterList.combine([lists[name] for name in LIST_NAMES],
                              name="combined-9")


@lru_cache(maxsize=1)
def default_combined_list() -> FilterList:
    """The default-catalog :func:`combined_list`, built once per process.

    The nine snapshots and the catalog are static, so every
    ``StudyAccumulator`` shares one parsed list.  Nearly all of its
    rules are ``||domain^`` rules, which decide a plain URL (every
    crawled script URL is one) by its host; the few others, and any
    other URL shape, compile the rule's regex on first match.  A
    ``FilterList``'s rules never change after construction, and what it
    memoizes (those regexes and its decision cache) changes no
    decision, so one shared instance is safe across accumulators and
    threads serving reports.
    """
    return combined_list()
