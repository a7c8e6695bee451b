"""Public Suffix List (PSL) handling and eTLD+1 extraction.

The paper attributes every cookie operation to the *eTLD+1* (also called the
registrable domain) of the script that performed it.  This module implements
the Mozilla Public Suffix List matching algorithm over an embedded rule set
that covers every top-level and second-level suffix appearing in the paper's
dataset and in the synthetic ecosystem shipped with this reproduction.

The matching algorithm follows https://publicsuffix.org/list/:

* A host matches a rule if the rule's labels are a suffix of the host's
  labels, where a ``*`` rule label matches any single host label.
* Exception rules (prefixed with ``!``) take priority over wildcard rules.
* Among matching rules the one with the most labels wins.
* If no rule matches, the public suffix is the last label (the TLD).

The *registrable domain* (eTLD+1) is the public suffix plus one extra label.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional, Tuple

__all__ = [
    "PublicSuffixList",
    "DEFAULT_PSL",
    "public_suffix",
    "registrable_domain",
    "etld_plus_one",
    "same_site",
]

# A curated subset of the real Public Suffix List.  It intentionally
# *excludes* hosting suffixes such as ``cloudfront.net`` because the paper
# treats ``cloudfront.net`` as a script-owning domain (Figure 2), matching
# adblockparser-style eTLD+1 grouping rather than strict PSL private rules.
_DEFAULT_RULES: Tuple[str, ...] = (
    # Generic TLDs.
    "com", "org", "net", "edu", "gov", "mil", "int", "info", "biz", "name",
    "pro", "io", "ai", "co", "me", "tv", "cc", "ws", "app", "dev", "page",
    "cloud", "online", "site", "store", "tech", "xyz", "media", "news",
    "agency", "network", "systems", "solutions", "digital", "live", "life",
    "world", "today", "shop", "blog", "wiki", "design", "studio", "games",
    "ac",
    # Country TLDs used by the ecosystem catalog.
    "us", "uk", "de", "fr", "nl", "es", "it", "pt", "pl", "cz", "se", "no",
    "fi", "dk", "ie", "ch", "at", "be", "ru", "ua", "jp", "cn", "kr", "in",
    "au", "nz", "ca", "br", "mx", "ar", "cl", "za", "tr", "gr", "hu", "ro",
    "il", "sa", "ae", "sg", "hk", "tw", "th", "my", "id", "ph", "vn",
    # Second-level country suffixes.
    "co.uk", "org.uk", "ac.uk", "gov.uk", "me.uk", "net.uk",
    "com.au", "net.au", "org.au", "edu.au", "gov.au",
    "co.jp", "ne.jp", "or.jp", "ac.jp", "go.jp",
    "com.br", "net.br", "org.br",
    "co.in", "net.in", "org.in",
    "com.cn", "net.cn", "org.cn",
    "co.kr", "or.kr",
    "com.mx", "com.ar", "com.tr", "com.sg", "com.hk", "com.tw",
    "co.za", "co.nz", "co.il",
    "com.ua", "co.ua",
    # Wildcard + exception examples (exercise the full algorithm).
    "*.ck", "!www.ck",
    "*.bd",
    # Platform suffixes that ARE treated as public (sites on them are
    # independent registrants, like the real PSL private section).
    "github.io", "gitlab.io", "netlify.app", "vercel.app", "web.app",
    "herokuapp.com", "azurewebsites.net", "blogspot.com", "wordpress.com",
    "myshopify.com",
)


def _labels(host: str) -> Tuple[str, ...]:
    return tuple(host.split("."))


class PublicSuffixList:
    """A Public Suffix List with the standard matching algorithm.

    Parameters
    ----------
    rules:
        Iterable of rule strings.  ``*`` labels are wildcards and a leading
        ``!`` marks an exception rule.
    cache_size:
        Bound of the per-instance memo tables.  Every cookie operation in
        the crawl funnels through ``public_suffix``/``registrable_domain``
        over a small working set of hosts, so a bounded LRU keyed by the
        raw host, in front of normalization and the matching algorithm,
        turns the hot path into one dict hit.  The uncached algorithm
        stays available as
        ``public_suffix_uncached``/``registrable_domain_uncached`` (the
        reference implementations the property tests compare against).
    """

    def __init__(self, rules: Iterable[str] = _DEFAULT_RULES,
                 cache_size: int = 4096):
        self._exact: set = set()
        self._wildcard: set = set()  # parent suffixes of "*." rules
        self._exception: set = set()
        for raw in rules:
            rule = raw.strip().lower()
            if not rule or rule.startswith("//"):
                continue
            if rule.startswith("!"):
                self._exception.add(rule[1:])
            elif rule.startswith("*."):
                self._wildcard.add(rule[2:])
            else:
                self._exact.add(rule)
        # Per-instance bounded memo over *raw* hosts: the cached
        # function normalizes, so a repeated host skips that too.  The
        # rule sets are immutable after construction, so entries never
        # go stale; lru_cache bounds memory on adversarial host streams.
        self._suffix_cached = lru_cache(maxsize=cache_size)(
            self.public_suffix_uncached)
        self._domain_cached = lru_cache(maxsize=cache_size)(
            self.registrable_domain_uncached)

    # ------------------------------------------------------------------
    def _normalize(self, host: str) -> str:
        host = host.strip().lower().rstrip(".")
        if host.startswith("."):
            host = host.lstrip(".")
        return host

    @staticmethod
    def _is_ip_normalized(host: str) -> bool:
        """IP check over an already-normalized host."""
        if host.startswith("[") and host.endswith("]"):
            return True
        if ":" in host:
            return True
        parts = host.split(".")
        if len(parts) != 4:
            return False
        # Bound the digit run before int(): a 300-digit label is a
        # hostname oddity, not an IPv4 octet, and must not cost a
        # big-int conversion.  Leading zeros are stripped first so
        # zero-padded octets ("0255") keep their historical semantics.
        for p in parts:
            if not p.isdigit():
                return False
            stripped = p.lstrip("0")
            if len(stripped) > 3 or int(stripped or "0") > 255:
                return False
        return True

    def is_ip(self, host: str) -> bool:
        """Return True for IPv4/IPv6 literals, which have no suffix."""
        return self._is_ip_normalized(self._normalize(host))

    def public_suffix(self, host: str) -> Optional[str]:
        """Return the public suffix of ``host`` or None for IPs/empty."""
        return self._suffix_cached(host)

    def public_suffix_uncached(self, host: str) -> Optional[str]:
        """Reference implementation: the full algorithm, no memo."""
        host = self._normalize(host)
        if not host:
            return None
        return self._public_suffix_normalized(host)

    def _public_suffix_normalized(self, host: str) -> Optional[str]:
        if self._is_ip_normalized(host):
            return None
        labels = _labels(host)
        best_len = 0
        # Exception rules win outright: the suffix is the rule minus its
        # leftmost label.
        for start in range(len(labels)):
            candidate = ".".join(labels[start:])
            if candidate in self._exception:
                return ".".join(labels[start + 1:]) or None
        for start in range(len(labels)):
            candidate = ".".join(labels[start:])
            n_labels = len(labels) - start
            if candidate in self._exact and n_labels > best_len:
                best_len = n_labels
            # A wildcard rule "*.bd" matches any "<x>.bd" suffix.
            parent = ".".join(labels[start + 1:])
            if parent and parent in self._wildcard and n_labels > best_len:
                best_len = n_labels
        if best_len == 0:
            best_len = 1  # default rule: "*" — the bare TLD
        return ".".join(labels[len(labels) - best_len:])

    def registrable_domain(self, host: str) -> Optional[str]:
        """Return the eTLD+1 of ``host``.

        Returns None for empty hosts and for hosts that *are* a bare
        public suffix (there is no +1 label to take).  IP literals return
        themselves, normalized: each IP is its own "domain".
        """
        return self._domain_cached(host)

    def registrable_domain_uncached(self, host: str) -> Optional[str]:
        """Reference implementation: the full algorithm, no memo."""
        host = self._normalize(host)
        if not host:
            return None
        return self._registrable_domain_normalized(host)

    def _registrable_domain_normalized(self, host: str) -> Optional[str]:
        if self._is_ip_normalized(host):
            return host  # treat IP literals as their own "domain"
        suffix = self._public_suffix_normalized(host)
        if suffix is None:
            return None
        if host == suffix:
            return None
        labels = _labels(host)
        suffix_len = len(_labels(suffix))
        return ".".join(labels[len(labels) - suffix_len - 1:])

    def same_site(self, host_a: str, host_b: str) -> bool:
        """True when both hosts share the same registrable domain."""
        a = self.registrable_domain(host_a)
        b = self.registrable_domain(host_b)
        return a is not None and a == b


DEFAULT_PSL = PublicSuffixList()


def public_suffix(host: str) -> Optional[str]:
    """Module-level shortcut using :data:`DEFAULT_PSL`."""
    return DEFAULT_PSL.public_suffix(host)


def registrable_domain(host: str) -> Optional[str]:
    """Module-level shortcut using :data:`DEFAULT_PSL`."""
    return DEFAULT_PSL.registrable_domain(host)


# The paper consistently says "eTLD+1"; expose that name too.
etld_plus_one = registrable_domain


def same_site(host_a: str, host_b: str) -> bool:
    """Module-level shortcut using :data:`DEFAULT_PSL`."""
    return DEFAULT_PSL.same_site(host_a, host_b)
