"""CookieGuard's creator-metadata store.

The extension "maintains a metadata store that logs each cookie's name and
the eTLD+1 of the script or server that created it" (§6.1), updated on
every creation event from JavaScript *and* from HTTP ``Set-Cookie``
headers.  The store lives in the background service worker
(``background.js``) and is queried by the content script on every read.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Mapping, Optional

__all__ = ["CreatorStore", "INLINE_CREATOR"]

#: Sentinel creator for cookies written by inline / unattributable scripts.
INLINE_CREATOR = "<inline>"

_EMPTY: Mapping[str, str] = MappingProxyType({})


class CreatorStore:
    """Maps (top-level site, cookie name) → creator eTLD+1.

    Keys are scoped per visited site because the same cookie name set by
    the same tracker on two sites is two different first-party cookies
    (the paper's "cookie pair" framing).  The store is kept as one
    ``{name: creator}`` map per site, so the per-read dataset query is a
    lookup, not a scan.
    """

    def __init__(self) -> None:
        self._by_site: Dict[str, Dict[str, str]] = {}

    def record_creation(self, site: str, cookie_name: str, creator: str) -> None:
        """Record a creation; the *first* creator wins.

        The first writer is the cookie's owner — later cross-domain writers
        must not be able to steal ownership by overwriting (that would let
        a tracker claim a session cookie by clobbering it once).
        """
        self._by_site.setdefault(site, {}).setdefault(cookie_name, creator)

    def creator_of(self, site: str, cookie_name: str) -> Optional[str]:
        return self._by_site.get(site, _EMPTY).get(cookie_name)

    def forget(self, site: str, cookie_name: str) -> None:
        """Drop metadata once the owner deletes its cookie."""
        self._by_site.get(site, {}).pop(cookie_name, None)

    def known_cookies(self, site: str) -> Mapping[str, str]:
        """All (cookie name → creator) pairs recorded for ``site``.

        A read-only view of the live map: it reflects later records and
        forgets.
        """
        names = self._by_site.get(site)
        return _EMPTY if names is None else MappingProxyType(names)

    def __len__(self) -> int:
        return sum(len(names) for names in self._by_site.values())
