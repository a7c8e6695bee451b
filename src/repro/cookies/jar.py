"""The browser cookie jar.

One jar per simulated browser profile.  The jar implements RFC 6265
storage semantics (replacement by (name, domain, path), deletion via past
expiry, host-only vs domain cookies, HttpOnly script shielding) plus the
per-domain eviction limit real browsers enforce.

The jar deliberately knows *nothing* about which script set a cookie —
exactly the gap the paper identifies.  Creator attribution lives in the
instrumentation extension and in CookieGuard's metadata store.

Retrieval is domain-indexed: cookies are bucketed by their normalized
domain, and ``cookies_for_url`` only inspects the buckets for the
request host's dot-suffixes (the only domains RFC 6265 §5.1.3 can ever
match), so a visibility check costs O(matching domains), not O(jar).
The result — order included — is provably identical to the full scan:
candidates are re-filtered by the same per-cookie predicate and
re-ordered by insertion sequence before the RFC §5.4 sort, which is
exactly the order the linear scan produced.

Reads are memoized per jar: ``cookies_for_url`` keeps its result per
(host, path, secure, include_http_only, touch, now).  A memo entry is
valid only while ``_store`` is unchanged, so every store write clears
the table — ``_index_put``, ``_index_drop``, a touch that changes a
``last_access_time``, and ``clear()``.  That makes the memo exact: a
repeated read of an unchanged store at the same clock finds its
matches already touched to ``now``, so re-running it would have no
side effect and return the same cookies.  ``document.cookie`` returns
the whole jar to every script (§5.5), so a visit repeats many reads
between two writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..net.url import URL
from .cookie import (Cookie, canonical_domain, domain_match, parse_set_cookie,
                     path_match)

__all__ = ["CookieJar", "CookieChange", "MAX_COOKIES_PER_DOMAIN"]

MAX_COOKIES_PER_DOMAIN = 180  # Chrome's per-eTLD+1 limit

#: Bound on one jar's read memo.  Writes clear it far sooner; the cap
#: only guards a long run of reads at distinct clocks with no write.
_READ_MEMO_LIMIT = 256

Key = Tuple[str, str, str]


@dataclass(frozen=True)
class CookieChange:
    """Emitted on every jar mutation (for cookieStore change events etc.)."""

    kind: str  # "set" | "overwrite" | "delete" | "expire" | "evict"
    cookie: Cookie
    previous: Optional[Cookie] = None


def _host_suffixes(host: str) -> Iterator[str]:
    """``a.b.com`` → ``a.b.com``, ``b.com``, ``com``.

    Exactly the candidate cookie domains domain_match() can accept for
    ``host`` (equality or a dot-boundary suffix).
    """
    yield host
    start = host.find(".")
    while start != -1:
        yield host[start + 1:]
        start = host.find(".", start + 1)


class CookieJar:
    """RFC 6265 cookie storage with change notifications."""

    def __init__(self) -> None:
        self._store: Dict[Key, Cookie] = {}
        #: normalized domain -> {key -> Cookie}; a bucketed view of
        #: ``_store`` kept in lockstep by every mutation.
        self._by_domain: Dict[str, Dict[Key, Cookie]] = {}
        #: key -> monotonic insertion sequence; preserved on overwrite,
        #: dropped on delete — mirrors dict insertion-order semantics so
        #: indexed retrieval can reproduce full-scan ordering.
        self._order: Dict[Key, int] = {}
        self._seq = 0
        #: (host, path, secure, include_http_only, touch, now) -> the
        #: ``cookies_for_url`` result; cleared by every ``_store`` write.
        self._reads: Dict[tuple, Tuple[Cookie, ...]] = {}
        self._listeners: List[Callable[[CookieChange], None]] = []

    # -- listeners ------------------------------------------------------
    def add_listener(self, callback: Callable[[CookieChange], None]) -> None:
        self._listeners.append(callback)

    def _notify(self, change: CookieChange) -> None:
        for listener in list(self._listeners):
            listener(change)

    # -- index maintenance ---------------------------------------------
    def _index_put(self, cookie: Cookie) -> None:
        key = cookie.key
        if key not in self._order:
            self._seq += 1
            self._order[key] = self._seq
        self._reads.clear()
        self._store[key] = cookie
        self._by_domain.setdefault(canonical_domain(cookie.domain),
                                   {})[key] = cookie

    def _index_drop(self, cookie: Cookie) -> None:
        key = cookie.key
        self._reads.clear()
        del self._store[key]
        self._order.pop(key, None)
        bucket_key = canonical_domain(cookie.domain)
        bucket = self._by_domain.get(bucket_key)
        if bucket is not None:
            bucket.pop(key, None)
            if not bucket:
                del self._by_domain[bucket_key]

    # -- storage --------------------------------------------------------
    def set(self, cookie: Cookie, now: float = 0.0) -> Optional[CookieChange]:
        """Store ``cookie`` per the RFC 6265 storage algorithm.

        A cookie whose expiry is already in the past acts as a deletion of
        the matching stored cookie.  Returns the resulting change record,
        or None when the write was a no-op (deleting a non-existent
        cookie).
        """
        key = cookie.key
        previous = self._store.get(key)
        if cookie.is_expired(now):
            if previous is None:
                return None
            self._index_drop(previous)
            change = CookieChange("delete", cookie, previous=previous)
            self._notify(change)
            return change
        if previous is not None:
            # Preserve the original creation time on replacement
            # (RFC 6265 §5.3 step 11.3).
            if cookie.creation_time != previous.creation_time:
                clone = object.__new__(Cookie)
                clone.__dict__.update(cookie.__dict__)
                object.__setattr__(clone, "creation_time",
                                   previous.creation_time)
                cookie = clone
            kind = "overwrite"
        else:
            kind = "set"
        self._index_put(cookie)
        self._evict_domain(cookie.domain, now)
        change = CookieChange(kind, cookie, previous=previous)
        self._notify(change)
        return change

    def set_from_header(self, header: str, url: URL, *, now: float = 0.0,
                        from_http: bool = True) -> Optional[CookieChange]:
        """Parse and store a ``Set-Cookie`` header received from ``url``."""
        cookie = parse_set_cookie(
            header,
            request_host=url.host,
            request_path=url.path,
            now=now,
            from_http=from_http,
            secure_context=url.is_secure,
        )
        if cookie is None:
            return None
        return self.set(cookie, now=now)

    def delete(self, name: str, domain: str, path: str = "/") -> Optional[CookieChange]:
        """Remove a cookie outright (cookieStore.delete semantics)."""
        key = (name, domain, path)
        previous = self._store.get(key)
        if previous is None:
            return None
        self._index_drop(previous)
        change = CookieChange("delete", previous, previous=previous)
        self._notify(change)
        return change

    def _evict_domain(self, domain: str, now: float) -> None:
        bucket = self._by_domain.get(canonical_domain(domain))
        if bucket is None or len(bucket) <= MAX_COOKIES_PER_DOMAIN:
            return
        same = [c for c in bucket.values() if c.domain == domain]
        if len(same) <= MAX_COOKIES_PER_DOMAIN:
            return
        # Evict least-recently-accessed first, like Chrome.
        same.sort(key=lambda c: (c.last_access_time, c.creation_time))
        for victim in same[: len(same) - MAX_COOKIES_PER_DOMAIN]:
            self._index_drop(victim)
            self._notify(CookieChange("evict", victim, previous=victim))

    def purge_expired(self, now: float) -> int:
        """Drop expired cookies; returns how many were removed."""
        expired = [c for c in self._store.values() if c.is_expired(now)]
        for cookie in expired:
            self._index_drop(cookie)
            self._notify(CookieChange("expire", cookie, previous=cookie))
        return len(expired)

    # -- retrieval ------------------------------------------------------
    def _candidates(self, host: str) -> List[Cookie]:
        """Cookies whose domain could match ``host``, in store order.

        A strict superset pre-filter: every cookie the full scan could
        match lives in one of the host's suffix buckets, so the
        per-cookie predicate downstream sees the same population.
        """
        found: List[Cookie] = []
        by_domain = self._by_domain
        for suffix in _host_suffixes(host):
            bucket = by_domain.get(suffix)
            if bucket:
                found.extend(bucket.values())
        if len(found) > 1:
            order = self._order
            found.sort(key=lambda c: order[c.key])
        return found

    def cookies_for_url(self, url: URL, *, now: float = 0.0,
                        include_http_only: bool = True,
                        touch: bool = True) -> List[Cookie]:
        """Cookies that would be attached to a request for ``url``.

        Results are sorted per RFC 6265 §5.4: longer paths first, then
        earlier creation times.  Served from the read memo while the
        store is unchanged (see the module docstring).
        """
        host_lower = url.host.lower()
        url_path = url.path
        url_secure = url.is_secure
        memo_key = (host_lower, url_path, url_secure, include_http_only,
                    touch, now)
        reads = self._reads
        cached = reads.get(memo_key)
        if cached is not None:
            return list(cached)
        matches: List[Cookie] = []
        for cookie in self._candidates(host_lower.rstrip(".")):
            if cookie.is_expired(now):
                continue
            if cookie.host_only:
                if host_lower != cookie.domain:
                    continue
            elif not domain_match(host_lower, cookie.domain):
                continue
            if not path_match(url_path, cookie.path):
                continue
            if cookie.secure and not url_secure:
                continue
            if cookie.http_only and not include_http_only:
                continue
            matches.append(cookie)
        matches.sort(key=lambda c: (-len(c.path), c.creation_time))
        if touch:
            for index, cookie in enumerate(matches):
                if cookie.last_access_time != now:
                    touched = cookie.touched(now)
                    reads.clear()
                    self._store[cookie.key] = touched
                    self._by_domain[canonical_domain(cookie.domain)][
                        cookie.key] = touched
                    matches[index] = touched
        if len(reads) >= _READ_MEMO_LIMIT:
            reads.clear()
        reads[memo_key] = tuple(matches)
        return matches

    def script_visible(self, url: URL, now: float = 0.0) -> List[Cookie]:
        """Cookies visible to ``document.cookie`` readers on ``url``."""
        return self.cookies_for_url(url, now=now, include_http_only=False)

    def get(self, name: str, domain: str, path: str = "/") -> Optional[Cookie]:
        return self._store.get((name, domain, path))

    def find(self, name: str) -> List[Cookie]:
        """All stored cookies with ``name`` (any domain/path)."""
        return [c for c in self._store.values() if c.name == name]

    def all(self) -> List[Cookie]:
        return list(self._store.values())

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: Key) -> bool:
        return key in self._store

    def clear(self) -> None:
        self._reads.clear()
        self._store.clear()
        self._by_domain.clear()
        self._order.clear()
