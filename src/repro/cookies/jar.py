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
The result — order included — is provably identical to the full scan.
A bucket keyed by a dot-suffix of the host always domain-matches it,
so candidates are re-filtered by the rest of the per-cookie predicate
only, then sorted once by (longer path, earlier creation, insertion
sequence): the RFC §5.4 order with ties in store order, which is
exactly the order the linear scan produced.  A read whose buckets are
all empty returns before the filter.

Reads are memoized per jar: ``cookies_for_url`` keeps its result per
(host, path, secure, include_http_only, touch, now), and
``script_cookie_string`` keeps the joined ``document.cookie`` string
per (host, path, scheme, now).  An entry in either table is valid only
while ``_store`` is unchanged, so every store write calls the one
``_invalidate()``, which empties both — ``_index_put``,
``_index_drop``, a touch that changes a ``last_access_time``, and
``clear()``.  That makes both memos exact: a repeated read of an
unchanged store at the same clock finds its matches already touched
to ``now``, so re-running it would have no side effect and return the
same cookies, hence the same string.  ``document.cookie`` returns the
whole jar to every script (§5.5), so a visit repeats many reads
between two writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..net.url import URL
from .cookie import Cookie, canonical_domain, parse_set_cookie, path_match
from .serialize import to_cookie_string

__all__ = ["CookieJar", "CookieChange", "MAX_COOKIES_PER_DOMAIN"]

MAX_COOKIES_PER_DOMAIN = 180  # Chrome's per-eTLD+1 limit

#: Bound on each of one jar's read memos.  Writes clear them far
#: sooner; the cap only guards a long run of reads at distinct clocks
#: with no write.
_READ_MEMO_LIMIT = 256

Key = Tuple[str, str, str]


@dataclass(frozen=True)
class CookieChange:
    """Emitted on every jar mutation (for cookieStore change events etc.)."""

    kind: str  # "set" | "overwrite" | "delete" | "expire" | "evict"
    cookie: Cookie
    previous: Optional[Cookie] = None


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
        #: (host, path, scheme, now) -> the ``document.cookie`` string;
        #: cleared with ``_reads``.
        self._strings: Dict[tuple, str] = {}
        self._listeners: List[Callable[[CookieChange], None]] = []

    # -- listeners ------------------------------------------------------
    def add_listener(self, callback: Callable[[CookieChange], None]) -> None:
        self._listeners.append(callback)

    def _notify(self, change: CookieChange) -> None:
        for listener in list(self._listeners):
            listener(change)

    # -- index maintenance ---------------------------------------------
    def _invalidate(self) -> None:
        """Empty the read memos; every ``_store`` write calls this."""
        self._reads.clear()
        self._strings.clear()

    def _index_put(self, cookie: Cookie) -> None:
        key = cookie.key
        if key not in self._order:
            self._seq += 1
            self._order[key] = self._seq
        self._invalidate()
        self._store[key] = cookie
        self._by_domain.setdefault(canonical_domain(cookie.domain),
                                   {})[key] = cookie

    def _index_drop(self, cookie: Cookie) -> None:
        key = cookie.key
        self._invalidate()
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
    def _candidates(self, host: str) -> List[Tuple[str, Key, Cookie]]:
        """(bucket, key, cookie) for every cookie whose domain could match
        ``host``, in no particular order.

        The buckets are those of ``host``'s dot-suffixes
        (``a.b.com`` → ``a.b.com``, ``b.com``, ``com``): exactly the
        cookie domains RFC 6265 §5.1.3 can accept for ``host``, so the
        per-cookie predicate downstream sees the full scan's population.
        """
        found: List[Tuple[str, Key, Cookie]] = []
        by_domain = self._by_domain
        suffix = host
        while True:
            bucket = by_domain.get(suffix)
            if bucket:
                found.extend([(suffix, key, cookie)
                              for key, cookie in bucket.items()])
            dot = suffix.find(".")
            if dot == -1:
                return found
            suffix = suffix[dot + 1:]

    def _remember(self, memo_key: tuple, matches: List[Cookie]) -> None:
        reads = self._reads
        if len(reads) >= _READ_MEMO_LIMIT:
            reads.clear()
        reads[memo_key] = tuple(matches)

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
        cached = self._reads.get(memo_key)
        if cached is not None:
            return list(cached)
        found = self._candidates(host_lower.rstrip("."))
        if not found:
            self._remember(memo_key, [])
            return []
        # (-len(path), creation_time, insertion seq, bucket, key, cookie):
        # sorting these tuples is the §5.4 order with ties in store
        # order, and the unique seq keeps the sort off the cookies.
        kept: List[tuple] = []
        order = self._order
        for bucket, key, cookie in found:
            expires = cookie.expires
            if expires is not None and expires <= now:
                continue
            if cookie.host_only:
                if host_lower != cookie.domain:
                    continue
            elif not bucket:
                continue  # an empty domain matches no host
            path = cookie.path
            if path != url_path and not path_match(url_path, path):
                continue
            if cookie.secure and not url_secure:
                continue
            if cookie.http_only and not include_http_only:
                continue
            kept.append((-len(path), cookie.creation_time, order[key],
                         bucket, key, cookie))
        if len(kept) > 1:
            kept.sort()
        matches: List[Cookie] = []
        touched_any = False
        for _len, _created, _seq, bucket, key, cookie in kept:
            if touch and cookie.last_access_time != now:
                cookie = cookie.touched(now)
                self._store[key] = cookie
                self._by_domain[bucket][key] = cookie
                touched_any = True
            matches.append(cookie)
        if touched_any:
            self._invalidate()
        self._remember(memo_key, matches)
        return matches

    def script_visible(self, url: URL, now: float = 0.0) -> List[Cookie]:
        """Cookies visible to ``document.cookie`` readers on ``url``."""
        return self.cookies_for_url(url, now=now, include_http_only=False)

    def script_cookie_string(self, url: URL, now: float = 0.0) -> str:
        """The ``document.cookie`` string on ``url``:
        ``to_cookie_string(script_visible(url, now))``, joined once per
        store state and clock (see the module docstring)."""
        memo_key = (url.host, url.path, url.scheme, now)
        strings = self._strings
        text = strings.get(memo_key)
        if text is None:
            text = to_cookie_string(self.script_visible(url, now))
            if len(strings) >= _READ_MEMO_LIMIT:
                strings.clear()
            strings[memo_key] = text
        return text

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
        self._invalidate()
        self._store.clear()
        self._by_domain.clear()
        self._order.clear()
