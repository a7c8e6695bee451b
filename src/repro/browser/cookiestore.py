"""The promise-based ``CookieStore`` API.

The modern asynchronous counterpart of ``document.cookie`` (§2.3):
``get``/``getAll`` resolve to structured cookie objects, ``set``/``delete``
mutate the jar.  Only available in secure contexts, mirroring the spec —
the constructor refuses ``http:`` pages.

Like :class:`~repro.browser.document_cookie.DocumentCookie`, every method
can be wrapped by extensions; the paper's instrumentation overrides
``get``, ``getAll``, ``set`` and ``delete`` (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..cookies.cookie import Cookie, SameSite, canonical_domain, domain_match
from ..cookies.jar import CookieChange, CookieJar
from ..net.url import URL
from .events import Clock, EventLoop, Promise

__all__ = ["CookieStore", "CookieListItem", "NotSecureContext"]


class NotSecureContext(RuntimeError):
    """CookieStore is only exposed on HTTPS pages."""


@dataclass(frozen=True)
class CookieListItem:
    """The dictionary shape ``cookieStore.get``/``getAll`` resolve with."""

    name: str
    value: str
    domain: Optional[str]
    path: str
    expires: Optional[float]
    secure: bool
    same_site: str

    @classmethod
    def from_cookie(cls, cookie: Cookie) -> "CookieListItem":
        return cls(
            name=cookie.name,
            value=cookie.value,
            domain=None if cookie.host_only else cookie.domain,
            path=cookie.path,
            expires=cookie.expires,
            secure=cookie.secure,
            same_site=cookie.same_site.value.lower(),
        )


class CookieStore:
    """Async cookie access for one secure page."""

    def __init__(self, jar: CookieJar, url: URL, clock: Clock, loop: EventLoop):
        if not url.is_secure:
            raise NotSecureContext(f"cookieStore unavailable on {url}")
        self._jar = jar
        self._url = url
        self._clock = clock
        self._loop = loop
        self._change_listeners: List[Callable[[dict], None]] = []
        jar.add_listener(self._on_jar_change)
        # Wrappable method slots (extension surface).
        self._get_impl: Callable[[str], Optional[CookieListItem]] = self._native_get
        self._get_all_impl: Callable[[], List[CookieListItem]] = self._native_get_all
        self._set_impl: Callable[[str, str, Dict], Optional[CookieChange]] = self._native_set
        self._delete_impl: Callable[[str, Dict], Optional[CookieChange]] = self._native_delete

    # -- native implementations -------------------------------------------
    def _visible(self) -> List[Cookie]:
        return self._jar.script_visible(self._url, now=self._clock.now())

    def _native_get(self, name: str) -> Optional[CookieListItem]:
        for cookie in self._visible():
            if cookie.name == name:
                return CookieListItem.from_cookie(cookie)
        return None

    def _native_get_all(self) -> List[CookieListItem]:
        return [CookieListItem.from_cookie(c) for c in self._visible()]

    def _native_set(self, name: str, value: str,
                    options: Dict) -> Optional[CookieChange]:
        now = self._clock.now()
        domain = options.get("domain")
        host = canonical_domain(self._url.host)
        if domain is None:
            target = host
        else:
            # Canonicalize and vet the option like a Domain attribute:
            # reject foreign domains as the header path does.
            target = canonical_domain(domain)
            if not domain_match(host, target):
                raise ValueError(f"cookieStore.set: domain {domain!r} not allowed on {host}")
        cookie = Cookie(
            name=name,
            value=value,
            domain=target,
            path=options.get("path", "/"),
            expires=options.get("expires"),
            secure=True,  # cookieStore writes are always Secure
            http_only=False,
            same_site=SameSite(str(options.get("same_site", "Lax")).capitalize()),
            host_only=domain is None,
            creation_time=now,
            last_access_time=now,
            from_http=False,
        )
        return self._jar.set(cookie, now=now)

    def _native_delete(self, name: str, options: Dict) -> Optional[CookieChange]:
        domain = options.get("domain")
        path = options.get("path", "/")
        target_domain = canonical_domain(domain or self._url.host)
        return self._jar.delete(name, target_domain, path)

    # -- promise-returning public API ---------------------------------------
    def _resolve_later(self, compute: Callable[[], object]) -> Promise:
        """Run ``compute`` NOW (the caller's stack frame is what wrappers
        and stack-trace attribution must see — §6.2), but resolve the
        promise on the microtask queue like the real API."""
        promise = Promise(self._loop)
        try:
            result = compute()
        except BaseException as exc:  # noqa: BLE001 — promise semantics
            self._loop.queue_microtask(
                lambda error=exc: promise.reject(error))
            return promise
        self._loop.queue_microtask(lambda: promise.resolve(result))
        return promise

    def get(self, name: str) -> Promise:
        """``cookieStore.get(name)`` → Promise<CookieListItem | None>."""
        return self._resolve_later(lambda: self._get_impl(name))

    def get_all(self) -> Promise:
        """``cookieStore.getAll()`` → Promise<list[CookieListItem]>."""
        return self._resolve_later(lambda: self._get_all_impl())

    def set(self, name: str, value: str, **options) -> Promise:
        """``cookieStore.set(...)`` → Promise<None>."""
        return self._resolve_later(lambda: self._set_impl(name, value, options))

    def delete(self, name: str, **options) -> Promise:
        """``cookieStore.delete(name)`` → Promise<None>."""
        return self._resolve_later(lambda: self._delete_impl(name, options))

    # -- change events (cookieStore.onchange) ----------------------------------
    def add_change_listener(self, callback: Callable[[dict], None]) -> None:
        """Register a ``change`` event handler.

        Events fire on the microtask queue with the spec's shape:
        ``{"changed": [CookieListItem, ...], "deleted": [...]}``.
        Only cookies visible to this page's origin are reported.
        """
        self._change_listeners.append(callback)

    def _on_jar_change(self, change) -> None:
        if not self._change_listeners:
            return
        cookie = change.cookie
        # Scope to this document, like the real event.
        if cookie.host_only:
            if self._url.host.lower() != cookie.domain:
                return
        elif not domain_match(self._url.host, cookie.domain):
            return
        if cookie.http_only:
            return
        item = CookieListItem.from_cookie(cookie)
        if change.kind in ("delete", "expire", "evict"):
            event = {"changed": [], "deleted": [item]}
        else:
            event = {"changed": [item], "deleted": []}
        for listener in list(self._change_listeners):
            self._loop.queue_microtask(lambda cb=listener, ev=event: cb(ev))

    # -- extension surface ----------------------------------------------------
    def wrap(self, *, get=None, get_all=None, set=None, delete=None) -> None:  # noqa: A002
        """Wrap any of the four methods; wrapper(prev) -> replacement."""
        if get is not None:
            self._get_impl = get(self._get_impl)
        if get_all is not None:
            self._get_all_impl = get_all(self._get_all_impl)
        if set is not None:
            self._set_impl = set(self._set_impl)
        if delete is not None:
            self._delete_impl = delete(self._delete_impl)
