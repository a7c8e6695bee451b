"""The CookieGuard browser extension (§6.2).

Three components, mirroring the paper's architecture:

* ``background.js`` → the :class:`~repro.cookieguard.metadata.CreatorStore`
  plus ``webRequest.onHeadersReceived`` monitoring of first-party
  ``Set-Cookie`` headers;
* ``contentScript.js`` → the relay between page and background, here a
  direct call into the store;
* ``cookieGuard.js`` → the in-page wrappers around ``document.cookie`` and
  ``cookieStore`` that enforce the per-script-domain policy.

Install CookieGuard *before* the instrumentation extension so measurement
wrappers sit outermost and observe the guard's filtered reality — the same
vantage point the paper's Figure 5 evaluation has.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..browser.browser import Browser
from ..browser.page import Page
from ..cookies.cookie import parse_cookie_pair, parse_set_cookie
from ..cookies.serialize import parse_cookie_string
from ..extension.api import ExtensionBase
from ..net.http import Request, Response
from ..net.psl import DEFAULT_PSL
from .metadata import CreatorStore
from .policy import AccessPolicy, Decision, InlineMode, PolicyConfig

__all__ = ["CookieGuardExtension"]


class CookieGuardExtension(ExtensionBase):
    """Runtime isolation of the first-party cookie jar.

    ``uncloak_dns=True`` enables the §8 mitigation: script attribution
    follows DNS CNAME chains, so a tracker served from a cloaked
    first-party subdomain is attributed to its *true* third-party eTLD+1
    instead of inheriting owner access.
    """

    name = "cookieguard"

    def __init__(self, policy: Optional[PolicyConfig] = None,
                 *, uncloak_dns: bool = False):
        self.store = CreatorStore()
        self.policy = AccessPolicy(policy)
        self.uncloak_dns = uncloak_dns
        self.blocked_reads = 0
        self.blocked_writes = 0
        self.filtered_cookie_reads = 0
        self._resolvers: Dict[int, object] = {}

    # -- webRequest: learn creators of server-set cookies ---------------------
    def on_headers_received(self, page: Page, response: Response,
                            request: Request) -> None:
        response_domain = DEFAULT_PSL.registrable_domain(response.url.host) \
            or response.url.host
        for header in response.set_cookie_headers():
            cookie = parse_set_cookie(header, request_host=response.url.host,
                                      request_path=response.url.path,
                                      now=page.clock.now(), from_http=True,
                                      secure_context=response.url.is_secure)
            if cookie is None or cookie.http_only:
                continue
            # Only first-party cookies live in the jar CookieGuard guards.
            if response_domain != page.site_domain:
                continue
            self.store.record_creation(page.site_domain, cookie.name,
                                       response_domain)

    # -- cookieGuard.js: the in-page wrappers -----------------------------------
    def content_script(self, page: Page, browser: Browser) -> None:
        if self.uncloak_dns:
            self._resolvers[id(page)] = browser.resolver
        self._wrap_document_cookie(page)
        self._wrap_cookie_store(page)

    # .. attribution ..........................................................
    def _acting_domain(self, page: Page) -> Optional[str]:
        """eTLD+1 of the last external script on the stack (None = inline).

        With DNS uncloaking enabled, the attribution follows CNAME chains
        to the terminal host — defeating first-party subdomain cloaks.
        """
        script = page.stack.attribute()
        if script is None or script.url is None:
            return None
        resolver = self._resolvers.get(id(page))
        if resolver is not None:
            return script.uncloaked_domain(resolver)
        return script.attributed_domain()

    def _dataset(self, page: Page) -> Dict[str, str]:
        return self.store.known_cookies(page.site_domain)

    # .. document.cookie ........................................................
    def _wrap_document_cookie(self, page: Page) -> None:
        site = page.site_domain

        def getter(prev):
            def wrapped() -> str:
                full = prev()
                actor = self._acting_domain(page)
                dataset = self._dataset(page)
                visible: List[str] = []
                hidden = 0
                for name, value in parse_cookie_string(full):
                    decision = self.policy.may_read(
                        script_domain=actor, site_domain=site,
                        creator=dataset.get(name))
                    if decision is Decision.ALLOW:
                        visible.append(f"{name}={value}")
                    else:
                        hidden += 1
                if hidden:
                    self.filtered_cookie_reads += 1
                    if not visible:
                        self.blocked_reads += 1
                return "; ".join(visible)
            return wrapped

        def setter(prev):
            def wrapped(raw: str):
                parsed = parse_cookie_pair(raw.split(";", 1)[0])
                if parsed is None:
                    return prev(raw)
                name, _value = parsed
                actor = self._acting_domain(page)
                dataset = self._dataset(page)
                decision = self.policy.may_write(
                    script_domain=actor, site_domain=site,
                    creator=dataset.get(name))
                if decision is Decision.DENY:
                    self.blocked_writes += 1
                    return None
                change = prev(raw)
                self._after_write(page, name, actor, change)
                return change
            return wrapped

        page.document_cookie.wrap(getter=getter, setter=setter)

    def _after_write(self, page: Page, name: str, actor: Optional[str],
                     change) -> None:
        """Update creator metadata after an allowed write."""
        if change is None:
            return
        site = page.site_domain
        if change.kind in ("set", "overwrite"):
            creator = actor if actor is not None else site
            self.store.record_creation(site, name, creator)
        elif change.kind == "delete":
            self.store.forget(site, name)

    # .. cookieStore .............................................................
    def _wrap_cookie_store(self, page: Page) -> None:
        store = page.cookie_store
        if store is None:
            return
        site = page.site_domain

        def may_read(name: str) -> bool:
            actor = self._acting_domain(page)
            dataset = self._dataset(page)
            return self.policy.may_read(
                script_domain=actor, site_domain=site,
                creator=dataset.get(name)) is Decision.ALLOW

        def wrap_get(prev):
            def wrapped(name: str):
                item = prev(name)
                if item is not None and not may_read(item.name):
                    self.blocked_reads += 1
                    return None
                return item
            return wrapped

        def wrap_get_all(prev):
            def wrapped():
                items = prev()
                allowed = [i for i in items if may_read(i.name)]
                if len(allowed) != len(items):
                    self.filtered_cookie_reads += 1
                return allowed
            return wrapped

        def wrap_set(prev):
            def wrapped(name: str, value: str, options: dict):
                actor = self._acting_domain(page)
                dataset = self._dataset(page)
                decision = self.policy.may_write(
                    script_domain=actor, site_domain=site,
                    creator=dataset.get(name))
                if decision is Decision.DENY:
                    self.blocked_writes += 1
                    return None
                change = prev(name, value, options)
                self._after_write(page, name, actor, change)
                return change
            return wrapped

        def wrap_delete(prev):
            def wrapped(name: str, options: dict):
                actor = self._acting_domain(page)
                dataset = self._dataset(page)
                decision = self.policy.may_write(
                    script_domain=actor, site_domain=site,
                    creator=dataset.get(name))
                if decision is Decision.DENY:
                    self.blocked_writes += 1
                    return None
                change = prev(name, options)
                if change is not None:
                    self.store.forget(site, name)
                return change
            return wrapped

        store.wrap(get=wrap_get, get_all=wrap_get_all, set=wrap_set,
                   delete=wrap_delete)
