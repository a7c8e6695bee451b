"""The measurement extension (§4.1).

Reproduces the paper's custom Chrome extension:

* wraps the ``document.cookie`` getter/setter (``Object.defineProperty``
  idiom) logging every read and write with the calling script's URL
  derived from the stack trace;
* wraps ``cookieStore.get/getAll/set/delete`` for the async API;
* captures non-HttpOnly ``Set-Cookie`` headers via
  ``webRequest.onHeadersReceived`` with first/third-party labeling;
* records outbound requests with initiator stacks via the debugger
  protocol's ``Network.requestWillBeSent``.

One :class:`~repro.records.VisitLog` is produced per page and
retrieved with :meth:`InstrumentationExtension.log_for`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..browser.browser import Browser
from ..browser.page import Page
from ..browser.scripts import Script
from ..cookies.cookie import parse_set_cookie
from ..cookies.serialize import cookie_names
from ..records import (
    API_COOKIE_STORE,
    API_DOCUMENT_COOKIE,
    CookieReadEvent,
    CookieWriteEvent,
    HeaderCookieEvent,
    RequestEvent,
    VisitLog,
)
from ..net.http import Request, Response
from ..net.psl import DEFAULT_PSL
from .api import ExtensionBase

__all__ = ["InstrumentationExtension"]


def _script_info(script: Optional[Script]) -> Tuple[Optional[str], Optional[str], str]:
    """(script_url, script_domain, inclusion) for a stack attribution."""
    if script is None:
        return None, None, "inline"
    if script.is_inline:
        return None, None, "inline"
    return str(script.url), script.attributed_domain(), script.inclusion_kind


class InstrumentationExtension(ExtensionBase):
    """Dynamic instrumentation of cookie APIs and network requests."""

    name = "instrumentation"

    def __init__(self) -> None:
        self._logs: Dict[int, VisitLog] = {}

    # -- public access -------------------------------------------------------
    def log_for(self, page: Page) -> VisitLog:
        return self._logs[id(page)]

    # -- content script ---------------------------------------------------------
    def content_script(self, page: Page, browser: Browser) -> None:
        log = VisitLog(site=page.site_domain, url=str(page.url))
        self._logs[id(page)] = log
        self._wrap_document_cookie(page, log)
        self._wrap_cookie_store(page, log)

    def _wrap_document_cookie(self, page: Page, log: VisitLog) -> None:
        clock = page.clock

        def getter(prev):
            def wrapped() -> str:
                value = prev()
                script = page.stack.attribute()
                url, domain, inclusion = _script_info(script)
                names = cookie_names(value)
                log.cookie_reads.append(CookieReadEvent(
                    site=page.site_domain,
                    api=API_DOCUMENT_COOKIE,
                    script_url=url,
                    script_domain=domain,
                    inclusion=inclusion,
                    cookie_names=names,
                    timestamp=clock.now(),
                ))
                return value
            return wrapped

        def setter(prev):
            def wrapped(raw: str):
                script = page.stack.attribute()
                url, domain, inclusion = _script_info(script)
                change = prev(raw)
                record = self._write_record(
                    page, raw, change, api=API_DOCUMENT_COOKIE,
                    script_url=url, script_domain=domain, inclusion=inclusion)
                if record is not None:
                    log.cookie_writes.append(record)
                return change
            return wrapped

        page.document_cookie.wrap(getter=getter, setter=setter)

    def _write_record(self, page: Page, raw: str, change, *, api: str,
                      script_url, script_domain, inclusion) -> Optional[CookieWriteEvent]:
        if change is not None:
            kind = change.kind
            name = change.cookie.name
            value = change.cookie.value
            prev_value = change.previous.value if change.previous else None
            attrs = self._attrs_changed(change)
        else:
            # The jar changed nothing: name the write from its own text.
            parsed = parse_set_cookie(raw, request_host=page.url.host,
                                      request_path=page.url.path,
                                      now=page.clock.now(), from_http=False,
                                      secure_context=page.url.is_secure)
            if parsed is None:
                return None  # unparseable write: browsers drop it silently
            kind = "blocked"
            name = parsed.name
            value = parsed.value
            prev_value = None
            attrs = ()
        return CookieWriteEvent(
            site=page.site_domain,
            cookie_name=name,
            cookie_value=value,
            api=api,
            kind=kind,
            script_url=script_url,
            script_domain=script_domain,
            inclusion=inclusion,
            raw=raw,
            prev_value=prev_value,
            attrs_changed=attrs,
            timestamp=page.clock.now(),
        )

    @staticmethod
    def _attrs_changed(change) -> Tuple[str, ...]:
        """Which attributes an overwrite touched (§5.5 analysis)."""
        if change.kind != "overwrite" or change.previous is None:
            return ()
        before, after = change.previous, change.cookie
        changed = []
        if before.value != after.value:
            changed.append("value")
        # Expires granularity is a calendar day (HTTP dates): sub-day
        # drift between two writes of the same nominal lifetime is not a
        # change; dropping to a session cookie is counted conservatively
        # as "expiry not specified", not as a change.
        if before.expires is not None and after.expires is not None \
                and abs(before.expires - after.expires) > 86_400.0:
            changed.append("expires")
        elif before.expires is None and after.expires is not None:
            changed.append("expires")
        if before.domain != after.domain or before.host_only != after.host_only:
            changed.append("domain")
        if before.path != after.path:
            changed.append("path")
        return tuple(changed)

    def _wrap_cookie_store(self, page: Page, log: VisitLog) -> None:
        store = page.cookie_store
        if store is None:
            return
        clock = page.clock

        def read_event(names: Tuple[str, ...]) -> None:
            script = page.stack.attribute()
            url, domain, inclusion = _script_info(script)
            log.cookie_reads.append(CookieReadEvent(
                site=page.site_domain,
                api=API_COOKIE_STORE,
                script_url=url,
                script_domain=domain,
                inclusion=inclusion,
                cookie_names=names,
                timestamp=clock.now(),
            ))

        def wrap_get(prev):
            def wrapped(name: str):
                item = prev(name)
                read_event((item.name,) if item is not None else ())
                return item
            return wrapped

        def wrap_get_all(prev):
            def wrapped():
                items = prev()
                read_event(tuple(i.name for i in items))
                return items
            return wrapped

        def wrap_set(prev):
            def wrapped(name: str, value: str, options: dict):
                script = page.stack.attribute()
                url, domain, inclusion = _script_info(script)
                change = prev(name, value, options)
                if change is not None:
                    kind, cname, cvalue = change.kind, change.cookie.name, change.cookie.value
                    prev_value = change.previous.value if change.previous else None
                    attrs = self._attrs_changed(change)
                else:
                    kind, cname, cvalue, prev_value, attrs = "blocked", name, value, None, ()
                log.cookie_writes.append(CookieWriteEvent(
                    site=page.site_domain, cookie_name=cname, cookie_value=cvalue,
                    api=API_COOKIE_STORE, kind=kind, script_url=url,
                    script_domain=domain, inclusion=inclusion,
                    raw=f"{name}={value}", prev_value=prev_value,
                    attrs_changed=attrs, timestamp=clock.now(),
                ))
                return change
            return wrapped

        def wrap_delete(prev):
            def wrapped(name: str, options: dict):
                script = page.stack.attribute()
                url, domain, inclusion = _script_info(script)
                change = prev(name, options)
                kind = change.kind if change is not None else "blocked"
                value = change.previous.value if change is not None and change.previous else ""
                log.cookie_writes.append(CookieWriteEvent(
                    site=page.site_domain, cookie_name=name, cookie_value=value,
                    api=API_COOKIE_STORE, kind=kind, script_url=url,
                    script_domain=domain, inclusion=inclusion,
                    raw=name, prev_value=value or None,
                    timestamp=clock.now(),
                ))
                return change
            return wrapped

        store.wrap(get=wrap_get, get_all=wrap_get_all, set=wrap_set,
                   delete=wrap_delete)

    # -- webRequest.onHeadersReceived -----------------------------------------
    def on_headers_received(self, page: Page, response: Response,
                            request: Request) -> None:
        log = self._logs.get(id(page))
        if log is None:
            return
        response_domain = DEFAULT_PSL.registrable_domain(response.url.host) or response.url.host
        initiator_domain = (
            DEFAULT_PSL.registrable_domain(request.initiator_url.host)
            if request.initiator_url is not None else None
        )
        for header in response.set_cookie_headers():
            cookie = parse_set_cookie(header, request_host=response.url.host,
                                      request_path=response.url.path,
                                      now=page.clock.now(), from_http=True,
                                      secure_context=response.url.is_secure)
            if cookie is None or cookie.http_only:
                continue  # the paper logs non-HttpOnly cookies only
            log.header_cookies.append(HeaderCookieEvent(
                site=page.site_domain,
                cookie_name=cookie.name,
                cookie_value=cookie.value,
                response_url=str(response.url),
                response_domain=response_domain,
                initiator_domain=initiator_domain,
                first_party=response_domain == page.site_domain,
                timestamp=page.clock.now(),
            ))

    # -- debugger protocol: Network.requestWillBeSent ----------------------------
    def on_request_will_be_sent(self, page: Page, request: Request) -> None:
        log = self._logs.get(id(page))
        if log is None:
            return
        script = page.stack.attribute()
        url, domain, _inclusion = _script_info(script)
        log_domain = DEFAULT_PSL.registrable_domain(request.url.host) or request.url.host
        log.requests.append(RequestEvent(
            site=page.site_domain,
            url=str(request.url),
            host=request.url.host,
            domain=log_domain,
            method=request.method,
            resource_type=request.resource_type.value,
            query=request.url.query,
            body=request.body,
            script_url=url,
            script_domain=domain,
            stack=request.initiator_stack,
            timestamp=page.clock.now(),
        ))
