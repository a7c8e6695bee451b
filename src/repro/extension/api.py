"""The extension platform: the Chrome surfaces both extensions use.

The paper's two artifacts — the measurement extension (§4.1) and
CookieGuard (§6.2) — are ordinary Chrome extensions built from:

* a **content script** injected at ``document_start`` that wraps
  ``document.cookie`` / ``cookieStore`` in the page world;
* a **background service worker** holding persistent state;
* ``webRequest.onHeadersReceived`` for server ``Set-Cookie`` headers;
* the **debugger protocol**'s ``Network.requestWillBeSent`` for initiator
  stack traces.

This module reproduces the page and network surfaces over the
simulator.  The content script calls its background state directly: no
message passing is modeled, and the Table 4 overhead model
(:mod:`repro.browser.timing`) charges per cookie operation instead.
"""

from __future__ import annotations

from ..browser.browser import Browser
from ..browser.page import Page

__all__ = ["ExtensionBase"]


class ExtensionBase:
    """Common plumbing for simulated extensions.

    Subclasses implement :meth:`content_script` (per page).
    """

    name = "extension"

    # -- to be overridden ---------------------------------------------------
    def content_script(self, page: Page, browser: Browser) -> None:
        """Injected at document_start into every page."""
        raise NotImplementedError

    # -- BrowserExtension protocol --------------------------------------------
    def on_page_created(self, page: Page, browser: Browser) -> None:
        self.attach_web_request(page, browser)
        self.attach_debugger(page, browser)
        self.content_script(page, browser)

    # -- optional network surfaces ----------------------------------------------
    def attach_web_request(self, page: Page, browser: Browser) -> None:
        """Subscribe ``on_headers_received`` if the subclass defines it."""
        handler = getattr(self, "on_headers_received", None)
        if handler is not None:
            page.network.headers_received_listeners.append(
                lambda response, request, _p=page: handler(_p, response, request))

    def attach_debugger(self, page: Page, browser: Browser) -> None:
        """Subscribe ``Network.requestWillBeSent`` if defined."""
        handler = getattr(self, "on_request_will_be_sent", None)
        if handler is not None:
            page.network.will_send_listeners.append(
                lambda request, _p=page: handler(_p, request))
