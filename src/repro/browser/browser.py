"""The browser shell: profile, servers, extensions, and page visits.

A :class:`Browser` owns one cookie jar (the profile), a DNS resolver, a
registry of simulated web servers, and the installed extensions.  Calling
:meth:`Browser.visit` loads a page end-to-end: the navigation request is
served (Set-Cookie headers land in the jar), extensions get their
``document_start`` moment before any page script runs, then the page's
script queue executes to completion.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Protocol, Sequence

from ..cookies.jar import CookieJar
from ..net.dns import Resolver
from ..net.http import Request, Response, ResourceType
from ..net.psl import DEFAULT_PSL
from ..net.url import URL, parse_url
from .events import Clock
from .page import Page
from .scripts import Script

__all__ = ["Browser", "BrowserExtension", "ServerHandler"]

# A server handler answers one request for a host it owns.
ServerHandler = Callable[[Request], Response]


class BrowserExtension(Protocol):
    """The surface a browser extension implements.

    ``on_page_created`` runs at ``document_start``: the page exists, no
    page script has executed yet — the only moment at which wrapping
    ``document.cookie`` is sound.
    """

    name: str

    def on_page_created(self, page: Page, browser: "Browser") -> None:
        """Install content scripts / wrappers into the new page."""


class Browser:
    """A simulated browser profile."""

    def __init__(self, clock: Optional[Clock] = None,
                 resolver: Optional[Resolver] = None,
                 rng=None):
        self.clock = clock or Clock()
        self.jar = CookieJar()
        self.resolver = resolver or Resolver()
        self.rng = rng
        self.extensions: List[BrowserExtension] = []
        self.pages: List[Page] = []
        self._servers: Dict[str, ServerHandler] = {}

    # -- extension management ------------------------------------------------
    def install(self, extension: BrowserExtension) -> None:
        self.extensions.append(extension)

    def uninstall(self, name: str) -> None:
        self.extensions = [e for e in self.extensions if e.name != name]

    # -- the simulated internet ------------------------------------------------
    def register_server(self, host_or_domain: str, handler: ServerHandler) -> None:
        """Serve requests whose host equals or is a subdomain of the key."""
        self._servers[host_or_domain.lower()] = handler

    def _find_handler(self, host: str) -> Optional[ServerHandler]:
        host = host.lower()
        # Follow CNAMEs: a cloaked subdomain is actually answered by the
        # third party's infrastructure.
        canonical = self.resolver.canonical_name(host)
        for candidate in (host, canonical):
            probe = candidate
            while probe:
                if probe in self._servers:
                    return self._servers[probe]
                if "." not in probe:
                    break
                probe = probe.split(".", 1)[1]
        return None

    def transport(self, request: Request) -> Response:
        """Resolve a request against the registered servers."""
        handler = self._find_handler(request.url.host)
        if handler is None:
            return Response(url=request.url, status=200)
        return handler(request)

    # -- visiting pages -----------------------------------------------------------
    def visit(self, url, scripts: Sequence[Script] = (),
              run: bool = True) -> Page:
        """Navigate to ``url`` and execute ``scripts`` in its main frame.

        Order of operations mirrors a real navigation:

        1. the document request is sent (server Set-Cookie headers apply);
        2. extensions run at ``document_start``;
        3. markup scripts execute, possibly inserting more scripts;
        4. the event loop drains (timers, cookieStore promises).
        """
        page = Page(url, jar=self.jar, transport=self.transport,
                    clock=self.clock, rng=self.rng)
        self.pages.append(page)

        # Step 1 — navigation fetch. The page's network manager records it
        # so extensions installed later still see Set-Cookie via the
        # response log; to let webRequest listeners observe the *document*
        # response, extensions are given the page first, then the request
        # is issued, matching onHeadersReceived semantics for main-frame
        # loads arriving before document_start script injection completes.
        for extension in self.extensions:
            extension.on_page_created(page, self)
        page.network.request(page.url, resource_type=ResourceType.DOCUMENT)

        for script in scripts:
            # Markup scripts are fetched like any subresource, so filter
            # lists and Set-Cookie monitoring see their URLs.
            if script.url is not None:
                page.network.request(script.url,
                                     resource_type=ResourceType.SCRIPT)
            page.add_script(script)
        if run:
            page.run_scripts()
        return page

    # -- conveniences ------------------------------------------------------------
    def clear_profile(self) -> None:
        """Wipe cookies (fresh profile between crawl conditions)."""
        self.jar.clear()
        self.pages.clear()

    def site_domain(self, url) -> str:
        parsed = url if isinstance(url, URL) else parse_url(url)
        return DEFAULT_PSL.registrable_domain(parsed.host) or parsed.host
