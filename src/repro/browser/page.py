"""A loaded page: frame, DOM, cookie APIs, network, and script execution.

:class:`Page` wires every substrate together and exposes :class:`JSContext`
— the object script behaviours receive, playing the role of the JS global
environment (``document``, ``cookieStore``, ``fetch``, ``setTimeout``,
dynamic ``<script>`` insertion, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..cookies.jar import CookieChange, CookieJar
from ..net.http import ResourceType
from ..net.psl import DEFAULT_PSL
from ..net.url import URL, parse_url
from .cookiestore import CookieStore
from .document_cookie import DocumentCookie
from .dom import Document, Element
from .events import Clock, EventLoop, Promise
from .frames import Frame
from .network import NetworkManager, Transport
from .scripts import Script
from .stack import CallStack

__all__ = ["Page", "JSContext"]


class JSContext:
    """The per-page script execution environment.

    One instance is shared by every script on the page (they all run in the
    main frame's global scope — the exact lack of isolation the paper
    studies).  Attribution of each call comes from the live call stack, not
    from this object.
    """

    def __init__(self, page: "Page"):
        self._page = page
        #: shared mutable global namespace (``window.*`` equivalent);
        #: ecosystem behaviours use it for ID-sync handoffs and SSO state.
        self.globals: Dict[str, object] = {}

    # -- page metadata ----------------------------------------------------
    @property
    def page_url(self) -> URL:
        return self._page.url

    @property
    def site_domain(self) -> str:
        return self._page.site_domain

    @property
    def current_script(self) -> Optional[Script]:
        return self._page.stack.current_script()

    @property
    def rng(self):
        """Seeded generator for behaviours that need randomness."""
        return self._page.rng

    # -- document.cookie ----------------------------------------------------
    def get_cookie(self) -> str:
        """Read ``document.cookie``."""
        self._page.cookie_op_count += 1
        return self._page.document_cookie.get()

    def set_cookie(self, cookie_string: str) -> Optional[CookieChange]:
        """Write ``document.cookie = ...``."""
        self._page.cookie_op_count += 1
        return self._page.document_cookie.set(cookie_string)

    # -- cookieStore ---------------------------------------------------------
    @property
    def cookie_store(self) -> Optional[CookieStore]:
        """The promise-based API; None on non-secure pages."""
        return self._page.cookie_store

    # -- DOM -------------------------------------------------------------------
    @property
    def document(self) -> Document:
        return self._page.document

    # -- network -----------------------------------------------------------------
    def fetch(self, url, *, method: str = "GET", body: str = ""):
        return self._page.network.fetch(url, method=method, body=body)

    def send_beacon(self, url, params: Optional[Dict[str, object]] = None,
                    body: str = ""):
        return self._page.network.send_beacon(url, params=params, body=body)

    def load_image(self, url, params: Optional[Dict[str, object]] = None):
        return self._page.network.load_image(url, params=params)

    # -- timers / async -------------------------------------------------------
    def set_timeout(self, callback: Callable[["JSContext"], None],
                    delay: float = 0.0) -> None:
        """Schedule ``callback`` like ``setTimeout``.

        The callback runs with its owning script's frame on the stack but
        marked as an *async boundary*, reproducing the attribution caveat
        of §8.
        """
        owner = self.current_script
        page = self._page

        def run() -> None:
            if owner is not None:
                with page.stack.executing(owner, async_boundary=True):
                    callback(self)
            else:
                callback(self)

        page.loop.set_timeout(run, delay)

    # -- dynamic script inclusion -----------------------------------------------
    def include_script(self, src: Optional[str] = None,
                       behavior: Optional[Callable[["JSContext"], None]] = None,
                       label: str = "") -> Script:
        """Insert a new ``<script>`` at runtime (indirect inclusion).

        The inserted script's ``parent`` is the currently executing script,
        building the transitive inclusion chains of §5.6.
        """
        parent = self.current_script
        if src is not None:
            script = Script.external(src, behavior=behavior, parent=parent, label=label)
            # Fetching the script file is itself a network request the
            # instrumentation sees (and filter lists can match).
            self._page.network.request(script.url,
                                       resource_type=ResourceType.SCRIPT)
        else:
            script = Script.inline(behavior=behavior, parent=parent,
                                   label=label or "inline")
        self._page.queue_script(script)
        return script


class Page:
    """One visited page in the simulated browser."""

    def __init__(self, url, jar: Optional[CookieJar] = None,
                 transport: Optional[Transport] = None,
                 clock: Optional[Clock] = None,
                 rng=None):
        self.url: URL = url if isinstance(url, URL) else parse_url(url)
        self.site_domain: str = DEFAULT_PSL.registrable_domain(self.url.host) or self.url.host
        self.jar = jar if jar is not None else CookieJar()
        self.clock = clock or Clock()
        self.loop = EventLoop(self.clock)
        self.stack = CallStack()
        self.rng = rng
        self.frame = Frame(self.url)
        self.document = Document(self.stack.current_script, self.stack.snapshot)
        self.document_cookie = DocumentCookie(self.jar, self.url, self.clock)
        self.cookie_store: Optional[CookieStore] = (
            CookieStore(self.jar, self.url, self.clock, self.loop)
            if self.url.is_secure else None
        )
        self.network = NetworkManager(self.url, self.jar, self.clock,
                                      self.stack, transport)
        self.js = JSContext(self)
        self.scripts: List[Script] = []       # every script that ran
        self._queue: List[Script] = []        # scripts waiting to run
        self.cookie_op_count: int = 0         # for the overhead model

    # -- script management -------------------------------------------------
    def add_script(self, script: Script) -> Script:
        """Queue a markup-level (direct) script."""
        self._queue.append(script)
        return script

    def queue_script(self, script: Script) -> None:
        """Queue a dynamically inserted script (called by JSContext)."""
        self._queue.append(script)

    def run_scripts(self) -> int:
        """Execute queued scripts (and any they insert) to completion.

        Returns the number of scripts executed.  After each synchronous
        pass the event loop is drained, so timers and cookieStore
        promises settle too; scripts the timers inserted run in the next
        pass.  More than 10,000 scripts in one call, over all passes, is
        an inclusion loop.
        """
        executed = 0
        while True:
            while self._queue:
                script = self._queue.pop(0)
                self.scripts.append(script)
                if script.behavior is not None:
                    with self.stack.executing(script):
                        script.behavior(self.js)
                executed += 1
                if executed > 10_000:
                    raise RuntimeError("script storm — probable inclusion loop")
            self.loop.run_until_idle()
            if not self._queue:
                return executed

    # -- queries used by analyses -------------------------------------------
    def third_party_scripts(self) -> List[Script]:
        return [s for s in self.scripts if s.is_third_party_on(self.site_domain)]

    def first_party_cookies(self) -> List:
        """Cookies in the jar that belong to the visited site's eTLD+1."""
        site = self.site_domain
        return [c for c in self.jar.all()
                if DEFAULT_PSL.registrable_domain(c.domain) == site]

    def __repr__(self) -> str:
        return f"Page({self.url}, scripts={len(self.scripts)})"
