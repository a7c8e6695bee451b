"""The ``document.cookie`` interface with extension-style wrapping.

Real-world instrumentation (the paper's §4.1) overrides the native
``document.cookie`` accessor with ``Object.defineProperty``, wrapping its
getter and setter.  :meth:`DocumentCookie.wrap` reproduces that idiom: a
wrapper receives the previous getter/setter and returns the replacement,
so multiple extensions (instrumentation + CookieGuard) stack naturally in
installation order, innermost wrapper installed last.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..cookies.jar import CookieChange, CookieJar
from ..net.url import URL
from .events import Clock

__all__ = ["DocumentCookie"]

Getter = Callable[[], str]
Setter = Callable[[str], Optional[CookieChange]]


class DocumentCookie:
    """Synchronous string interface over the jar for one page.

    The native getter returns every script-visible first-party cookie —
    "invoking the document.cookie API returns the entire cookie jar,
    regardless of whether the caller script requires all cookies" (§5.5).
    The native setter runs the RFC 6265 storage algorithm with
    ``from_http=False`` so scripts can never create HttpOnly cookies.
    """

    def __init__(self, jar: CookieJar, url: URL, clock: Clock):
        self._jar = jar
        self._url = url
        self._clock = clock
        self._getter: Getter = self._native_get
        self._setter: Setter = self._native_set

    # -- native implementations -----------------------------------------
    def _native_get(self) -> str:
        return self._jar.script_cookie_string(self._url, self._clock.now())

    def _native_set(self, cookie_string: str) -> Optional[CookieChange]:
        return self._jar.set_from_header(
            cookie_string, self._url, now=self._clock.now(), from_http=False
        )

    # -- public API used by script behaviours ----------------------------
    def get(self) -> str:
        """``document.cookie`` read — goes through installed wrappers."""
        return self._getter()

    def set(self, cookie_string: str) -> Optional[CookieChange]:
        """``document.cookie = ...`` write — goes through wrappers."""
        return self._setter(cookie_string)

    # -- extension surface ------------------------------------------------
    def wrap(self,
             getter: Optional[Callable[[Getter], Getter]] = None,
             setter: Optional[Callable[[Setter], Setter]] = None) -> None:
        """Install wrappers around the current getter/setter.

        Each wrapper is called once with the *previous* function and must
        return the replacement — the same shape as wrapping a property
        descriptor in JS.
        """
        if getter is not None:
            self._getter = getter(self._getter)
        if setter is not None:
            self._setter = setter(self._setter)

    def unwrap_all(self) -> None:
        """Restore the native accessor pair (used by tests/ablations)."""
        self._getter = self._native_get
        self._setter = self._native_set
