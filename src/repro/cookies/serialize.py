"""Serialization between cookies and the ``document.cookie`` string format."""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .cookie import Cookie, parse_cookie_pair

__all__ = [
    "to_cookie_string",
    "parse_cookie_string",
    "serialize_set_cookie",
]


def to_cookie_string(cookies: Iterable[Cookie]) -> str:
    """Join cookies the way a ``document.cookie`` getter does."""
    return "; ".join(cookie.pair() for cookie in cookies)


#: ``document.cookie`` string → its (name, value) pairs.  A pure
#: function of the string, so one process-wide table is safe: every
#: script on a page reads the same jar string, and the instrumentation,
#: CookieGuard and behaviour layers each parse it.  A visit parses about
#: a dozen distinct strings; the bound only caps memory across visits.
_PARSE_CACHE: Dict[str, Tuple[Tuple[str, str], ...]] = {}
_PARSE_CACHE_LIMIT = 256


def parse_cookie_string(cookie_string: str) -> Tuple[Tuple[str, str], ...]:
    """Split a ``document.cookie`` string into (name, value) pairs."""
    pairs = _PARSE_CACHE.get(cookie_string)
    if pairs is None:
        if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
            _PARSE_CACHE.clear()
        parsed: List[Tuple[str, str]] = []
        for chunk in cookie_string.split(";"):
            pair = parse_cookie_pair(chunk)
            if pair is not None:
                parsed.append(pair)
        pairs = _PARSE_CACHE[cookie_string] = tuple(parsed)
    return pairs


def serialize_set_cookie(name: str, value: str, *,
                         domain: Optional[str] = None,
                         path: Optional[str] = None,
                         expires: Optional[float] = None,
                         max_age: Optional[float] = None,
                         secure: bool = False,
                         http_only: bool = False,
                         same_site: Optional[str] = None) -> str:
    """Build a ``Set-Cookie``-style string from attributes.

    Used by ecosystem script behaviours to write ``document.cookie`` the
    way real tracker SDKs do.
    """
    parts = [f"{name}={value}"]
    if domain:
        parts.append(f"Domain={domain}")
    if path:
        parts.append(f"Path={path}")
    if expires is not None:
        parts.append(f"Expires={expires}")
    if max_age is not None:
        parts.append(f"Max-Age={max_age}")
    if secure:
        parts.append("Secure")
    if http_only:
        parts.append("HttpOnly")
    if same_site:
        parts.append(f"SameSite={same_site}")
    return "; ".join(parts)
