"""Serialization between cookies and the ``document.cookie`` string format."""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .cookie import Cookie, parse_cookie_pair

__all__ = [
    "to_cookie_string",
    "parse_cookie_string",
    "cookie_names",
    "cookie_mapping",
    "serialize_set_cookie",
]


def to_cookie_string(cookies: Iterable[Cookie]) -> str:
    """Join cookies the way a ``document.cookie`` getter does."""
    return "; ".join(cookie.pair() for cookie in cookies)


Pairs = Tuple[Tuple[str, str], ...]

#: ``document.cookie`` string → (its (name, value) pairs, its names, its
#: read-only name → value mapping).  A pure function of the string, so
#: one process-wide table is safe: every script on a page reads the same
#: jar string, and the instrumentation, CookieGuard and behaviour layers
#: each need one of the three.  The bound only caps memory across visits.
_PARSE_CACHE: Dict[str, Tuple[Pairs, Tuple[str, ...], Mapping[str, str]]] = {}
_PARSE_CACHE_LIMIT = 256


def parse_cookie_string(cookie_string: str) -> Pairs:
    """Split a ``document.cookie`` string into (name, value) pairs."""
    entry = _PARSE_CACHE.get(cookie_string)
    if entry is None:
        if len(_PARSE_CACHE) >= _PARSE_CACHE_LIMIT:
            _PARSE_CACHE.clear()
        parsed: List[Tuple[str, str]] = []
        for chunk in cookie_string.split(";"):
            pair = parse_cookie_pair(chunk)
            if pair is not None:
                parsed.append(pair)
        pairs = tuple(parsed)
        entry = _PARSE_CACHE[cookie_string] = (
            pairs, tuple(name for name, _value in pairs),
            MappingProxyType(dict(pairs)))
    return entry[0]


def _parsed(cookie_string: str
            ) -> Tuple[Pairs, Tuple[str, ...], Mapping[str, str]]:
    entry = _PARSE_CACHE.get(cookie_string)
    if entry is None:
        # A miss parses through the public name, so a wrapper around
        # ``parse_cookie_string`` sees every parse.
        parse_cookie_string(cookie_string)
        entry = _PARSE_CACHE[cookie_string]
    return entry


def cookie_names(cookie_string: str) -> Tuple[str, ...]:
    """The names of :func:`parse_cookie_string`'s pairs, in order."""
    return _parsed(cookie_string)[1]


def cookie_mapping(cookie_string: str) -> Mapping[str, str]:
    """``dict(parse_cookie_string(cookie_string))``, read-only.

    One mapping per string is shared by every caller, hence the
    read-only view: a duplicate name keeps its last value, in the
    position of its first.
    """
    return _parsed(cookie_string)[2]


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
