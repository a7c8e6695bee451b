"""URL parsing and the web Origin model.

The paper distinguishes *cross-origin* (strict Same-Origin Policy triple of
scheme, host, port) from *cross-domain* (different eTLD+1 while executing in
the same main-frame origin).  This module provides both notions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .psl import DEFAULT_PSL, PublicSuffixList

__all__ = ["URL", "Origin", "parse_url", "parse_qs", "encode_qs"]

_DEFAULT_PORTS = {"http": 80, "https": 443, "ws": 80, "wss": 443}


@lru_cache(maxsize=1024)
def _intern_origin(scheme: str, host: str, port: int) -> "Origin":
    """Intern non-opaque origins.

    A crawl touches the same handful of origins thousands of times per
    visit (every request, cookie check, and attribution re-derives one);
    :class:`Origin` is frozen, so sharing one instance per triple is
    safe and makes ``URL.origin`` a cache hit.  Opaque origins are never
    interned — each stands alone, mirroring browser semantics.
    """
    return Origin(scheme, host, port)


@dataclass(frozen=True)
class Origin:
    """A web origin: (scheme, host, port).

    ``Origin.opaque()`` builds an opaque origin (sandboxed frames,
    ``data:`` URLs); opaque origins are never same-origin with anything,
    including themselves, mirroring browser semantics.
    """

    scheme: str
    host: str
    port: int
    _opaque: bool = False

    @classmethod
    def opaque(cls) -> "Origin":
        return cls("null", "", 0, _opaque=True)

    @property
    def is_opaque(self) -> bool:
        return self._opaque

    def same_origin(self, other: "Origin") -> bool:
        if self._opaque or other._opaque:
            return False
        return (
            self.scheme == other.scheme
            and self.host == other.host
            and self.port == other.port
        )

    def registrable_domain(self, psl: PublicSuffixList = DEFAULT_PSL) -> Optional[str]:
        if self._opaque:
            return None
        return psl.registrable_domain(self.host)

    def same_site(self, other: "Origin", psl: PublicSuffixList = DEFAULT_PSL) -> bool:
        """Same eTLD+1 (scheme is ignored, matching the paper's usage)."""
        if self._opaque or other._opaque:
            return False
        return psl.same_site(self.host, other.host)

    @property
    def is_secure(self) -> bool:
        return self.scheme in ("https", "wss")

    def __str__(self) -> str:  # serialize like browsers do
        if self._opaque:
            return "null"
        default = _DEFAULT_PORTS.get(self.scheme)
        if default == self.port:
            return f"{self.scheme}://{self.host}"
        return f"{self.scheme}://{self.host}:{self.port}"


@dataclass(frozen=True)
class URL:
    """A parsed absolute URL.

    Only the components the simulator needs are modeled: scheme, host,
    port, path, query, and fragment.  Userinfo is intentionally rejected —
    no URL in the paper's pipeline carries credentials.
    """

    scheme: str
    host: str
    port: int
    path: str = "/"
    query: str = ""
    fragment: str = ""

    @property
    def origin(self) -> Origin:
        if self.scheme in ("data", "about", "javascript"):
            return Origin.opaque()
        return _intern_origin(self.scheme, self.host, self.port)

    @property
    def is_secure(self) -> bool:
        return self.scheme in ("https", "wss")

    def registrable_domain(self, psl: PublicSuffixList = DEFAULT_PSL) -> Optional[str]:
        return psl.registrable_domain(self.host)

    def with_path(self, path: str) -> "URL":
        return URL(self.scheme, self.host, self.port, path, self.query, self.fragment)

    def with_query(self, query: str) -> "URL":
        return URL(self.scheme, self.host, self.port, self.path, query, self.fragment)

    def query_params(self) -> Dict[str, List[str]]:
        return parse_qs(self.query)

    def __str__(self) -> str:
        # Rendered once per instance and kept in the instance ``__dict__``
        # under ``_text``, which is not a dataclass field: ``==``,
        # ``hash`` and ``repr`` never see it.
        text = self.__dict__.get("_text")
        if text is None:
            default = _DEFAULT_PORTS.get(self.scheme)
            netloc = (self.host if default == self.port
                      else f"{self.host}:{self.port}")
            text = f"{self.scheme}://{netloc}{self.path}"
            if self.query:
                text += f"?{self.query}"
            if self.fragment:
                text += f"#{self.fragment}"
            self.__dict__["_text"] = text
        return text


class URLParseError(ValueError):
    """Raised when a string cannot be parsed as an absolute URL."""


def parse_url(raw: str, base: Optional[URL] = None) -> URL:
    """Parse ``raw`` into a :class:`URL`.

    Supports absolute URLs, scheme-relative (``//host/path``) and
    path-relative references when ``base`` is given.

    Absolute parses are served from a bounded LRU: the crawl re-parses
    the same script/collect/beacon URLs on every request, and
    :class:`URL` is frozen, so one shared instance per string is safe.
    Relative references resolve against ``base`` and are not cached.
    """

    raw = raw.strip()
    if not raw:
        raise URLParseError("empty URL")

    if raw.startswith("//"):
        if base is None:
            raise URLParseError(f"scheme-relative URL without base: {raw!r}")
        return _parse_absolute(f"{base.scheme}:{raw}")
    if "://" not in raw:
        if base is None:
            raise URLParseError(f"relative URL without base: {raw!r}")
        if raw.startswith("/"):
            path, _, rest = raw.partition("?")
            query, _, fragment = rest.partition("#")
            return URL(base.scheme, base.host, base.port, path, query, fragment)
        # Relative path: resolve against the base directory.
        directory = base.path.rsplit("/", 1)[0] or ""
        path, _, rest = raw.partition("?")
        query, _, fragment = rest.partition("#")
        return URL(base.scheme, base.host, base.port, f"{directory}/{path}", query, fragment)
    return _parse_absolute(raw)


@lru_cache(maxsize=4096)
def _parse_absolute(raw: str) -> URL:
    """Parse an absolute URL string (the cacheable case).

    ``raw`` is already stripped and contains ``://``; failures raise
    :class:`URLParseError` (exceptions are never cached by
    ``lru_cache``, so bad inputs stay cheap to re-reject only in the
    sense that they re-run this function).
    """
    scheme, _, rest = raw.partition("://")
    scheme = scheme.lower()
    if not scheme.isalnum() and not all(c.isalnum() or c in "+-." for c in scheme):
        raise URLParseError(f"bad scheme in {raw!r}")
    netloc, slash, tail = rest.partition("/")
    if "@" in netloc:
        raise URLParseError(f"userinfo not supported: {raw!r}")
    if not netloc:
        raise URLParseError(f"missing host in {raw!r}")
    # Strip query/fragment that may appear before any slash.
    for sep in ("?", "#"):
        if sep in netloc:
            netloc, _, extra = netloc.partition(sep)
            tail = ""
            slash = ""
            raw_tail = sep + extra
            break
    else:
        raw_tail = ("/" + tail) if slash else "/"

    host, _, port_s = netloc.partition(":")
    host = host.lower().rstrip(".")
    if not host:
        raise URLParseError(f"missing host in {raw!r}")
    if port_s:
        if not port_s.isdigit():
            raise URLParseError(f"bad port in {raw!r}")
        port = int(port_s)
        if not 0 < port < 65536:
            raise URLParseError(f"port out of range in {raw!r}")
    else:
        port = _DEFAULT_PORTS.get(scheme, 0)

    path, _, rest2 = raw_tail.partition("?")
    query, _, fragment = rest2.partition("#")
    if "#" in path:
        path, _, fragment = path.partition("#")
        query = ""
    if not path.startswith("/"):
        path = "/" + path
    return URL(scheme, host, port, path, query, fragment)


def parse_qs(query: str) -> Dict[str, List[str]]:
    """Parse a query string into an ordered multi-dict."""
    out: Dict[str, List[str]] = {}
    if not query:
        return out
    for pair in query.split("&"):
        if not pair:
            continue
        key, _, value = pair.partition("=")
        out.setdefault(key, []).append(value)
    return out


def encode_qs(params: Dict[str, object]) -> str:
    """Encode a flat dict (values stringified) into a query string.

    Values are emitted verbatim — the exfiltration pipeline inspects raw
    query substrings, so no percent-encoding is applied to alphanumeric
    identifier payloads.
    """
    parts: List[str] = []
    for key, value in params.items():
        if isinstance(value, (list, tuple)):
            for item in value:
                parts.append(f"{key}={item}")
        else:
            parts.append(f"{key}={value}")
    return "&".join(parts)
