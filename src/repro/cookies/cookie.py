"""RFC 6265 cookie model and ``Set-Cookie`` parsing.

This is the substrate under everything else: the browser's cookie jar, the
``document.cookie`` and ``CookieStore`` APIs, the measurement extension, and
CookieGuard all operate on :class:`Cookie` values parsed and matched with
the algorithms in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

__all__ = [
    "SameSite",
    "Cookie",
    "parse_set_cookie",
    "parse_cookie_pair",
    "canonical_domain",
    "domain_match",
    "path_match",
    "default_path",
]

# RFC 6265 uses a far-future date as "session forever"; we use seconds since
# an arbitrary epoch because the simulator has its own clock.
MAX_EXPIRY = float(2**31)


class SameSite(Enum):
    """SameSite attribute values."""

    NONE = "None"
    LAX = "Lax"
    STRICT = "Strict"


@dataclass(frozen=True)
class Cookie:
    """A single cookie as stored in the jar.

    Identity in the jar is the (name, domain, path) triple per RFC 6265
    §5.3 step 11 — writing an identical triple replaces the stored cookie.

    ``host_only`` is True for cookies set without a Domain attribute: they
    match only the exact host that set them.
    """

    name: str
    value: str
    domain: str
    path: str = "/"
    expires: Optional[float] = None  # None => session cookie
    secure: bool = False
    http_only: bool = False
    same_site: SameSite = SameSite.LAX
    host_only: bool = True
    creation_time: float = 0.0
    last_access_time: float = 0.0
    # Provenance recorded by the *browser* (not the extension): True when the
    # cookie entered the jar via a Set-Cookie header rather than script.
    from_http: bool = False

    @property
    def key(self) -> Tuple[str, str, str]:
        """Jar identity: (name, domain, path)."""
        return (self.name, self.domain, self.path)

    def is_expired(self, now: float) -> bool:
        return self.expires is not None and self.expires <= now

    @property
    def is_session(self) -> bool:
        return self.expires is None

    def touched(self, now: float) -> "Cookie":
        if self.last_access_time == now:
            return self
        # dataclasses.replace() re-runs __init__ over all 12 fields and
        # dominated the retrieval profile (every jar hit touches); a
        # direct shallow clone does the same thing in a fraction of the
        # cost.  Cookie is frozen, hence the object.__setattr__.
        clone = object.__new__(Cookie)
        clone.__dict__.update(self.__dict__)
        object.__setattr__(clone, "last_access_time", now)
        return clone

    def pair(self) -> str:
        return f"{self.name}={self.value}"


def default_path(request_path: str) -> str:
    """RFC 6265 §5.1.4 default-path computation."""
    if not request_path or not request_path.startswith("/"):
        return "/"
    if request_path.count("/") == 1:
        return "/"
    return request_path[: request_path.rfind("/")] or "/"


def canonical_domain(domain: str) -> str:
    """A Domain attribute as the jar stores it: lowercase, no edge dots."""
    return domain.lower().lstrip(".").rstrip(".")


def domain_match(request_host: str, cookie_domain: str) -> bool:
    """RFC 6265 §5.1.3 domain matching.

    True when ``request_host`` equals ``cookie_domain`` or is a subdomain
    of it.  Both inputs are lowercased hostnames without leading dots.
    """
    request_host = request_host.lower().rstrip(".")
    cookie_domain = canonical_domain(cookie_domain)
    if not cookie_domain:
        return False
    if request_host == cookie_domain:
        return True
    return request_host.endswith("." + cookie_domain)


def path_match(request_path: str, cookie_path: str) -> bool:
    """RFC 6265 §5.1.4 path matching."""
    if not request_path:
        request_path = "/"
    if request_path == cookie_path:
        return True
    if request_path.startswith(cookie_path):
        if cookie_path.endswith("/"):
            return True
        return request_path[len(cookie_path):][:1] == "/"
    return False


def parse_cookie_pair(pair: str) -> Optional[Tuple[str, str]]:
    """Parse the leading ``name=value`` of a cookie string.

    Returns None for strings with an empty name, matching browser behaviour
    of dropping nameless ``Set-Cookie`` lines that contain an ``=``.
    A bare token without ``=`` becomes a cookie with an empty name
    (``document.cookie = "flag"`` stores ``"" -> "flag"`` in real browsers,
    but for analysis sanity we treat it as name ``flag`` with empty value).
    """
    pair = pair.strip()
    if not pair:
        return None
    if "=" not in pair:
        return (pair, "")
    name, _, value = pair.partition("=")
    name = name.strip()
    value = value.strip().strip('"')
    if not name:
        return None
    return (name, value)


def _parse_expires(value: str, now: float) -> Optional[float]:
    """Parse an Expires attribute.

    The simulator's clock is seconds-since-epoch-0, so absolute HTTP dates
    are meaningless; we accept either a float (simulator timestamp) or the
    conventional "Thu, 01 Jan 1970 00:00:00 GMT" deletion sentinel, which
    maps to the distant past.
    """
    value = value.strip()
    try:
        return float(value)
    except ValueError:
        pass
    if "1970" in value or "1969" in value:
        return now - 1.0e6  # canonical "delete me" date
    # Unparseable date strings are ignored per RFC 6265 (attribute dropped).
    return None


def parse_set_cookie(header: str, *, request_host: str, request_path: str = "/",
                     now: float = 0.0, from_http: bool = True,
                     secure_context: bool = True) -> Optional[Cookie]:
    """Parse one ``Set-Cookie`` header (or ``document.cookie`` write).

    Implements the RFC 6265 §5.2/§5.3 storage algorithm pieces that matter
    for this system:

    * Domain attribute must domain-match the request host, else the cookie
      is rejected (a third-party server cannot plant ``Domain=other.com``).
    * Cookies without a Domain attribute are host-only.
    * ``Secure`` cookies are rejected from non-secure contexts.
    * ``Max-Age`` wins over ``Expires``.
    * ``__Host-`` prefix rules: Secure, no Domain, Path=/ required.

    Returns the parsed :class:`Cookie` or None when rejected.
    """
    parts = header.split(";")
    parsed = parse_cookie_pair(parts[0])
    if parsed is None:
        return None
    name, value = parsed

    domain: Optional[str] = None
    path: Optional[str] = None
    expires: Optional[float] = None
    max_age: Optional[float] = None
    secure = False
    http_only = False
    same_site = SameSite.LAX

    for raw in parts[1:]:
        attr, _, attr_value = raw.strip().partition("=")
        attr_l = attr.strip().lower()
        attr_value = attr_value.strip()
        if attr_l == "domain" and attr_value:
            domain = canonical_domain(attr_value)
        elif attr_l == "path" and attr_value.startswith("/"):
            path = attr_value
        elif attr_l == "expires":
            expires = _parse_expires(attr_value, now)
        elif attr_l == "max-age":
            try:
                max_age = float(attr_value)
            except ValueError:
                pass
        elif attr_l == "secure":
            secure = True
        elif attr_l == "httponly":
            http_only = True
        elif attr_l == "samesite":
            try:
                same_site = SameSite(attr_value.capitalize())
            except ValueError:
                same_site = SameSite.LAX

    request_host = request_host.lower().rstrip(".")

    if name.startswith("__Host-"):
        if not secure or domain is not None or (path or "/") != "/":
            return None
    if name.startswith("__Secure-") and not secure:
        return None

    host_only = domain is None
    if domain is not None:
        if not domain_match(request_host, domain):
            return None  # RFC 6265 §5.3 step 6: reject foreign Domain
        effective_domain = domain
    else:
        effective_domain = request_host

    if secure and not secure_context:
        return None

    if max_age is not None:
        expires = now + max_age

    # Built the way ``Cookie.touched`` clones: the frozen dataclass
    # ``__init__`` sets its 12 fields one ``object.__setattr__`` at a
    # time, which costs several times this for the same fields.
    cookie = object.__new__(Cookie)
    cookie.__dict__.update(
        name=name,
        value=value,
        domain=effective_domain,
        path=path if path is not None else default_path(request_path),
        expires=expires,
        secure=secure,
        http_only=http_only and from_http,  # scripts cannot set HttpOnly
        same_site=same_site,
        host_only=host_only,
        creation_time=now,
        last_access_time=now,
        from_http=from_http,
    )
    return cookie
