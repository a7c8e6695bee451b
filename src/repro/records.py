"""Log record schemas shared by the instrumentation extension, the crawler,
and the analysis framework.

This module lives at the package root (rather than inside ``repro.crawler``)
so the extension layer can use the schemas without importing the crawler
package; :mod:`repro.crawler` re-exports the record classes for
convenience.

Each record is a frozen, ``slots=True`` dataclass with ``to_dict``/
``from_dict`` for JSON renderings (the golden fixture, the serve site
endpoint); shards store the same fields as columns
(:mod:`repro.analysis.columnar`).  Field names follow the paper's
terminology: *site* is the visited eTLD+1, *script_domain* is the acting
script's eTLD+1 (None for inline scripts), *api* is ``document.cookie`` or
``cookieStore``.

A crawl materializes millions of these, so the hot-path choices are
deliberate: ``__slots__`` drops the per-instance ``__dict__`` (smaller,
faster attribute access) and every ``to_dict`` builds its dict literally —
``dataclasses.asdict`` recurses through ``copy.deepcopy`` machinery and
dominated the serialization profile.  Key order is the field order with
``event`` appended last, exactly matching the historical ``asdict`` output,
so serialized bytes are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "API_DOCUMENT_COOKIE",
    "API_COOKIE_STORE",
    "CookieWriteEvent",
    "CookieReadEvent",
    "HeaderCookieEvent",
    "RequestEvent",
    "DomMutationEvent",
    "ScriptRecord",
    "VisitLog",
]

API_DOCUMENT_COOKIE = "document.cookie"
API_COOKIE_STORE = "cookieStore"


@dataclass(frozen=True, slots=True)
class CookieWriteEvent:
    """A script wrote a cookie (set / overwrite / delete / blocked)."""

    site: str
    cookie_name: str
    cookie_value: str
    api: str
    kind: str                       # "set" | "overwrite" | "delete" | "blocked"
    script_url: Optional[str]
    script_domain: Optional[str]    # None => inline / unattributable
    inclusion: str                  # "direct" | "indirect" | "inline"
    raw: str = ""                   # the raw cookie string as written
    prev_value: Optional[str] = None
    attrs_changed: Tuple[str, ...] = ()
    timestamp: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "site": self.site,
            "cookie_name": self.cookie_name,
            "cookie_value": self.cookie_value,
            "api": self.api,
            "kind": self.kind,
            "script_url": self.script_url,
            "script_domain": self.script_domain,
            "inclusion": self.inclusion,
            "raw": self.raw,
            "prev_value": self.prev_value,
            "attrs_changed": list(self.attrs_changed),
            "timestamp": self.timestamp,
            "event": "cookie_write",
        }


@dataclass(frozen=True, slots=True)
class CookieReadEvent:
    """A script read the cookie jar (names it saw, post-filtering)."""

    site: str
    api: str
    script_url: Optional[str]
    script_domain: Optional[str]
    inclusion: str
    cookie_names: Tuple[str, ...] = ()
    timestamp: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "site": self.site,
            "api": self.api,
            "script_url": self.script_url,
            "script_domain": self.script_domain,
            "inclusion": self.inclusion,
            "cookie_names": list(self.cookie_names),
            "timestamp": self.timestamp,
            "event": "cookie_read",
        }


@dataclass(frozen=True, slots=True)
class HeaderCookieEvent:
    """A non-HttpOnly ``Set-Cookie`` header was received."""

    site: str
    cookie_name: str
    cookie_value: str
    response_url: str
    response_domain: str
    initiator_domain: Optional[str]
    first_party: bool
    timestamp: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "site": self.site,
            "cookie_name": self.cookie_name,
            "cookie_value": self.cookie_value,
            "response_url": self.response_url,
            "response_domain": self.response_domain,
            "initiator_domain": self.initiator_domain,
            "first_party": self.first_party,
            "timestamp": self.timestamp,
            "event": "header_cookie",
        }


@dataclass(frozen=True, slots=True)
class RequestEvent:
    """An outbound network request with initiator attribution."""

    site: str
    url: str
    host: str
    domain: str                    # eTLD+1 of the request target
    method: str
    resource_type: str
    query: str
    body: str
    script_url: Optional[str]
    script_domain: Optional[str]
    stack: Tuple[str, ...] = ()
    timestamp: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "site": self.site,
            "url": self.url,
            "host": self.host,
            "domain": self.domain,
            "method": self.method,
            "resource_type": self.resource_type,
            "query": self.query,
            "body": self.body,
            "script_url": self.script_url,
            "script_domain": self.script_domain,
            "stack": list(self.stack),
            "timestamp": self.timestamp,
            "event": "request",
        }


@dataclass(frozen=True, slots=True)
class DomMutationEvent:
    """A DOM write attributed to a script (for the §8 pilot)."""

    site: str
    kind: str
    target_tag: str
    actor_domain: Optional[str]
    owner_domain: Optional[str]
    cross_script: bool
    timestamp: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "target_tag": self.target_tag,
            "actor_domain": self.actor_domain,
            "owner_domain": self.owner_domain,
            "cross_script": self.cross_script,
            "timestamp": self.timestamp,
            "event": "dom_mutation",
        }


@dataclass(frozen=True, slots=True)
class ScriptRecord:
    """One distinct script observed on a page (for §5.1/§5.6 analyses)."""

    url: Optional[str]            # None for inline scripts
    domain: Optional[str]         # attributed eTLD+1 (None for inline)
    inclusion: str                # "direct" | "indirect" | "inline"
    depth: int = 0                # inclusion-chain depth (0 = direct)
    parent_domain: Optional[str] = None

    def to_dict(self) -> Dict:
        return {
            "url": self.url,
            "domain": self.domain,
            "inclusion": self.inclusion,
            "depth": self.depth,
            "parent_domain": self.parent_domain,
            "event": "script",
        }


@dataclass(slots=True)
class VisitLog:
    """Everything the instrumentation collected during one site visit."""

    site: str
    url: str
    rank: int = 0
    cookie_writes: List[CookieWriteEvent] = field(default_factory=list)
    cookie_reads: List[CookieReadEvent] = field(default_factory=list)
    header_cookies: List[HeaderCookieEvent] = field(default_factory=list)
    requests: List[RequestEvent] = field(default_factory=list)
    dom_mutations: List[DomMutationEvent] = field(default_factory=list)
    scripts: List[ScriptRecord] = field(default_factory=list)
    n_scripts: int = 0
    n_third_party_scripts: int = 0
    n_direct_third_party: int = 0
    n_indirect_third_party: int = 0
    cookie_op_count: int = 0
    interacted: bool = False

    @property
    def complete(self) -> bool:
        """The paper keeps sites with both cookie logs and network data."""
        has_cookie_data = bool(self.cookie_writes or self.cookie_reads
                               or self.header_cookies)
        return has_cookie_data and bool(self.requests)

    def to_dict(self) -> Dict:
        return {
            "site": self.site,
            "url": self.url,
            "rank": self.rank,
            "cookie_writes": [e.to_dict() for e in self.cookie_writes],
            "cookie_reads": [e.to_dict() for e in self.cookie_reads],
            "header_cookies": [e.to_dict() for e in self.header_cookies],
            "requests": [e.to_dict() for e in self.requests],
            "dom_mutations": [e.to_dict() for e in self.dom_mutations],
            "scripts": [e.to_dict() for e in self.scripts],
            "n_scripts": self.n_scripts,
            "n_third_party_scripts": self.n_third_party_scripts,
            "n_direct_third_party": self.n_direct_third_party,
            "n_indirect_third_party": self.n_indirect_third_party,
            "cookie_op_count": self.cookie_op_count,
            "interacted": self.interacted,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "VisitLog":
        def strip(d: Dict) -> Dict:
            d = dict(d)
            d.pop("event", None)
            return d

        log = cls(site=data["site"], url=data["url"], rank=data.get("rank", 0))
        for raw in data.get("cookie_writes", []):
            raw = strip(raw)
            raw["attrs_changed"] = tuple(raw.get("attrs_changed", ()))
            log.cookie_writes.append(CookieWriteEvent(**raw))
        for raw in data.get("cookie_reads", []):
            raw = strip(raw)
            raw["cookie_names"] = tuple(raw.get("cookie_names", ()))
            log.cookie_reads.append(CookieReadEvent(**raw))
        for raw in data.get("header_cookies", []):
            log.header_cookies.append(HeaderCookieEvent(**strip(raw)))
        for raw in data.get("requests", []):
            raw = strip(raw)
            raw["stack"] = tuple(raw.get("stack", ()))
            log.requests.append(RequestEvent(**raw))
        for raw in data.get("dom_mutations", []):
            log.dom_mutations.append(DomMutationEvent(**strip(raw)))
        for raw in data.get("scripts", []):
            log.scripts.append(ScriptRecord(**strip(raw)))
        log.n_scripts = data.get("n_scripts", 0)
        log.n_third_party_scripts = data.get("n_third_party_scripts", 0)
        log.n_direct_third_party = data.get("n_direct_third_party", 0)
        log.n_indirect_third_party = data.get("n_indirect_third_party", 0)
        log.cookie_op_count = data.get("cookie_op_count", 0)
        log.interacted = data.get("interacted", False)
        return log
