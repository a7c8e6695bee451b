"""Log record schemas shared by the instrumentation extension, the crawler,
and the analysis framework.

This module lives at the package root (rather than inside ``repro.crawler``)
so the extension layer can use the schemas without importing the crawler
package; :mod:`repro.crawler` re-exports the record classes for
convenience.

The visit-record schema is these dataclasses plus
:data:`repro.analysis.columnar.COLUMNS`: column k of event family f
there holds field k of record f here, after ``site`` (an event's site is
its visit's, and is not stored).  :data:`EVENT_FAMILIES` pairs each
``VisitLog`` event list with its record class and :data:`VISIT_SCALARS`
names the visit's own fields.  The batch's slots, constructor and object
view and :meth:`VisitLog.from_dict` are derived from these tables; only
the two hot paths, ``ShardBatch.from_logs`` and ``ShardBatch.row_dict``
(which :meth:`VisitLog.to_dict` renders through), spell the columns out
by hand.  Field names follow the paper's terminology: *site* is the
visited eTLD+1, *script_domain* is the acting script's eTLD+1 (None for
inline scripts), *api* is ``document.cookie`` or ``cookieStore``.

A crawl materializes millions of records, so each is a ``slots=True``
dataclass: no per-instance ``__dict__``, smaller and faster to read.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

__all__ = [
    "API_DOCUMENT_COOKIE",
    "API_COOKIE_STORE",
    "CookieWriteEvent",
    "CookieReadEvent",
    "HeaderCookieEvent",
    "RequestEvent",
    "DomMutationEvent",
    "EVENT_FAMILIES",
    "ScriptRecord",
    "VISIT_SCALARS",
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


@dataclass(frozen=True, slots=True)
class ScriptRecord:
    """One distinct script observed on a page (for §5.1/§5.6 analyses)."""

    url: Optional[str]            # None for inline scripts
    domain: Optional[str]         # attributed eTLD+1 (None for inline)
    inclusion: str                # "direct" | "indirect" | "inline"
    depth: int = 0                # inclusion-chain depth (0 = direct)
    parent_domain: Optional[str] = None


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
        """The JSON rendering: :meth:`ShardBatch.row_dict` of this log.

        The visit's fields in field order, each event's fields in field
        order and then its ``event`` tag; tuples become lists.
        """
        from .analysis.columnar import ShardBatch
        return ShardBatch.from_logs([self]).row_dict(0)

    @classmethod
    def from_dict(cls, data: Dict) -> "VisitLog":
        """The log :meth:`to_dict` rendered: each event's ``event`` tag
        is dropped and its lists become tuples again."""
        log = cls(**{name: data[name] for name in VISIT_SCALARS
                     if name in data})
        for attr, record in EVENT_FAMILIES:
            getattr(log, attr).extend(record(**{
                key: tuple(value) if isinstance(value, list) else value
                for key, value in raw.items() if key != "event"})
                for raw in data.get(attr, ()))
        return log


#: Each event family as (``VisitLog`` list attribute, record class), in
#: the order of :data:`repro.analysis.columnar.OFFSETS`.
EVENT_FAMILIES: Tuple[Tuple[str, type], ...] = (
    ("cookie_writes", CookieWriteEvent),
    ("cookie_reads", CookieReadEvent),
    ("header_cookies", HeaderCookieEvent),
    ("requests", RequestEvent),
    ("dom_mutations", DomMutationEvent),
    ("scripts", ScriptRecord),
)

#: The ``VisitLog`` fields that are not event lists, in field order.
VISIT_SCALARS: Tuple[str, ...] = tuple(
    f.name for f in fields(VisitLog) if f.name not in dict(EVENT_FAMILIES))
