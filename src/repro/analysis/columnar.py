"""Columnar visit records: decode-once shard batches and their codec.

The object pipeline materializes a :class:`~repro.records.VisitLog` per
site and five dataclass instances per event, then every analysis pass
re-chases the same attribute chains (``log → events → fields``).  A
:class:`ShardBatch` holds a run of visits as parallel columns — flat
per-family lists plus CSR-style offset arrays addressing each site's
slice — so the exfiltration / attribution / filter-list passes run as
tight loops over adjacent list elements instead of attribute lookups
through object graphs.  Everything is stdlib: ``array`` for the numeric
columns, plain lists of strings for the rest.

The same columns are the on-disk format (``SHARD_FORMAT_VERSION`` 3).
:func:`encode_row_group` turns a batch into one *row group*:

* a header (magic, byte length, row count, table sizes, per-family
  event totals);
* a string table in first-seen order over the fixed column order
  :data:`COLUMNS` (id 0 is ``None``): per-string code-point lengths,
  then the strings' concatenated UTF-8;
* a table of interned tuples (``attrs_changed``, ``cookie_names``,
  ``stack``), each a run of string ids;
* per-visit event counts for each family, then one fixed-width
  little-endian array per column kind (string ids, tuple ids, int64,
  int8, float64), the columns of a kind back to back in
  :data:`COLUMNS` order.

:func:`decode_row_group` is the one decoder: every reader (whole
datasets, one shard, one site) fills batch columns from these arrays.
No event's ``site`` is stored; it is its visit's ``site``.

Ways into a batch:

* :meth:`ShardBatch.from_logs` — wrap in-memory ``VisitLog`` objects
  (what ``Study(logs)`` and the shard writer route through);
* :func:`iter_shard_batches` — stream a dataset's row groups;
* :func:`repro.crawler.storage.locate_site` — the row group holding
  one site, and the site's row in it, through the shard indexes
  :func:`repro.crawler.storage.load_shard_index` builds.

The object API stays available as a thin view: :meth:`ShardBatch.log`
rebuilds one ``VisitLog`` on demand and :meth:`ShardBatch.logs` a whole
list, so callers that need records (the golden fixture, ``read_site``)
are untouched.  :meth:`ShardBatch.row_dict` is ``log(i).to_dict()``
built straight from the columns, with no event objects in between:
what the serve site endpoint renders.

The per-site analysis kernels (:func:`build_ownership_batch`,
:func:`detect_manipulations_batch`, :func:`detect_exfiltration_batch`)
are the §4.4 detectors: every ``Study``, ``repro analyze`` report,
snapshot and served report runs them.  ``tests/analysis_oracle.py``
keeps the same logic as loops over one ``VisitLog``'s events, and
``tests/test_fastpath_equivalence.py`` demands identical events and
byte-identical ``Study`` report output from both.
"""

from __future__ import annotations

import re
import struct
import sys
from array import array
from itertools import accumulate, chain
from operator import sub
from typing import (TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from ..encoding import b64, md5_hex, sha1_hex
from ..records import (CookieReadEvent, CookieWriteEvent, DomMutationEvent,
                       HeaderCookieEvent, RequestEvent, ScriptRecord,
                       VisitLog)
from .attribution import (CookiePair, CrossDomainAction, SiteOwnership,
                          _attrs_from_raw)
from .exfiltration import ExfilEvent, split_candidates_fast

if TYPE_CHECKING:   # storage imports this module; import it lazily
    from ..crawler.storage import ShardManifest

__all__ = [
    "COLUMNS",
    "OFFSETS",
    "RowGroupError",
    "ShardBatch",
    "build_ownership_batch",
    "decode_row_group",
    "detect_exfiltration_batch",
    "detect_manipulations_batch",
    "encode_row_group",
    "iter_shard_batches",
    "row_group_length",
]

#: Offset column of each event family, in family order.
OFFSETS = ("w_off", "r_off", "h_off", "q_off", "d_off", "s_off")

#: Every data column as ``(attribute, kind, family)``.  Kinds: ``s``
#: string (or ``None``), ``t`` tuple of strings, ``q`` int64, ``b``
#: 0/1 int8, ``d`` float64.  Family -1 is one value per visit;
#: otherwise the column holds one value per event of ``OFFSETS[family]``.
#: The order is the row-group format: changing it changes shard bytes.
COLUMNS: Tuple[Tuple[str, str, int], ...] = (
    ("sites", "s", -1), ("urls", "s", -1),
    ("ranks", "q", -1), ("n_scripts", "q", -1), ("n_tp", "q", -1),
    ("n_direct", "q", -1), ("n_indirect", "q", -1),
    ("cookie_ops", "q", -1), ("interacted", "b", -1),
    # cookie writes
    ("w_name", "s", 0), ("w_value", "s", 0), ("w_api", "s", 0),
    ("w_kind", "s", 0), ("w_script_url", "s", 0),
    ("w_script_domain", "s", 0), ("w_inclusion", "s", 0),
    ("w_raw", "s", 0), ("w_prev", "s", 0), ("w_attrs", "t", 0),
    ("w_ts", "d", 0),
    # cookie reads
    ("r_api", "s", 1), ("r_script_url", "s", 1),
    ("r_script_domain", "s", 1), ("r_inclusion", "s", 1),
    ("r_names", "t", 1), ("r_ts", "d", 1),
    # header cookies
    ("h_name", "s", 2), ("h_value", "s", 2), ("h_resp_url", "s", 2),
    ("h_resp_domain", "s", 2), ("h_init_domain", "s", 2),
    ("h_first", "b", 2), ("h_ts", "d", 2),
    # requests
    ("q_url", "s", 3), ("q_host", "s", 3), ("q_domain", "s", 3),
    ("q_method", "s", 3), ("q_rtype", "s", 3), ("q_query", "s", 3),
    ("q_body", "s", 3), ("q_script_url", "s", 3),
    ("q_script_domain", "s", 3), ("q_stack", "t", 3), ("q_ts", "d", 3),
    # dom mutations
    ("d_kind", "s", 4), ("d_tag", "s", 4), ("d_actor", "s", 4),
    ("d_owner", "s", 4), ("d_cross", "b", 4), ("d_ts", "d", 4),
    # scripts
    ("s_url", "s", 5), ("s_domain", "s", 5), ("s_inclusion", "s", 5),
    ("s_depth", "q", 5), ("s_parent", "s", 5),
)


class ShardBatch:
    """A batch of visit logs as parallel columns.

    Per-log columns are indexed by the batch-local position ``i``; each
    event family stores a flat column per field plus an offset array
    ``*_off`` of length ``len(batch) + 1`` so family ``f``'s events for
    log ``i`` live at ``f_col[f_off[i]:f_off[i + 1]]``.
    """

    __slots__ = (
        # per-log
        "sites", "urls", "ranks", "n_scripts", "n_tp", "n_direct",
        "n_indirect", "cookie_ops", "interacted",
        # cookie writes
        "w_off", "w_name", "w_value", "w_api", "w_kind", "w_script_url",
        "w_script_domain", "w_inclusion", "w_raw", "w_prev", "w_attrs",
        "w_ts",
        # cookie reads
        "r_off", "r_api", "r_script_url", "r_script_domain", "r_inclusion",
        "r_names", "r_ts",
        # header cookies
        "h_off", "h_name", "h_value", "h_resp_url", "h_resp_domain",
        "h_init_domain", "h_first", "h_ts",
        # requests
        "q_off", "q_url", "q_host", "q_domain", "q_method", "q_rtype",
        "q_query", "q_body", "q_script_url", "q_script_domain", "q_stack",
        "q_ts",
        # dom mutations
        "d_off", "d_kind", "d_tag", "d_actor", "d_owner", "d_cross", "d_ts",
        # scripts
        "s_off", "s_url", "s_domain", "s_inclusion", "s_depth", "s_parent",
    )

    def __init__(self) -> None:
        self.sites: List[str] = []
        self.urls: List[str] = []
        self.ranks = array("q")
        self.n_scripts = array("q")
        self.n_tp = array("q")
        self.n_direct = array("q")
        self.n_indirect = array("q")
        self.cookie_ops = array("q")
        self.interacted = array("b")

        self.w_off = array("q", [0])
        self.w_name: List[str] = []
        self.w_value: List[str] = []
        self.w_api: List[str] = []
        self.w_kind: List[str] = []
        self.w_script_url: List[Optional[str]] = []
        self.w_script_domain: List[Optional[str]] = []
        self.w_inclusion: List[str] = []
        self.w_raw: List[str] = []
        self.w_prev: List[Optional[str]] = []
        self.w_attrs: List[Tuple[str, ...]] = []
        self.w_ts = array("d")

        self.r_off = array("q", [0])
        self.r_api: List[str] = []
        self.r_script_url: List[Optional[str]] = []
        self.r_script_domain: List[Optional[str]] = []
        self.r_inclusion: List[str] = []
        self.r_names: List[Tuple[str, ...]] = []
        self.r_ts = array("d")

        self.h_off = array("q", [0])
        self.h_name: List[str] = []
        self.h_value: List[str] = []
        self.h_resp_url: List[str] = []
        self.h_resp_domain: List[str] = []
        self.h_init_domain: List[Optional[str]] = []
        self.h_first = array("b")
        self.h_ts = array("d")

        self.q_off = array("q", [0])
        self.q_url: List[str] = []
        self.q_host: List[str] = []
        self.q_domain: List[str] = []
        self.q_method: List[str] = []
        self.q_rtype: List[str] = []
        self.q_query: List[str] = []
        self.q_body: List[str] = []
        self.q_script_url: List[Optional[str]] = []
        self.q_script_domain: List[Optional[str]] = []
        self.q_stack: List[Tuple[str, ...]] = []
        self.q_ts = array("d")

        self.d_off = array("q", [0])
        self.d_kind: List[str] = []
        self.d_tag: List[str] = []
        self.d_actor: List[Optional[str]] = []
        self.d_owner: List[Optional[str]] = []
        self.d_cross = array("b")
        self.d_ts = array("d")

        self.s_off = array("q", [0])
        self.s_url: List[Optional[str]] = []
        self.s_domain: List[Optional[str]] = []
        self.s_inclusion: List[str] = []
        self.s_depth = array("q")
        self.s_parent: List[Optional[str]] = []

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.sites)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_logs(cls, logs: Sequence[VisitLog]) -> "ShardBatch":
        """Columns from in-memory :class:`VisitLog` objects.

        Each event family is flattened once, then every column fills
        with a single comprehension over the flat run — the attribute
        chasing happens here and nowhere else.
        """
        batch = cls()
        logs = list(logs)
        batch.sites = [log.site for log in logs]
        batch.urls = [log.url for log in logs]
        batch.ranks = array("q", [log.rank for log in logs])
        batch.n_scripts = array("q", [log.n_scripts for log in logs])
        batch.n_tp = array("q", [log.n_third_party_scripts for log in logs])
        batch.n_direct = array("q",
                               [log.n_direct_third_party for log in logs])
        batch.n_indirect = array("q",
                                 [log.n_indirect_third_party for log in logs])
        batch.cookie_ops = array("q", [log.cookie_op_count for log in logs])
        batch.interacted = array("b",
                                 [1 if log.interacted else 0 for log in logs])

        ws: List[CookieWriteEvent] = []
        for log in logs:
            ws.extend(log.cookie_writes)
            batch.w_off.append(len(ws))
        batch.w_name = [w.cookie_name for w in ws]
        batch.w_value = [w.cookie_value for w in ws]
        batch.w_api = [w.api for w in ws]
        batch.w_kind = [w.kind for w in ws]
        batch.w_script_url = [w.script_url for w in ws]
        batch.w_script_domain = [w.script_domain for w in ws]
        batch.w_inclusion = [w.inclusion for w in ws]
        batch.w_raw = [w.raw for w in ws]
        batch.w_prev = [w.prev_value for w in ws]
        batch.w_attrs = [w.attrs_changed for w in ws]
        batch.w_ts = array("d", [w.timestamp for w in ws])

        rs: List[CookieReadEvent] = []
        for log in logs:
            rs.extend(log.cookie_reads)
            batch.r_off.append(len(rs))
        batch.r_api = [r.api for r in rs]
        batch.r_script_url = [r.script_url for r in rs]
        batch.r_script_domain = [r.script_domain for r in rs]
        batch.r_inclusion = [r.inclusion for r in rs]
        batch.r_names = [r.cookie_names for r in rs]
        batch.r_ts = array("d", [r.timestamp for r in rs])

        hs: List[HeaderCookieEvent] = []
        for log in logs:
            hs.extend(log.header_cookies)
            batch.h_off.append(len(hs))
        batch.h_name = [h.cookie_name for h in hs]
        batch.h_value = [h.cookie_value for h in hs]
        batch.h_resp_url = [h.response_url for h in hs]
        batch.h_resp_domain = [h.response_domain for h in hs]
        batch.h_init_domain = [h.initiator_domain for h in hs]
        batch.h_first = array("b", [1 if h.first_party else 0 for h in hs])
        batch.h_ts = array("d", [h.timestamp for h in hs])

        qs: List[RequestEvent] = []
        for log in logs:
            qs.extend(log.requests)
            batch.q_off.append(len(qs))
        batch.q_url = [q.url for q in qs]
        batch.q_host = [q.host for q in qs]
        batch.q_domain = [q.domain for q in qs]
        batch.q_method = [q.method for q in qs]
        batch.q_rtype = [q.resource_type for q in qs]
        batch.q_query = [q.query for q in qs]
        batch.q_body = [q.body for q in qs]
        batch.q_script_url = [q.script_url for q in qs]
        batch.q_script_domain = [q.script_domain for q in qs]
        batch.q_stack = [q.stack for q in qs]
        batch.q_ts = array("d", [q.timestamp for q in qs])

        ds: List[DomMutationEvent] = []
        for log in logs:
            ds.extend(log.dom_mutations)
            batch.d_off.append(len(ds))
        batch.d_kind = [d.kind for d in ds]
        batch.d_tag = [d.target_tag for d in ds]
        batch.d_actor = [d.actor_domain for d in ds]
        batch.d_owner = [d.owner_domain for d in ds]
        batch.d_cross = array("b", [1 if d.cross_script else 0 for d in ds])
        batch.d_ts = array("d", [d.timestamp for d in ds])

        ss: List[ScriptRecord] = []
        for log in logs:
            ss.extend(log.scripts)
            batch.s_off.append(len(ss))
        batch.s_url = [s.url for s in ss]
        batch.s_domain = [s.domain for s in ss]
        batch.s_inclusion = [s.inclusion for s in ss]
        batch.s_depth = array("q", [s.depth for s in ss])
        batch.s_parent = [s.parent_domain for s in ss]
        return batch

    # ------------------------------------------------------------------
    # Object view (thin; built on demand)
    # ------------------------------------------------------------------
    def log(self, i: int) -> VisitLog:
        """Rebuild the :class:`VisitLog` for batch position ``i``."""
        log = VisitLog(site=self.sites[i], url=self.urls[i],
                       rank=self.ranks[i])
        for j in range(self.w_off[i], self.w_off[i + 1]):
            log.cookie_writes.append(CookieWriteEvent(
                site=log.site, cookie_name=self.w_name[j],
                cookie_value=self.w_value[j], api=self.w_api[j],
                kind=self.w_kind[j], script_url=self.w_script_url[j],
                script_domain=self.w_script_domain[j],
                inclusion=self.w_inclusion[j], raw=self.w_raw[j],
                prev_value=self.w_prev[j], attrs_changed=self.w_attrs[j],
                timestamp=self.w_ts[j]))
        for j in range(self.r_off[i], self.r_off[i + 1]):
            log.cookie_reads.append(CookieReadEvent(
                site=log.site, api=self.r_api[j],
                script_url=self.r_script_url[j],
                script_domain=self.r_script_domain[j],
                inclusion=self.r_inclusion[j],
                cookie_names=self.r_names[j], timestamp=self.r_ts[j]))
        for j in range(self.h_off[i], self.h_off[i + 1]):
            log.header_cookies.append(HeaderCookieEvent(
                site=log.site, cookie_name=self.h_name[j],
                cookie_value=self.h_value[j],
                response_url=self.h_resp_url[j],
                response_domain=self.h_resp_domain[j],
                initiator_domain=self.h_init_domain[j],
                first_party=bool(self.h_first[j]), timestamp=self.h_ts[j]))
        for j in range(self.q_off[i], self.q_off[i + 1]):
            log.requests.append(RequestEvent(
                site=log.site, url=self.q_url[j], host=self.q_host[j],
                domain=self.q_domain[j], method=self.q_method[j],
                resource_type=self.q_rtype[j], query=self.q_query[j],
                body=self.q_body[j], script_url=self.q_script_url[j],
                script_domain=self.q_script_domain[j],
                stack=self.q_stack[j], timestamp=self.q_ts[j]))
        for j in range(self.d_off[i], self.d_off[i + 1]):
            log.dom_mutations.append(DomMutationEvent(
                site=log.site, kind=self.d_kind[j],
                target_tag=self.d_tag[j], actor_domain=self.d_actor[j],
                owner_domain=self.d_owner[j],
                cross_script=bool(self.d_cross[j]), timestamp=self.d_ts[j]))
        for j in range(self.s_off[i], self.s_off[i + 1]):
            log.scripts.append(ScriptRecord(
                url=self.s_url[j], domain=self.s_domain[j],
                inclusion=self.s_inclusion[j], depth=self.s_depth[j],
                parent_domain=self.s_parent[j]))
        log.n_scripts = self.n_scripts[i]
        log.n_third_party_scripts = self.n_tp[i]
        log.n_direct_third_party = self.n_direct[i]
        log.n_indirect_third_party = self.n_indirect[i]
        log.cookie_op_count = self.cookie_ops[i]
        log.interacted = bool(self.interacted[i])
        return log

    def logs(self) -> List[VisitLog]:
        return [self.log(i) for i in range(len(self))]

    def row_dict(self, i: int) -> Dict:
        """``self.log(i).to_dict()``, built from the columns directly.

        Same keys, values and types (bools for the 0/1 columns, lists
        for the tuple columns), without the event objects in between.
        """
        site = self.sites[i]

        def rows(off: array, *columns: Sequence) -> Iterator[tuple]:
            lo, hi = off[i], off[i + 1]
            return zip(*(column[lo:hi] for column in columns))

        return {
            "site": site,
            "url": self.urls[i],
            "rank": self.ranks[i],
            "cookie_writes": [{
                "site": site, "cookie_name": name, "cookie_value": value,
                "api": api, "kind": kind, "script_url": url,
                "script_domain": domain, "inclusion": inclusion, "raw": raw,
                "prev_value": prev, "attrs_changed": list(attrs),
                "timestamp": ts, "event": "cookie_write",
            } for (name, value, api, kind, url, domain, inclusion, raw, prev,
                   attrs, ts) in rows(
                self.w_off, self.w_name, self.w_value, self.w_api,
                self.w_kind, self.w_script_url, self.w_script_domain,
                self.w_inclusion, self.w_raw, self.w_prev, self.w_attrs,
                self.w_ts)],
            "cookie_reads": [{
                "site": site, "api": api, "script_url": url,
                "script_domain": domain, "inclusion": inclusion,
                "cookie_names": list(names), "timestamp": ts,
                "event": "cookie_read",
            } for api, url, domain, inclusion, names, ts in rows(
                self.r_off, self.r_api, self.r_script_url,
                self.r_script_domain, self.r_inclusion, self.r_names,
                self.r_ts)],
            "header_cookies": [{
                "site": site, "cookie_name": name, "cookie_value": value,
                "response_url": url, "response_domain": domain,
                "initiator_domain": initiator, "first_party": bool(first),
                "timestamp": ts, "event": "header_cookie",
            } for name, value, url, domain, initiator, first, ts in rows(
                self.h_off, self.h_name, self.h_value, self.h_resp_url,
                self.h_resp_domain, self.h_init_domain, self.h_first,
                self.h_ts)],
            "requests": [{
                "site": site, "url": url, "host": host, "domain": domain,
                "method": method, "resource_type": rtype, "query": query,
                "body": body, "script_url": script_url,
                "script_domain": script_domain, "stack": list(stack),
                "timestamp": ts, "event": "request",
            } for (url, host, domain, method, rtype, query, body, script_url,
                   script_domain, stack, ts) in rows(
                self.q_off, self.q_url, self.q_host, self.q_domain,
                self.q_method, self.q_rtype, self.q_query, self.q_body,
                self.q_script_url, self.q_script_domain, self.q_stack,
                self.q_ts)],
            "dom_mutations": [{
                "site": site, "kind": kind, "target_tag": tag,
                "actor_domain": actor, "owner_domain": owner,
                "cross_script": bool(cross), "timestamp": ts,
                "event": "dom_mutation",
            } for kind, tag, actor, owner, cross, ts in rows(
                self.d_off, self.d_kind, self.d_tag, self.d_actor,
                self.d_owner, self.d_cross, self.d_ts)],
            "scripts": [{
                "url": url, "domain": domain, "inclusion": inclusion,
                "depth": depth, "parent_domain": parent, "event": "script",
            } for url, domain, inclusion, depth, parent in rows(
                self.s_off, self.s_url, self.s_domain, self.s_inclusion,
                self.s_depth, self.s_parent)],
            "n_scripts": self.n_scripts[i],
            "n_third_party_scripts": self.n_tp[i],
            "n_direct_third_party": self.n_direct[i],
            "n_indirect_third_party": self.n_indirect[i],
            "cookie_op_count": self.cookie_ops[i],
            "interacted": bool(self.interacted[i]),
        }


# ---------------------------------------------------------------------------
# The row-group codec (shard format v3)
# ---------------------------------------------------------------------------

class RowGroupError(ValueError):
    """Bytes that are not one well-formed row group."""


#: First bytes of every row group.
MAGIC = b"RGv3"

#: magic, total byte length, rows, strings, UTF-8 bytes, tuples, tuple
#: items, then the event total of each family.
_HEADER = struct.Struct("<4s6I6I")

_U32 = "I" if array("I").itemsize == 4 else "L"
_TYPECODES = {"s": _U32, "t": _U32, "q": "q", "b": "b", "d": "d"}
_BIG_ENDIAN = sys.byteorder == "big"

_BY_KIND = {kind: tuple((name, family) for name, k, family in COLUMNS
                        if k == kind)
            for kind in "stqbd"}


def _le_bytes(values: array) -> bytes:
    if _BIG_ENDIAN and values.itemsize > 1:
        values = array(values.typecode, values)
        values.byteswap()
    return values.tobytes()


def encode_row_group(batch: ShardBatch) -> bytes:
    """One row group's bytes for every row of ``batch``.

    Deterministic: tables fill in first-seen order over :data:`COLUMNS`
    (strings inside tuples after every string column), and every array
    is little-endian, so equal columns give equal bytes on any machine.
    """
    n = len(batch)
    counts = array(_U32)
    totals = []
    for name in OFFSETS:
        off = getattr(batch, name)
        counts.extend(map(sub, off[1:], off[:-1]))
        totals.append(off[-1] - off[0])
    string_cols = [getattr(batch, name) for name, _f in _BY_KIND["s"]]
    tuple_cols = [getattr(batch, name) for name, _f in _BY_KIND["t"]]
    tuples = list(dict.fromkeys(chain.from_iterable(tuple_cols)))
    table = dict.fromkeys(chain((None,), chain.from_iterable(string_cols),
                                chain.from_iterable(tuples)))
    string_id = {value: i for i, value in enumerate(table)}
    tuple_id = {value: i for i, value in enumerate(tuples)}
    strings = list(table)[1:]
    text = "".join(strings).encode("utf-8", "surrogatepass")
    sections = [
        array(_U32, map(len, strings)), text,
        array(_U32, map(len, tuples)),
        array(_U32, map(string_id.__getitem__, chain.from_iterable(tuples))),
        counts,
        array(_U32, map(string_id.__getitem__,
                        chain.from_iterable(string_cols))),
        array(_U32, map(tuple_id.__getitem__,
                        chain.from_iterable(tuple_cols))),
    ]
    for kind in "qbd":
        values = array(_TYPECODES[kind])
        for name, _family in _BY_KIND[kind]:
            values.extend(getattr(batch, name))
        sections.append(values)
    body = [part if isinstance(part, bytes) else _le_bytes(part)
            for part in sections]
    n_items = len(sections[3])
    total = _HEADER.size + sum(map(len, body))
    header = _HEADER.pack(MAGIC, total, n, len(strings), len(text),
                          len(tuples), n_items, *totals)
    return header + b"".join(body)


def row_group_length(head) -> int:
    """The byte length a row group declares in its first 8 bytes.

    What a reader walking a plain shard needs to find the next group.
    Raises :class:`RowGroupError` unless ``head`` starts like a row
    group.
    """
    head = bytes(head[:8])
    if not MAGIC.startswith(head[:4]):
        raise RowGroupError(
            f"not a row group (starts {head!r}); JSON-lines shards from "
            f"format v2 are not readable, re-crawl")
    if len(head) < 8:
        raise RowGroupError("truncated row group header")
    length = int.from_bytes(head[4:], "little")
    if length < _HEADER.size:
        raise RowGroupError(f"row group declares {length} bytes, less "
                            f"than its header")
    return length


def decode_row_group(data) -> ShardBatch:
    """The batch of one row group's rows.

    The only decoder of shard bytes.  Raises :class:`RowGroupError`
    unless ``data`` (any bytes-like object) is exactly one well-formed
    row group.
    """
    try:
        return _decode(memoryview(data))
    except RowGroupError:
        raise
    except (IndexError, ValueError, struct.error) as exc:
        raise RowGroupError(f"malformed row group: {exc}") from exc


def _decode(view: memoryview) -> ShardBatch:
    if len(view) < _HEADER.size:
        raise RowGroupError(f"truncated row group header "
                            f"({len(view)} of {_HEADER.size} bytes)")
    (magic, total, n, n_strings, n_text, n_tuples, n_items,
     *totals) = _HEADER.unpack_from(view)
    if magic != MAGIC:
        raise RowGroupError(f"not a row group (starts {bytes(view[:4])!r})")
    if total != len(view):
        raise RowGroupError(f"row group holds {len(view)} bytes, its "
                            f"header says {total}")
    pos = _HEADER.size

    def take(typecode: str, count: int) -> array:
        nonlocal pos
        values = array(typecode)
        end = pos + count * values.itemsize
        if end > total:
            raise RowGroupError("row group sections overrun its length")
        values.frombytes(view[pos:end])
        if _BIG_ENDIAN:
            values.byteswap()
        pos = end
        return values

    def runs(lengths: array, values: Sequence) -> Iterator:
        """``values`` cut into consecutive runs of the given lengths."""
        ends = list(accumulate(lengths))
        if (ends[-1] if ends else 0) != len(values):
            raise RowGroupError("run lengths disagree with their values")
        return map(values.__getitem__, map(slice, chain((0,), ends), ends))

    lengths = take(_U32, n_strings)
    if pos + n_text > total:
        raise RowGroupError("row group sections overrun its length")
    text = str(view[pos:pos + n_text], "utf-8", "surrogatepass")
    pos += n_text
    strings: List[Optional[str]] = [None]
    strings.extend(runs(lengths, text))
    lengths = take(_U32, n_tuples)
    items = list(map(strings.__getitem__, take(_U32, n_items)))
    tuples = list(map(tuple, runs(lengths, items)))
    counts = take(_U32, len(OFFSETS) * n)
    sizes = [n, *totals]          # rows of family -1, then of each family
    batch = ShardBatch()
    for family, name in enumerate(OFFSETS):
        off = array("q", accumulate(counts[family * n:(family + 1) * n],
                                    initial=0))
        if off[-1] != totals[family]:
            raise RowGroupError(f"{name} counts disagree with the header")
        setattr(batch, name, off)
    lookup = {"s": strings.__getitem__, "t": tuples.__getitem__}
    for kind, columns in _BY_KIND.items():
        values = take(_TYPECODES[kind],
                      sum(sizes[family + 1] for _name, family in columns))
        start = 0
        get = lookup.get(kind)
        for name, family in columns:
            stop = start + sizes[family + 1]
            column = values[start:stop]
            setattr(batch, name,
                    column if get is None else list(map(get, column)))
            start = stop
    if pos != total:
        raise RowGroupError(f"row group has {total - pos} trailing bytes")
    return batch


# ---------------------------------------------------------------------------
# Streaming decode (storage → batches)
# ---------------------------------------------------------------------------

def iter_shard_batches(directory, *, shard: Optional[int] = None,
                       manifest: Optional[ShardManifest] = None
                       ) -> Iterator[ShardBatch]:
    """Stream a dataset directory as :class:`ShardBatch` es, one per row
    group.

    Validates like :func:`repro.crawler.storage.iter_logs`: each shard
    must hash to its manifest digest and hold its manifest count, or
    :class:`~repro.crawler.storage.ManifestError` names it.  ``shard``
    reads one shard, and ``manifest`` is the manifest the shards are
    checked against (by default the directory's own ``manifest.json``).
    Memory stays O(row group), not O(dataset).
    """
    from ..crawler.storage import _iter_batches
    yield from _iter_batches(directory, shard=shard, manifest=manifest)


# ---------------------------------------------------------------------------
# Per-site analysis kernels: the §4.4 detectors
# ---------------------------------------------------------------------------

def build_ownership_batch(batch: ShardBatch, i: int) -> SiteOwnership:
    """Who created each cookie of visit ``i``, and every value it held.

    The first creation wins: first-party ``Set-Cookie`` headers and
    script ``set``/``overwrite`` writes merge in timestamp order, and
    the first event to name a cookie makes its creator (the response
    domain for a header, the script's eTLD+1 for a write, the site for
    an inline script).  At equal timestamps headers come before writes,
    as in a real page load (the 10^6 index offset).  Deletions create
    nothing.  Values are kept in first-seen order, which breaks the
    exfiltration index's collision ties.
    """
    site = batch.sites[i]
    ownership = SiteOwnership(site=site)

    events: List[Tuple[float, int, int, bool]] = []
    h_lo = batch.h_off[i]
    h_first = batch.h_first
    h_ts = batch.h_ts
    for j in range(h_lo, batch.h_off[i + 1]):
        if h_first[j]:
            events.append((h_ts[j], j - h_lo, j, False))
    w_lo = batch.w_off[i]
    w_ts = batch.w_ts
    for j in range(w_lo, batch.w_off[i + 1]):
        events.append((w_ts[j], 1_000_000 + (j - w_lo), j, True))
    events.sort(key=lambda item: (item[0], item[1]))

    creators = ownership.creators
    apis = ownership.apis
    values = ownership.values
    for _ts, _idx, j, is_write in events:
        if is_write:
            if batch.w_kind[j] not in ("set", "overwrite"):
                continue
            name = batch.w_name[j]
            actor = batch.w_script_domain[j]
            creators.setdefault(name, actor if actor is not None else site)
            apis.setdefault(name, batch.w_api[j])
            value = batch.w_value[j]
        else:
            name = batch.h_name[j]
            creators.setdefault(name, batch.h_resp_domain[j])
            apis.setdefault(name, "http")
            value = batch.h_value[j]
        seen = values.setdefault(name, [])
        if value and value not in seen:
            seen.append(value)
    return ownership


def detect_manipulations_batch(batch: ShardBatch, i: int,
                               ownership: SiteOwnership
                               ) -> List[CrossDomainAction]:
    """Cross-domain overwrites and deletions of visit ``i``.

    Detection is name-keyed, like the paper's: a write to a cookie name
    that already exists is an overwrite even when it lands on another
    (domain, path) jar key.  In RFC 6265 terms changing the Path makes
    a sibling jar entry, but to every reader of ``document.cookie`` it
    shadows the original, so a shadowing ``set`` counts as an
    overwrite, its changed attributes read off the raw string.  Only
    writes whose actor differs from the cookie's creator are reported,
    each carrying the cookie's creation API (a name with a creator
    always has one: :func:`build_ownership_batch` sets both together).
    """
    site = batch.sites[i]
    actions: List[CrossDomainAction] = []
    created = {batch.h_name[j]
               for j in range(batch.h_off[i], batch.h_off[i + 1])
               if batch.h_first[j]}
    creators = ownership.creators
    apis = ownership.apis
    w_name = batch.w_name
    w_kind = batch.w_kind
    w_script_domain = batch.w_script_domain
    for j in range(batch.w_off[i], batch.w_off[i + 1]):
        name = w_name[j]
        write_kind = w_kind[j]
        actor = w_script_domain[j]
        if actor is None:
            actor = site
        kind: Optional[str] = None
        attrs = batch.w_attrs[j]
        if write_kind == "delete":
            kind = "delete"
        elif write_kind == "overwrite":
            kind = "overwrite"
        elif write_kind == "set" and name in created:
            kind = "overwrite"
            attrs = _attrs_from_raw(batch.w_raw[j])
        if write_kind in ("set", "overwrite"):
            created.add(name)
        creator = creators.get(name)
        if kind is None or creator is None or actor == creator:
            continue
        actions.append(CrossDomainAction(
            site=site, pair=CookiePair(name, creator), actor=actor,
            kind=kind, api_of_cookie=apis[name], attrs_changed=attrs))
    return actions


#: Hex digest length → hash.  Only a token of that many lowercase hex
#: characters can equal an MD5 (32) or SHA1 (40) form.
_DIGESTS = {32: md5_hex, 40: sha1_hex}
_LOWER_HEX = re.compile("[0-9a-f]+")

#: Query/body string → deduplicated candidate tokens.  Pure function of
#: the string, so sharing it process-wide is safe; endpoints repeat the
#: same payload shapes across sites and across repeated analyses.
_TOKEN_CACHE: Dict[str, Tuple[str, ...]] = {}
_TOKEN_CACHE_LIMIT = 1 << 16


def _tokens_of(text: str) -> Tuple[str, ...]:
    tokens = _TOKEN_CACHE.get(text)
    if tokens is None:
        if len(_TOKEN_CACHE) >= _TOKEN_CACHE_LIMIT:
            _TOKEN_CACHE.clear()
        tokens = _TOKEN_CACHE[text] = \
            tuple(dict.fromkeys(split_candidates_fast(text)))
    return tokens


def detect_exfiltration_batch(batch: ShardBatch, i: int,
                              ownership: SiteOwnership
                              ) -> List[ExfilEvent]:
    """Confirmed cross-domain exfiltration events of visit ``i``.

    Each candidate identifier of each cookie value takes a position
    ``k`` (names in insertion order, values in first-seen order, then
    the split).  A request token matches a candidate's plain, Base64,
    MD5 or SHA1 form; the MD5 or SHA1 table is built only for a token
    of 32 or 40 lowercase hex characters.  A token equal to forms of
    several candidates takes the smallest position, so on a collision
    the first pair wins (identical identifiers across cookies are
    overwhelmingly the same underlying id); which form matched is not
    kept, since one position names one pair.  Query then body tokens
    are looked up, deduplicated in occurrence order.  Only cross-domain
    events are reported: the paper treats a script sending its own
    cookie home (GA's ``_ga``) as authorized.  One event is kept per
    (pair, actor, destination).
    """
    site = batch.sites[i]
    creators = ownership.creators
    candidates: List[Tuple[str, CookiePair]] = []
    # Plain and Base64 form → first position k.  Filling one table in
    # k order keeps the smallest position per key.
    positions: Dict[str, int] = {}
    for name, values in ownership.values.items():
        creator = creators.get(name)
        if creator is None:
            continue
        pair = CookiePair(name, creator)
        for value in values:
            for candidate in split_candidates_fast(value):
                k = len(candidates)
                candidates.append((candidate, pair))
                positions.setdefault(candidate, k)
                positions.setdefault(b64(candidate), k)
    if not candidates:
        return []
    digests: Dict[int, Dict[str, int]] = {}

    events: List[ExfilEvent] = []
    seen: set = set()
    apis = ownership.apis
    lookup = positions.get
    q_script_domain = batch.q_script_domain
    q_query = batch.q_query
    q_body = batch.q_body
    for j in range(batch.q_off[i], batch.q_off[i + 1]):
        actor = q_script_domain[j]
        if actor is None:
            actor = site
        tokens = _tokens_of(q_query[j])
        body = q_body[j]
        if body:
            body_tokens = _tokens_of(body)
            if body_tokens:
                tokens = tuple(dict.fromkeys(tokens + body_tokens))
        for token in tokens:
            position = lookup(token)
            size = len(token)
            if size in _DIGESTS and _LOWER_HEX.fullmatch(token):
                table = digests.get(size)
                if table is None:
                    digest = _DIGESTS[size]
                    table = digests[size] = {}
                    for k, (candidate, _pair) in enumerate(candidates):
                        table.setdefault(digest(candidate), k)
                hashed = table.get(token)
                if hashed is not None and (position is None
                                           or hashed < position):
                    position = hashed
            if position is None:
                continue
            pair = candidates[position][1]
            if pair.creator == actor:
                continue
            key = (pair.name, pair.creator, actor, batch.q_domain[j])
            if key in seen:
                continue
            seen.add(key)
            events.append(ExfilEvent(
                site=site, pair=pair, actor=actor,
                destination=batch.q_domain[j],
                api_of_cookie=apis[pair.name]))
    return events
