"""Table and figure generators for the measurement study (§5).

:class:`Study` aggregates a crawl's visit logs once, then each
``table_*``/``figure_*``/``sec*`` method derives one of the paper's
results.  Rendering helpers return plain-text tables so benchmarks and
examples can print the same rows the paper reports.

Aggregation is incremental: a :class:`StudyAccumulator` ingests one
:class:`~repro.analysis.columnar.ShardBatch` at a time and accumulators
merge associatively, so a sharded crawl can be analysed shard-by-shard
(``Study.from_shards``) — or streamed from disk — and produce results
identical to a monolithic ``Study`` over the concatenated logs.  All
counters are integers and every ranking breaks ties lexicographically,
which makes the derived tables independent of ingestion order.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..records import API_COOKIE_STORE, API_DOCUMENT_COOKIE, VisitLog
from .attribution import CookiePair, CrossDomainAction
from .columnar import (ShardBatch, build_ownership_batch,
                       detect_exfiltration_batch, detect_manipulations_batch)
from .entities import default_entity_map
from .exfiltration import ExfilEvent
from .lists_data import default_combined_list

__all__ = ["Study", "StudyAccumulator", "Table1Row", "Table2Row",
           "RankedDomain", "Table5Row", "CONSENT_SIGNAL_COOKIES",
           "COUNTER_FIELDS"]

#: Cookie names that are consent signals *intended* to be read by third
#: parties (§5.4 flags ``us_privacy`` as such, not a tracking identifier).
CONSENT_SIGNAL_COOKIES: Set[str] = {"us_privacy", "usprivacy"}

#: The accumulator's integer counters: what ``StudyAccumulator.update``
#: sums and what a study snapshot saves.
COUNTER_FIELDS = (
    "n_logs", "sites_with_tp", "tp_script_total", "tp_scripts_seen",
    "tracking_hits", "tp_set_writes", "fp_set_writes", "doc_api_sites",
    "store_api_sites", "direct_total", "indirect_total", "indirect_seen",
    "indirect_tracking", "dom_mod_sites",
)


# ---------------------------------------------------------------------------
# Row shapes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Table1Row:
    """One row of Table 1."""

    cookie_type: str          # "document.cookie" | "cookieStore"
    action: str               # "exfiltration" | "overwriting" | "deleting"
    pct_websites: float
    pct_cookies: float
    n_cookies: int


@dataclass(frozen=True)
class Table2Row:
    """One row of Table 2 (top exfiltrated cookie pairs)."""

    cookie_name: str
    owner_domain: str
    n_exfiltrator_entities: int
    n_destination_entities: int
    top_exfiltrators: Tuple[str, ...]
    top_destinations: Tuple[str, ...]
    consent_signal: bool = False


@dataclass(frozen=True)
class RankedDomain:
    """One bar of Figure 2 / Figure 8."""

    domain: str
    n_cookies: int
    pct_of_all_cookies: float


@dataclass(frozen=True)
class Table5Row:
    """One row of Table 5 (most manipulated cookie pairs)."""

    manipulation: str         # "overwriting" | "deleting"
    cookie_name: str
    creator_domain: str
    n_manipulator_entities: int
    top_manipulators: Tuple[str, ...]


@dataclass
class _EntityActivity:
    """One entity's counters behind :meth:`Study.entity_drilldown`."""

    sites: Set[str] = field(default_factory=set)
    n_as_exfiltrator: int = 0
    exfiltrated: Counter = field(default_factory=Counter)   # "name@creator"
    destinations: Counter = field(default_factory=Counter)  # receiving entity
    n_as_destination: int = 0
    received: Counter = field(default_factory=Counter)      # "name@creator"
    manipulations: Counter = field(default_factory=Counter)  # kind


# ---------------------------------------------------------------------------
# Incremental aggregation
# ---------------------------------------------------------------------------

def _top(counter: Counter, k: int) -> List[Tuple[str, int]]:
    """``counter.most_common(k)`` with deterministic tie-breaking.

    ``Counter.most_common`` breaks ties by insertion order, which differs
    between a monolithic pass and a shard merge; sorting ties by key keeps
    every ranking identical under any ingestion order.
    """
    return sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


class StudyAccumulator:
    """Order-independent aggregation state behind :class:`Study`.

    ``add_shard_batch`` ingests a batch of visits; ``update`` merges
    another accumulator in.  Both operations are associative and
    commutative with respect to every result :class:`Study` derives, so
    shards can be aggregated in any order (or in parallel) and merged at
    the end.
    """

    def __init__(self):
        #: Every ingested visit's site: ``update`` refuses to merge two
        #: accumulators that share one.
        self.sites: Set[str] = set()
        self.exfil_events: List[ExfilEvent] = []
        self.manipulations: List[CrossDomainAction] = []
        #: Global unique cookie pairs by creation API (script-set only).
        self.pairs_by_api: Dict[str, Set[CookiePair]] = {
            API_DOCUMENT_COOKIE: set(), API_COOKIE_STORE: set()}
        # Integer counters feeding the §5 prevalence/usage sections;
        # COUNTER_FIELDS lists them.
        self.n_logs = 0
        self.sites_with_tp = 0
        self.tp_script_total = 0          # Σ n_third_party_scripts
        self.tp_scripts_seen = 0          # distinct third-party scripts
        self.tracking_hits = 0            # ... of which filter lists block
        self.tp_set_writes = 0
        self.fp_set_writes = 0
        self.doc_api_sites = 0
        self.store_api_sites = 0
        self.store_name_counts: Counter = Counter()
        self.direct_total = 0
        self.indirect_total = 0
        self.indirect_seen = 0            # indirect third-party scripts
        self.indirect_tracking = 0
        self.dom_mod_sites = 0

    # ------------------------------------------------------------------
    def add_shard_batch(self, batch: ShardBatch) -> "StudyAccumulator":
        """Ingest a whole :class:`~repro.analysis.columnar.ShardBatch`.

        Per visit: its exfiltration and manipulation events from the
        :mod:`~repro.analysis.columnar` kernels, then its §5 counters
        (:meth:`count_visit`).  The visit's ownership index lives only
        as long as the detectors need it.
        """
        pairs_by_api = self.pairs_by_api
        for i in range(len(batch)):
            ownership = build_ownership_batch(batch, i)
            self.sites.add(ownership.site)
            creators = ownership.creators
            for name, api in ownership.apis.items():
                if api in pairs_by_api:
                    pairs_by_api[api].add(CookiePair(name, creators[name]))
            self.exfil_events.extend(detect_exfiltration_batch(
                batch, i, ownership))
            self.manipulations.extend(detect_manipulations_batch(
                batch, i, ownership))
            self.count_visit(batch, i)
        return self

    def count_visit(self, batch: ShardBatch, i: int) -> None:
        """Add visit ``i`` of ``batch`` to the §5 counters, detecting
        nothing: all that the prevalence-by-bucket report needs."""
        site = batch.sites[i]
        should_block = default_combined_list().should_block_cached
        self.n_logs += 1
        n_tp = batch.n_tp[i]
        if n_tp > 0:
            self.sites_with_tp += 1
        self.tp_script_total += n_tp
        self.direct_total += batch.n_direct[i]
        self.indirect_total += batch.n_indirect[i]
        s_domain = batch.s_domain
        s_url = batch.s_url
        s_inclusion = batch.s_inclusion
        for j in range(batch.s_off[i], batch.s_off[i + 1]):
            domain = s_domain[j]
            if domain is None or domain == site:
                continue
            url = s_url[j]
            blocked = bool(url) and should_block(
                url, resource_type="script", page_domain=site,
                is_third_party=True)
            self.tp_scripts_seen += 1
            if blocked:
                self.tracking_hits += 1
            if s_inclusion[j] == "indirect":
                self.indirect_seen += 1
                if blocked:
                    self.indirect_tracking += 1
        w_lo, w_hi = batch.w_off[i], batch.w_off[i + 1]
        apis = set(batch.w_api[w_lo:w_hi])
        apis.update(batch.r_api[batch.r_off[i]:batch.r_off[i + 1]])
        if API_DOCUMENT_COOKIE in apis:
            self.doc_api_sites += 1
        if API_COOKIE_STORE in apis:
            self.store_api_sites += 1
        store_name_counts = self.store_name_counts
        w_kind = batch.w_kind
        w_api = batch.w_api
        w_name = batch.w_name
        w_script_domain = batch.w_script_domain
        for j in range(w_lo, w_hi):
            if w_kind[j] in ("set", "overwrite"):
                if w_api[j] == API_COOKIE_STORE:
                    store_name_counts[w_name[j]] += 1
                actor = w_script_domain[j]
                if actor is not None and actor != site:
                    self.tp_set_writes += 1
                else:
                    self.fp_set_writes += 1
        if any(batch.d_cross[batch.d_off[i]:batch.d_off[i + 1]]):
            self.dom_mod_sites += 1

    # ------------------------------------------------------------------
    def update(self, other: "StudyAccumulator") -> "StudyAccumulator":
        """Merge ``other`` into ``self`` (shards must not share sites)."""
        overlap = self.sites & other.sites
        if overlap:
            raise ValueError(
                f"overlapping shards: {sorted(overlap)[:3]} appear in both")
        self.sites |= other.sites
        self.exfil_events.extend(other.exfil_events)
        self.manipulations.extend(other.manipulations)
        for api, pairs in other.pairs_by_api.items():
            self.pairs_by_api[api] |= pairs
        self.store_name_counts += other.store_name_counts
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


# ---------------------------------------------------------------------------
# The study aggregator
# ---------------------------------------------------------------------------

class Study:
    """One-pass aggregation of a crawl, with per-result accessors.

    A built Study is read-only: once an accumulator is wrapped
    (``Study(logs)``, :meth:`from_accumulator`, a snapshot's
    ``study()``), nothing may add to or merge into it.  The ranked
    results rely on that.  Their tables — each event domain's entity,
    the full Table 2 and Figure 2 rankings and every entity's
    drill-down counters — are built on first use and kept, never
    invalidated, for the study's life; ``table2(top)``/``figure2(top)``
    slice them and :meth:`entity_drilldown` reads one entity's row.
    Handler threads share one Study, so two first uses may race; each
    table is a pure function of the accumulator, so both build equal
    tables.
    """

    def __init__(self, logs: Sequence[VisitLog] = (),
                 accumulator: Optional[StudyAccumulator] = None):
        if accumulator is None:
            accumulator = StudyAccumulator()
            accumulator.add_shard_batch(ShardBatch.from_logs(logs))
        self._acc = accumulator

    # Accumulator state doubles as the Study's public aggregate view.
    @property
    def accumulator(self) -> StudyAccumulator:
        return self._acc

    @property
    def exfil_events(self) -> List[ExfilEvent]:
        return self._acc.exfil_events

    @property
    def manipulations(self) -> List[CrossDomainAction]:
        return self._acc.manipulations

    @property
    def pairs_by_api(self) -> Dict[str, Set[CookiePair]]:
        return self._acc.pairs_by_api

    @property
    def n_sites(self) -> int:
        return self._acc.n_logs

    # ------------------------------------------------------------------
    @classmethod
    def from_accumulator(cls, accumulator: StudyAccumulator) -> "Study":
        """Wrap already-aggregated state."""
        return cls(accumulator=accumulator)

    @classmethod
    def from_shards(cls,
                    shards: Iterable[Union[Sequence[VisitLog],
                                           StudyAccumulator, ShardBatch]]
                    ) -> "Study":
        """Build a study from per-shard log lists, batches, or accumulators.

        The result is identical to ``Study(concatenated_logs)`` for every
        table/figure/section accessor, for *any* partition of the logs
        into shards and any shard order.  Shards must not share sites,
        and every accumulator was built with the one filter list.
        """
        acc = StudyAccumulator()
        for shard in shards:
            if not isinstance(shard, StudyAccumulator):
                if not isinstance(shard, ShardBatch):
                    shard = ShardBatch.from_logs(shard)
                shard = StudyAccumulator().add_shard_batch(shard)
            acc.update(shard)
        return cls.from_accumulator(acc)

    # ------------------------------------------------------------------
    def report(self) -> Dict[str, object]:
        """Every §5 result as one JSONable dict.

        The canonical "what this study found" payload: snapshot-resume
        and partial-refresh equivalence are proven on
        :meth:`report_bytes` of this dict, and ``repro analyze
        --report`` writes it to disk.
        """
        return {
            "n_sites": self.n_sites,
            "sec51_prevalence": self.sec51_prevalence(),
            "sec52_api_usage": self.sec52_api_usage(),
            "table1": [dataclasses.asdict(row) for row in self.table1()],
            "table2": [dataclasses.asdict(row) for row in self.table2()],
            "figure2": [dataclasses.asdict(row) for row in self.figure2()],
            "sec55_overwrite": self.sec55_overwrite_attributes(),
            "table5": [dataclasses.asdict(row) for row in self.table5()],
            "figure8": {key: [dataclasses.asdict(row) for row in rows]
                        for key, rows in self.figure8().items()},
            "sec56_inclusion": self.sec56_inclusion(),
            "sec8_dom_pilot": self.sec8_dom_pilot(),
        }

    def report_bytes(self) -> bytes:
        """:meth:`report` rendered canonically — equal studies, equal
        bytes, the equivalence currency of the snapshot test suite."""
        return json.dumps(self.report(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    # ------------------------------------------------------------------
    # §5.1 — prevalence of third-party scripts
    # ------------------------------------------------------------------
    def sec51_prevalence(self) -> Dict[str, float]:
        acc = self._acc
        n = max(acc.n_logs, 1)
        return {
            "pct_sites_with_third_party": 100.0 * acc.sites_with_tp / n,
            "avg_third_party_scripts": acc.tp_script_total / n,
            "pct_tracking_scripts": (100.0 * acc.tracking_hits
                                     / max(acc.tp_scripts_seen, 1)),
            "avg_cookies_set_by_third_party": acc.tp_set_writes / n,
            "avg_cookies_set_by_first_party": acc.fp_set_writes / n,
        }

    # ------------------------------------------------------------------
    # §5.2 — cookie API usage
    # ------------------------------------------------------------------
    def sec52_api_usage(self) -> Dict[str, object]:
        acc = self._acc
        n = max(acc.n_logs, 1)
        store_names = acc.store_name_counts
        doc_pairs = self.pairs_by_api[API_DOCUMENT_COOKIE]
        store_pairs = self.pairs_by_api[API_COOKIE_STORE]
        top_two = sum(count for _name, count in _top(store_names, 2))
        return {
            "pct_sites_document_cookie": 100.0 * acc.doc_api_sites / n,
            "pct_sites_cookie_store": 100.0 * acc.store_api_sites / n,
            "unique_pairs_document_cookie": len(doc_pairs),
            "unique_pairs_cookie_store": len(store_pairs),
            "unique_cookie_store_names": len(store_names),
            "top_cookie_store_names": _top(store_names, 5),
            "pct_top_two_cookie_store": (100.0 * top_two
                                         / max(sum(store_names.values()), 1)),
        }

    # ------------------------------------------------------------------
    # Table 1 — prevalence of cross-domain actions
    # ------------------------------------------------------------------
    def table1(self) -> List[Table1Row]:
        n = max(self.n_sites, 1)
        rows: List[Table1Row] = []
        for api in (API_DOCUMENT_COOKIE, API_COOKIE_STORE):
            total_pairs = max(len(self.pairs_by_api[api]), 1)
            exfil_sites: Set[str] = set()
            exfil_pairs: Set[CookiePair] = set()
            for event in self.exfil_events:
                if event.api_of_cookie == api:
                    exfil_sites.add(event.site)
                    exfil_pairs.add(event.pair)
            rows.append(Table1Row(api, "exfiltration",
                                  100.0 * len(exfil_sites) / n,
                                  100.0 * len(exfil_pairs) / total_pairs,
                                  len(exfil_pairs)))
            for action in ("overwrite", "delete"):
                hit_sites: Set[str] = set()
                hit_pairs: Set[CookiePair] = set()
                for manipulation in self.manipulations:
                    if manipulation.kind == action \
                            and manipulation.api_of_cookie == api:
                        hit_sites.add(manipulation.site)
                        hit_pairs.add(manipulation.pair)
                label = "overwriting" if action == "overwrite" else "deleting"
                rows.append(Table1Row(api, label,
                                      100.0 * len(hit_sites) / n,
                                      100.0 * len(hit_pairs) / total_pairs,
                                      len(hit_pairs)))
        return rows

    # ------------------------------------------------------------------
    # Entity attribution — one resolution per distinct domain
    # ------------------------------------------------------------------
    @cached_property
    def _entity_by_domain(self) -> Dict[Optional[str], Optional[str]]:
        """Each distinct creator, actor and destination domain of the
        study's events, resolved to its entity once."""
        domains: Set[Optional[str]] = set()
        for event in self.exfil_events:
            domains.update((event.pair.creator, event.actor,
                            event.destination))
        for manipulation in self.manipulations:
            domains.update((manipulation.pair.creator, manipulation.actor))
        entity_of = default_entity_map().entity_of
        return {domain: entity_of(domain) for domain in domains}

    # ------------------------------------------------------------------
    # Table 2 — most exfiltrated cookies
    # ------------------------------------------------------------------
    def table2(self, top: int = 20) -> List[Table2Row]:
        return self._table2[:top]

    @cached_property
    def _table2(self) -> List[Table2Row]:
        """Every exfiltrated pair with a destination entity, ranked."""
        entity = self._entity_by_domain
        exfiltrators: Dict[CookiePair, Counter] = defaultdict(Counter)
        destinations: Dict[CookiePair, Counter] = defaultdict(Counter)
        for event in self.exfil_events:
            pair = event.pair
            owner_entity = entity[pair.creator]
            actor_entity = entity[event.actor]
            dest_entity = entity[event.destination]
            if actor_entity is not None and actor_entity != owner_entity:
                exfiltrators[pair][actor_entity] += 1
            if dest_entity is not None and dest_entity != owner_entity:
                destinations[pair][dest_entity] += 1
        ranked = sorted(destinations,
                        key=lambda pair: (-len(destinations[pair]),
                                          -len(exfiltrators[pair]),
                                          pair.name, pair.creator))
        return [Table2Row(
            cookie_name=pair.name,
            owner_domain=pair.creator,
            n_exfiltrator_entities=len(exfiltrators[pair]),
            n_destination_entities=len(destinations[pair]),
            top_exfiltrators=tuple(
                name for name, _ in _top(exfiltrators[pair], 3)),
            top_destinations=tuple(
                name for name, _ in _top(destinations[pair], 3)),
            consent_signal=pair.name in CONSENT_SIGNAL_COOKIES,
        ) for pair in ranked]

    # ------------------------------------------------------------------
    # Figure 2 — top exfiltrator script domains
    # ------------------------------------------------------------------
    def figure2(self, top: int = 20) -> List[RankedDomain]:
        return self._figure2[:top]

    @cached_property
    def _figure2(self) -> List[RankedDomain]:
        """Every exfiltrating script domain, ranked."""
        per_domain: Dict[str, Set[CookiePair]] = defaultdict(set)
        for event in self.exfil_events:
            per_domain[event.actor].add(event.pair)
        total = max(len(self.pairs_by_api[API_DOCUMENT_COOKIE])
                    + len(self.pairs_by_api[API_COOKIE_STORE]), 1)
        ranked = sorted(per_domain.items(),
                        key=lambda kv: (-len(kv[1]), kv[0]))
        return [RankedDomain(domain, len(pairs), 100.0 * len(pairs) / total)
                for domain, pairs in ranked]

    # ------------------------------------------------------------------
    # Entity drill-down — everything one entity does
    # ------------------------------------------------------------------
    def entity_drilldown(self, name: str) -> Dict[str, object]:
        """Exfiltration entity ``name`` performs or receives, the cookies
        involved and its manipulations; all zeros for a name that
        appears nowhere.  The serve tier's ``entity`` report."""
        activity = self._entity_activity.get(name) or _EntityActivity()
        return {
            "entity": name,
            "n_sites": len(activity.sites),
            "as_exfiltrator": {
                "n_events": activity.n_as_exfiltrator,
                "top_cookies": _top(activity.exfiltrated, 10),
                "top_destination_entities": _top(activity.destinations, 10),
            },
            "as_destination": {
                "n_events": activity.n_as_destination,
                "top_cookies": _top(activity.received, 10),
            },
            "manipulations": {kind: activity.manipulations[kind]
                              for kind in sorted(activity.manipulations)},
        }

    @cached_property
    def _entity_activity(self) -> Dict[str, _EntityActivity]:
        """Every entity's drill-down counters, from one pass."""
        entity = self._entity_by_domain
        activity: Dict[str, _EntityActivity] = defaultdict(_EntityActivity)
        for event in self.exfil_events:
            actor_entity = entity[event.actor]
            dest_entity = entity[event.destination]
            cookie = f"{event.pair.name}@{event.pair.creator}"
            if actor_entity is not None:
                actor = activity[actor_entity]
                actor.n_as_exfiltrator += 1
                actor.sites.add(event.site)
                actor.exfiltrated[cookie] += 1
                if dest_entity is not None:
                    actor.destinations[dest_entity] += 1
            if dest_entity is not None:
                dest = activity[dest_entity]
                dest.n_as_destination += 1
                dest.sites.add(event.site)
                dest.received[cookie] += 1
        for manipulation in self.manipulations:
            actor_entity = entity[manipulation.actor]
            if actor_entity is not None:
                actor = activity[actor_entity]
                actor.manipulations[manipulation.kind] += 1
                actor.sites.add(manipulation.site)
        # A plain dict: looking up an absent name must not insert one.
        return dict(activity)

    # ------------------------------------------------------------------
    # §5.5 — which attributes overwrites change
    # ------------------------------------------------------------------
    def sec55_overwrite_attributes(self) -> Dict[str, float]:
        overwrites = [m for m in self.manipulations if m.kind == "overwrite"]
        n = max(len(overwrites), 1)
        counts = Counter()
        for manipulation in overwrites:
            for attr in manipulation.attrs_changed:
                counts[attr] += 1
        return {attr: 100.0 * counts[attr] / n
                for attr in ("value", "expires", "domain", "path")}

    # ------------------------------------------------------------------
    # Table 5 — most manipulated cookies
    # ------------------------------------------------------------------
    def table5(self, top: int = 10) -> List[Table5Row]:
        entity = self._entity_by_domain
        rows: List[Table5Row] = []
        for action, label in (("overwrite", "overwriting"),
                              ("delete", "deleting")):
            per_pair: Dict[CookiePair, Set[str]] = defaultdict(set)
            freq: Dict[CookiePair, Counter] = defaultdict(Counter)
            for manipulation in self.manipulations:
                if manipulation.kind != action:
                    continue
                owner_entity = entity[manipulation.pair.creator]
                actor_entity = entity[manipulation.actor]
                if actor_entity is None or actor_entity == owner_entity:
                    continue
                per_pair[manipulation.pair].add(actor_entity)
                freq[manipulation.pair][actor_entity] += 1
            ranked = sorted(per_pair.keys(),
                            key=lambda pair: (-len(per_pair[pair]),
                                              pair.name, pair.creator))
            for pair in ranked[:top]:
                rows.append(Table5Row(
                    manipulation=label,
                    cookie_name=pair.name,
                    creator_domain=pair.creator,
                    n_manipulator_entities=len(per_pair[pair]),
                    top_manipulators=tuple(
                        entity for entity, _ in _top(freq[pair], 3)),
                ))
        return rows

    # ------------------------------------------------------------------
    # Figure 8 — top manipulator domains
    # ------------------------------------------------------------------
    def figure8(self, top: int = 20) -> Dict[str, List[RankedDomain]]:
        total = max(len(self.pairs_by_api[API_DOCUMENT_COOKIE])
                    + len(self.pairs_by_api[API_COOKIE_STORE]), 1)
        out: Dict[str, List[RankedDomain]] = {}
        for action, label in (("overwrite", "overwriting"),
                              ("delete", "deleting")):
            per_domain: Dict[str, Set[CookiePair]] = defaultdict(set)
            for manipulation in self.manipulations:
                if manipulation.kind == action:
                    per_domain[manipulation.actor].add(manipulation.pair)
            ranked = sorted(per_domain.items(),
                            key=lambda kv: (-len(kv[1]), kv[0]))[:top]
            out[label] = [RankedDomain(domain, len(pairs),
                                       100.0 * len(pairs) / total)
                          for domain, pairs in ranked]
        return out

    # ------------------------------------------------------------------
    # §5.6 — inclusion paths
    # ------------------------------------------------------------------
    def sec56_inclusion(self) -> Dict[str, float]:
        acc = self._acc
        direct = acc.direct_total
        indirect = acc.indirect_total
        n = max(acc.n_logs, 1)
        return {
            "pct_sites_with_third_party": 100.0 * acc.sites_with_tp / n,
            "indirect_to_direct_ratio": indirect / max(direct, 1),
            "pct_indirect_tracking": (100.0 * acc.indirect_tracking
                                      / max(acc.indirect_seen, 1)),
            "pct_direct_of_third_party": (100.0 * direct
                                          / max(direct + indirect, 1)),
        }

    # ------------------------------------------------------------------
    # §8 — DOM-modification pilot
    # ------------------------------------------------------------------
    def sec8_dom_pilot(self) -> Dict[str, float]:
        acc = self._acc
        n = max(acc.n_logs, 1)
        return {
            "pct_sites_cross_domain_dom_modification":
                100.0 * acc.dom_mod_sites / n,
        }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_table1(rows: List[Table1Row]) -> str:
    lines = [f"{'cookie type':<18} {'action':<14} {'% websites':>10} "
             f"{'% cookies':>10} {'(No.)':>8}"]
    for row in rows:
        lines.append(f"{row.cookie_type:<18} {row.action:<14} "
                     f"{row.pct_websites:>10.1f} {row.pct_cookies:>10.1f} "
                     f"{row.n_cookies:>8}")
    return "\n".join(lines)


def render_table2(rows: List[Table2Row]) -> str:
    lines = [f"{'cookie':<28} {'owner domain':<26} {'#exf':>5} {'#dst':>5}  "
             f"{'top exfiltrators':<42} top destinations"]
    for row in rows:
        name = row.cookie_name + (" [consent]" if row.consent_signal else "")
        lines.append(f"{name:<28} {row.owner_domain:<26} "
                     f"{row.n_exfiltrator_entities:>5} "
                     f"{row.n_destination_entities:>5}  "
                     f"{', '.join(row.top_exfiltrators):<42} "
                     f"{', '.join(row.top_destinations)}")
    return "\n".join(lines)


def render_ranked(rows: List[RankedDomain], title: str) -> str:
    lines = [title]
    for row in rows:
        lines.append(f"  {row.domain:<34} {row.n_cookies:>6} "
                     f"({row.pct_of_all_cookies:.2f}%)")
    return "\n".join(lines)


def render_table5(rows: List[Table5Row]) -> str:
    lines = [f"{'type':<12} {'cookie':<24} {'creator':<26} {'#ent':>5}  "
             f"top manipulator entities"]
    for row in rows:
        lines.append(f"{row.manipulation:<12} {row.cookie_name:<24} "
                     f"{row.creator_domain:<26} "
                     f"{row.n_manipulator_entities:>5}  "
                     f"{', '.join(row.top_manipulators)}")
    return "\n".join(lines)
