"""The ranked reports as loops over events: the test oracle.

:class:`~repro.analysis.reports.Study` builds Table 2, Figure 2 and the
entity drill-down as tables, once per study, and resolves each event
domain's entity once.  This module keeps the per-request loops those
tables replaced — every call walks every event and resolves entities
through ``EntityMap.entity_of`` — so tests can demand identical rows,
payloads and report bytes.  Nothing in ``src/`` calls it.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter, defaultdict
from typing import Dict, List, Set

from repro.analysis.attribution import CookiePair
from repro.analysis.entities import default_entity_map
from repro.analysis.reports import (CONSENT_SIGNAL_COOKIES, RankedDomain,
                                    Study, Table2Row, Table5Row, _top)
from repro.records import API_COOKIE_STORE, API_DOCUMENT_COOKIE


def table2(study: Study, top: int = 20) -> List[Table2Row]:
    per_pair_exfiltrators: Dict[CookiePair, Set[str]] = defaultdict(set)
    per_pair_destinations: Dict[CookiePair, Set[str]] = defaultdict(set)
    exfiltrator_freq: Dict[CookiePair, Counter] = defaultdict(Counter)
    destination_freq: Dict[CookiePair, Counter] = defaultdict(Counter)
    entity_of = default_entity_map().entity_of
    for event in study.exfil_events:
        owner_entity = entity_of(event.pair.creator)
        actor_entity = entity_of(event.actor)
        dest_entity = entity_of(event.destination)
        if actor_entity is not None and actor_entity != owner_entity:
            per_pair_exfiltrators[event.pair].add(actor_entity)
            exfiltrator_freq[event.pair][actor_entity] += 1
        if dest_entity is not None and dest_entity != owner_entity:
            per_pair_destinations[event.pair].add(dest_entity)
            destination_freq[event.pair][dest_entity] += 1
    ranked = sorted(per_pair_destinations.keys(),
                    key=lambda pair: (-len(per_pair_destinations[pair]),
                                      -len(per_pair_exfiltrators[pair]),
                                      pair.name, pair.creator))
    rows: List[Table2Row] = []
    for pair in ranked[:top]:
        rows.append(Table2Row(
            cookie_name=pair.name,
            owner_domain=pair.creator,
            n_exfiltrator_entities=len(per_pair_exfiltrators[pair]),
            n_destination_entities=len(per_pair_destinations[pair]),
            top_exfiltrators=tuple(
                entity for entity, _ in
                _top(exfiltrator_freq[pair], 3)),
            top_destinations=tuple(
                entity for entity, _ in
                _top(destination_freq[pair], 3)),
            consent_signal=pair.name in CONSENT_SIGNAL_COOKIES,
        ))
    return rows


def figure2(study: Study, top: int = 20) -> List[RankedDomain]:
    per_domain: Dict[str, Set[CookiePair]] = defaultdict(set)
    for event in study.exfil_events:
        per_domain[event.actor].add(event.pair)
    total = max(len(study.pairs_by_api[API_DOCUMENT_COOKIE])
                + len(study.pairs_by_api[API_COOKIE_STORE]), 1)
    ranked = sorted(per_domain.items(),
                    key=lambda kv: (-len(kv[1]), kv[0]))[:top]
    return [RankedDomain(domain, len(pairs), 100.0 * len(pairs) / total)
            for domain, pairs in ranked]


def table5(study: Study, top: int = 10) -> List[Table5Row]:
    rows: List[Table5Row] = []
    entity_of = default_entity_map().entity_of
    for action, label in (("overwrite", "overwriting"),
                          ("delete", "deleting")):
        per_pair: Dict[CookiePair, Set[str]] = defaultdict(set)
        freq: Dict[CookiePair, Counter] = defaultdict(Counter)
        for manipulation in study.manipulations:
            if manipulation.kind != action:
                continue
            owner_entity = entity_of(manipulation.pair.creator)
            actor_entity = entity_of(manipulation.actor)
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


def entity(study: Study, name: str) -> Dict[str, object]:
    """The ``entity`` report: everything one entity does across the study."""
    entities = default_entity_map()
    sites = set()
    exfil_cookies: Counter = Counter()
    destinations: Counter = Counter()
    received: Counter = Counter()
    n_as_exfiltrator = 0
    n_as_destination = 0
    for event in study.exfil_events:
        actor_entity = entities.entity_of(event.actor)
        dest_entity = entities.entity_of(event.destination)
        if actor_entity == name:
            n_as_exfiltrator += 1
            sites.add(event.site)
            exfil_cookies[f"{event.pair.name}@{event.pair.creator}"] += 1
            if dest_entity is not None:
                destinations[dest_entity] += 1
        if dest_entity == name:
            n_as_destination += 1
            sites.add(event.site)
            received[f"{event.pair.name}@{event.pair.creator}"] += 1
    manipulations = Counter()
    for manipulation in study.manipulations:
        if entities.entity_of(manipulation.actor) == name:
            manipulations[manipulation.kind] += 1
            sites.add(manipulation.site)
    return {
        "entity": name,
        "n_sites": len(sites),
        "as_exfiltrator": {
            "n_events": n_as_exfiltrator,
            "top_cookies": _top(exfil_cookies, 10),
            "top_destination_entities": _top(destinations, 10),
        },
        "as_destination": {
            "n_events": n_as_destination,
            "top_cookies": _top(received, 10),
        },
        "manipulations": {kind: manipulations[kind]
                          for kind in sorted(manipulations)},
    }


def report_bytes(study: Study) -> bytes:
    """``Study.report_bytes()`` with Table 2, Figure 2 and Table 5 taken
    from the loops above; every other section is the study's own."""
    report = study.report()
    report["table2"] = [dataclasses.asdict(row) for row in table2(study)]
    report["figure2"] = [dataclasses.asdict(row) for row in figure2(study)]
    report["table5"] = [dataclasses.asdict(row) for row in table5(study)]
    return json.dumps(report, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
