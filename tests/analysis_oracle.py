"""The §4.4 analysis as loops over one visit log's events: the test oracle.

Production runs the per-site kernels of :mod:`repro.analysis.columnar`
(``build_ownership_batch``, ``detect_manipulations_batch``,
``detect_exfiltration_batch``) over :class:`ShardBatch` columns.  This
module keeps the same rules written against
:class:`~repro.records.VisitLog` objects, one log at a time, plus the
per-log accumulator step, so tests can demand identical detections and
byte-identical ``Study`` reports from both.  Nothing in ``src/`` calls
it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.analysis.attribution import (CookiePair, CrossDomainAction,
                                        SiteOwnership, _attrs_from_raw)
from repro.analysis.exfiltration import ExfilEvent, split_candidates_fast
from repro.analysis.lists_data import default_combined_list
from repro.analysis.reports import Study, StudyAccumulator
from repro.encoding import encoded_forms
from repro.records import API_COOKIE_STORE, API_DOCUMENT_COOKIE, VisitLog


def _actor(script_domain, site: str) -> str:
    """Acting eTLD+1; inline scripts resolve to the site (first-party)."""
    return script_domain if script_domain is not None else site


def build_ownership(log: VisitLog) -> SiteOwnership:
    """First creation wins, merging first-party headers and script
    writes in timestamp order (ties: headers first)."""
    ownership = SiteOwnership(site=log.site)
    events: List[Tuple[float, int, str, object]] = []
    for index, header in enumerate(log.header_cookies):
        if header.first_party:
            events.append((header.timestamp, index, "http", header))
    for index, write in enumerate(log.cookie_writes):
        events.append((write.timestamp, 1_000_000 + index, "script", write))
    events.sort(key=lambda item: (item[0], item[1]))

    for _ts, _idx, channel, event in events:
        if channel == "http":
            creator, api = event.response_domain, "http"
        elif event.kind in ("set", "overwrite"):
            creator, api = _actor(event.script_domain, log.site), event.api
        else:
            continue
        name = event.cookie_name
        ownership.creators.setdefault(name, creator)
        ownership.apis.setdefault(name, api)
        values = ownership.values.setdefault(name, [])
        if event.cookie_value and event.cookie_value not in values:
            values.append(event.cookie_value)
    return ownership


def detect_manipulations(log: VisitLog) -> List[CrossDomainAction]:
    """Cross-domain overwrites and deletions, name-keyed: a ``set`` on
    a name already created is a shadowing overwrite."""
    ownership = build_ownership(log)
    actions: List[CrossDomainAction] = []
    created: Set[str] = {header.cookie_name for header in log.header_cookies
                         if header.first_party}
    for write in log.cookie_writes:
        name = write.cookie_name
        creator = ownership.creators.get(name)
        actor = _actor(write.script_domain, log.site)
        kind = None
        attrs = write.attrs_changed
        if write.kind == "delete":
            kind = "delete"
        elif write.kind == "overwrite":
            kind = "overwrite"
        elif write.kind == "set" and name in created:
            kind = "overwrite"
            attrs = _attrs_from_raw(write.raw)
        if write.kind in ("set", "overwrite"):
            created.add(name)
        if kind is None or creator is None or actor == creator:
            continue
        actions.append(CrossDomainAction(
            site=log.site, pair=CookiePair(name, creator), actor=actor,
            kind=kind, api_of_cookie=ownership.apis[name],
            attrs_changed=attrs))
    return actions


def detect_exfiltration(log: VisitLog) -> List[ExfilEvent]:
    """Cross-domain exfiltration events: request tokens (query, then
    body, deduplicated in occurrence order) looked up in an index of
    every candidate's four encoded forms → pair, first (candidate,
    form) winning."""
    ownership = build_ownership(log)
    index: Dict[str, CookiePair] = {}
    for name, values in ownership.values.items():
        pair = CookiePair(name, ownership.creators[name])
        for value in values:
            for candidate in split_candidates_fast(value):
                for form in encoded_forms(candidate):
                    index.setdefault(form, pair)

    events: List[ExfilEvent] = []
    seen: Set[Tuple[str, str, str, str]] = set()
    for request in log.requests:
        actor = _actor(request.script_domain, log.site)
        tokens = dict.fromkeys(split_candidates_fast(request.query))
        if request.body:
            tokens.update(dict.fromkeys(split_candidates_fast(request.body)))
        for token in tokens:
            pair = index.get(token)
            if pair is None:
                continue
            if pair.creator == actor:
                continue
            key = (pair.name, pair.creator, actor, request.domain)
            if key in seen:
                continue
            seen.add(key)
            events.append(ExfilEvent(
                site=log.site, pair=pair, actor=actor,
                destination=request.domain,
                api_of_cookie=ownership.apis[pair.name]))
    return events


def add(acc: StudyAccumulator, log: VisitLog) -> StudyAccumulator:
    """Ingest one visit log into ``acc``, as ``add_shard_batch`` does
    for every row of a batch."""
    ownership = build_ownership(log)
    acc.sites.add(log.site)
    for name, api in ownership.apis.items():
        if api in acc.pairs_by_api:
            acc.pairs_by_api[api].add(
                CookiePair(name, ownership.creators[name]))
    acc.exfil_events.extend(detect_exfiltration(log))
    acc.manipulations.extend(detect_manipulations(log))

    acc.n_logs += 1
    if log.n_third_party_scripts > 0:
        acc.sites_with_tp += 1
    acc.tp_script_total += log.n_third_party_scripts
    acc.direct_total += log.n_direct_third_party
    acc.indirect_total += log.n_indirect_third_party
    should_block = default_combined_list().should_block_cached
    for script in log.scripts:
        if script.domain is None or script.domain == log.site:
            continue
        blocked = bool(script.url) and should_block(
            script.url, resource_type="script", page_domain=log.site,
            is_third_party=True)
        acc.tp_scripts_seen += 1
        if blocked:
            acc.tracking_hits += 1
        if script.inclusion == "indirect":
            acc.indirect_seen += 1
            if blocked:
                acc.indirect_tracking += 1
    apis = {w.api for w in log.cookie_writes} \
        | {r.api for r in log.cookie_reads}
    if API_DOCUMENT_COOKIE in apis:
        acc.doc_api_sites += 1
    if API_COOKIE_STORE in apis:
        acc.store_api_sites += 1
    for write in log.cookie_writes:
        if write.kind not in ("set", "overwrite"):
            continue
        if write.api == API_COOKIE_STORE:
            acc.store_name_counts[write.cookie_name] += 1
        if write.script_domain is not None \
                and write.script_domain != log.site:
            acc.tp_set_writes += 1
        else:
            acc.fp_set_writes += 1
    if any(m.cross_script for m in log.dom_mutations):
        acc.dom_mod_sites += 1
    return acc


def object_path_study(logs: Iterable[VisitLog]) -> Study:
    """A ``Study`` built one :func:`add` per log."""
    acc = StudyAccumulator()
    for log in logs:
        add(acc, log)
    return Study.from_accumulator(acc)
