"""Parameterized report queries over a study (the catalog's query layer).

Each :class:`ReportQuery` names a derived result of the §5 measurement
study, declares its parameters (type, default, bounds), and computes a
JSON-able payload from a :class:`~repro.serve.catalog.StudyEntry`.  The
registry is what ``GET /studies/<id>/reports`` lists and what
``GET /studies/<id>/reports/<name>?...`` dispatches through.

Parameter parsing is strict by design: unknown names and out-of-range
values are a 400, never silently dropped — the parsed-and-defaulted
parameter dict is part of the resource's canonical identity (and so of
its ETag), and a parameter the server ignored but the cache key kept
would fragment caches for no reason.

Every query is deterministic and only renders: results are read from
per-study tables that the entry's :class:`~repro.analysis.reports.Study`
builds once, on first use (the full Table 2 and Figure 2 rankings, the
per-entity drill-down counters), with the same lexicographic
tie-breaking the paper tables use, so two replicas over the same shard
bytes serve byte-identical report JSON.  No result is cached per
request: a ``limit`` or ``name`` never asked before reads the same
tables as a repeated one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from .catalog import StudyEntry

__all__ = ["Param", "QueryError", "ReportQuery", "get_query", "iter_queries",
           "parse_params"]


class QueryError(ValueError):
    """A report query was called with bad parameters (HTTP 400)."""


@dataclass(frozen=True)
class Param:
    """One declared query parameter."""

    name: str
    kind: type                       # int | str
    default: Optional[object] = None  # None + required=True => must be given
    required: bool = False
    minimum: Optional[int] = None
    maximum: Optional[int] = None

    def parse(self, raw: Optional[str]) -> object:
        if raw is None:
            if self.required:
                raise QueryError(f"missing required parameter {self.name!r}")
            return self.default
        if self.kind is int:
            try:
                value = int(raw)
            except ValueError:
                raise QueryError(
                    f"parameter {self.name!r} expects an integer, "
                    f"got {raw!r}") from None
            if self.minimum is not None and value < self.minimum:
                raise QueryError(
                    f"parameter {self.name!r} must be >= {self.minimum}")
            if self.maximum is not None and value > self.maximum:
                raise QueryError(
                    f"parameter {self.name!r} must be <= {self.maximum}")
            return value
        return str(raw)

    def describe(self) -> Dict:
        out: Dict = {"type": self.kind.__name__, "required": self.required}
        if not self.required:
            out["default"] = self.default
        if self.minimum is not None:
            out["minimum"] = self.minimum
        if self.maximum is not None:
            out["maximum"] = self.maximum
        return out


@dataclass(frozen=True)
class ReportQuery:
    """A named, parameterized report over one study."""

    name: str
    description: str
    run: Callable[[StudyEntry, Dict], object]
    params: Tuple[Param, ...] = ()

    def describe(self) -> Dict:
        return {
            "name": self.name,
            "description": self.description,
            "params": {p.name: p.describe() for p in self.params},
        }


def parse_params(query: ReportQuery,
                 raw: Dict[str, List[str]]) -> Dict[str, object]:
    """Validate and default a parsed query string for ``query``.

    ``raw`` is ``urllib.parse.parse_qs`` output.  Unknown parameters and
    repeated values raise :class:`QueryError` — the canonical parameter
    dict this returns is part of the resource's ETag identity.
    """
    known = {p.name: p for p in query.params}
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise QueryError(
            f"unknown parameter(s) {', '.join(map(repr, unknown))} "
            f"(accepted: {sorted(known) or 'none'})")
    parsed: Dict[str, object] = {}
    for name, param in known.items():
        values = raw.get(name, [])
        if len(values) > 1:
            raise QueryError(f"parameter {name!r} given more than once")
        parsed[name] = param.parse(values[0] if values else None)
    return parsed


# ---------------------------------------------------------------------------
# The built-in queries
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, ReportQuery] = {}


def _register(query: ReportQuery) -> ReportQuery:
    if query.name in _REGISTRY:
        raise ValueError(f"duplicate report query {query.name!r}")
    _REGISTRY[query.name] = query
    return query


def iter_queries() -> List[ReportQuery]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_query(name: str) -> ReportQuery:
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown report {name!r} (known: {known})")
    return _REGISTRY[name]


def _run_top_exfiltrators(entry: StudyEntry, params: Dict) -> object:
    rows = entry.study().figure2(top=params["limit"])
    return [{"domain": row.domain, "n_cookies": row.n_cookies,
             "pct_of_all_cookies": row.pct_of_all_cookies} for row in rows]


_register(ReportQuery(
    name="top-exfiltrators",
    description="script domains exfiltrating the most first-party cookie "
                "pairs (Figure 2)",
    params=(Param("limit", int, default=20, minimum=1, maximum=500),),
    run=_run_top_exfiltrators,
))


def _run_top_exfiltrated(entry: StudyEntry, params: Dict) -> object:
    rows = entry.study().table2(top=params["limit"])
    return [{"cookie_name": row.cookie_name,
             "owner_domain": row.owner_domain,
             "n_exfiltrator_entities": row.n_exfiltrator_entities,
             "n_destination_entities": row.n_destination_entities,
             "top_exfiltrators": list(row.top_exfiltrators),
             "top_destinations": list(row.top_destinations),
             "consent_signal": row.consent_signal} for row in rows]


_register(ReportQuery(
    name="top-exfiltrated",
    description="most exfiltrated cookie pairs with their exfiltrator and "
                "destination entities (Table 2)",
    params=(Param("limit", int, default=20, minimum=1, maximum=500),),
    run=_run_top_exfiltrated,
))


def _run_prevalence(entry: StudyEntry, params: Dict) -> object:
    return entry.prevalence_by_bucket(params["bucket"])


_register(ReportQuery(
    name="prevalence",
    description="§5.1 third-party/tracking prevalence aggregated per rank "
                "bucket (mergeable-accumulator decomposition)",
    params=(Param("bucket", int, default=1000, minimum=1,
                  maximum=10_000_000),),
    run=_run_prevalence,
))


def _run_entity(entry: StudyEntry, params: Dict) -> object:
    return entry.study().entity_drilldown(params["name"])


_register(ReportQuery(
    name="entity",
    description="drill-down for one entity: exfiltration it performs or "
                "receives and the cookies involved",
    params=(Param("name", str, required=True),),
    run=_run_entity,
))


def _run_summary(entry: StudyEntry, params: Dict) -> object:
    study = entry.study()
    return {
        "n_sites": study.n_sites,
        "sec51_prevalence": study.sec51_prevalence(),
        "sec52_api_usage": study.sec52_api_usage(),
        "sec56_inclusion": study.sec56_inclusion(),
        "sec8_dom_pilot": study.sec8_dom_pilot(),
    }


_register(ReportQuery(
    name="summary",
    description="headline §5 aggregates (prevalence, API usage, inclusion "
                "paths, DOM pilot) in one payload",
    run=_run_summary,
))
