"""The serve workload's load generator and its output checks.

One process, closed loop: the next request goes out only after the
previous response is read, each on its own connection.  (On a reused
keep-alive connection every 200 response stalls ~40 ms: the handler
writes headers and body as two segments, Nagle holds the body until the
client's delayed ACK of the headers.  That would time the kernel's ACK
timer instead of the program, so the client connects per request, as
one-off clients such as curl do.)  The mix is drawn
from the seed — 60% ``/sites/<rank>`` with ranks from the dataset (no
404s), 25% report queries, and 15% ``If-None-Match`` revalidations of a
resource fetched earlier, which must answer 304 with the same ETag.
"""

from __future__ import annotations

import http.client
import random
from time import monotonic
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from speed import Speedometer

STUDY_ID = "study"
#: The report queries, each with its parameter choices.
REPORTS: Tuple[Tuple[str, ...], ...] = (
    ("top-exfiltrators?limit=5", "top-exfiltrators?limit=20"),
    ("top-exfiltrated?limit=5", "top-exfiltrated?limit=20"),
    ("summary",),
    ("prevalence?bucket=500",),
    ("entity?name=Google", "entity?name=Meta", "entity?name=Microsoft",
     "entity?name=Criteo"),
)
#: Every block of BLOCK consecutive requests holds exactly this mix, in
#: a seeded order: 60 site lookups, 25 reports (5 of each query) and 15
#: revalidations.  Exact per-block counts keep an expensive query (an
#: entity drill-down costs several site lookups) from making one block,
#: or one seed, heavier than another.
BLOCK = 100
#: Requests a full-size loop sends at least, so that ten samples lie
#: beyond the 99th percentile.
P99_MIN_REQUESTS = 1000
BLOCK_MIX = ("site",) * 60 + ("report",) * 25 + ("revalidate",) * 15
#: One response in SAMPLE_EVERY (seeded) keeps its body for the
#: in-process comparison, up to SAMPLE_MAX bodies.
SAMPLE_EVERY = 40
SAMPLE_MAX = 40


class Request(NamedTuple):
    kind: str            # "site" | "report" | "revalidate"
    path: str
    etag: Optional[str]  # If-None-Match value for revalidations


class Outcome(NamedTuple):
    kind: str
    start: float
    end: float
    ok: bool


class RequestMix:
    """The seeded request sequence; revalidations target earlier 200s."""

    def __init__(self, seed: int, ranks: Sequence[int]):
        self._rng = random.Random(seed)
        self._ranks = list(ranks)
        self._seen: List[Tuple[str, str]] = []
        self._block: List[str] = []
        self._reports: List[Tuple[str, ...]] = []

    def next(self) -> Request:
        if not self._block:
            self._block = list(BLOCK_MIX)
            self._reports = [choices for choices in REPORTS
                             for _ in range(BLOCK_MIX.count("report")
                                            // len(REPORTS))]
            self._rng.shuffle(self._block)
            self._rng.shuffle(self._reports)
        kind = self._block.pop()
        if kind == "revalidate" and self._seen:
            path, etag = self._seen[self._rng.randrange(len(self._seen))]
            return Request("revalidate", path, etag)
        if kind == "report":
            choices = self._reports.pop()
            report = choices[self._rng.randrange(len(choices))]
            return Request("report",
                           f"/studies/{STUDY_ID}/reports/{report}", None)
        # A revalidation before any 200 (only at the very start) becomes
        # a site lookup.
        rank = self._ranks[self._rng.randrange(len(self._ranks))]
        return Request("site", f"/studies/{STUDY_ID}/sites/{rank}", None)

    def saw(self, path: str, etag: str) -> None:
        self._seen.append((path, etag))


def fetch(port: int, path: str, etag: Optional[str] = None
          ) -> Tuple[int, Optional[str], bytes]:
    """One GET on a fresh loopback connection."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        conn.request("GET", path,
                     headers={"If-None-Match": etag} if etag else {})
        response = conn.getresponse()
        return response.status, response.getheader("ETag"), response.read()
    finally:
        conn.close()


class LoopResult(NamedTuple):
    outcomes: List[Outcome]
    samples: List[Tuple[str, bytes]]
    errors: List[str]


def run_loop(port: int, seed: int, ranks: Sequence[int], *,
             seconds: Optional[float] = None, minimum: int = 0,
             count: Optional[int] = None) -> LoopResult:
    """Send the mix until ``seconds`` pass (and at least ``minimum``
    requests are done), or until exactly ``count`` requests are done.

    Every status is checked against the expectation (200, or 304 with
    the original ETag and no body); a seeded sample of 200 bodies is
    kept for :func:`check_bodies`.
    """
    mix = RequestMix(seed, ranks)
    sampler = random.Random(seed + 1)
    outcomes: List[Outcome] = []
    samples: List[Tuple[str, bytes]] = []
    errors: List[str] = []
    began = monotonic()
    while True:
        if count is not None and len(outcomes) >= count:
            break
        if seconds is not None and len(outcomes) >= minimum \
                and monotonic() - began >= seconds:
            break
        request = mix.next()
        start = monotonic()
        status, etag, body = fetch(port, request.path, request.etag)
        end = monotonic()
        ok = True
        if request.kind == "revalidate":
            if status != 304 or etag != request.etag or body:
                ok = False
                errors.append(f"{request.path} revalidation: {status}")
        elif status != 200 or not etag or not body:
            ok = False
            errors.append(f"{request.path}: {status}")
        else:
            mix.saw(request.path, etag)
            if sampler.randrange(SAMPLE_EVERY) == 0 \
                    and len(samples) < SAMPLE_MAX:
                samples.append((request.path, body))
        outcomes.append(Outcome(request.kind, start, end, ok))
    return LoopResult(outcomes, samples, errors)


def check_bodies(study_dir, samples: Sequence[Tuple[str, bytes]]
                 ) -> List[str]:
    """Compare served bodies to an in-process render of the same study.

    Renders through the serve tier's own parts — :class:`StudyEntry`,
    the report-query registry and ``render_json`` — so a body the
    server changed on the way out cannot match.
    """
    from repro.serve.app import render_json
    from repro.serve.catalog import StudyEntry
    from repro.serve.queries import get_query, parse_params

    entry = StudyEntry(STUDY_ID, study_dir)
    failures = []
    for path, body in samples:
        split = urlsplit(path)
        parts = split.path.strip("/").split("/")
        if parts[2] == "sites":
            expected = render_json(entry.site(int(parts[3])).to_dict())
        else:
            query = get_query(parts[3])
            params = parse_params(query, parse_qs(split.query,
                                                  keep_blank_values=True))
            expected = render_json({"study": entry.id, "report": query.name,
                                    "params": params,
                                    "result": query.run(entry, params)})
        if body != expected:
            failures.append(f"{path}: served body differs from the "
                            f"in-process render")
    return failures


def latency_summary(outcomes: Sequence[Outcome],
                    meter: Speedometer) -> Dict[str, float]:
    """p50/p99 overall and p50 per request kind, in milliseconds, less
    the client's sampling during each request (not scaled)."""
    def pct(values: List[float], q: float) -> float:
        if not values:
            return 0.0
        ordered = sorted(values)
        return ordered[min(len(ordered) - 1, int(q * len(ordered)))]

    ms = [meter.net(o.start, o.end) * 1000 for o in outcomes]
    by_kind: Dict[str, List[float]] = {}
    for outcome, value in zip(outcomes, ms):
        by_kind.setdefault(outcome.kind, []).append(value)
    return {
        "serve.p50_ms": pct(ms, 0.50),
        "serve.p99_ms": pct(ms, 0.99),
        "serve.site_p50_ms": pct(by_kind.get("site", []), 0.50),
        "serve.report_p50_ms": pct(by_kind.get("report", []), 0.50),
        "serve.revalidate_p50_ms": pct(by_kind.get("revalidate", []), 0.50),
        "serve.requests": float(len(outcomes)),
        "serve.not_modified_share":
            sum(1 for o in outcomes if o.kind == "revalidate" and o.ok)
            / max(len(outcomes), 1),
    }


def blocks(outcomes: Sequence[Outcome]) -> List[Tuple[float, float]]:
    """(start, end) of each full block of BLOCK consecutive requests."""
    return [(outcomes[i].start, outcomes[i + BLOCK - 1].end)
            for i in range(0, len(outcomes) - BLOCK + 1, BLOCK)]
