"""What the benchmark runs and what it reports: workloads, sizes, metrics.

Names, units, directions, bounds and each workload's reason are read
from ``BENCHMARK.json`` at the repository root, the one place they are
written.  This module adds what that file has no room for: the sizes
of each workload, what each end-to-end metric means, and which layer
each per-layer metric times and which end-to-end metric it should move.
``run.py`` prints it all (``--list``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, NamedTuple, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
_CONFIG = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))

#: The synthetic web every workload crawls.  The population is fixed so
#: that a run's cost does not swing with which sites a seed happens to
#: draw (across population seeds the per-visit work of a 200-site crawl
#: varies by ~13% IQR).  ``--seed`` drives everything else: every
#: visit's RNG stream (``CrawlConfig.seed``), which shard the refresh
#: rewrites, and the serve request mix.
POPULATION_SEED = 2025


class Size(NamedTuple):
    sites: int
    shards: int


class Workload(NamedTuple):
    name: str
    why: str
    full: Size
    tiny: Size


#: (full, tiny) sizes per workload.
SIZES: Dict[str, Tuple[Size, Size]] = {
    "measure": (Size(240, 8), Size(24, 2)),
    "guard": (Size(240, 8), Size(24, 2)),
    "analyze": (Size(1000, 16), Size(40, 4)),
    "serve": (Size(1000, 16), Size(40, 4)),
}

WORKLOADS: Dict[str, Workload] = {
    w["name"]: Workload(w["name"], w["why"], *SIZES[w["name"]])
    for w in _CONFIG["workloads"]}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: float
    meaning: str


#: Every workload reports all four, each the median over the run's
#: passes.  Times are at the reference speed (``speed.py``).
MEANINGS: Dict[str, str] = {
    "setup_s": "set-up before timing: interpreter start, imports and "
               "scratch copies per pass (median), plus the one dataset "
               "crawl, and the server start and cold study build, for "
               "analyze and serve",
    "pass_s": "one pass of the workload's task: population to report "
              "bytes (measure), population to verified manifest (guard), "
              "cold analysis plus one-shard refresh (analyze), a block of "
              "100 requests (serve)",
    "items_per_s": "site visits per second in the crawl phase (measure, "
                   "guard), analyzed visits per second in the cold phase "
                   "(analyze), requests per second over a block (serve)",
    "bytes_per_visit": "gzip shard bytes on disk per retained visit of "
                       "the crawled dataset",
}

END_TO_END: Tuple[Metric, ...] = tuple(
    Metric(m["name"], m["unit"], m["better"], m["bound"],
           MEANINGS[m["name"]])
    for m in _CONFIG["end_to_end"])


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    layer: str
    moves: str


#: Per-layer metrics grouped by the module they time, with the
#: end-to-end metric each should move.  The self times among them
#: (``tracer.SELF_TIME``) sum with ``trace.other_s`` to ``trace.wall_s``.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("ecosystem", "items_per_s on measure and guard",
     ("ecosystem.synthesize_s", "ecosystem.sites")),
    ("crawler", "items_per_s on measure and guard",
     ("crawler.visit_s", "crawler.engine_s", "crawler.visits",
      "crawler.retained_share")),
    ("browser", "items_per_s on guard and measure",
     ("browser.cookie_get_s", "browser.cookie_gets", "browser.cookie_set_s",
      "browser.cookie_sets", "browser.request_s", "browser.requests")),
    ("cookies", "items_per_s on measure and guard",
     ("cookies.jar_read_s", "cookies.jar_reads", "cookies.jar_write_s",
      "cookies.jar_writes", "cookies.parse_s", "cookies.parse_calls")),
    ("extension", "items_per_s on measure",
     ("extension.request_hook_s", "extension.response_hook_s")),
    ("cookieguard", "items_per_s on guard",
     ("cookieguard.policy_s", "cookieguard.decisions",
      "cookieguard.blocked_reads", "cookieguard.blocked_writes")),
    ("net", "items_per_s on measure and guard",
     ("net.psl_s", "net.psl_calls", "net.url_parse_s", "net.url_parses")),
    ("crawler.storage",
     "pass_s and bytes_per_visit on measure, pass_s on serve",
     ("storage.write_s", "storage.shard_bytes", "storage.read_site_s",
      "storage.read_site_p50_ms")),
    ("crawler.distributed", "pass_s on measure and guard",
     ("coordinator.run_s", "coordinator.journal_s",
      "coordinator.task_attempts", "coordinator.retries",
      "coordinator.manifest_s")),
    ("ShardStore", "pass_s on measure",
     ("store.put_s", "store.fetch_s", "store.bytes_put", "store.hits",
      "store.misses")),
    ("analysis", "items_per_s and pass_s on analyze, pass_s on measure",
     ("analysis.decode_s", "analysis.accumulate_s", "analysis.report_s",
      "analysis.refresh_s", "analysis.snapshot_save_s",
      "analysis.snapshot_load_s", "analysis.reingested")),
    ("serve", "pass_s and items_per_s on serve",
     ("serve.handler_s", "serve.p50_ms", "serve.p99_ms", "serve.requests",
      "serve.site_p50_ms", "serve.report_p50_ms", "serve.revalidate_p50_ms",
      "serve.study_build_s", "serve.not_modified_share")),
    ("trace", "none: the traced run's own accounting",
     ("trace.wall_s", "trace.other_s", "trace.overhead_s")),
)

_PER_LAYER_JSON = {m["name"]: m for m in _CONFIG["per_layer"]}

PER_LAYER: Tuple[LayerMetric, ...] = tuple(
    LayerMetric(name, _PER_LAYER_JSON[name]["unit"],
                _PER_LAYER_JSON[name]["better"], layer, moves)
    for layer, moves, names in LAYERS for name in names)
