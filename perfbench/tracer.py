"""Outside-in tracing: timing wrappers around each layer's public functions.

The traced run patches the functions in ``TRACED`` *where their callers
look them up*: a module-level function is replaced in every loaded
``repro`` module that imported it by name (``parse_cookie_string`` lives
in ``cookies.serialize`` but ``behaviors`` and ``cookieguard.guard`` call
their own imported binding), and a method is replaced on its class.
Nothing is patched in an untraced run.

Spans stay in memory as four parallel arrays (name, start, end, parent)
and are written out once the traced pass ends.  A span's self time is
its duration minus the durations of its child spans; summed per metric
and topped up with ``other`` (traced wall minus root spans) they add up
to the traced wall exactly.

Generator functions (the visit coroutine, the engine's ordered stream,
the batch decoder) get one span per resumption, so the time a consumer
spends between two items is never charged to the generator.

Each thread keeps its own stack of open spans, and appending a span is
locked: the serve workload's handler threads are short-lived and one
can still be returning while the next request's thread starts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import threading
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: (module, attribute, self-time metric, count metric or None).  The
#: count metric counts calls; for generator functions it counts the
#: generators created, not their resumptions.
TRACED: Tuple[Tuple[str, str, str, Optional[str]], ...] = (
    ("repro.ecosystem.population", "generate_population",
     "ecosystem.synthesize_s", None),
    ("repro.ecosystem.population", "Population.synthesize",
     "ecosystem.synthesize_s", "ecosystem.sites"),
    ("repro.crawler.crawler", "Crawler.visit_steps",
     "crawler.visit_s", "crawler.visits"),
    ("repro.crawler.engine", "VisitEngine.run_ordered",
     "crawler.engine_s", None),
    ("repro.browser.document_cookie", "DocumentCookie.get",
     "browser.cookie_get_s", "browser.cookie_gets"),
    ("repro.browser.document_cookie", "DocumentCookie.set",
     "browser.cookie_set_s", "browser.cookie_sets"),
    ("repro.browser.network", "NetworkManager.request",
     "browser.request_s", "browser.requests"),
    ("repro.cookies.jar", "CookieJar.cookies_for_url",
     "cookies.jar_read_s", "cookies.jar_reads"),
    ("repro.cookies.jar", "CookieJar.set",
     "cookies.jar_write_s", "cookies.jar_writes"),
    ("repro.cookies.jar", "CookieJar.delete",
     "cookies.jar_write_s", "cookies.jar_writes"),
    ("repro.cookies.serialize", "parse_cookie_string",
     "cookies.parse_s", "cookies.parse_calls"),
    ("repro.cookies.cookie", "parse_set_cookie",
     "cookies.parse_s", "cookies.parse_calls"),
    ("repro.extension.instrumentation",
     "InstrumentationExtension.on_request_will_be_sent",
     "extension.request_hook_s", None),
    ("repro.extension.instrumentation",
     "InstrumentationExtension.on_headers_received",
     "extension.response_hook_s", None),
    ("repro.cookieguard.policy", "AccessPolicy.may_read",
     "cookieguard.policy_s", "cookieguard.decisions"),
    ("repro.cookieguard.policy", "AccessPolicy.may_write",
     "cookieguard.policy_s", "cookieguard.decisions"),
    ("repro.net.psl", "PublicSuffixList.public_suffix",
     "net.psl_s", "net.psl_calls"),
    ("repro.net.psl", "PublicSuffixList.registrable_domain",
     "net.psl_s", "net.psl_calls"),
    ("repro.net.url", "parse_url", "net.url_parse_s", "net.url_parses"),
    ("repro.crawler.storage", "write_shard", "storage.write_s", None),
    ("repro.crawler.storage", "read_site", "storage.read_site_s", None),
    ("repro.crawler.storage", "ShardManifest.save",
     "coordinator.manifest_s", None),
    ("repro.crawler.storage", "verify_shard_files",
     "coordinator.manifest_s", None),
    ("repro.crawler.distributed", "Coordinator.run",
     "coordinator.run_s", None),
    ("repro.crawler.distributed", "WorkQueue.create",
     "coordinator.journal_s", None),
    ("repro.crawler.distributed", "WorkQueue.lease",
     "coordinator.journal_s", "coordinator.task_attempts"),
    ("repro.crawler.distributed", "WorkQueue.done",
     "coordinator.journal_s", None),
    ("repro.crawler.distributed", "WorkQueue.fail",
     "coordinator.journal_s", None),
    ("repro.crawler.distributed", "ShardStore.put", "store.put_s", None),
    ("repro.crawler.distributed", "ShardStore.fetch", "store.fetch_s", None),
    ("repro.analysis.columnar", "iter_shard_batches",
     "analysis.decode_s", None),
    ("repro.analysis.reports", "StudyAccumulator.add_shard_batch",
     "analysis.accumulate_s", None),
    ("repro.analysis.reports", "Study.from_accumulator",
     "analysis.report_s", None),
    ("repro.analysis.reports", "Study.report_bytes",
     "analysis.report_s", None),
    ("repro.analysis.snapshot", "refresh_study",
     "analysis.refresh_s", None),
    ("repro.analysis.snapshot", "accumulator_state",
     "analysis.snapshot_save_s", None),
    ("repro.analysis.snapshot", "save_snapshot",
     "analysis.snapshot_save_s", None),
    ("repro.analysis.snapshot", "load_snapshot",
     "analysis.snapshot_load_s", None),
    ("repro.analysis.snapshot", "StudySnapshot.accumulator",
     "analysis.snapshot_load_s", None),
    ("repro.serve.app", "StudyCatalogHandler.do_GET",
     "serve.handler_s", None),
)

#: The self-time metrics: with ``trace.other_s`` they partition the
#: traced wall.
SELF_TIME: Tuple[str, ...] = tuple(dict.fromkeys(
    metric for _module, _attr, metric, _count in TRACED))


def _after_store_put(tracer: "Tracer", result, args, kwargs) -> None:
    path = kwargs.get("shard_path", args[2] if len(args) > 2 else None)
    tracer.counters["store.bytes_put"] += os.path.getsize(path)


def _after_store_fetch(tracer: "Tracer", result, args, kwargs) -> None:
    tracer.counters["store.misses" if result is None else "store.hits"] += 1


def _after_refresh(tracer: "Tracer", result, args, kwargs) -> None:
    tracer.counters["analysis.reingested"] += len(result.reingested)


def _after_coordinator_run(tracer: "Tracer", result, args, kwargs) -> None:
    tracer.counters["coordinator.retries"] += result.retries


#: Counters read off a call's arguments or result (no span of their own
#: unless the function is also in ``TRACED``).
AFTER: Dict[Tuple[str, str], Callable] = {
    ("repro.crawler.distributed", "ShardStore.put"): _after_store_put,
    ("repro.crawler.distributed", "ShardStore.fetch"): _after_store_fetch,
    ("repro.analysis.snapshot", "refresh_study"): _after_refresh,
    ("repro.crawler.distributed", "Coordinator.run"): _after_coordinator_run,
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._lock = threading.Lock()
        self._local = threading.local()
        #: Spans and counters are recorded only while ``active``.
        self.active = False
        self.counters: Counter = Counter()
        #: Span names of generator functions, counted at creation.
        self._generators: set = set()

    # -- recording ---------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _begin(self, name_id: int) -> int:
        if not self.active:
            return -1
        stack = self._stack()
        with self._lock:
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.ends.append(0.0)
            self.starts.append(perf_counter())
        stack.append(index)
        return index

    def _end(self, index: int) -> None:
        if index >= 0:
            self.ends[index] = perf_counter()
            self._local.stack.pop()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn: Callable, span: Optional[str],
              count: Optional[str], after: Optional[Callable]) -> Callable:
        begin, end, counters = self._begin, self._end, self.counters
        name_id = self._name_id(span) if span else -1

        if inspect.isgeneratorfunction(fn):
            drive = self._drive
            self._generators.add(span)

            @functools.wraps(fn)
            def traced_steps(*args, **kwargs):
                if count and self.active:
                    counters[count] += 1
                return drive(fn(*args, **kwargs), name_id)
            return traced_steps

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = begin(name_id) if span else -1
            try:
                result = fn(*args, **kwargs)
            finally:
                end(token)
            if after is not None and self.active:
                after(self, result, args, kwargs)
            return result
        return traced

    def _drive(self, inner, name_id: int):
        try:
            while True:
                token = self._begin(name_id)
                try:
                    item = next(inner)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._end(token)
                yield item
        finally:
            inner.close()

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        """Patch every function in ``TRACED`` and ``AFTER``, for the rest
        of this interpreter's life (each traced pass is its own process)."""
        spans = {(module, attr): (attr, count)
                 for module, attr, _metric, count in TRACED}
        for key in dict.fromkeys(list(spans) + list(AFTER)):
            span, count = spans.get(key, (None, None))
            self._patch(key[0], key[1], span, count, AFTER.get(key))

    def _patch(self, module_name: str, attr: str, span: Optional[str],
               count: Optional[str], after: Optional[Callable]) -> None:
        module = importlib.import_module(module_name)
        if "." in attr:
            owner_name, name = attr.split(".")
            owner = getattr(module, owner_name)
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, span, count,
                                                 after))
            else:
                wrapped = self._wrap(raw, span, count, after)
            setattr(owner, name, wrapped)
            return
        original = getattr(module, attr)
        wrapped = self._wrap(original, span, count, after)
        # Every binding of the function in a loaded repro module: callers
        # that did ``from .x import f`` hold their own reference.
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for binding, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, binding, wrapped)

    # -- results -----------------------------------------------------------
    def summary(self, wall: float) -> Dict[str, float]:
        """Per-metric self times, counts and ``trace.*`` for one pass."""
        metric_of = {attr: metric for _m, attr, metric, _c in TRACED}
        count_of = {attr: count for _m, attr, _metric, count in TRACED
                    if count}
        durations = [end - start for start, end in zip(self.starts,
                                                       self.ends)]
        children = [0.0] * len(durations)
        root = 0.0
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children[parent] += durations[index]
            else:
                root += durations[index]
        out: Dict[str, float] = Counter()
        calls: Counter = Counter()
        read_site: List[float] = []
        for index, name_id in enumerate(self.name_ids):
            name = self.names[name_id]
            out[metric_of[name]] += durations[index] - children[index]
            calls[name] += 1
            if name == "read_site":
                read_site.append(durations[index])
        for name, n in calls.items():
            if name in count_of and name not in self._generators:
                out[count_of[name]] += n
        out.update(self.counters)
        out["storage.read_site_p50_ms"] = (
            statistics.median(read_site) * 1000 if read_site else 0.0)
        out["trace.wall_s"] = wall
        out["trace.other_s"] = wall - root
        return dict(out)

    def write(self, path: Path) -> None:
        """Write the spans: a JSON header line, then one line per span
        (name id, start, end, parent index; times in seconds)."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names,
                                     "fields": ["name", "start", "end",
                                                "parent"]}) + "\n")
            for row in zip(self.name_ids, self.starts, self.ends,
                           self.parents):
                handle.write("%d %.9f %.9f %d\n" % row)

