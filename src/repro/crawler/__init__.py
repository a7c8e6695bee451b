"""Crawl harness: Selenium-style site visits with instrumentation.

The names below load on first use (PEP 562): ``analyze`` and ``serve``
import ``storage`` without paying for the crawler, the coordinator and
the browser simulator behind them.
"""

import importlib

#: Each public name and the module that defines it, in ``__all__`` order.
_LAZY = {name: module for module, names in (
    (".crawler", "CrawlConfig Crawler config_fingerprint render_site_html"),
    (".distributed", "CoordinationError Coordinator CrawlReport "
                     "InProcessBackend ProcessPoolBackend ShardStore"),
    (".storebackends", "ShardStoreBackend LocalDirectoryBackend "
                       "InMemoryBackend HTTPStoreBackend RetryPolicy "
                       "StoreBackendError"),
    (".distributed", "SubprocessBackend WorkQueue WorkSpec WorkerBackend "
                     "make_backend population_fingerprint run_shard_worker"),
    (".parallel", "Shard ShardPlan CrawlProgress print_progress"),
    (".engine", "VisitEngine WaitPoint drive"),
    (".storage", "ManifestError ShardIndex ShardManifest ShardWriteResult "
                 "compute_digest load_shard_index read_site "
                 "verify_shard_files write_shard iter_logs"),
    ("..records", "API_COOKIE_STORE API_DOCUMENT_COOKIE CookieReadEvent "
                  "CookieWriteEvent DomMutationEvent HeaderCookieEvent "
                  "RequestEvent VisitLog"),
    (".storage", "load_logs save_logs"),
) for name in names.split()}

__all__ = list(_LAZY)


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_LAZY[name], __name__), name)
    globals()[name] = value
    return value
