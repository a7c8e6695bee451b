"""``repro.serve`` — a read-only HTTP API over sharded crawl outputs.

Built entirely on the standard library's ``http.server`` (no new runtime
dependencies), this package turns the deterministic crawl artifacts the
pipeline already produces — sharded ``VisitLog`` row-group files and
their ``manifest.json`` with per-shard SHA-256 digests — into a small,
correctly cacheable service.

Endpoints
---------

``GET /studies``
    Catalog listing: one summary per study directory under the serve
    root (id, shard count, site total, compression, dataset etag).
``GET /studies/<id>``
    One study's summary plus the names of the available reports.
``GET /studies/<id>/shards``
    Per-shard rows: file name, site count, SHA-256 digest.
``GET /studies/<id>/sites/<rank>``
    The full ``VisitLog`` for one site, read through the shard's
    index: one row group read and decoded, and the site's row built
    straight into the response dict — no whole-shard deserialization
    and no event objects.
``GET /studies/<id>/reports``
    The report registry with each query's parameter schema.
``GET /studies/<id>/reports/<name>?...``
    A parameterized report (``top-exfiltrators``, ``top-exfiltrated``,
    ``prevalence``, ``entity``, ``summary``) computed from the merged
    ``Study``.  Unknown or out-of-range parameters are a 400.

ETag scheme
-----------

Every response carries a strong ``ETag`` and honors ``If-None-Match``
with ``304 Not Modified``.  Etags are pure functions of data the crawl
pipeline already commits to disk:

* the **study etag** is the SHA-256 of the manifest's shard names,
  counts, and per-shard SHA-256 digests — it changes iff the dataset
  bytes change, and is identical across restarts, hosts, and replicas;
* each **resource etag** is the SHA-256 of the study etag plus the
  canonical resource string (path plus *parsed and defaulted* query
  parameters, sorted), so ``?limit=20`` and an omitted ``limit``
  defaulting to 20 share one etag and one cache slot.

Strength is real: bodies are rendered canonically (sorted keys, compact
separators) from deterministic aggregation, so equal etags imply
byte-identical bodies.

Some conditional GETs are answered before anything is read, from facts
the etag already encodes:

* a ``sites/<rank>`` request whose ``If-None-Match`` matches, when the
  study's shard indexes list the rank — once they are built, no shard
  byte is read;
* a ``reports/<name>`` request whose ``If-None-Match`` matches, once its
  parameters parse — the report is not run.

Every other request takes the read path: a rank the study lacks is a
404 and a bad parameter a 400, also under ``If-None-Match: *``.  A 304
sends ``ETag`` and ``Cache-Control`` but no ``Content-Length`` (RFC
9110 §8.6 allows only the 200 body's length there, which an unread
answer does not know).

Shard indexes
-------------

A site lookup reads one row group rather than scan its shard, through
a per-shard :class:`~repro.crawler.storage.ShardIndex`: for each rank,
the byte offset and on-disk length of its row group (a whole gzip
member in a gzip shard) and its row in the group.  The study entry
builds every shard's index on its first site request, lookup or
revalidation, by reading each shard once through the checked shard
reader: a shard that does not hash to the study's digest or hold its
manifest count is refused there, as any full read refuses it.  The
indexes live in memory for the entry's life and are never written, so
no index can disagree with the bytes it was built from; an index file
an older build left beside a shard is never read.
"""

from .app import ServeError, StudyCatalogHandler, make_server, serve
from .catalog import StudyCatalog, StudyEntry
from .etag import (canonical_resource, etag_matches, listing_etag,
                   quote_etag, resource_etag, study_etag)
from .queries import (Param, QueryError, ReportQuery, get_query,
                      iter_queries, parse_params)
from .store import ShardStoreHandler, make_store_server, serve_store

__all__ = [
    "Param",
    "QueryError",
    "ReportQuery",
    "ServeError",
    "ShardStoreHandler",
    "StudyCatalog",
    "StudyCatalogHandler",
    "StudyEntry",
    "canonical_resource",
    "etag_matches",
    "get_query",
    "iter_queries",
    "listing_etag",
    "make_server",
    "make_store_server",
    "parse_params",
    "quote_etag",
    "resource_etag",
    "serve",
    "serve_store",
    "study_etag",
]
