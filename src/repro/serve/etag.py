"""Digest-derived ETags for the study catalog service.

Every response the catalog serves is a pure function of (dataset bytes,
resource path, canonical query parameters), and the per-shard SHA-256
digests the crawl pipeline already commits to ``manifest.json`` pin the
dataset bytes exactly.  That makes correct HTTP caching free:

* a **study etag** hashes the manifest's shard digests (plus the shard
  names/counts they describe), so it changes iff the dataset bytes do —
  and is identical across server restarts, hosts, and replicas;
* a **resource etag** hashes the study etag together with the canonical
  resource string (path plus defaulted, sorted query parameters), so
  two requests that normalize to the same query share one etag and one
  cache slot.

All etags are *strong*: equal etags imply byte-identical bodies,
because response JSON is rendered canonically (sorted keys, fixed
separators) from deterministic aggregation.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

from ..crawler.storage import ShardManifest

__all__ = [
    "canonical_resource",
    "etag_matches",
    "listing_etag",
    "quote_etag",
    "resource_etag",
    "study_etag",
]


def _sha256_of(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def study_etag(manifest: ShardManifest) -> str:
    """The dataset-version etag for one study.

    A hash of the manifest's shard names, counts and digests: a pure
    function of the shard bytes, stable across restarts.
    """
    return _sha256_of({
        "files": list(manifest.files),
        "counts": list(manifest.counts),
        "digests": list(manifest.digests),
        "compress": manifest.compress,
    })


def listing_etag(study_etags: Dict[str, str]) -> str:
    """Etag of the ``/studies`` listing: any study change changes it."""
    return _sha256_of(dict(sorted(study_etags.items())))


def canonical_resource(path: str, params: Optional[Dict] = None) -> str:
    """The canonical resource string an etag covers.

    Parameters are the *parsed and defaulted* values, sorted by name —
    so ``?limit=20`` and an omitted ``limit`` that defaults to 20 yield
    the same canonical resource, the same etag, and one cache entry.
    """
    if not params:
        return path
    query = "&".join(f"{name}={params[name]}" for name in sorted(params))
    return f"{path}?{query}"


def resource_etag(dataset_etag: str, path: str,
                  params: Optional[Dict] = None) -> str:
    """Strong etag for one resource of one dataset version."""
    return _sha256_of({
        "dataset": dataset_etag,
        "resource": canonical_resource(path, params),
    })


def quote_etag(value: str) -> str:
    """The quoted form that goes on the wire in the ``ETag`` header."""
    return f'"{value}"'


def etag_matches(if_none_match: Optional[str], etag: str) -> bool:
    """Does an ``If-None-Match`` header match ``etag``?

    Handles ``*``, comma-separated candidate lists, and ``W/`` weak
    prefixes (weak comparison is fine for 304 revalidation).  A missing
    or empty header never matches.
    """
    if not if_none_match:
        return False
    header = if_none_match.strip()
    if header == "*":
        return True
    for candidate in header.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:].strip()
        if candidate.strip('"') == etag:
            return True
    return False
