"""Pluggable blob backends for the content-addressed shard store.

:class:`~repro.crawler.distributed.ShardStore` speaks one tiny
interface — ``get``/``put``/``exists``/``evict`` over
``(key, blob name) → bytes`` — and keeps every semantic concern
(content-addressed keys, digest verification on fetch, eviction of
corrupt entries) above this seam.  Backends only move bytes:

* :class:`LocalDirectoryBackend` — today's on-disk layout, byte-for-byte:
  ``<root>/objects/<key[:2]>/<key>/{meta.json, shard.jsonl[.gz], …}``
  with tmp-file + atomic-replace writes.
* :class:`InMemoryBackend` — dict-of-dicts, for fast unit tests.
* :class:`HTTPStoreBackend` — an S3-style remote store over stdlib HTTP
  (``GET``/``PUT``/``DELETE /objects/<key>/<name>``), the client half of
  ``python -m repro store-serve`` (:mod:`repro.serve.store`).  A fleet of
  ``crawl-shard --cache-dir http://…`` workers then shares one cache
  across machines.

Backend contract (what ShardStore relies on):

* ``put`` receives every blob of one entry in a single call and MUST
  write ``meta.json`` last — meta is the entry's commit record, so a
  reader can never observe meta without the data it describes.  A torn
  upload (data without meta) is simply a miss.
* Individual blob writes must be atomic (no reader sees half a blob);
  the local backend uses tmp + ``os.replace``, the HTTP server applies
  the same discipline server-side.
* ``get`` returns the exact stored bytes or ``None`` — backends never
  verify content; ShardStore re-hashes fetched bytes against the
  recorded digest and evicts mismatches, so a lying backend can only
  cost a re-crawl, never wrong results.
* ``evict`` removes the whole entry and is idempotent.
* A backend that cannot *reach* its storage raises
  :class:`StoreBackendError` — a dead store must never masquerade as an
  empty one (only a true 404/absent blob is a miss).

The HTTP client retries transient failures under a :class:`RetryPolicy`
(bounded attempts, exponential backoff) — but only for idempotent
operations: ``GET``/``HEAD`` are reads and ``PUT`` bodies are
content-addressed blobs, so replaying them is safe; everything else
fails fast.  Retry knobs are pure scheduling and never enter cache keys
or output bytes.
"""

from __future__ import annotations

import http.client
import shutil
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from .storage import atomic_write

__all__ = [
    "META_NAME",
    "HTTPStoreBackend",
    "InMemoryBackend",
    "LocalDirectoryBackend",
    "RetryPolicy",
    "ShardStoreBackend",
    "StoreBackendError",
]

#: The commit-record blob: an entry exists iff its meta blob does.
META_NAME = "meta.json"


class StoreBackendError(RuntimeError):
    """A backend could not complete an operation (I/O or protocol).

    ``retryable`` marks failures worth repeating under a
    :class:`RetryPolicy` (connection trouble, 5xx, torn responses);
    protocol-level rejections (a 403, an over-size 413) are not.
    """

    def __init__(self, message: str, retryable: bool = True):
        super().__init__(message)
        self.retryable = retryable


#: Each retry waits ``_BACKOFF_GROWTH`` times as long as the one before,
#: and never longer than ``_MAX_BACKOFF_S`` seconds.
_BACKOFF_GROWTH = 2.0
_MAX_BACKOFF_S = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for idempotent store requests.

    ``attempts`` counts total tries (1 = no retry); the Nth retry waits
    ``min(backoff * 2**(N-1), 2)`` seconds.  These knobs shape only
    *when* bytes move, never *which* bytes — they are excluded from
    cache keys and output by construction.
    """

    attempts: int = 3
    backoff: float = 0.1

    def __post_init__(self):
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if not self.backoff >= 0:     # ``< 0`` would let NaN through
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")

    def delay(self, retry_index: int) -> float:
        """Seconds to wait before retry number ``retry_index`` (0-based)."""
        return min(self.backoff * _BACKOFF_GROWTH ** retry_index,
                   _MAX_BACKOFF_S)


def _meta_last(names: Iterable[str]) -> list:
    """Blob write order: everything else first, ``meta.json`` last."""
    ordered = sorted(n for n in names if n != META_NAME)
    if META_NAME in names:
        ordered.append(META_NAME)
    return ordered


class ShardStoreBackend:
    """Moves opaque blobs for :class:`ShardStore`; see the module doc."""

    name = "abstract"

    def get(self, key: str, name: str) -> Optional[bytes]:
        """The stored bytes of blob ``name`` under ``key``, or None."""
        raise NotImplementedError

    def put(self, key: str, blobs: Dict[str, bytes]) -> None:
        """Store one entry's blobs atomically-per-blob, meta last."""
        raise NotImplementedError

    def exists(self, key: str) -> bool:
        """Whether ``key`` has a committed entry (a meta blob)."""
        return self.get(key, META_NAME) is not None

    def evict(self, key: str) -> None:
        """Remove the whole entry for ``key`` (idempotent)."""
        raise NotImplementedError


class LocalDirectoryBackend(ShardStoreBackend):
    """The pre-seam filesystem layout, preserved byte-for-byte."""

    name = "local"

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    def _entry_dir(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / key

    def get(self, key: str, name: str) -> Optional[bytes]:
        try:
            return (self._entry_dir(key) / name).read_bytes()
        except OSError:
            return None

    def put(self, key: str, blobs: Dict[str, bytes]) -> None:
        entry = self._entry_dir(key)
        entry.mkdir(parents=True, exist_ok=True)
        for name in _meta_last(blobs):
            # atomic_write fsyncs before the rename: without it a host
            # crash can publish a committed name whose bytes never
            # reached the platter — a torn object behind a valid
            # meta.json.  This is also store-serve's PUT durability,
            # since the handler delegates here.
            atomic_write(entry / name, blobs[name])

    def exists(self, key: str) -> bool:
        return (self._entry_dir(key) / META_NAME).exists()

    def evict(self, key: str) -> None:
        entry = self._entry_dir(key)
        if entry.exists():
            shutil.rmtree(entry)


class InMemoryBackend(ShardStoreBackend):
    """Blobs in a dict — unit tests without a filesystem."""

    name = "memory"

    def __init__(self):
        self._entries: Dict[str, Dict[str, bytes]] = {}

    def get(self, key: str, name: str) -> Optional[bytes]:
        return self._entries.get(key, {}).get(name)

    def put(self, key: str, blobs: Dict[str, bytes]) -> None:
        entry = self._entries.setdefault(key, {})
        for name in _meta_last(blobs):
            entry[name] = bytes(blobs[name])

    def exists(self, key: str) -> bool:
        return META_NAME in self._entries.get(key, {})

    def evict(self, key: str) -> None:
        self._entries.pop(key, None)


#: HTTP methods safe to replay: reads, plus PUT — every PUT body here
#: is a content-addressed blob, so a duplicate write is a no-op.
_IDEMPOTENT = frozenset({"GET", "HEAD", "PUT"})
#: Non-5xx statuses still worth a retry (timeout, throttling).
_RETRYABLE_STATUS = frozenset({408, 429})


class HTTPStoreBackend(ShardStoreBackend):
    """S3-style remote store: blobs as HTTP objects under ``/objects``.

    The server side is ``python -m repro store-serve``
    (:mod:`repro.serve.store`).  404 means "no such blob" (a miss);
    every other failure — connection refused, a garbage or truncated
    response, a 5xx — raises :class:`StoreBackendError`: a broken store
    must fail loudly, not masquerade as an empty one.  Transient
    failures of idempotent requests (GET/HEAD/PUT-of-content-addressed
    bytes) are retried under ``retry``; anything else fails fast.
    """

    name = "http"

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retry: Optional[RetryPolicy] = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = time.sleep   # injectable for tests

    def _url(self, key: str, name: Optional[str] = None) -> str:
        url = f"{self.base_url}/objects/{key}"
        return url if name is None else f"{url}/{name}"

    def _request(self, method: str, url: str,
                 data: Optional[bytes] = None) -> Optional[bytes]:
        attempts = self.retry.attempts if method in _IDEMPOTENT else 1
        for attempt in range(attempts):
            if attempt:
                self._sleep(self.retry.delay(attempt - 1))
            try:
                return self._request_once(method, url, data)
            except StoreBackendError as exc:
                if not exc.retryable or attempt + 1 >= attempts:
                    raise
                last = exc
        raise last  # pragma: no cover — unreachable (loop always raises)

    def _request_once(self, method: str, url: str,
                      data: Optional[bytes] = None) -> Optional[bytes]:
        request = urllib.request.Request(url, data=data, method=method)
        if data is not None:
            request.add_header("Content-Type", "application/octet-stream")
        try:
            with urllib.request.urlopen(request,
                                        timeout=self.timeout) as response:
                return response.read()
        except urllib.error.HTTPError as exc:
            if exc.code == 404:
                return None
            raise StoreBackendError(
                f"{method} {url} -> HTTP {exc.code}",
                retryable=(exc.code >= 500
                           or exc.code in _RETRYABLE_STATUS)) from exc
        except urllib.error.URLError as exc:
            raise StoreBackendError(f"{method} {url}: {exc.reason}") from exc
        except (http.client.HTTPException, OSError) as exc:
            # urllib only wraps errors raised while *opening* the
            # connection; a server that answers with a garbage status
            # line (BadStatusLine), truncates a Content-Length body
            # (IncompleteRead), or resets mid-read escapes as a raw
            # HTTPException / OSError / timeout.  All of them mean "the
            # store is broken", never "the blob is absent".
            raise StoreBackendError(
                f"{method} {url}: {type(exc).__name__}: {exc}") from exc

    def get(self, key: str, name: str) -> Optional[bytes]:
        return self._request("GET", self._url(key, name))

    def put(self, key: str, blobs: Dict[str, bytes]) -> None:
        for name in _meta_last(blobs):
            self._request("PUT", self._url(key, name), data=blobs[name])

    def exists(self, key: str) -> bool:
        return self._request("HEAD", self._url(key, META_NAME)) is not None

    def evict(self, key: str) -> None:
        self._request("DELETE", self._url(key))
