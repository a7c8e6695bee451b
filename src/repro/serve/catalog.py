"""The study catalog: sharded crawl directories as servable entities.

A *catalog root* is a directory whose children are study directories —
each one a sharded crawl output (``manifest.json`` + shard files, as
written by ``repro crawl``/the coordinator).  A root that itself holds
a ``manifest.json`` is treated as a single-study catalog, so ``repro
serve some-crawl/`` just works.

Each :class:`StudyEntry` wraps one study with everything the HTTP layer
needs:

* the verified :class:`~repro.crawler.storage.ShardManifest`, whose
  per-shard digests every shard read is checked against and the
  study's dataset etag derives from;
* seekable single-site lookup via
  :func:`~repro.crawler.storage.locate_site`, with every shard's
  :class:`~repro.crawler.storage.ShardIndex` built once per entry from
  the shard's checked bytes; only that build takes a lock, so lookups
  run side by side;
* a lazily built, cached :class:`~repro.analysis.reports.Study` —
  aggregated through the versioned snapshot layer
  (:mod:`repro.analysis.snapshot`), never holding raw logs — whose
  ranked tables the report queries read (each built once, on first
  use, for the entry's life).  The per-shard snapshot is persisted as
  a sidecar (:data:`SNAPSHOT_NAME`) next to the manifest, so a
  re-crawled dataset re-ingests only its changed shards instead of
  discarding the whole aggregation (ETags are untouched: they derive
  from the shard digests alone, never from the sidecar);
* per-rank-bucket accumulators for the prevalence-by-bucket query,
  each fed only its bucket's visits' §5 counters
  (:meth:`~repro.analysis.reports.StudyAccumulator.count_visit`): the
  same decomposition the shard merge uses, keyed by rank bucket
  instead of shard, with no detector run.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..analysis.columnar import ShardBatch, iter_shard_batches
from ..analysis.reports import Study, StudyAccumulator
from ..analysis.snapshot import (RefreshResult, SnapshotError, load_snapshot,
                                 refresh_study, save_snapshot)
from ..crawler.storage import (ManifestError, ShardIndex, ShardManifest,
                               load_shard_index, locate_site)
from ..records import VisitLog
from .etag import listing_etag, study_etag

__all__ = ["SNAPSHOT_NAME", "StudyCatalog", "StudyEntry"]

#: Sidecar file holding a study's persisted analysis snapshot.  Derived
#: data: never listed in the manifest, never digested, never part of an
#: ETag.
SNAPSHOT_NAME = "study.snapshot.json"

#: Bucket sizes whose prevalence rows an entry keeps, the most recently
#: used.  Clients choose the size (1…10⁷), so the rows an entry holds
#: must not grow with the sizes they try.
BUCKET_SIZES_KEPT = 8


class StudyEntry:
    """One study directory, ready to serve."""

    def __init__(self, study_id: str, directory: Union[str, Path]):
        self.id = study_id
        self.directory = Path(directory)
        self.manifest = ShardManifest.load(self.directory)
        self.etag = study_etag(self.manifest)
        self.snapshot_path = self.directory / SNAPSHOT_NAME
        self._index_cache: Optional[Dict[int, ShardIndex]] = None
        self._study: Optional[Study] = None
        self._buckets: OrderedDict[int, List[Dict]] = OrderedDict()
        # Two locks so a seconds-long first aggregation (study build,
        # bucket scan) never stalls the cheap seek-based site lookups,
        # which take _lookup_lock only to index the shards once.
        # Only the study's first build takes _agg_lock: report queries
        # on a built study read its tables without it, so they never
        # wait behind a bucket scan either.
        self._lookup_lock = threading.Lock()
        self._agg_lock = threading.Lock()

    # ------------------------------------------------------------------
    def is_current(self) -> bool:
        """Does the on-disk manifest still describe this entry?

        Compares the reloaded manifest structurally; a study directory
        that was re-crawled (new digests) or re-sharded makes the entry
        stale, and the catalog rebuilds it on the next refresh.
        """
        try:
            return ShardManifest.load(self.directory).to_dict() \
                == self.manifest.to_dict()
        except ManifestError:
            return False

    def summary(self) -> Dict:
        return {
            "id": self.id,
            "n_shards": self.manifest.n_shards,
            "total": self.manifest.total,
            "compress": self.manifest.compress,
            "etag": self.etag,
        }

    def shards(self) -> List[Dict]:
        return [{"index": i, "file": name,
                 "count": self.manifest.counts[i],
                 "sha256": self.manifest.digests[i]}
                for i, name in enumerate(self.manifest.files)]

    # ------------------------------------------------------------------
    def site(self, rank: int) -> VisitLog:
        """Single-site lookup: seek via the entry's shard indexes."""
        batch, row = self._locate(rank)
        return batch.log(row)

    def site_dict(self, rank: int) -> Dict:
        """``site(rank).to_dict()``, built from the row's columns."""
        batch, row = self._locate(rank)
        return batch.row_dict(row)

    def lists_site(self, rank: int) -> bool:
        """Does one of this entry's shard indexes list ``rank``?

        Once the entry has indexed its shards this reads no shard byte,
        so a revalidation of a listed site is answered from the ETag.
        """
        return any(index.entry_for(rank) is not None
                   for index in self._indexes().values())

    def _locate(self, rank: int) -> Tuple[ShardBatch, int]:
        return locate_site(self.directory, rank, manifest=self.manifest,
                           index_cache=self._indexes())

    def _indexes(self) -> Dict[int, ShardIndex]:
        """Every shard's index, built once per entry from shard bytes
        checked against the entry's manifest.

        The lock covers only the build: lookups read the shards outside
        it, so they run side by side.  A shard that fails its checks
        raises :class:`ManifestError`, and the next call tries again.
        """
        indexes = self._index_cache
        if indexes is None:
            with self._lookup_lock:
                if self._index_cache is None:
                    self._index_cache = {
                        pos: load_shard_index(self.directory, name,
                                              self.manifest.digests[pos],
                                              self.manifest.counts[pos])
                        for pos, name in enumerate(self.manifest.files)}
                indexes = self._index_cache
        return indexes

    def study(self) -> Study:
        """The merged Study, built once through the snapshot layer.

        First build loads the persisted sidecar snapshot (when one
        exists and verifies), diffs its per-shard digests against this
        entry's, and re-ingests only changed/added shards — a dataset
        version bump costs O(delta), not O(population).  The refreshed
        snapshot is written back (atomically; best-effort on read-only
        datasets) so the *next* process, or the next catalog refresh,
        starts from it too.  A built study is returned without the
        lock, which a cold ``prevalence_by_bucket`` scan holds.
        """
        study = self._study
        if study is not None:
            return study
        with self._agg_lock:
            if self._study is None:
                self._study = self._refresh_snapshot().snapshot.study()
            return self._study

    def _refresh_snapshot(self) -> RefreshResult:
        """Load + incrementally refresh + persist the sidecar snapshot."""
        try:
            old = load_snapshot(self.snapshot_path)
        except SnapshotError:
            # Missing, torn, or another version: rebuild from shards.
            old = None
        result = refresh_study(old, self.directory, manifest=self.manifest)
        if old is None or result.changed:
            try:
                save_snapshot(result.snapshot, self.snapshot_path)
            except OSError:
                pass  # read-only dataset: serve from memory only
        return result

    def prevalence_by_bucket(self, bucket_size: int) -> List[Dict]:
        """§5.1 prevalence figures per rank bucket, merge-aggregated.

        Streams the shards once per ``bucket_size`` not among the
        :data:`BUCKET_SIZES_KEPT` most recently asked for, as columnar
        batches, each shard checked against the entry's manifest, which
        its ETag pins (so it refuses exactly when :meth:`study` does),
        and counts each row into its bucket's accumulator
        (:meth:`~repro.analysis.reports.StudyAccumulator.count_visit`,
        no detectors) — the same associative decomposition
        ``Study.from_shards`` uses, so the per-bucket numbers are
        exactly what a Study over only that bucket's sites would report.
        """
        if bucket_size < 1:
            # Guard here, not only in the HTTP layer: library callers
            # would otherwise hit a bare ZeroDivisionError below.
            raise ValueError(
                f"bucket_size must be >= 1, got {bucket_size}")
        with self._agg_lock:
            cached = self._buckets.get(bucket_size)
            if cached is not None:
                self._buckets.move_to_end(bucket_size)
                return cached
            accs: Dict[int, StudyAccumulator] = {}
            for batch in iter_shard_batches(self.directory,
                                            manifest=self.manifest):
                for i, rank in enumerate(batch.ranks):
                    bucket = rank // bucket_size
                    acc = accs.get(bucket)
                    if acc is None:
                        acc = accs[bucket] = StudyAccumulator()
                    acc.count_visit(batch, i)
            rows: List[Dict] = []
            for bucket in sorted(accs):
                acc = accs[bucket]
                row = {"bucket": bucket,
                       "rank_lo": bucket * bucket_size,
                       "rank_hi": (bucket + 1) * bucket_size - 1,
                       "n_sites": acc.n_logs}
                row.update(Study.from_accumulator(acc).sec51_prevalence())
                rows.append(row)
            self._buckets[bucket_size] = rows
            if len(self._buckets) > BUCKET_SIZES_KEPT:
                self._buckets.popitem(last=False)
            return rows


class StudyCatalog:
    """Discovers and caches the servable studies under a root."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._entries: Dict[str, StudyEntry] = {}
        self._lock = threading.Lock()
        self.refresh()

    # ------------------------------------------------------------------
    def _discover(self) -> Dict[str, Path]:
        found: Dict[str, Path] = {}
        if (self.root / "manifest.json").exists():
            found[self.root.resolve().name or "study"] = self.root
            return found
        if not self.root.is_dir():
            return found
        for child in sorted(self.root.iterdir()):
            if child.is_dir() and (child / "manifest.json").exists():
                found[child.name] = child
        return found

    def refresh(self) -> None:
        """Rescan the root; rebuild entries whose manifest changed.

        All disk work — staleness probes and entry construction, which
        reads the manifest and hashes nothing — happens *outside* the
        lock, then the fresh entry map is swapped in atomically:
        concurrent ``get()``/``listing()`` calls never stall behind a
        rebuild.  A rebuilt entry's aggregation is not thrown away
        either — its persisted sidecar snapshot (written by
        ``StudyEntry.study()``) carries the unchanged shards' state
        across the rebuild, so the new entry re-ingests only the delta.
        A study whose manifest is missing, torn, from another version
        or records a shard without a digest is skipped until a refresh
        finds it readable.
        """
        found = self._discover()
        with self._lock:
            current = dict(self._entries)
        fresh: Dict[str, StudyEntry] = {}
        for study_id, directory in found.items():
            entry = current.get(study_id)
            if entry is not None and entry.is_current():
                fresh[study_id] = entry
                continue
            try:
                fresh[study_id] = StudyEntry(study_id, directory)
            except (FileNotFoundError, ManifestError):
                # Vanished since _discover(), or its manifest is torn
                # or unreadable; the next refresh retries it.
                continue
        with self._lock:
            self._entries = fresh

    # ------------------------------------------------------------------
    def study_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._entries)

    def get(self, study_id: str) -> StudyEntry:
        with self._lock:
            if study_id not in self._entries:
                raise KeyError(study_id)
            return self._entries[study_id]

    def listing(self) -> List[Dict]:
        with self._lock:
            return [self._entries[sid].summary()
                    for sid in sorted(self._entries)]

    def etag(self) -> str:
        with self._lock:
            return listing_etag({sid: entry.etag
                                 for sid, entry in self._entries.items()})
