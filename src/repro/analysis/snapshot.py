"""Versioned study snapshots: persist, resume, and refresh analyses.

A *snapshot* is the serialized state of a
:class:`~repro.analysis.reports.StudyAccumulator` — everything
``update()`` merges and the reports read: the ingested sites,
exfiltration events, manipulations, ``pairs_by_api``,
``store_name_counts`` and the integer counters — split into **parts**,
one per ingested shard, each pinned to that shard file's SHA-256.
An exfiltration event is the row ``[site, name, creator, actor,
destination, api_of_cookie]`` and a manipulation the row ``[site,
name, creator, actor, kind, api_of_cookie, attrs]``: the fields a
report reads, and no more.

Because accumulators merge associatively (proven by
``tests/test_fastpath_equivalence.py``) and every report derivation is
order-independent, *save → load → refresh against the dataset*
produces byte-identical report output to a monolithic pass.

The per-shard digest binding is what buys **partial refresh**
(:func:`refresh_study`): diff the snapshot's recorded digests against
the dataset's current :class:`~repro.crawler.storage.ShardManifest`,
re-ingest only shards whose bytes changed, and merge the untouched
parts back in — O(delta) instead of O(population).

Snapshots are a *new, explicitly versioned* artifact (the
``QUEUE_VERSION``/``SHARD_FORMAT_VERSION`` precedent): shard bytes,
shard digests, cache keys, and ETags are untouched by their existence.
The file layout is canonical JSON (sorted keys, compact separators)
stamped with a SHA-256 over its own payload, so equal states are equal
bytes and a torn or hand-edited file is refused on load.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..crawler.storage import ShardManifest, atomic_write
from .attribution import CookiePair, CrossDomainAction
from .columnar import iter_shard_batches
from .exfiltration import ExfilEvent
from .reports import COUNTER_FIELDS, Study, StudyAccumulator

__all__ = [
    "SNAPSHOT_VERSION",
    "RefreshResult",
    "SnapshotError",
    "SnapshotPart",
    "StudySnapshot",
    "accumulator_state",
    "load_snapshot",
    "refresh_study",
    "save_snapshot",
    "state_accumulator",
]

#: Version of the snapshot file format.  Bumped whenever the serialized
#: accumulator state changes shape; a mismatched file is refused with a
#: clear "re-analyze" message rather than silently misread.
SNAPSHOT_VERSION = 3


class SnapshotError(ValueError):
    """A snapshot file is missing, corrupt, or from another version."""


# ---------------------------------------------------------------------------
# Accumulator state <-> canonical JSONable dict
# ---------------------------------------------------------------------------

def accumulator_state(acc: StudyAccumulator) -> Dict:
    """The accumulator's mergeable state as a canonical JSONable dict.

    Event lists are sorted on their full field tuples and set-valued
    fields become sorted lists, so two accumulators holding the same
    state serialize to identical bytes regardless of ingestion order —
    the property that makes snapshot files, and therefore their stamped
    digests, deterministic.
    """
    exfil = sorted(
        [e.site, e.pair.name, e.pair.creator, e.actor, e.destination,
         e.api_of_cookie]
        for e in acc.exfil_events)
    manip = sorted(
        [m.site, m.pair.name, m.pair.creator, m.actor, m.kind,
         m.api_of_cookie, list(m.attrs_changed)]
        for m in acc.manipulations)
    return {
        "counters": {name: getattr(acc, name) for name in COUNTER_FIELDS},
        "sites": sorted(acc.sites),
        "exfil_events": exfil,
        "manipulations": manip,
        "pairs_by_api": {
            api: sorted([p.name, p.creator] for p in pairs)
            for api, pairs in acc.pairs_by_api.items()},
        "store_name_counts": dict(acc.store_name_counts),
    }


def state_accumulator(state: Dict) -> StudyAccumulator:
    """Rebuild a :class:`StudyAccumulator` from :func:`accumulator_state`.

    No entity map or filter list is serialized: there is one of each,
    so a part's state is a pure function of its shard's bytes.
    """
    acc = StudyAccumulator()
    try:
        for name in COUNTER_FIELDS:
            setattr(acc, name, int(state["counters"][name]))
        acc.sites.update(str(site) for site in state["sites"])
        acc.exfil_events.extend(
            ExfilEvent(site=site, pair=CookiePair(name, creator),
                       actor=actor, destination=destination,
                       api_of_cookie=api_of_cookie)
            for site, name, creator, actor, destination, api_of_cookie
            in state["exfil_events"])
        acc.manipulations.extend(
            CrossDomainAction(site=site, pair=CookiePair(name, creator),
                              actor=actor, kind=kind,
                              api_of_cookie=api_of_cookie,
                              attrs_changed=tuple(attrs))
            for site, name, creator, actor, kind, api_of_cookie, attrs
            in state["manipulations"])
        for api, pairs in state["pairs_by_api"].items():
            acc.pairs_by_api.setdefault(api, set()).update(
                CookiePair(name, creator) for name, creator in pairs)
        acc.store_name_counts = Counter(
            {str(k): int(v)
             for k, v in state["store_name_counts"].items()})
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotError(f"malformed snapshot state: {exc}") from exc
    return acc


# ---------------------------------------------------------------------------
# The snapshot object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnapshotPart:
    """One shard's worth of accumulator state, pinned to its bytes.

    ``file``/``sha256``/``count`` bind the part to a shard file: a part
    whose digest still appears in the dataset's manifest can be merged
    as-is on refresh.

    A part that :func:`refresh_study` re-ingested in this process also
    carries the live ``accumulator`` its ``state`` was read off, so
    :meth:`StudySnapshot.accumulator` merges it instead of rebuilding
    it.  It is never written or compared, and nothing mutates it.
    """

    state: Dict
    file: str
    sha256: str
    count: int
    accumulator: Optional[StudyAccumulator] = field(
        default=None, compare=False, repr=False)

    def to_dict(self) -> Dict:
        return {"state": self.state, "file": self.file,
                "sha256": self.sha256, "count": self.count}

    @classmethod
    def from_dict(cls, data: Dict) -> "SnapshotPart":
        try:
            return cls(state=dict(data["state"]), file=str(data["file"]),
                       sha256=str(data["sha256"]), count=int(data["count"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed snapshot part: {exc}") from exc


class StudySnapshot:
    """A saved analysis: versioned, digest-stamped accumulator parts.

    Parts built in this process carry their live accumulator beside
    their state (see :class:`SnapshotPart`); it is never written, so
    a loaded snapshot equals the one that was saved.
    """

    def __init__(self, parts: Iterable[SnapshotPart]):
        self.parts: Tuple[SnapshotPart, ...] = tuple(parts)

    # -- structure ------------------------------------------------------
    def to_dict(self) -> Dict:
        return {"version": SNAPSHOT_VERSION,
                "parts": [part.to_dict() for part in self.parts]}

    @classmethod
    def from_dict(cls, data: Dict) -> "StudySnapshot":
        try:
            version = int(data["version"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotError(f"malformed snapshot: {exc}") from exc
        if version != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {version} (this build "
                f"reads version {SNAPSHOT_VERSION}); re-analyze the "
                f"dataset to rebuild the snapshot")
        try:
            parts = [SnapshotPart.from_dict(p) for p in data["parts"]]
        except (KeyError, TypeError) as exc:
            raise SnapshotError(f"malformed snapshot: {exc}") from exc
        return cls(parts)

    def part_by_digest(self) -> Dict[str, SnapshotPart]:
        """Parts keyed by their pinned SHA-256."""
        return {part.sha256: part for part in self.parts}

    # -- payload bytes ----------------------------------------------------
    def payload_bytes(self) -> bytes:
        """Canonical serialization of the snapshot body (digest input)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def digest(self) -> str:
        return hashlib.sha256(self.payload_bytes()).hexdigest()

    # -- back to an accumulator -----------------------------------------
    def accumulator(self) -> StudyAccumulator:
        """Merge every part into one resumed :class:`StudyAccumulator`.

        A part's live accumulator is merged as it is; only a reused or
        loaded part is rebuilt from its state.  ``update()`` only reads
        its argument, and every report derivation is order-independent,
        so both give the same reports.  ``update()`` also enforces the
        no-overlapping-sites invariant, so a snapshot holding the same
        shard twice fails loudly here.
        """
        out = StudyAccumulator()
        for part in self.parts:
            out.update(part.accumulator if part.accumulator is not None
                       else state_accumulator(part.state))
        return out

    def study(self) -> Study:
        return Study.from_accumulator(self.accumulator())


# ---------------------------------------------------------------------------
# Save / load
# ---------------------------------------------------------------------------

def save_snapshot(snapshot: StudySnapshot, path: Union[str, Path]) -> Path:
    """Write a snapshot with :func:`~repro.crawler.storage.atomic_write`,
    digest-stamped.

    The file is the canonical payload plus a ``sha256`` stamp over that
    payload, itself rendered canonically — saving the same state always
    produces the same bytes, and :func:`load_snapshot` verifies the
    stamp so a torn write or hand edit is refused rather than merged
    into an analysis.

    The payload is serialized once.  Its last key is ``"version"``, and
    ``"sha256"`` sorts just before it, so splicing the stamp in before
    the last ``,"version":`` gives the bytes ``json.dumps`` would write
    for the stamped body.  An earlier ``,"version":`` (a cookie named
    ``version`` in a part's state) is never the last one.
    """
    payload = snapshot.payload_bytes()
    stamp = hashlib.sha256(payload).hexdigest().encode("ascii")
    cut = payload.rindex(b',"version":')
    return atomic_write(path, payload[:cut] + b',"sha256":"' + stamp + b'"'
                        + payload[cut:] + b"\n")


def load_snapshot(path: Union[str, Path]) -> StudySnapshot:
    """Read and verify a snapshot written by :func:`save_snapshot`.

    Raises :class:`SnapshotError` on a missing/unparseable file, a
    version mismatch (with the re-analyze message), or a stamp that
    does not match the payload.
    """
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(
            f"unparseable snapshot {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SnapshotError(f"malformed snapshot {path}: not an object")
    stamp = data.pop("sha256", None)
    snapshot = StudySnapshot.from_dict(data)
    if stamp != snapshot.digest():
        raise SnapshotError(
            f"snapshot {path} is corrupt: payload hashes to "
            f"{snapshot.digest()[:12]}…, file records "
            f"{str(stamp)[:12]}…; re-analyze the dataset to rebuild it")
    return snapshot


# ---------------------------------------------------------------------------
# Building and refreshing from a sharded dataset
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RefreshResult:
    """What :func:`refresh_study` did, shard by shard."""

    snapshot: StudySnapshot
    reused: Tuple[str, ...]        # shard files merged from old parts
    reingested: Tuple[str, ...]    # shard files re-analyzed from bytes
    dropped: int                   # old parts no longer in the dataset

    @property
    def changed(self) -> bool:
        """Did the refresh produce different parts than the old snapshot?"""
        return bool(self.reingested) or self.dropped > 0


def _ingest_shard(dataset: Path, manifest: ShardManifest,
                  pos: int) -> StudyAccumulator:
    """Analyze shard ``pos``, which must hold ``manifest``'s count and
    hash to its digest — the digest its snapshot part is filed under."""
    acc = StudyAccumulator()
    for batch in iter_shard_batches(dataset, shard=pos, manifest=manifest):
        acc.add_shard_batch(batch)
    return acc


def refresh_study(snapshot: Optional[StudySnapshot],
                  dataset: Union[str, Path], *,
                  manifest: Optional[ShardManifest] = None
                  ) -> RefreshResult:
    """Bring a snapshot up to date with a dataset's current bytes.

    Diffs the old snapshot's per-part digests against the shard digests
    of ``manifest`` (by default the dataset's own ``manifest.json``):
    parts whose shard bytes are unchanged are merged as-is,
    changed/added shards are re-ingested (columnar batches, same path
    as a cold build), and parts for shards that no longer exist are
    dropped.  A re-ingested shard must hold its manifest count and its
    bytes must hash to its manifest digest, the one its new part is
    filed under, or :class:`~repro.crawler.storage.ManifestError`
    names it.  With ``snapshot=None`` this is a full per-shard build —
    the one code path produces both cold snapshots and incremental
    refreshes, so they cannot drift apart.

    A part's state is a pure function of its shard's bytes, because
    the filter list and the entity map are fixed, never per call: digest
    equality is sufficient for reuse, as it is for the shard cache.
    """
    dataset = Path(dataset)
    if manifest is None:
        manifest = ShardManifest.load(dataset)
    old = snapshot.part_by_digest() if snapshot is not None else {}
    parts: List[SnapshotPart] = []
    reused: List[str] = []
    reingested: List[str] = []
    seen: set = set()
    for pos, name in enumerate(manifest.files):
        digest = manifest.digests[pos]
        seen.add(digest)
        part = old.get(digest)
        if part is not None:
            # Same bytes, possibly renamed: keep the state, rebind it.
            parts.append(SnapshotPart(state=part.state, file=name,
                                      sha256=digest,
                                      count=manifest.counts[pos]))
            reused.append(name)
            continue
        acc = _ingest_shard(dataset, manifest, pos)
        parts.append(SnapshotPart(state=accumulator_state(acc), file=name,
                                  sha256=digest,
                                  count=manifest.counts[pos],
                                  accumulator=acc))
        reingested.append(name)
    dropped = sum(1 for digest in old if digest not in seen)
    return RefreshResult(snapshot=StudySnapshot(parts),
                         reused=tuple(reused),
                         reingested=tuple(reingested), dropped=dropped)
