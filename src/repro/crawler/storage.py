"""Persistence for crawl datasets: columnar row-group shards.

A crawl dataset is a directory: ``shard-0000.jsonl[.gz] …
shard-NNNN.jsonl[.gz]`` plus a ``manifest.json`` recording every
shard's file name, log count and SHA-256.  This is what the crawl
coordinator's workers stream to, so a full-scale crawl never has to
hold every :class:`VisitLog` in memory at once.  :func:`save_logs`
writes one; a path without a manifest — a bare shard file included —
is refused by every reader with :class:`ManifestError`.

**Shard bytes (format v3).**  A shard file is a sequence of *row
groups*, each holding :data:`ROW_GROUP_VISITS` consecutive visits (the
last may hold fewer; an empty shard holds one empty group).  A row
group is the batch columns of
:func:`repro.analysis.columnar.encode_row_group`: an interned string
table, a table of interned tuples, and one little-endian fixed-width
array per column.  In a gzip shard every row group is its own gzip
member with the header ``GzipFile(filename="", mtime=0)`` writes, so
the file is valid multi-member gzip and its bytes are a pure function
of the logs; a plain shard holds the same group bytes uncompressed.
File names keep their historical ``.jsonl`` suffix: the manifest's
version (:data:`MANIFEST_VERSION` 2), not the suffix, says what the
bytes are.  Every reader — :func:`iter_logs`, :func:`load_shard`,
:func:`read_site`, :func:`repro.analysis.columnar.iter_shard_batches`
— decodes through :func:`repro.analysis.columnar.decode_row_group`,
and a shard must hold its manifest count and hash to its manifest
digest, or the read fails with :class:`ManifestError` naming the
shard.

A single-site lookup (:func:`locate_site`, under :func:`read_site` and
the :mod:`repro.serve` HTTP catalog) reads and decodes the one row
group holding the site.  It finds the group through a
:class:`ShardIndex` — for each rank, the on-disk byte offset and length
of its row group and its row in the group — which
:func:`load_shard_index` builds by reading the shard through the same
checked reader, so an index exists only for bytes that passed the
shard's digest and count checks.  Indexes live in memory, for as long
as their caller keeps them; nothing but the shards and the manifest is
ever written.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List,
                    Optional, Sequence, Tuple, Union)

from ..faults import InjectedFault, maybe_fire
from ..records import VisitLog

if TYPE_CHECKING:   # the codec imports this package; import it lazily
    from ..analysis.columnar import ShardBatch

__all__ = [
    "ManifestError",
    "ROW_GROUP_VISITS",
    "SHARD_FORMAT_VERSION",
    "ShardIndex",
    "ShardManifest",
    "ShardWriteResult",
    "atomic_write",
    "compute_digest",
    "iter_logs",
    "load_logs",
    "load_shard",
    "load_shard_index",
    "locate_site",
    "read_site",
    "save_logs",
    "shard_filename",
    "verify_shard_files",
    "write_shard",
]

MANIFEST_NAME = "manifest.json"
#: Version 2 describes a format-v3 (row-group) dataset.  Version 1
#: manifests describe JSON-lines shards, which no reader here decodes.
MANIFEST_VERSION = 2

#: Version of the shard *byte* format.  Bumped whenever the serializer
#: changes the bytes it emits for the same logs (v2: compact JSON
#: separators; v3: columnar row groups) — it is part of the shard-cache
#: key, so entries written by an older serializer can never be mixed
#: into a newer run.
SHARD_FORMAT_VERSION = 3

#: Visits per row group.  Larger groups decode a dataset faster (fewer
#: tables, longer arrays); smaller ones make a single-site lookup read
#: and decode less.  Part of the format: changing it changes bytes.
ROW_GROUP_VISITS = 4

#: Deflate level of gzip shards.  Part of the format, like the above.
GZIP_LEVEL = 6

#: What ``GzipFile(filename="", mtime=0)`` writes before a member's
#: deflate stream: no name, zero mtime, its extra-flags byte for the
#: level, and OS byte 255 — identical on every interpreter, unlike
#: ``gzip.compress``, whose OS byte varies between Python versions.
_GZIP_HEADER = (b"\x1f\x8b\x08\x00\x00\x00\x00\x00"
                + {9: b"\x02", 1: b"\x04"}.get(GZIP_LEVEL, b"\x00")
                + b"\xff")


class ManifestError(ValueError):
    """A dataset's manifest or shard bytes are missing, malformed, or
    stale."""


def compute_digest(path: Union[str, Path]) -> str:
    """SHA-256 over a file's raw (on-disk, possibly compressed) bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def atomic_write(path: Union[str, Path], data: bytes) -> Path:
    """Publish ``data`` at ``path`` whole or not at all.

    The bytes go to ``<name>.tmp`` beside ``path``, are fsynced, and
    the temp file is renamed over ``path`` with ``os.replace``, so a
    reader sees the old file or the new one, never a prefix.  Without
    the fsync, an OS crash could reorder the rename ahead of the data
    blocks and publish a file full of holes.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def _is_gzip(name: str) -> bool:
    return name.endswith(".gz")


def shard_filename(index: int, compress: bool = False) -> str:
    return f"shard-{index:04d}.jsonl" + (".gz" if compress else "")


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardManifest:
    """Describes a crawl dataset directory (``manifest.json``).

    Every shard has a file name, a log count and a SHA-256 over its raw
    file bytes.  The digest pins the shard file byte-for-byte, which is
    what makes distributed retry, the shard cache, snapshot parts and
    ETags verifiable (see :mod:`repro.crawler.distributed`); a manifest
    with a shard that records no digest is refused on load.
    """

    n_shards: int
    total: int
    compress: bool
    files: tuple          # shard file names, indexed by shard
    counts: tuple         # logs per shard, indexed by shard
    digests: tuple        # sha256 hex per shard, indexed by shard

    def to_dict(self) -> Dict:
        return {
            "version": MANIFEST_VERSION,
            "n_shards": self.n_shards,
            "total": self.total,
            "compress": self.compress,
            "shards": [{"index": i, "file": name, "count": count,
                        "sha256": digest}
                       for i, (name, count, digest) in enumerate(
                           zip(self.files, self.counts, self.digests))],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ShardManifest":
        try:
            version = int(data["version"])
            if version == 1:
                raise ManifestError(
                    "manifest version 1 describes JSON-lines shards "
                    "(format v2), which this build no longer reads; "
                    "re-crawl into a fresh directory")
            if version != MANIFEST_VERSION:
                raise ManifestError(
                    f"unsupported manifest version {version} "
                    f"(expected {MANIFEST_VERSION})")
            shards = sorted(data["shards"], key=lambda s: int(s["index"]))
            indexes = [int(s["index"]) for s in shards]
            if indexes != list(range(len(shards))):
                raise ManifestError(f"non-contiguous shard indexes {indexes}")
            for pos, shard in enumerate(shards):
                if shard.get("sha256") is None:
                    raise ManifestError(
                        f"shard {pos} ({shard['file']}) records no sha256 "
                        f"in {MANIFEST_NAME}; re-crawl or re-save the "
                        f"dataset")
            manifest = cls(
                n_shards=int(data["n_shards"]),
                total=int(data["total"]),
                compress=bool(data["compress"]),
                files=tuple(str(s["file"]) for s in shards),
                counts=tuple(int(s["count"]) for s in shards),
                digests=tuple(str(s["sha256"]) for s in shards),
            )
        except ManifestError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest: {exc}") from exc
        if manifest.n_shards != len(manifest.files):
            raise ManifestError(
                f"manifest lists {len(manifest.files)} shards "
                f"but declares n_shards={manifest.n_shards}")
        if manifest.total != sum(manifest.counts):
            raise ManifestError(
                f"manifest total {manifest.total} != "
                f"sum of shard counts {sum(manifest.counts)}")
        return manifest

    def save(self, directory: Union[str, Path]) -> Path:
        """Write ``manifest.json`` with :func:`atomic_write`.

        The manifest is the index a resuming coordinator trusts; an
        in-place write interrupted by a crash could leave a torn file
        that neither loads nor signals "no manifest yet".
        """
        text = json.dumps(self.to_dict(), indent=2) + "\n"
        return atomic_write(Path(directory) / MANIFEST_NAME,
                            text.encode("utf-8"))

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "ShardManifest":
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise ManifestError(f"no {MANIFEST_NAME} in {directory}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ManifestError(f"unreadable manifest {path}: {exc}") from exc
        return cls.from_dict(data)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardWriteResult:
    """What writing one shard file produced: name, log count, digest."""

    name: str
    count: int
    sha256: str


def _gzip_member(data: bytes) -> bytes:
    """``data`` as one gzip member, byte-identical to what
    ``GzipFile(filename="", mode="wb", mtime=0)`` writes for it."""
    deflate = zlib.compressobj(GZIP_LEVEL, zlib.DEFLATED, -zlib.MAX_WBITS,
                               zlib.DEF_MEM_LEVEL, 0)
    return b"".join((_GZIP_HEADER, deflate.compress(data), deflate.flush(),
                     struct.pack("<II", zlib.crc32(data),
                                 len(data) & 0xFFFFFFFF)))


def write_shard(logs: Iterable[VisitLog], directory: Union[str, Path],
                index: int, compress: bool = False) -> ShardWriteResult:
    """Write one shard file into ``directory``; returns name/count/digest.

    Used by :func:`save_logs` and by the coordinator's workers, which
    each own one shard; the :class:`ShardManifest` is assembled from
    the returned digests afterwards.  Logs are encoded
    :data:`ROW_GROUP_VISITS` at a time, so memory stays O(group), and
    the on-disk bytes are digested as they are written (no read-back
    pass).  Gzip output is deterministic (zeroed header), so the digest
    is a pure function of the logs.
    """
    from ..analysis.columnar import ShardBatch, encode_row_group
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = shard_filename(index, compress)
    sha = hashlib.sha256()
    count = 0
    with open(directory / name, "wb") as out:
        def flush(chunk: List[VisitLog]) -> None:
            group = encode_row_group(ShardBatch.from_logs(chunk))
            if compress:
                group = _gzip_member(group)
            out.write(group)
            sha.update(group)

        chunk: List[VisitLog] = []
        for log in logs:
            chunk.append(log)
            count += 1
            if len(chunk) == ROW_GROUP_VISITS:
                flush(chunk)
                chunk = []
        if chunk or not count:
            flush(chunk)
    point = maybe_fire("storage.write_shard", scope=str(index))
    if point is not None and point.kind == "torn":
        # Simulate a crash mid-write: truncate the freshly written
        # shard and fail the task.  The retry rewrites the file from
        # scratch, so the recorded digest must still be reproduced.
        with open(directory / name, "r+b") as handle:
            handle.truncate(max(handle.seek(0, 2) // 2, 1))
        raise InjectedFault(f"torn shard write: {name}")
    return ShardWriteResult(name=name, count=count, sha256=sha.hexdigest())


def save_logs(logs: Iterable[VisitLog], path: Union[str, Path],
              shards: int = 1, compress: bool = False) -> int:
    """Write a crawl dataset directory; returns the number of logs written.

    The logs are split into ``shards`` near-even contiguous runs (in
    the given order), one shard file each, plus ``manifest.json``.
    """
    path = Path(path)
    n_shards = max(shards, 1)
    logs = list(logs)
    path.mkdir(parents=True, exist_ok=True)
    base, extra = divmod(len(logs), n_shards)
    counts: List[int] = []
    files: List[str] = []
    digests: List[str] = []
    start = 0
    for index in range(n_shards):
        size = base + (1 if index < extra else 0)
        chunk = logs[start:start + size]
        start += size
        written = write_shard(chunk, path, index, compress=compress)
        files.append(written.name)
        counts.append(written.count)
        digests.append(written.sha256)
    ShardManifest(n_shards=n_shards, total=len(logs), compress=compress,
                  files=tuple(files), counts=tuple(counts),
                  digests=tuple(digests)).save(path)
    return len(logs)


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------

def _row_groups(data: bytes, compressed: bool
                ) -> Iterator[Tuple[int, int, bytes]]:
    """(on-disk offset, on-disk length, row-group bytes) of each group.

    Raises :class:`~repro.analysis.columnar.RowGroupError` on bytes
    that do not frame into whole groups (truncation, a bad gzip member,
    a JSON-lines shard from before format v3).
    """
    from ..analysis.columnar import RowGroupError, row_group_length
    offset = 0
    end = len(data)
    view = memoryview(data)
    while offset < end:
        if compressed:
            inflate = zlib.decompressobj(16 + zlib.MAX_WBITS)
            try:
                group = inflate.decompress(view[offset:])
            except zlib.error as exc:
                raise RowGroupError(
                    f"bad gzip member at byte {offset}: {exc}") from exc
            if not inflate.eof:
                raise RowGroupError(
                    f"truncated gzip member at byte {offset}")
            length = end - offset - len(inflate.unused_data)
        else:
            length = row_group_length(view[offset:offset + 8])
            if offset + length > end:
                raise RowGroupError(
                    f"truncated row group at byte {offset}: {length} "
                    f"bytes declared, {end - offset} present")
            group = view[offset:offset + length]
        yield offset, length, group
        offset += length


def _read_shard_bytes(path: Path, label: str,
                      sha256: Optional[str]) -> bytes:
    """A shard file's bytes, checked against ``sha256`` when given."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ManifestError(f"missing shard file {path}") from None
    if sha256 is not None:
        actual = hashlib.sha256(data).hexdigest()
        if actual != sha256:
            raise ManifestError(f"{label} hashes to {actual[:12]}…, "
                                f"manifest records {sha256[:12]}…")
    return data


def _file_groups(path: Path, label: str, count: Optional[int] = None,
                 sha256: Optional[str] = None
                 ) -> Iterator[Tuple[int, int, ShardBatch]]:
    """The one shard reader: (on-disk offset, on-disk length, batch) per
    row group of one file, its digest checked before the first group
    and its row count after the last."""
    from ..analysis.columnar import RowGroupError, decode_row_group
    data = _read_shard_bytes(path, label, sha256)
    layout = "gzip" if _is_gzip(path.name) else "plain"
    seen = 0
    try:
        for offset, length, group in _row_groups(data, layout == "gzip"):
            batch = decode_row_group(group)
            seen += len(batch)
            yield offset, length, batch
    except RowGroupError as exc:
        raise ManifestError(f"{label} is not a readable {layout} "
                            f"row-group shard: {exc}") from exc
    if count is not None and seen != count:
        raise ManifestError(f"{label} holds {seen} logs, "
                            f"manifest says {count}")


def _iter_batches(directory: Union[str, Path], *,
                  shard: Optional[int] = None,
                  manifest: Optional[ShardManifest] = None
                  ) -> Iterator[ShardBatch]:
    """Batches of a dataset directory, or (with ``shard``) of one of its
    shards; see ``iter_shard_batches``."""
    directory = Path(directory)
    if manifest is None:
        manifest = ShardManifest.load(directory)
    if shard is None:
        positions: Iterable[int] = range(manifest.n_shards)
    elif 0 <= shard < manifest.n_shards:
        positions = (shard,)
    else:
        raise ManifestError(f"shard index {shard} out of range "
                            f"0..{manifest.n_shards - 1}")
    for pos in positions:
        name = manifest.files[pos]
        for _offset, _length, batch in _file_groups(
                directory / name, f"shard {pos} ({name})",
                manifest.counts[pos], manifest.digests[pos]):
            if len(batch):
                yield batch


def iter_logs(directory: Union[str, Path]) -> Iterator[VisitLog]:
    """Stream a dataset directory one :class:`VisitLog` at a time.

    Shards stream in index order and each shard's log count and digest
    are checked against the manifest (:class:`ManifestError` on a
    mismatch, a missing file or a missing manifest).
    """
    for batch in _iter_batches(directory):
        yield from map(batch.log, range(len(batch)))


def load_logs(directory: Union[str, Path]) -> List[VisitLog]:
    """Read a crawl dataset directory (see :func:`iter_logs`)."""
    return list(iter_logs(directory))


def load_shard(directory: Union[str, Path], index: int) -> List[VisitLog]:
    """Read one shard of a dataset directory (count and digest checked)."""
    return [log for batch in _iter_batches(directory, shard=index)
            for log in batch.logs()]


def verify_shard_files(directory: Union[str, Path],
                       manifest: Optional[ShardManifest] = None) -> None:
    """Check every shard file against the manifest's recorded digests.

    Raises :class:`ManifestError` naming the first shard whose file is
    missing or whose bytes do not hash to the recorded SHA-256.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = ShardManifest.load(directory)
    for index, (name, expected) in enumerate(zip(manifest.files,
                                                 manifest.digests)):
        shard_path = directory / name
        if not shard_path.exists():
            raise ManifestError(f"manifest lists missing shard {name}")
        actual = compute_digest(shard_path)
        if actual != expected:
            raise ManifestError(
                f"shard {index} ({name}) hashes to {actual[:12]}…, "
                f"manifest records {expected[:12]}…")


# ---------------------------------------------------------------------------
# Shard indexes (seekable single-site lookup)
# ---------------------------------------------------------------------------

@dataclass
class ShardIndex:
    """Where each rank of one shard file lives.

    Entry ``k`` says rank ``ranks[k]`` is row ``rows[k]`` of the row
    group stored at byte ``offsets[k]`` of the shard file, ``lengths[k]``
    bytes long on disk (a whole gzip member for gzip shards).  Built by
    :func:`load_shard_index` from the shard's checked bytes; never
    written anywhere.
    """

    ranks: Sequence[int]
    offsets: Sequence[int]
    lengths: Sequence[int]
    rows: Sequence[int]

    def __post_init__(self) -> None:
        self._by_rank: Dict[int, Tuple[int, int, int]] = {
            rank: (offset, length, row)
            for rank, offset, length, row in zip(self.ranks, self.offsets,
                                                 self.lengths, self.rows)}

    def entry_for(self, rank: int) -> Optional[Tuple[int, int, int]]:
        """(group offset, group length, row) of ``rank``, or None."""
        return self._by_rank.get(rank)


def load_shard_index(directory: Union[str, Path], shard_name: str,
                     sha256: Optional[str] = None,
                     count: Optional[int] = None) -> ShardIndex:
    """Index ``shard_name`` by reading it through the one shard reader.

    Given ``sha256`` and ``count`` — the manifest's digest and row count
    for the shard — the shard is checked exactly as a full read checks
    it, and a shard that fails either check raises
    :class:`ManifestError` naming it.
    """
    ranks: List[int] = []
    offsets: List[int] = []
    lengths: List[int] = []
    rows: List[int] = []
    for offset, length, batch in _file_groups(
            Path(directory) / shard_name, shard_name, count, sha256):
        ranks.extend(batch.ranks)
        offsets.extend([offset] * len(batch))
        lengths.extend([length] * len(batch))
        rows.extend(range(len(batch)))
    return ShardIndex(ranks=ranks, offsets=offsets, lengths=lengths,
                      rows=rows)


def _read_group(directory: Path, manifest: ShardManifest, pos: int,
                rank: int, entry: Tuple[int, int, int]
                ) -> Tuple[ShardBatch, int]:
    """Decode the one row group an index entry points at."""
    from ..analysis.columnar import RowGroupError, decode_row_group
    offset, length, row = entry
    name = manifest.files[pos]
    with open(directory / name, "rb") as handle:
        handle.seek(offset)
        data = handle.read(length)
    try:
        if _is_gzip(name):
            data = zlib.decompress(data, 16 + zlib.MAX_WBITS)
        batch = decode_row_group(data)
    except (zlib.error, RowGroupError) as exc:
        raise ManifestError(f"shard {pos} ({name}): unreadable row group "
                            f"at byte {offset}: {exc}") from exc
    if not (0 <= row < len(batch) and batch.ranks[row] == rank):
        raise ManifestError(f"shard {pos} ({name}): its index puts rank "
                            f"{rank} at row {row} of the group at byte "
                            f"{offset}, which does not hold it")
    return batch, row


def locate_site(directory: Union[str, Path], rank: int, *,
                manifest: Optional[ShardManifest] = None,
                index_cache: Optional[Dict[int, ShardIndex]] = None
                ) -> Tuple[ShardBatch, int]:
    """The decoded row group holding ``rank``, and the rank's row in it.

    The lookup under :func:`read_site` and the :mod:`repro.serve` site
    endpoint, which renders ``batch.row_dict(row)``; same contract as
    :func:`read_site`.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = ShardManifest.load(directory)
    for pos, name in enumerate(manifest.files):
        index = index_cache.get(pos) if index_cache is not None else None
        if index is None:
            index = load_shard_index(directory, name, manifest.digests[pos],
                                     manifest.counts[pos])
            if index_cache is not None:
                index_cache[pos] = index
        entry = index.entry_for(rank)
        if entry is not None:
            return _read_group(directory, manifest, pos, rank, entry)
    raise KeyError(f"rank {rank} is not in the dataset at {directory}")


def read_site(directory: Union[str, Path], rank: int, *,
              manifest: Optional[ShardManifest] = None,
              index_cache: Optional[Dict[int, ShardIndex]] = None
              ) -> VisitLog:
    """Fetch one site's :class:`VisitLog` from a sharded dataset by rank.

    Indexes the shards in order (:func:`load_shard_index`, with the
    manifest's digest and count checks) until one lists ``rank``, then
    reads and decodes the one row group holding the site.
    ``index_cache`` — a caller-owned dict keyed by shard position —
    keeps the indexes across calls, so each shard is read once.
    Raises :class:`KeyError` when no shard holds ``rank`` and
    :class:`ManifestError` when a shard fails its checks or the bytes
    an index points at are no longer the group it describes.
    """
    batch, row = locate_site(directory, rank, manifest=manifest,
                             index_cache=index_cache)
    return batch.log(row)
