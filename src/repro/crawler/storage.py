"""Persistence for crawl datasets: columnar row-group shards.

Two on-disk layouts are supported:

* **Single file** — one shard file, no manifest.
* **Sharded directory** — ``shard-0000.jsonl[.gz] … shard-NNNN.jsonl[.gz]``
  plus a ``manifest.json`` describing the shards.  This is what the
  crawl coordinator's workers stream to, so a full-scale crawl never
  has to hold every :class:`VisitLog` in memory at once.

``save_logs``/``load_logs`` speak both layouts: pass ``shards=N`` (or a
directory path) to write the sharded form; ``load_logs`` detects a
manifest directory automatically and validates it while reading.

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
and a shard listed in a manifest must hold the manifest's count and
hash to its recorded digest, or the read fails with
:class:`ManifestError` naming the shard.

Sharded writes also emit a **sidecar index** per shard
(``shard-NNNN.index.json``): for each rank, the on-disk byte offset and
length of its row group and its row in the group, plus the shard
file's SHA-256 so a stale sidecar (shard rewritten without its index)
is detected and ignored (:func:`load_shard_index` given the shard's
digest).  :func:`locate_site` uses the sidecars to find a single site
by reading and decoding one row group — the lookup primitive under
:func:`read_site` and the :mod:`repro.serve` HTTP catalog — falling
back to a scan over the shard's groups when no usable sidecar exists
(:func:`build_shard_indexes` backfills them in one shot).  The sidecar
is derived data: shard bytes, digests, and :data:`SHARD_FORMAT_VERSION`
are untouched by its existence.
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
                    NamedTuple, Optional, Sequence, Tuple, Union)

from ..faults import InjectedFault, maybe_fire
from .logs import VisitLog

if TYPE_CHECKING:   # the codec imports this package; import it lazily
    from ..analysis.columnar import ShardBatch

__all__ = [
    "CrawlDataset",
    "IndexBuildResult",
    "ManifestError",
    "ROW_GROUP_VISITS",
    "SHARD_FORMAT_VERSION",
    "SHARD_INDEX_VERSION",
    "ShardIndex",
    "ShardManifest",
    "ShardWriteResult",
    "build_shard_indexes",
    "compute_digest",
    "dataset_digests",
    "index_filename",
    "iter_logs",
    "load_logs",
    "load_shard",
    "load_shard_index",
    "locate_site",
    "shard_index_from_bytes",
    "shard_index_to_bytes",
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

#: Version of the sidecar ``*.index.json`` format.  Independent of the
#: shard byte format: the sidecar is derived data and never enters
#: digests, cache keys, or the golden fixture.  Version 2 points each
#: rank at a row group (offset, length) and a row within it.
SHARD_INDEX_VERSION = 2

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


def dataset_digests(directory: Union[str, Path],
                    manifest: Optional["ShardManifest"] = None
                    ) -> Tuple[str, ...]:
    """Every shard's SHA-256, in shard order, for a sharded dataset.

    Manifest-recorded digests are trusted verbatim; pre-digest
    manifests fall back to hashing the shard files.  This is the
    complete digest list the serve catalog's ETags derive from and the
    snapshot layer diffs against (:mod:`repro.analysis.snapshot`).
    """
    directory = Path(directory)
    if manifest is None:
        manifest = ShardManifest.load(directory)
    return tuple(
        manifest.digest_for(pos) or compute_digest(directory / name)
        for pos, name in enumerate(manifest.files))


def _is_gzip(name: str) -> bool:
    return name.endswith(".gz")


def shard_filename(index: int, compress: bool = False) -> str:
    return f"shard-{index:04d}.jsonl" + (".gz" if compress else "")


def index_filename(shard_name: str) -> str:
    """Sidecar index name for a shard file name.

    ``shard-0003.jsonl`` and ``shard-0003.jsonl.gz`` both map to
    ``shard-0003.index.json``; the sidecar itself names the file it
    describes.
    """
    base = shard_name
    if base.endswith(".gz"):
        base = base[:-len(".gz")]
    if base.endswith(".jsonl"):
        base = base[:-len(".jsonl")]
    return base + ".index.json"


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardManifest:
    """Describes a sharded crawl directory (``manifest.json``).

    ``digests`` — per-shard SHA-256 over the raw shard-file bytes — is
    optional (entries may be ``None``): datasets written before digests
    existed still load.  When present, a digest pins the shard file
    byte-for-byte, which is what makes distributed retry and the shard
    cache verifiable (see :mod:`repro.crawler.distributed`).
    """

    n_shards: int
    total: int
    compress: bool
    files: tuple          # shard file names, indexed by shard
    counts: tuple         # logs per shard, indexed by shard
    digests: tuple = ()   # sha256 hex (or None) per shard; () = none known
    version: int = MANIFEST_VERSION

    def digest_for(self, index: int) -> Optional[str]:
        if 0 <= index < len(self.digests):
            return self.digests[index]
        return None

    def to_dict(self) -> Dict:
        shards = []
        for i, (name, count) in enumerate(zip(self.files, self.counts)):
            entry: Dict = {"index": i, "file": name, "count": count}
            digest = self.digest_for(i)
            if digest is not None:
                entry["sha256"] = digest
            shards.append(entry)
        return {
            "version": self.version,
            "n_shards": self.n_shards,
            "total": self.total,
            "compress": self.compress,
            "shards": shards,
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
            digests = tuple(
                str(s["sha256"]) if s.get("sha256") is not None else None
                for s in shards)
            if all(d is None for d in digests):
                digests = ()
            manifest = cls(
                n_shards=int(data["n_shards"]),
                total=int(data["total"]),
                compress=bool(data["compress"]),
                files=tuple(str(s["file"]) for s in shards),
                counts=tuple(int(s["count"]) for s in shards),
                digests=digests,
            )
        except ManifestError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"malformed manifest: {exc}") from exc
        if manifest.n_shards != len(manifest.files):
            raise ManifestError(
                f"manifest lists {len(manifest.files)} shards "
                f"but declares n_shards={manifest.n_shards}")
        if manifest.digests and len(manifest.digests) != len(manifest.files):
            raise ManifestError(
                f"manifest carries {len(manifest.digests)} digests "
                f"for {len(manifest.files)} shards")
        if manifest.total != sum(manifest.counts):
            raise ManifestError(
                f"manifest total {manifest.total} != "
                f"sum of shard counts {sum(manifest.counts)}")
        return manifest

    def save(self, directory: Union[str, Path]) -> Path:
        """Write ``manifest.json`` atomically (temp file + ``os.replace``).

        The manifest is the index a resuming coordinator trusts; an
        in-place write interrupted by a crash could leave a torn file
        that neither loads nor signals "no manifest yet".  With the
        rename, readers see either the old complete manifest or the new
        one, never a prefix.  The tmp file is fsynced before the rename:
        without it, an OS crash could reorder the rename ahead of the
        data blocks and publish a manifest full of holes.
        """
        path = Path(directory) / MANIFEST_NAME
        tmp = path.with_name(MANIFEST_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(self.to_dict(), indent=2) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "ShardManifest":
        path = Path(directory) / MANIFEST_NAME
        if not path.exists():
            raise ManifestError(f"no {MANIFEST_NAME} in {directory}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
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


def _write_shard(logs: Iterable[VisitLog], path: Path,
                 index_path: Optional[Path] = None) -> ShardWriteResult:
    """Stream logs to ``path`` as row groups; returns count + digest.

    Logs are encoded :data:`ROW_GROUP_VISITS` at a time, so memory
    stays O(group).  The on-disk bytes are digested as they are
    written (no read-back pass).  With ``index_path``, a sidecar
    rank → (group offset, group length, row) index is written
    alongside; the shard bytes are identical with or without it.
    """
    from ..analysis.columnar import ShardBatch, encode_row_group
    compress = _is_gzip(path.name)
    sha = hashlib.sha256()
    ranks: List[int] = []
    offsets: List[int] = []
    lengths: List[int] = []
    rows: List[int] = []
    count = 0
    with open(path, "wb") as out:
        def flush(chunk: List[VisitLog]) -> None:
            batch = ShardBatch.from_logs(chunk)
            group = encode_row_group(batch)
            if compress:
                group = _gzip_member(group)
            ranks.extend(batch.ranks)
            offsets.extend([out.tell()] * len(chunk))
            lengths.extend([len(group)] * len(chunk))
            rows.extend(range(len(chunk)))
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
    digest = sha.hexdigest()
    if index_path is not None:
        write_shard_index(index_path, ShardIndex(
            file=path.name, count=count, sha256=digest, ranks=ranks,
            offsets=offsets, lengths=lengths, rows=rows))
    return ShardWriteResult(name=path.name, count=count, sha256=digest)


def write_shard(logs: Iterable[VisitLog], directory: Union[str, Path],
                index: int, compress: bool = False) -> ShardWriteResult:
    """Write one shard file into ``directory``; returns name/count/digest.

    Used by the coordinator's workers, which each own one shard;
    the coordinator assembles and saves the :class:`ShardManifest` from
    the returned digests afterwards.  Gzip output is deterministic
    (zeroed header), so the digest is a pure function of the logs.
    Every shard gets a sidecar index (see :func:`read_site`); the
    shard bytes themselves are unaffected.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    name = shard_filename(index, compress)
    result = _write_shard(logs, directory / name,
                          index_path=directory / index_filename(name))
    point = maybe_fire("storage.write_shard", scope=str(index))
    if point is not None and point.kind == "torn":
        # Simulate a crash mid-write: truncate the freshly written
        # shard and fail the task.  The retry rewrites the file from
        # scratch, so the recorded digest must still be reproduced.
        with open(directory / name, "r+b") as handle:
            handle.truncate(max(handle.seek(0, 2) // 2, 1))
        raise InjectedFault(f"torn shard write: {name}")
    return result


def save_logs(logs: Iterable[VisitLog], path: Union[str, Path],
              shards: Optional[int] = None, compress: bool = False) -> int:
    """Write a crawl dataset; returns the number of logs written.

    With ``shards`` unset and a file path, writes the single-file
    layout (gzipped when the name ends in ``.gz``).  With ``shards=N``
    — or when ``path`` is an existing directory — writes the sharded
    layout: logs are split into ``N`` near-even contiguous runs (in the
    given order), one file per shard, plus ``manifest.json``.
    """
    path = Path(path)
    if shards is None and not path.is_dir():
        return _write_shard(logs, path).count

    n_shards = max(int(shards or 1), 1)
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


def _file_batches(path: Path, label: str, count: Optional[int] = None,
                  sha256: Optional[str] = None) -> Iterator[ShardBatch]:
    """The one shard reader: a batch per row group of one file, its
    digest checked before the first and its row count after the last."""
    from ..analysis.columnar import RowGroupError, decode_row_group
    data = _read_shard_bytes(path, label, sha256)
    layout = "gzip" if _is_gzip(path.name) else "plain"
    seen = 0
    try:
        for _offset, _length, group in _row_groups(data, layout == "gzip"):
            batch = decode_row_group(group)
            seen += len(batch)
            if len(batch):
                yield batch
    except RowGroupError as exc:
        raise ManifestError(f"{label} is not a readable {layout} "
                            f"row-group shard: {exc}") from exc
    if count is not None and seen != count:
        raise ManifestError(f"{label} holds {seen} logs, "
                            f"manifest says {count}")


def _shard_batches(directory: Path, manifest: ShardManifest, pos: int,
                   sha256: Optional[str] = None) -> Iterator[ShardBatch]:
    name = manifest.files[pos]
    return _file_batches(directory / name, f"shard {pos} ({name})",
                         manifest.counts[pos],
                         sha256 or manifest.digest_for(pos))


def _iter_batches(path: Union[str, Path], *, shard: Optional[int] = None,
                  sha256: Optional[str] = None) -> Iterator[ShardBatch]:
    """Batches of a single shard file, a sharded directory, or (with
    ``shard``) one shard of a directory; see ``iter_shard_batches``."""
    path = Path(path)
    if not path.is_dir():
        if shard is not None:
            raise ManifestError(f"{path} is a single shard file, not a "
                                f"sharded directory")
        yield from _file_batches(path, f"dataset file {path}", sha256=sha256)
        return
    manifest = ShardManifest.load(path)
    if shard is None:
        for pos in range(manifest.n_shards):
            yield from _shard_batches(path, manifest, pos)
        return
    if not 0 <= shard < manifest.n_shards:
        raise ManifestError(
            f"shard index {shard} out of range 0..{manifest.n_shards - 1}")
    yield from _shard_batches(path, manifest, shard, sha256)


def iter_logs(path: Union[str, Path]) -> Iterator[VisitLog]:
    """Stream a dataset one :class:`VisitLog` at a time.

    Accepts a single shard file or a sharded directory; shards stream
    in index order and each shard's log count and digest are checked
    against the manifest (:class:`ManifestError` on mismatch or
    missing files).
    """
    for batch in _iter_batches(path):
        yield from map(batch.log, range(len(batch)))


def load_logs(path: Union[str, Path]) -> List[VisitLog]:
    """Read a crawl dataset (single file or sharded directory)."""
    return list(iter_logs(path))


def load_shard(directory: Union[str, Path], index: int) -> List[VisitLog]:
    """Read one shard of a sharded dataset (count and digest checked)."""
    return [log for batch in _iter_batches(directory, shard=index)
            for log in batch.logs()]


def verify_shard_files(directory: Union[str, Path],
                       manifest: Optional[ShardManifest] = None) -> None:
    """Check every shard file against the manifest's recorded digests.

    Raises :class:`ManifestError` naming the first shard whose file is
    missing or whose bytes do not hash to the recorded SHA-256; shards
    without a recorded digest are only checked for existence.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = ShardManifest.load(directory)
    for index, name in enumerate(manifest.files):
        shard_path = directory / name
        if not shard_path.exists():
            raise ManifestError(f"manifest lists missing shard {name}")
        expected = manifest.digest_for(index)
        if expected is None:
            continue
        actual = compute_digest(shard_path)
        if actual != expected:
            raise ManifestError(
                f"shard {index} ({name}) hashes to {actual[:12]}…, "
                f"manifest records {expected[:12]}…")


# ---------------------------------------------------------------------------
# Sidecar shard indexes (seekable single-site lookup)
# ---------------------------------------------------------------------------

@dataclass
class ShardIndex:
    """Parsed sidecar index for one shard file.

    Entry ``k`` says rank ``ranks[k]`` is row ``rows[k]`` of the row
    group stored at byte ``offsets[k]`` of the shard file, ``lengths[k]``
    bytes long on disk (a whole gzip member for gzip shards).
    ``sha256`` is the shard file's on-disk digest at index-write time —
    comparing it against the manifest's recorded digest is how a stale
    sidecar is detected.
    """

    file: str
    count: int
    sha256: str
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

    def to_dict(self) -> Dict:
        return {
            "version": SHARD_INDEX_VERSION,
            "file": self.file,
            "count": self.count,
            "sha256": self.sha256,
            "ranks": list(self.ranks),
            "offsets": list(self.offsets),
            "lengths": list(self.lengths),
            "rows": list(self.rows),
        }


def write_shard_index(path: Union[str, Path], index: ShardIndex) -> Path:
    """Write a sidecar index atomically (tmp + ``os.replace``).

    A torn sidecar must never poison lookups: readers treat an
    unparseable sidecar as absent, but the rename makes even that
    window impossible for the common case.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(shard_index_to_bytes(index))
    os.replace(tmp, path)
    return path


def shard_index_to_bytes(index: ShardIndex) -> bytes:
    """The sidecar index's canonical serialized bytes.

    Exactly what :func:`write_shard_index` puts on disk, so blob-level
    stores (see :mod:`repro.crawler.storebackends`) can carry sidecars
    without their own serializer.
    """
    return (json.dumps(index.to_dict(), separators=(",", ":")) + "\n"
            ).encode("utf-8")


def shard_index_from_bytes(data: Optional[bytes],
                           shard_name: str) -> Optional["ShardIndex"]:
    """Parse sidecar-index bytes for ``shard_name``; None if unusable.

    "Unusable" covers absent/torn/garbage JSON, a version (a format-v2
    sidecar points into JSON lines) or shard-name mismatch, and
    inconsistent array lengths — every case degrades to the scan
    fallback rather than raising.
    """
    if data is None:
        return None
    try:
        payload = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    try:
        if int(payload["version"]) != SHARD_INDEX_VERSION:
            return None
        if str(payload["file"]) != shard_name:
            return None
        index = ShardIndex(
            file=shard_name,
            count=int(payload["count"]),
            sha256=str(payload["sha256"]),
            ranks=[int(r) for r in payload["ranks"]],
            offsets=[int(o) for o in payload["offsets"]],
            lengths=[int(n) for n in payload["lengths"]],
            rows=[int(r) for r in payload["rows"]],
        )
    except (KeyError, TypeError, ValueError):
        return None
    if not (len(index.ranks) == len(index.offsets) == len(index.lengths)
            == len(index.rows) == index.count):
        return None
    return index


def load_shard_index(directory: Union[str, Path], shard_name: str,
                     sha256: Optional[str] = None) -> Optional["ShardIndex"]:
    """Parse the sidecar index for ``shard_name``; None if unusable.

    Given ``sha256``, the shard's pinned digest, a sidecar recorded
    against another digest (the shard was rewritten without its index)
    is stale and unusable too: ignored, never trusted.
    """
    path = Path(directory) / index_filename(shard_name)
    try:
        data = path.read_bytes()
    except OSError:
        return None
    index = shard_index_from_bytes(data, shard_name)
    if index is not None and sha256 is not None and index.sha256 != sha256:
        return None
    return index


def _read_group(directory: Path, manifest: ShardManifest, pos: int,
                rank: int, entry: Tuple[int, int, int]
                ) -> Tuple[ShardBatch, int]:
    """Decode the one row group a sidecar entry points at."""
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
        raise ManifestError(f"shard {pos} ({name}): its sidecar puts rank "
                            f"{rank} at row {row} of the group at byte "
                            f"{offset}, which does not hold it")
    return batch, row


def locate_site(directory: Union[str, Path], rank: int, *,
                manifest: Optional[ShardManifest] = None,
                index_cache: Optional[Dict[int, Optional[ShardIndex]]] = None
                ) -> Tuple[ShardBatch, int]:
    """The decoded row group holding ``rank``, and the rank's row in it.

    The lookup under :func:`read_site` and the :mod:`repro.serve` site
    endpoint, which renders ``batch.row_dict(row)``; same contract as
    :func:`read_site`.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = ShardManifest.load(directory)
    unindexed: List[int] = []
    for pos in range(manifest.n_shards):
        if index_cache is not None and pos in index_cache:
            index = index_cache[pos]
        else:
            index = load_shard_index(directory, manifest.files[pos],
                                     manifest.digest_for(pos))
            if index_cache is not None:
                index_cache[pos] = index
        if index is None:
            unindexed.append(pos)
            continue
        entry = index.entry_for(rank)
        if entry is not None:
            return _read_group(directory, manifest, pos, rank, entry)
    for pos in unindexed:
        hit: Optional[Tuple[ShardBatch, int]] = None
        # Read the whole shard even after a hit: a scan is a full read,
        # so it answers only once the shard's count checks out too.
        for batch in _shard_batches(directory, manifest, pos):
            if hit is None and rank in batch.ranks:
                hit = batch, batch.ranks.index(rank)
        if hit is not None:
            return hit
    raise KeyError(f"rank {rank} is not in the dataset at {directory}")


def read_site(directory: Union[str, Path], rank: int, *,
              manifest: Optional[ShardManifest] = None,
              index_cache: Optional[Dict[int, Optional[ShardIndex]]] = None
              ) -> VisitLog:
    """Fetch one site's :class:`VisitLog` from a sharded dataset by rank.

    With sidecar indexes this reads and decodes the one row group
    holding the site; shards without a usable index fall back to a
    scan of their groups, with the full count and digest checks.
    ``index_cache`` — a caller-owned dict keyed by shard position —
    memoizes parsed sidecars across calls, which is what the
    :mod:`repro.serve` catalog does per study; a shard it maps to
    ``None`` is scanned, which is how a test forces the scan path.
    Raises :class:`KeyError` when no shard holds ``rank`` and
    :class:`ManifestError` when the bytes a sidecar points at are not
    the group it describes.
    """
    batch, row = locate_site(directory, rank, manifest=manifest,
                             index_cache=index_cache)
    return batch.log(row)


class IndexBuildResult(NamedTuple):
    """What :func:`build_shard_indexes` did: sidecars written vs kept."""

    built: int
    up_to_date: int


def build_shard_indexes(directory: Union[str, Path],
                        force: bool = False) -> IndexBuildResult:
    """Backfill sidecar indexes for a sharded dataset (one-shot).

    Walks the row groups of every shard that lacks a usable sidecar
    (or all of them with ``force=True``), recording each rank's group
    offset, group length, and row.  Returns how many sidecars were
    written and how many already matched their shard's pinned digest
    and were left untouched — safe to re-run, and the split makes
    "nothing to do" visible to the CLI instead of indistinguishable
    from a rebuild.
    """
    from ..analysis.columnar import RowGroupError, decode_row_group
    directory = Path(directory)
    manifest = ShardManifest.load(directory)
    built = 0
    up_to_date = 0
    for pos, name in enumerate(manifest.files):
        if not force and load_shard_index(
                directory, name, manifest.digest_for(pos)) is not None:
            up_to_date += 1
            continue
        label = f"shard {pos} ({name})"
        data = _read_shard_bytes(directory / name, label,
                                 manifest.digest_for(pos))
        ranks: List[int] = []
        offsets: List[int] = []
        lengths: List[int] = []
        rows: List[int] = []
        try:
            for offset, length, group in _row_groups(data, _is_gzip(name)):
                batch = decode_row_group(group)
                ranks.extend(batch.ranks)
                offsets.extend([offset] * len(batch))
                lengths.extend([length] * len(batch))
                rows.extend(range(len(batch)))
        except RowGroupError as exc:
            raise ManifestError(f"{label} is not a readable row-group "
                                f"shard: {exc}") from exc
        write_shard_index(directory / index_filename(name), ShardIndex(
            file=name, count=len(ranks),
            sha256=hashlib.sha256(data).hexdigest(), ranks=ranks,
            offsets=offsets, lengths=lengths, rows=rows))
        built += 1
    return IndexBuildResult(built=built, up_to_date=up_to_date)


class CrawlDataset:
    """A collection of visit logs with the paper's retention filter."""

    def __init__(self, logs: List[VisitLog]):
        self.logs = logs

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "CrawlDataset":
        return cls(load_logs(path))

    def save(self, path: Union[str, Path],
             shards: Optional[int] = None, compress: bool = False) -> int:
        return save_logs(self.logs, path, shards=shards, compress=compress)

    @property
    def complete(self) -> List[VisitLog]:
        """Sites with both cookie access logs and network data (§4.2)."""
        return [log for log in self.logs if log.complete]

    def __len__(self) -> int:
        return len(self.logs)

    def __iter__(self):
        return iter(self.logs)
