"""Sharded on-disk crash-report store, safe for multi-writer processes.

Layout on disk::

    <root>/
        store.json            # shard count, ring replicas, byte budget,
                              # eviction counters (not per commit)
        store.lock            # global flock: seq allocation, eviction, meta
        seq                   # authoritative next-sequence counter
        admit-quarantine.log  # admit-cache quarantine bans (admitcache.py)
        shard-00/
            .lock             # per-shard flock: blob + index writes
            index.bin         # per-shard binary index (magic BGSI)
            preimages.bin     # per-shard signature preimages (magic BGSP)
            00000007-<sig12>.bugnet
        shard-01/
            ...

Reports are placed by **consistent hashing**: each shard contributes
``replicas`` virtual points to a hash ring, and a signature digest maps
to the first point at or after it.  Growing the fleet store by a shard
therefore remaps only ~1/N of signatures instead of reshuffling
everything (the classic argument; ``shard_of`` is the whole mechanism).
All reports of one signature land in one shard, so a triage worker can
scan buckets shard-locally.

Concurrency and crash model (DESIGN.md §8).  A commit costs O(batch),
not O(store).  Sequence numbers come from the ``seq`` file, rewritten
in place under the global ``flock``.  Under a shard's ``flock`` blobs
are written straight to their final names, then the batch's new
preimage records and its index records are appended with one
``write()`` each; the index append is the commit point.  Before
appending, a writer absorbs records other live writers appended
(reporting them to ``on_absorb``) and truncates a torn tail a killed
writer left.  On open the store drops partial trailing records, sweeps
unindexed blobs and temp files, and recovers the sequence counter as
the maximum of ``seq``, ``store.json`` and the indexes
(``tests/test_store_concurrency.py`` SIGKILLs writers mid-commit).
``store.json`` is rewritten (temp + rename) only on creation, eviction,
or a new budget or retention window.  A completed ``add``/``add_many``
survives process death; ``fsync=True`` extends that to OS/power failure.

The per-shard index is a compact binary file (no pickle, same
discipline as :mod:`repro.tracing.serialize`), append-only on ingest
and rewritten on eviction.  Format v2 adds a per-record ``upload_id``
— the idempotency token the ingestion service uses to make client
retries safe across service restarts; format v3 adds the per-record
race evidence (``race_pcs``, the racing remote stores ingest-time
validation inferred), so triage can flag racy buckets without
re-replaying anything; format v4 adds the cluster routing key
(``route_key``, the replay-free digest cluster nodes place reports
by).  v1–v3 indexes read transparently and are upgraded in place on
first append.

The per-shard preimage log holds the rest of each signature's
preimage (``fault_pc``, ``tail_pcs``) once per distinct preimage, not
per report; it is append-only with the index's torn-tail discipline
and read lazily (:meth:`ReportStore.preimages`), so opening the store
and triage never touch it.  The admit cache is rebuilt from it.

Retention mirrors :class:`~repro.tracing.backing.LogStore`: a byte
budget over the stored blobs, exceeded → evict the globally oldest
report (never one just added), deterministically ordered by
``(observed_at, seq)``.  A time window (``retention_window``, in
``observed_at`` units) additionally ages out reports older than the
newest observation minus the window — on every commit and via
``compact()``.  Either way an eviction folds the report into
``rollups.json`` (per-signature count/bytes/first/last aggregates),
so triage bucket counts survive blob eviction.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import struct
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from repro.common.errors import LogDecodeError
from repro.obs import REGISTRY as _OBS
from repro.tracing.serialize import load_crash_report

_FLOCK_WAIT_SECONDS = _OBS.histogram(
    "bugnet_store_flock_wait_seconds",
    "Time spent waiting to acquire a store flock (global or shard).",
)
_COMMIT_BATCH_SECONDS = _OBS.histogram(
    "bugnet_store_commit_batch_seconds",
    "Wall time of one add_many commit batch (writes, index, eviction).",
)
_COMMIT_REPORTS = _OBS.counter(
    "bugnet_store_commit_reports_total",
    "Reports committed to the store.",
)
_EVICTIONS = _OBS.counter(
    "bugnet_store_evictions_total",
    "Reports evicted to hold the store byte budget.",
)

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback (no locking)
    fcntl = None

_INDEX_MAGIC = b"BGSI"
_INDEX_VERSION = 4
_HEADER_SIZE = 8          # magic + u32 version
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

#: Ring shape of a freshly created store.  Openers of an *existing*
#: store inherit the on-disk shape by passing ``None``; an explicit
#: value that disagrees with disk raises (see ``ReportStore.__init__``).
DEFAULT_NUM_SHARDS = 8
DEFAULT_RING_REPLICAS = 32


def route_token(route_key: str) -> int:
    """A route digest's position on the 64-bit cluster node ring
    (first 16 hex chars, big-endian — the same construction as
    ``NodeRing.key_of``, duplicated here so the store never imports
    the cluster package; ``tests/test_cluster_topology.py`` pins the
    two in lockstep)."""
    return int(route_key[:16], 16)


def token_in_ranges(token: int, ranges) -> bool:
    """Whether a ring token lies in any ``(start, end]`` arc of
    *ranges* (an arc with ``start >= end`` wraps through zero)."""
    for start, end in ranges:
        start, end = int(start), int(end)
        if start < end:
            if start < token <= end:
                return True
        elif token > start or token <= end:
            return True
    return False


@dataclass(frozen=True)
class StoredEntry:
    """One report as recorded in a shard index."""

    digest: str          # full signature sha256 hex
    seq: int             # store-global ingest sequence number
    observed_at: int     # caller-supplied logical observation time
    byte_size: int       # size of the stored .bugnet blob
    replay_window: int   # instructions replayable for the faulting thread
    fault_kind: str
    program_name: str
    shard: int
    filename: str
    upload_id: str = ""  # client idempotency token ("" = none)
    race_pcs: tuple[int, ...] = ()  # racing remote-store PCs (v3; () = none)
    route_key: str = ""  # cluster ring routing digest (v4; "" = none)

    @property
    def racy(self) -> bool:
        """True when ingest-time validation race-keyed this report."""
        return bool(self.race_pcs)

    @property
    def order_key(self) -> tuple[int, int]:
        """Eviction/recency order: oldest first, deterministic."""
        return (self.observed_at, self.seq)


#: Fixed prefix of every index record: digest, seq, observed_at,
#: byte_size, replay_window.
_RECORD_PREFIX = struct.Struct("<32sQQIQ")
_INDEX_HEADER = _INDEX_MAGIC + _U32.pack(_INDEX_VERSION)
_M32, _M64 = 0xFFFFFFFF, 0xFFFFFFFFFFFFFFFF


def _pack_text(text: str) -> bytes:
    data = text.encode("utf-8")
    return _U32.pack(len(data)) + data


def _pack_entry(entry: StoredEntry) -> bytes:
    race_pcs = [pc & _M64 for pc in entry.race_pcs]
    return b"".join((
        _RECORD_PREFIX.pack(
            bytes.fromhex(entry.digest), entry.seq & _M64,
            entry.observed_at & _M64, entry.byte_size & _M32,
            entry.replay_window & _M64),
        _pack_text(entry.fault_kind),
        _pack_text(entry.program_name),
        _pack_text(entry.filename),
        _pack_text(entry.upload_id),                   # v2 addition
        _U32.pack(len(race_pcs)),                      # v3 addition
        struct.pack(f"<{len(race_pcs)}Q", *race_pcs),
        _pack_text(entry.route_key),                   # v4 addition
    ))


class _Torn(Exception):
    """A record runs past the end of the data (torn tail)."""


def _parse_records(data: bytes, shard: int, version: int,
                   base_offset: int) -> "tuple[list[StoredEntry], int]":
    """Parse index records from *data*; returns the entries and the file
    offset just past the last **complete** record.  A partial trailing
    record (torn write from a killed writer) is dropped: the report it
    described was never acknowledged."""
    view = memoryview(data)
    end = len(view)
    unpack_u32 = _U32.unpack_from

    def counted(pos: int, width: int) -> "tuple[int, int]":
        """The u32 count at *pos*, and the end of the *width*-byte
        items it counts."""
        if end - pos < 4:
            raise _Torn
        count = unpack_u32(view, pos)[0]
        if end - pos - 4 < width * count:
            raise _Torn
        return count, pos + 4 + width * count

    def text(pos: int) -> "tuple[str, int]":
        length, stop = counted(pos, 1)
        return str(view[stop - length:stop], "utf-8"), stop

    entries: list[StoredEntry] = []
    pos = valid = 0
    while end - pos >= _RECORD_PREFIX.size:
        try:
            digest, seq, observed_at, byte_size, replay_window = \
                _RECORD_PREFIX.unpack_from(view, pos)
            fault_kind, pos = text(pos + _RECORD_PREFIX.size)
            program_name, pos = text(pos)
            filename, pos = text(pos)
            upload_id, race_pcs, route_key = "", (), ""
            if version >= 2:
                upload_id, pos = text(pos)
            if version >= 3:
                count, stop = counted(pos, 8)
                race_pcs = struct.unpack_from(f"<{count}Q", view, pos + 4)
                pos = stop
            if version >= 4:
                route_key, pos = text(pos)
        except (_Torn, UnicodeDecodeError):
            # Short read, or a length prefix pointing into garbage that
            # is not valid UTF-8: both are the torn-record case.
            break
        entries.append(StoredEntry(
            digest=digest.hex(), seq=seq, observed_at=observed_at,
            byte_size=byte_size, replay_window=replay_window,
            fault_kind=fault_kind, program_name=program_name,
            filename=filename, upload_id=upload_id, race_pcs=race_pcs,
            route_key=route_key, shard=shard,
        ))
        valid = pos
    return entries, base_offset + valid


#: Preimage log: header, then one record per distinct (digest,
#: fault_pc, tail_pcs) of the shard — digest, fault_pc, tail length,
#: then the tail PCs.
_PREIMAGE_HEADER = b"BGSP" + _U32.pack(1)
_PREIMAGE_PREFIX = struct.Struct("<32sQI")


def _pack_preimage(digest: str, fault_pc: int,
                   tail_pcs: "tuple[int, ...]") -> bytes:
    return (_PREIMAGE_PREFIX.pack(bytes.fromhex(digest), fault_pc,
                                  len(tail_pcs))
            + struct.pack(f"<{len(tail_pcs)}Q", *tail_pcs))


def _parse_preimages(data: bytes) -> "tuple[list[tuple], int]":
    """``(digest, fault_pc, tail_pcs)`` records, and the length of the
    complete ones (a torn tail is not included)."""
    view = memoryview(data)
    end = len(view)
    prefix = _PREIMAGE_PREFIX.size
    records = []
    pos = 0
    while end - pos >= prefix:
        digest, fault_pc, count = _PREIMAGE_PREFIX.unpack_from(view, pos)
        if end - pos - prefix < 8 * count:
            break
        tail = struct.unpack_from(f"<{count}Q", view, pos + prefix)
        pos += prefix + 8 * count
        records.append((digest.hex(), fault_pc, tail))
    return records, pos


class ReportStore:
    """Bounded, sharded crash-report store with a consistent-hash ring."""

    def __init__(
        self,
        root,
        num_shards: "int | None" = None,
        byte_budget: int | None = None,
        ring_replicas: "int | None" = None,
        fsync: bool = False,
        retention_window: "int | None" = None,
    ) -> None:
        self.root = Path(root)
        self.fsync = fsync
        meta_path = self.root / "store.json"
        created = not meta_path.exists()
        reconfigured = False
        if not created:
            meta = json.loads(meta_path.read_text())
            # Ring shape is a property of the store on disk, not of the
            # opener: honoring a different shard count here would send
            # existing signatures to the wrong directories.  An explicit
            # mismatch is therefore an error, never silently ignored —
            # the caller either meant a different store directory or is
            # about to corrupt this one's placement.
            for name, asked, on_disk in (
                ("num_shards", num_shards, meta["num_shards"]),
                ("ring_replicas", ring_replicas, meta["ring_replicas"]),
            ):
                if asked is not None and asked != on_disk:
                    raise ValueError(
                        f"store at {self.root} has {name}={on_disk}, "
                        f"caller asked for {asked}; the ring shape of an "
                        f"existing store cannot change (open with "
                        f"{name}=None to inherit it)"
                    )
            self.num_shards = meta["num_shards"]
            self.ring_replicas = meta["ring_replicas"]
            self._next_seq = meta["next_seq"]
            self.evicted_reports = meta.get("evicted_reports", 0)
            self.evicted_bytes = meta.get("evicted_bytes", 0)
            self.byte_budget = (
                byte_budget if byte_budget is not None else meta.get("byte_budget")
            )
            self.retention_window = (
                retention_window if retention_window is not None
                else meta.get("retention_window")
            )
            reconfigured = (
                self.byte_budget != meta.get("byte_budget")
                or self.retention_window != meta.get("retention_window")
            )
        else:
            if num_shards is None:
                num_shards = DEFAULT_NUM_SHARDS
            if ring_replicas is None:
                ring_replicas = DEFAULT_RING_REPLICAS
            if num_shards < 1:
                raise ValueError("need at least one shard")
            self.num_shards = num_shards
            self.ring_replicas = ring_replicas
            self._next_seq = 0
            self.evicted_reports = 0
            self.evicted_bytes = 0
            self.byte_budget = byte_budget
            self.retention_window = retention_window
            self.root.mkdir(parents=True, exist_ok=True)
        self._pending_rollups: list[StoredEntry] = []
        self._ring = self._build_ring()
        # Serializes in-memory view updates between threads of one
        # process (a cluster node commits and replicates on executor
        # threads); the flocks serialize the files.
        self._view_lock = threading.Lock()
        #: Called with the records other writers committed each time
        #: this view absorbs them (the admit cache subscribes).
        self.on_absorb: Callable[[list[StoredEntry]], None] | None = None
        self._entries: list[StoredEntry] = []
        self._shard_versions: dict[int, int] = {}
        self._index_synced: dict[int, int] = {}
        # Inode of the index file the synced offset refers to.  Every
        # rewrite lands via temp + os.replace, so a changed inode is a
        # reliable "another writer rewrote this shard" signal even when
        # the rewritten file is not smaller than our synced offset.
        self._index_inode: dict[int, "int | None"] = {}
        # Per-shard preimage log view, loaded on first use: the distinct
        # (digest, fault_pc, tail_pcs) records, and the offset parsed.
        self._preimages: "dict[int, set[tuple]]" = {}
        self._preimage_synced: dict[int, int] = {}
        for shard in range(self.num_shards):
            # Read and sweep each shard under its lock in one critical
            # section: sweeping against a separately-taken snapshot
            # could delete a blob a concurrent writer committed between
            # the index read and the sweep.
            with self._shard_lock(shard):
                shard_entries = self._read_shard_index(shard)
                self._sweep_shard(shard, shard_entries)
            self._entries.extend(shard_entries)
        # store.json is not rewritten per commit: the counter's
        # high-water mark is the larger of the seq file and the indexes.
        self._next_seq = max(self._next_seq, self._read_seq_file())
        self._reindex()
        if created or reconfigured:
            with self._global_lock():
                self._write_meta()

    def _sweep_shard(self, shard: int,
                     entries: "list[StoredEntry]") -> None:
        """Delete blobs with no index record (a crash between the blob
        write and the index append, or a dropped partial trailing
        record) plus stale temp files; otherwise they would accumulate
        invisibly outside the byte budget.  Caller holds the shard lock
        and *entries* is the index as read under that same lock."""
        shard_dir = self._shard_dir(shard)
        if not shard_dir.is_dir():
            return
        indexed = {entry.filename for entry in entries}
        for blob in shard_dir.glob("*.bugnet"):
            if blob.name not in indexed:
                blob.unlink()
        for temp in shard_dir.glob("*.tmp"):
            temp.unlink()

    # -- locking -----------------------------------------------------------

    @contextmanager
    def _flock(self, path: Path):
        """Exclusive advisory lock (no-op where fcntl is unavailable)."""
        if fcntl is None:  # pragma: no cover - non-POSIX
            yield
            return
        try:
            fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        except FileNotFoundError:  # first lock of a new shard directory
            path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            with _FLOCK_WAIT_SECONDS.time():
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    def _global_lock(self):
        return self._flock(self.root / "store.lock")

    def _shard_lock(self, shard: int):
        return self._flock(self._shard_dir(shard) / ".lock")

    # -- consistent hashing ------------------------------------------------

    def _build_ring(self) -> list[tuple[int, int]]:
        points = []
        for shard in range(self.num_shards):
            for replica in range(self.ring_replicas):
                token = hashlib.sha256(f"shard-{shard}#{replica}".encode()).digest()
                points.append((int.from_bytes(token[:8], "big"), shard))
        points.sort()
        return points

    def shard_of(self, digest: str) -> int:
        """Map a signature digest to its shard via the hash ring."""
        key = int(digest[:16], 16)
        index = bisect.bisect_right(self._ring, (key, -1))
        if index == len(self._ring):
            index = 0
        return self._ring[index][1]

    # -- persistence -------------------------------------------------------

    def _shard_dir(self, shard: int) -> Path:
        return self.root / f"shard-{shard:02d}"

    def _index_path(self, shard: int) -> Path:
        return self._shard_dir(shard) / "index.bin"

    def _atomic_write(self, path: Path, data: bytes) -> None:
        temp = path.with_name(path.name + f".{os.getpid()}.tmp")
        self._write_file(temp, data)
        os.replace(temp, path)

    def _read_seq_file(self) -> int:
        path = self.root / "seq"
        try:
            return int(path.read_text())
        except (OSError, ValueError):
            return 0

    def _write_file(self, path: Path, data: bytes,
                    mode: int = os.O_TRUNC) -> None:
        """Write (or with ``os.O_APPEND``, append) *data* to *path* with
        plain syscalls.  A blob goes straight to its final name: the
        open-time sweep removes one a killed writer never indexed."""
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | mode, 0o644)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if self.fsync:
                os.fsync(fd)
        finally:
            os.close(fd)

    def _alloc_seqs(self, count: int) -> int:
        """Reserve *count* store-global sequence numbers (cross-process
        safe: read-modify-write of the ``seq`` file under the global
        lock), rewritten in place: open-time recovery also consults
        the indexes, so it needs no temp + rename."""
        with self._global_lock():
            fd = os.open(self.root / "seq", os.O_RDWR | os.O_CREAT, 0o644)
            try:
                try:
                    on_disk = int(os.pread(fd, 32, 0) or 0)
                except ValueError:
                    on_disk = 0
                start = max(self._next_seq, on_disk)
                os.pwrite(fd, b"%020d" % (start + count), 0)
            finally:
                os.close(fd)
            self._next_seq = start + count
        return start

    def _read_shard_index(self, shard: int) -> list[StoredEntry]:
        path = self._index_path(shard)
        if not path.exists():
            self._shard_versions[shard] = _INDEX_VERSION
            self._index_synced[shard] = 0
            self._index_inode[shard] = None
            return []
        self._index_inode[shard] = path.stat().st_ino
        data = path.read_bytes()
        if data[:4] != _INDEX_MAGIC:
            raise LogDecodeError(f"bad shard index magic in {path}")
        version = _U32.unpack_from(data, 4)[0] if len(data) >= 8 else 0
        if not 1 <= version <= _INDEX_VERSION:
            raise LogDecodeError(f"unsupported shard index version {version}")
        entries, valid_end = _parse_records(
            data[_HEADER_SIZE:], shard, version, _HEADER_SIZE
        )
        self._shard_versions[shard] = version
        self._index_synced[shard] = valid_end
        return entries

    def _absorb_and_repair(self, shard: int) -> None:
        """Bring this writer's view of a shard index up to date before
        appending: absorb records other live writers appended since our
        last sync, and truncate any torn tail a killed writer left.
        Caller holds the shard lock."""
        path = self._index_path(shard)
        try:
            stat = path.stat()
        except FileNotFoundError:
            self._index_synced[shard] = 0
            self._index_inode[shard] = None
            return
        size, synced = stat.st_size, self._index_synced.get(shard, 0)
        if stat.st_ino != self._index_inode.get(shard) or size < synced:
            # Created or replaced (eviction rewrite, legacy upgrade) by
            # another writer, or (defensively) shrunk: our offset refers
            # to other bytes, and delta parsing from it would read
            # mid-record garbage.  Reload from scratch.
            self._reload_shard(shard)
        elif size > synced:
            with open(path, "rb") as handle:
                handle.seek(synced)
                delta = handle.read()
            entries, self._index_synced[shard] = _parse_records(
                delta, shard,
                self._shard_versions.get(shard, _INDEX_VERSION), synced,
            )
            self._track(entries)
            if entries and self.on_absorb is not None:
                self.on_absorb(entries)
        if self._index_synced[shard] < size:
            # Torn tail from a killed writer: drop it before appending,
            # or every later record in this shard would misparse.
            with open(path, "r+b") as handle:
                handle.truncate(self._index_synced[shard])

    def _reindex(self) -> None:
        """Sort the in-memory view and recompute what derives from it."""
        self._entries.sort(key=lambda entry: entry.seq)
        self.total_bytes = sum(entry.byte_size for entry in self._entries)
        self._upload_index = {
            entry.upload_id: entry
            for entry in self._entries if entry.upload_id
        }
        self._by_digest: dict[str, list[StoredEntry]] = {}
        for entry in self._entries:
            self._by_digest.setdefault(entry.digest, []).append(entry)
        if self._entries:
            self._next_seq = max(self._next_seq, self._entries[-1].seq + 1)

    def _track(self, entries: "list[StoredEntry]") -> None:
        """Add committed entries to the in-memory view in seq order (an
        append, unless absorbed records already hold higher seqs)."""
        with self._view_lock:
            for entry in entries:
                for view in (self._entries,
                             self._by_digest.setdefault(entry.digest, [])):
                    if view and view[-1].seq > entry.seq:
                        bisect.insort(view, entry, key=lambda known: known.seq)
                    else:
                        view.append(entry)
                self.total_bytes += entry.byte_size
                if entry.upload_id:
                    self._upload_index[entry.upload_id] = entry
                self._next_seq = max(self._next_seq, entry.seq + 1)

    def _reload_shard(self, shard: int) -> None:
        """Replace the in-memory view of one shard with a fresh read of
        its index file (caller holds the shard lock)."""
        known = {e.seq for e in self._entries if e.shard == shard}
        fresh = self._read_shard_index(shard)
        with self._view_lock:
            self._entries = (
                [e for e in self._entries if e.shard != shard] + fresh
            )
            self._reindex()
        absorbed = [entry for entry in fresh if entry.seq not in known]
        if absorbed and self.on_absorb is not None:
            self.on_absorb(absorbed)

    def _append_shard_records(self, shard: int,
                              entries: "list[StoredEntry]") -> None:
        """Append a batch of records to a shard index with one write.
        Caller holds the shard lock and has run _absorb_and_repair."""
        path = self._index_path(shard)
        payload = b"".join(_pack_entry(entry) for entry in entries)
        if (self._index_inode.get(shard) is None or self._shard_versions.get(
                shard, _INDEX_VERSION) < _INDEX_VERSION):
            # A new index gets its header; a v1–v3 index is upgraded in
            # place (the absorb just before made our view complete).
            self._rewrite_shard_index(shard)
        self._write_file(path, payload, os.O_APPEND)
        self._index_synced[shard] = self._index_synced.get(shard, 0) + len(payload)

    # -- preimage log ------------------------------------------------------

    def _preimage_path(self, shard: int) -> Path:
        return self._shard_dir(shard) / "preimages.bin"

    def _sync_preimages(self, shard: int, fd: int) -> int:
        """Parse the preimage records appended to *fd* since this view
        last read it; returns the file size.  ``_preimage_synced`` ends
        at the last complete record — 0 while the header is missing or
        bad, so a corrupt log reads as empty."""
        size = os.fstat(fd).st_size
        synced = self._preimage_synced.get(shard, 0)
        if size < synced:  # reset by a writer that found it corrupt
            self._preimages.pop(shard, None)
            synced = 0
        known = self._preimages.setdefault(shard, set())
        if not synced and os.pread(fd, _HEADER_SIZE, 0) == _PREIMAGE_HEADER:
            synced = _HEADER_SIZE
        if synced and size > synced:
            records, valid = _parse_preimages(
                os.pread(fd, size - synced, synced))
            known.update(records)
            synced += valid
        self._preimage_synced[shard] = synced
        return size

    def preimages(self, shard: int) -> "set[tuple]":
        """One shard's distinct ``(digest, fault_pc, tail_pcs)`` signature
        preimages (a race-keyed digest can have several, one per fault
        site).  Read lazily and without the shard lock: only complete
        records count."""
        try:
            fd = os.open(self._preimage_path(shard), os.O_RDONLY)
        except FileNotFoundError:
            return set(self._preimages.get(shard, ()))
        try:
            self._sync_preimages(shard, fd)
        finally:
            os.close(fd)
        return set(self._preimages[shard])

    def _append_preimages(self, shard: int, records: "list[tuple]") -> None:
        """Append the ``(digest, fault_pc, tail_pcs)`` records the shard's
        log lacks, with one write (caller holds the shard lock).  No file
        call at all when the loaded view already has them."""
        if shard in self._preimages:
            records = [r for r in records if r not in self._preimages[shard]]
        if not records:
            return
        fd = os.open(self._preimage_path(shard),
                     os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            size = self._sync_preimages(shard, fd)
            synced = self._preimage_synced[shard]
            if synced < size:
                # Torn tail from a killed writer (or a corrupt header):
                # drop it, or every later record would misparse.
                os.ftruncate(fd, synced)
            known = self._preimages[shard]
            records = [r for r in dict.fromkeys(records) if r not in known]
            if records:
                payload = (b"" if synced else _PREIMAGE_HEADER) + b"".join(
                    _pack_preimage(*record) for record in records)
                os.write(fd, payload)
                if self.fsync:
                    os.fsync(fd)
                self._preimage_synced[shard] = synced + len(payload)
                known.update(records)
        finally:
            os.close(fd)

    def _rewrite_shard_index(self, shard: int) -> None:
        data = _INDEX_HEADER + b"".join(
            _pack_entry(entry) for entry in self._entries
            if entry.shard == shard)
        self._atomic_write(self._index_path(shard), data)
        self._shard_versions[shard] = _INDEX_VERSION
        self._index_synced[shard] = len(data)
        self._index_inode[shard] = self._index_path(shard).stat().st_ino

    def _write_meta(self) -> None:
        """Rewrite ``store.json`` (caller holds the global lock)."""
        self._atomic_write(self.root / "store.json", (json.dumps({
            "num_shards": self.num_shards,
            "ring_replicas": self.ring_replicas,
            "next_seq": self._next_seq,
            "byte_budget": self.byte_budget,
            "retention_window": self.retention_window,
            "evicted_reports": self.evicted_reports,
            "evicted_bytes": self.evicted_bytes,
        }, indent=2) + "\n").encode())

    # -- mutation ----------------------------------------------------------

    def add(
        self,
        digest: str,
        blob: bytes,
        replay_window: int = 0,
        fault_kind: str = "",
        program_name: str = "",
        observed_at: int | None = None,
        upload_id: str = "",
        race_pcs: "tuple[int, ...]" = (),
        route_key: str = "",
        fault_pc: "int | None" = None,
        tail_pcs: "tuple[int, ...]" = (),
    ) -> StoredEntry:
        """Store one validated report blob under its signature digest.

        ``observed_at`` defaults to the (store-monotonic) sequence
        number, so recency and eviction order stay correct across
        separate ingest invocations; pass an explicit value only when
        the caller has a real fleet-wide observation clock.
        """
        return self.add_many([{
            "digest": digest,
            "blob": blob,
            "replay_window": replay_window,
            "fault_kind": fault_kind,
            "program_name": program_name,
            "observed_at": observed_at,
            "upload_id": upload_id,
            "race_pcs": race_pcs,
            "route_key": route_key,
            "fault_pc": fault_pc,
            "tail_pcs": tail_pcs,
        }])[0]

    def add_many(self, items: "list[dict]") -> "list[StoredEntry]":
        """Commit a batch of validated reports in one locked pass.

        Each item is a dict with ``digest`` and ``blob`` (required) and
        optional ``replay_window``, ``fault_kind``, ``program_name``,
        ``observed_at``, ``upload_id``, ``race_pcs``, ``route_key``, and
        the rest of the signature preimage (``fault_pc``, ``tail_pcs``;
        persisted once per distinct preimage when ``fault_pc`` is
        given).  The batch gets consecutive sequence numbers, per-shard
        writes take each shard lock once, and the eviction pass (when a
        budget or window applies) runs once — the commit-batching the
        ingestion service relies on.  Entries are durable against
        process death when this returns (and against OS crash with
        ``fsync=True``).
        """
        if not items:
            return []
        with _COMMIT_BATCH_SECONDS.time():
            return self._add_many_locked(items)

    def _add_many_locked(self, items: "list[dict]") -> "list[StoredEntry]":
        start = self._alloc_seqs(len(items))
        new_entries: list[StoredEntry] = []
        by_shard: dict[int, list[tuple[StoredEntry, bytes]]] = {}
        preimages: dict[int, list[tuple]] = {}
        for offset, item in enumerate(items):
            seq = start + offset
            digest = item["digest"]
            blob = item["blob"]
            observed_at = item.get("observed_at")
            if observed_at is None:
                observed_at = seq
            shard = self.shard_of(digest)
            entry = StoredEntry(
                digest=digest,
                seq=seq,
                observed_at=observed_at,
                byte_size=len(blob),
                replay_window=item.get("replay_window", 0),
                fault_kind=item.get("fault_kind", ""),
                program_name=item.get("program_name", ""),
                shard=shard,
                filename=f"{seq:08d}-{digest[:12]}.bugnet",
                upload_id=item.get("upload_id", ""),
                race_pcs=tuple(item.get("race_pcs", ())),
                route_key=item.get("route_key", ""),
            )
            new_entries.append(entry)
            by_shard.setdefault(shard, []).append((entry, blob))
            if item.get("fault_pc") is not None:
                preimages.setdefault(shard, []).append((
                    digest, int(item["fault_pc"]),
                    tuple(int(pc) for pc in item.get("tail_pcs", ())),
                ))
        for shard in sorted(by_shard):
            shard_dir = self._shard_dir(shard)
            with self._shard_lock(shard):
                self._absorb_and_repair(shard)
                for entry, blob in by_shard[shard]:
                    self._write_file(shard_dir / entry.filename, blob)
                self._append_preimages(shard, preimages.get(shard, []))
                self._append_shard_records(
                    shard, [entry for entry, _ in by_shard[shard]]
                )
        self._track(new_entries)
        over_budget = (self.byte_budget is not None
                       and self.total_bytes > self.byte_budget)
        if over_budget or self.retention_window is not None:
            with self._global_lock():
                # Protect by sequence number, not object identity: an
                # absorb reload inside eviction replaces entry objects,
                # and the batch must stay protected across that.
                protect = {entry.seq for entry in new_entries}
                evicted = self.evicted_reports
                if self.byte_budget is not None:
                    while (self.total_bytes > self.byte_budget
                           and self._evict_oldest(protect)):
                        pass
                if self.retention_window is not None:
                    self._apply_retention(protect)
                self._flush_rollups()
                if self.evicted_reports != evicted:
                    self._write_meta()
        _COMMIT_REPORTS.inc(len(new_entries))
        return new_entries

    def _retention_cutoff(self, now: "int | None" = None) -> "int | None":
        """Oldest ``observed_at`` retention keeps resident, or None.

        ``observed_at`` is a logical clock (it defaults to the ingest
        sequence), so "now" is the newest observation in the store
        unless the caller supplies a real fleet clock.
        """
        if self.retention_window is None:
            return None
        if now is None:
            if not self._entries:
                return None
            now = max(entry.observed_at for entry in self._entries)
        return now - self.retention_window

    def _apply_retention(self, protect: "set[int]",
                         now: "int | None" = None) -> int:
        """Evict every unprotected report older than the retention
        window (caller holds the global lock); returns evictions."""
        cutoff = self._retention_cutoff(now)
        if cutoff is None:
            return 0
        evicted = 0
        while self._evict_oldest(protect, cutoff=cutoff):
            evicted += 1
        return evicted

    def compact(self, now: "int | None" = None) -> int:
        """Apply time-windowed retention outside a commit: evict every
        report whose ``observed_at`` is older than ``retention_window``
        (counts survive in the rollup aggregates).  Returns the number
        of reports evicted.  No-op without a retention window."""
        if self.retention_window is None:
            return 0
        with self._global_lock():
            evicted = self._apply_retention(set(), now=now)
            self._flush_rollups()
            if evicted:
                self._write_meta()
        return evicted

    def _evict_oldest(self, protect: "set[int]",
                      cutoff: "int | None" = None) -> bool:
        """Drop the oldest stored report (never one just added;
        *protect* holds the current batch's sequence numbers).  With
        *cutoff*, only a report observed strictly before it is evicted
        — the retention-window form of the same machinery."""
        victim = None
        for entry in self._entries:
            if entry.seq in protect:
                continue
            if victim is None or entry.order_key < victim.order_key:
                victim = entry
        if victim is None:
            return False
        if cutoff is not None and victim.observed_at >= cutoff:
            return False
        with self._shard_lock(victim.shard):
            # Absorb records other live writers appended to this shard
            # since our last sync: the rewrite below regenerates the
            # whole index from our in-memory view, and a stale view
            # would silently drop their acknowledged commits.
            self._absorb_and_repair(victim.shard)
            current = next(
                (entry for entry in self._entries
                 if entry.seq == victim.seq and entry.shard == victim.shard),
                None,
            )
            if current is None:
                # Another writer's rewrite already removed the victim;
                # the budget loop re-evaluates with the fresh totals.
                return True
            victim = current
            self._entries.remove(victim)
            bucket = self._by_digest[victim.digest]
            bucket.remove(victim)
            if not bucket:
                del self._by_digest[victim.digest]
            self.total_bytes -= victim.byte_size
            self.evicted_reports += 1
            self.evicted_bytes += victim.byte_size
            self._pending_rollups.append(victim)
            _EVICTIONS.inc()
            if victim.upload_id:
                self._upload_index.pop(victim.upload_id, None)
            path = self._shard_dir(victim.shard) / victim.filename
            if path.exists():
                path.unlink()
            self._rewrite_shard_index(victim.shard)
        return True

    # -- rollup aggregates --------------------------------------------------

    def _flush_rollups(self) -> None:
        """Fold evictions accumulated this critical section into
        ``rollups.json`` (caller holds the global lock).  Read-merge-
        write keeps concurrent writer processes' rollups additive."""
        if not self._pending_rollups:
            return
        rollups = self._read_rollups()
        for entry in self._pending_rollups:
            slot = rollups.get(entry.digest)
            if slot is None:
                slot = rollups[entry.digest] = {
                    "count": 0,
                    "bytes": 0,
                    "first_seen": entry.observed_at,
                    "last_seen": entry.observed_at,
                    "fault_kind": entry.fault_kind,
                    "program_name": entry.program_name,
                    "race_pcs": sorted(entry.race_pcs),
                }
            slot["count"] += 1
            slot["bytes"] += entry.byte_size
            slot["first_seen"] = min(slot["first_seen"], entry.observed_at)
            slot["last_seen"] = max(slot["last_seen"], entry.observed_at)
            slot["race_pcs"] = sorted(
                set(slot["race_pcs"]) | set(entry.race_pcs)
            )
        self._pending_rollups = []
        self._atomic_write(
            self.root / "rollups.json",
            (json.dumps(rollups, indent=2, sort_keys=True) + "\n").encode(),
        )

    def _read_rollups(self) -> dict:
        path = self.root / "rollups.json"
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError):
            return {}

    def rollups(self) -> dict:
        """Per-signature aggregates of *evicted* reports (budget or
        retention): ``{digest: {count, bytes, first_seen, last_seen,
        fault_kind, program_name, race_pcs}}`` — how triage keeps a
        bucket's occurrence count after its blobs age out."""
        return self._read_rollups()

    # -- queries -----------------------------------------------------------

    def entries(self, digest: str | None = None) -> list[StoredEntry]:
        """Stored reports in ingest order (optionally one signature's)."""
        if digest is None:
            return list(self._entries)
        return list(self._by_digest.get(digest, ()))

    def entries_by_digest(self) -> "dict[str, list[StoredEntry]]":
        """Stored reports grouped by signature digest, each group in
        ingest order (kept as commits land: no pass over the store)."""
        return {digest: list(group)
                for digest, group in self._by_digest.items()}

    def signatures(self) -> list[str]:
        """Distinct signature digests with resident reports."""
        return sorted(self._by_digest)

    def entries_in_token_ranges(self, ranges) -> list[StoredEntry]:
        """Stored reports whose *route digest* falls in any of the
        ``(start, end]`` ring-token ranges — how a topology change
        enumerates exactly the reports a remapped vpoint range covers
        (cluster range streaming, DESIGN.md §14).  Entries without a
        route key (pre-cluster commits) never match a range filter:
        they have no ring position to transfer."""
        return [
            entry for entry in self._entries
            if entry.route_key
            and token_in_ranges(route_token(entry.route_key), ranges)
        ]

    def entry_for_upload(self, upload_id: str) -> "StoredEntry | None":
        """The committed entry for a client idempotency token, if any —
        how a retried upload is acknowledged without a duplicate."""
        if not upload_id:
            return None
        return self._upload_index.get(upload_id)

    def shard_occupancy(self) -> "list[dict]":
        """Per-shard report counts and byte totals (the /stats shape)."""
        occupancy = [
            {"shard": shard, "reports": 0, "bytes": 0}
            for shard in range(self.num_shards)
        ]
        for entry in self._entries:
            slot = occupancy[entry.shard]
            slot["reports"] += 1
            slot["bytes"] += entry.byte_size
        return occupancy

    def path_of(self, entry: StoredEntry) -> Path:
        """Filesystem path of a stored report blob."""
        return self._shard_dir(entry.shard) / entry.filename

    def load(self, entry: StoredEntry):
        """Deserialize a stored report; returns (report, recorder config)."""
        return load_crash_report(self.path_of(entry).read_bytes())

    def __len__(self) -> int:
        return len(self._entries)
