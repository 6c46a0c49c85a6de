"""Multi-writer and crash-recovery tests for the sharded report store.

The contracts under test (DESIGN.md §8):

* concurrent writer *processes* never collide on sequence numbers,
  never tear each other's index records, and never lose entries;
* a writer SIGKILLed mid-commit leaves the store openable, with every
  acknowledged report present exactly once, no torn index records, and
  no orphaned blobs;
* v1 shard indexes (pre-upload-id) read transparently and upgrade in
  place on first append.
"""

import io
import json
import multiprocessing
import os
import signal
import struct
import sys
import time

import pytest

from repro.fleet.store import ReportStore, StoredEntry, _pack_entry

pytestmark = pytest.mark.skipif(
    sys.platform == "win32", reason="flock-based store locking is POSIX-only"
)


def digest_of(tag) -> str:
    import hashlib

    return hashlib.sha256(f"report-{tag}".encode()).hexdigest()


def _writer_proc(root, writer_id, count, ack_path):
    """Add *count* reports, appending each acknowledged seq to ack_path
    (flushed before the next add, like a service acking an upload)."""
    store = ReportStore(root)
    with open(ack_path, "a", buffering=1) as acks:
        for index in range(count):
            entry = store.add(
                digest_of((writer_id, index)),
                f"blob-{writer_id}-{index}".encode() * 8,
                fault_kind="memory",
                program_name=f"prog-{writer_id}",
                upload_id=f"w{writer_id}-{index}",
            )
            acks.write(f"{entry.seq}\n")


def _spin_writer(root, writer_id, ack_path):
    """Write reports forever (until killed)."""
    store = ReportStore(root)
    with open(ack_path, "a", buffering=1) as acks:
        index = 0
        while True:
            entry = store.add(
                digest_of((writer_id, index)),
                os.urandom(256),
                upload_id=f"w{writer_id}-{index}",
            )
            acks.write(f"{entry.seq}\n")
            index += 1


class TestConcurrentWriters:
    def test_parallel_processes_no_loss_no_collision(self, tmp_path):
        root = tmp_path / "store"
        ReportStore(root, num_shards=4)  # create
        ctx = multiprocessing.get_context("fork")
        acks = [tmp_path / f"acks-{i}.txt" for i in range(3)]
        procs = [
            ctx.Process(target=_writer_proc, args=(str(root), i, 20, str(acks[i])))
            for i in range(3)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
            assert proc.exitcode == 0
        reopened = ReportStore(root)
        assert len(reopened) == 60
        seqs = [entry.seq for entry in reopened.entries()]
        assert len(set(seqs)) == 60, "sequence numbers must be unique"
        # Every acknowledged seq is present.
        acked = set()
        for path in acks:
            acked.update(int(line) for line in path.read_text().split())
        assert acked == set(seqs)
        # Every upload id resolves to its entry.
        for writer in range(3):
            for index in range(20):
                entry = reopened.entry_for_upload(f"w{writer}-{index}")
                assert entry is not None

    def test_sigkill_mid_commit_recovers(self, tmp_path):
        """SIGKILL a writer at a random point; the store must reopen
        with every acked report present exactly once, a parseable
        index, and no orphaned blobs."""
        root = tmp_path / "store"
        ReportStore(root, num_shards=4)
        ctx = multiprocessing.get_context("fork")
        ack_path = tmp_path / "acks.txt"
        proc = ctx.Process(target=_spin_writer,
                           args=(str(root), 0, str(ack_path)))
        proc.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if ack_path.exists() and len(ack_path.read_text().split()) >= 25:
                break
            time.sleep(0.01)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=30)
        acked = {int(line) for line in ack_path.read_text().split()}
        assert len(acked) >= 25
        reopened = ReportStore(root)
        seqs = [entry.seq for entry in reopened.entries()]
        assert len(seqs) == len(set(seqs)), "no duplicated records"
        # No accepted-then-lost: every acked seq survived the kill.
        assert acked <= set(seqs)
        # At most the single in-flight (unacked) report beyond the acks.
        assert len(set(seqs) - acked) <= 1
        # No orphaned blobs or temp litter (swept at open).
        for shard in range(reopened.num_shards):
            shard_dir = root / f"shard-{shard:02d}"
            if not shard_dir.is_dir():
                continue
            on_disk = {blob.name for blob in shard_dir.glob("*.bugnet")}
            indexed = {entry.filename for entry in reopened.entries()
                       if entry.shard == shard}
            assert on_disk == indexed
            assert not list(shard_dir.glob("*.tmp"))
        # And the store keeps working: the next add gets a fresh seq.
        entry = reopened.add(digest_of("after"), b"x")
        assert entry.seq > max(seqs)

    def test_sigkill_loop_many_kill_points(self, tmp_path):
        """Repeat the kill at different commit phases (earlier kills hit
        blob/index/meta writes at different offsets)."""
        ctx = multiprocessing.get_context("fork")
        for round_index in range(3):
            root = tmp_path / f"store-{round_index}"
            ReportStore(root, num_shards=2)
            ack_path = tmp_path / f"acks-{round_index}.txt"
            proc = ctx.Process(target=_spin_writer,
                               args=(str(root), 0, str(ack_path)))
            proc.start()
            time.sleep(0.05 + 0.05 * round_index)
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=30)
            acked = set()
            if ack_path.exists():
                acked = {int(line) for line in ack_path.read_text().split()}
            reopened = ReportStore(root)
            seqs = {entry.seq for entry in reopened.entries()}
            assert acked <= seqs
            for entry in reopened.entries():
                assert reopened.path_of(entry).exists()


class TestEvictionVsConcurrentWriter:
    def test_eviction_rewrite_preserves_other_writers_records(
            self, tmp_path):
        """An eviction rewrite regenerates a whole shard index; it must
        absorb records another live writer appended since this writer's
        last sync, or their acknowledged commits silently vanish."""
        writer_a = ReportStore(tmp_path, num_shards=2, byte_budget=400)
        # Two digests landing in the same shard.
        first = digest_of("victim")
        shard = writer_a.shard_of(first)
        probe = 0
        while writer_a.shard_of(digest_of(("mate", probe))) != shard:
            probe += 1
        same_shard = digest_of(("mate", probe))
        victim = writer_a.add(first, b"v" * 100)
        assert victim.shard == shard
        # A second writer process (modelled as a second handle) commits
        # to the same shard behind writer A's back.
        writer_b = ReportStore(tmp_path)
        kept = writer_b.add(same_shard, b"k" * 50, upload_id="keep-me")
        assert kept.shard == shard
        # Writer A blows the budget; the oldest report (the victim in
        # that same shard) is evicted and the shard index rewritten.
        writer_a.add(digest_of("big"), b"b" * 350)
        reopened = ReportStore(tmp_path)
        seqs = {entry.seq for entry in reopened.entries()}
        assert victim.seq not in seqs
        assert kept.seq in seqs, "concurrent writer's commit was dropped"
        assert reopened.entry_for_upload("keep-me") is not None
        assert reopened.path_of(
            reopened.entry_for_upload("keep-me")).exists()


class TestRewriteThenRegrow:
    def test_stale_offset_survives_rewrite_and_regrowth(self, tmp_path):
        """Another writer's eviction rewrite followed by new appends
        can leave the index *larger* than a stale writer's synced
        offset; delta-parsing from that offset would read mid-record
        garbage.  The inode change from the replace-based rewrite must
        force a full reload instead."""
        writer_a = ReportStore(tmp_path, num_shards=1)
        writer_a.add(digest_of("e0"), b"0" * 100, upload_id="id-e0")
        writer_a.add(digest_of("e1"), b"1" * 100, upload_id="id-e1")
        # Writer B evicts e0 (rewrite: new inode, shorter index), then
        # commits a record whose length differs from e0's, regrowing
        # the file past A's stale synced offset at a misaligned byte.
        writer_b = ReportStore(tmp_path, byte_budget=250)
        kept = writer_b.add(
            digest_of("e2"), b"2" * 100,
            upload_id="a-deliberately-much-longer-upload-identifier",
        )
        # Writer A appends with its stale view of the shard.
        writer_a.add(digest_of("e3"), b"3" * 100, upload_id="id-e3")
        reopened = ReportStore(tmp_path)
        ids = {entry.upload_id for entry in reopened.entries()}
        assert kept.upload_id in ids, "regrown record was corrupted"
        assert ids == {kept.upload_id, "id-e1", "id-e3"}
        for entry in reopened.entries():
            assert reopened.path_of(entry).exists()


class TestTornTailRepair:
    def test_append_after_torn_tail(self, tmp_path):
        """A torn trailing record must not corrupt records appended by
        the next writer (the tail is truncated before the append)."""
        store = ReportStore(tmp_path, num_shards=1)
        for index in range(3):
            store.add(digest_of(index), b"x" * 50)
        index_path = tmp_path / "shard-00" / "index.bin"
        data = index_path.read_bytes()
        index_path.write_bytes(data[:-9])  # tear the last record
        # A fresh writer (fresh process in production) appends:
        writer = ReportStore(tmp_path)
        assert len(writer) == 2
        entry = writer.add(digest_of("new"), b"y" * 50)
        reopened = ReportStore(tmp_path)
        assert [e.seq for e in reopened.entries()] == [0, 1, entry.seq]
        # The torn record's seq is never reused.
        assert entry.seq == 3


class TestLegacyIndexCompat:
    def _write_legacy_store(self, root, entries_per_shard, version):
        """Materialize a v1/v2-format store (records packed without the
        fields the later versions appended: v2 added ``upload_id``, v3
        added ``race_pcs``)."""
        store = ReportStore(root, num_shards=2)
        added = []
        for index in range(entries_per_shard):
            added.append(store.add(digest_of(index), b"z" * 40,
                                   fault_kind="memory",
                                   program_name="prog"))
        for shard in range(2):
            shard_entries = [e for e in added if e.shard == shard]
            out = io.BytesIO()
            out.write(b"BGSI")
            out.write(struct.pack("<I", version))
            for entry in shard_entries:
                packed = _pack_entry(entry)
                # v4 pack ends with the route_key string (u32 len,
                # empty here) after the race_pcs field (u32 count,
                # empty here) after the upload_id string (u32 len +
                # bytes); strip per target version.
                strip = 4  # route_key length
                strip += 4  # race_pcs count
                if version < 2:
                    strip += 4 + len(entry.upload_id.encode())
                out.write(packed[:-strip])
            (root / f"shard-{shard:02d}" / "index.bin").write_bytes(
                out.getvalue()
            )
        return added

    def test_v1_index_reads_and_upgrades_on_append(self, tmp_path):
        added = self._write_legacy_store(tmp_path, 6, version=1)
        reopened = ReportStore(tmp_path)
        assert len(reopened) == 6
        assert [e.digest for e in reopened.entries()] == \
            [e.digest for e in added]
        assert all(e.upload_id == "" for e in reopened.entries())
        assert all(e.race_pcs == () for e in reopened.entries())
        # First append upgrades the touched shard to v3 in place.
        entry = reopened.add(digest_of("new"), b"q" * 40,
                             upload_id="upgraded-1")
        again = ReportStore(tmp_path)
        assert len(again) == 7
        assert again.entry_for_upload("upgraded-1").seq == entry.seq

    def test_v2_index_reads_and_upgrades_on_append(self, tmp_path):
        added = self._write_legacy_store(tmp_path, 6, version=2)
        reopened = ReportStore(tmp_path)
        assert len(reopened) == 6
        assert all(e.race_pcs == () for e in reopened.entries())
        # First append upgrades the shard to v3; the new record's race
        # evidence round-trips and old records stay race-free.
        entry = reopened.add(digest_of("racy"), b"q" * 40,
                             upload_id="upgraded-2",
                             race_pcs=(0x400120, 0x400084))
        again = ReportStore(tmp_path)
        assert len(again) == 7
        stored = next(e for e in again.entries() if e.seq == entry.seq)
        assert stored.race_pcs == (0x400120, 0x400084)
        assert stored.racy
        assert again.entry_for_upload("upgraded-2").seq == entry.seq
        assert sum(1 for e in again.entries() if e.racy) == 1


class TestUploadIdIndex:
    def test_round_trips_and_survives_reopen(self, tmp_path):
        store = ReportStore(tmp_path, num_shards=2)
        store.add(digest_of(1), b"a", upload_id="client-1")
        store.add(digest_of(2), b"b")
        assert store.entry_for_upload("client-1").digest == digest_of(1)
        assert store.entry_for_upload("") is None
        assert store.entry_for_upload("nope") is None
        reopened = ReportStore(tmp_path)
        assert reopened.entry_for_upload("client-1").digest == digest_of(1)

    def test_eviction_drops_upload_id(self, tmp_path):
        store = ReportStore(tmp_path, num_shards=2, byte_budget=150)
        store.add(digest_of(1), b"a" * 100, upload_id="old")
        store.add(digest_of(2), b"b" * 100, upload_id="new")
        assert store.entry_for_upload("old") is None
        assert store.entry_for_upload("new") is not None


class TestShardOccupancy:
    def test_counts_match_entries(self, tmp_path):
        store = ReportStore(tmp_path, num_shards=4)
        for index in range(16):
            store.add(digest_of(index), b"x" * (10 + index))
        occupancy = store.shard_occupancy()
        assert len(occupancy) == 4
        assert sum(slot["reports"] for slot in occupancy) == 16
        assert sum(slot["bytes"] for slot in occupancy) == store.total_bytes
        for slot in occupancy:
            expected = [e for e in store.entries() if e.shard == slot["shard"]]
            assert slot["reports"] == len(expected)


class TestBatchedCommits:
    def test_add_many_consecutive_seqs_one_meta_pass(self, tmp_path):
        store = ReportStore(tmp_path, num_shards=4)
        entries = store.add_many([
            {"digest": digest_of(i), "blob": bytes([i]) * 20,
             "upload_id": f"batch-{i}"}
            for i in range(10)
        ])
        assert [entry.seq for entry in entries] == list(range(10))
        # The seq file is the authoritative counter; store.json stays
        # off the commit path (written on creation/eviction/config only).
        assert int((tmp_path / "seq").read_bytes()) == 10
        meta = json.loads((tmp_path / "store.json").read_text())
        assert meta["next_seq"] == 0
        reopened = ReportStore(tmp_path)
        assert len(reopened) == 10
        assert reopened.add(digest_of("next"), b"n").seq == 10

    def test_add_many_protects_whole_batch_from_eviction(self, tmp_path):
        store = ReportStore(tmp_path, num_shards=2, byte_budget=250)
        store.add(digest_of("old"), b"o" * 100)
        entries = store.add_many([
            {"digest": digest_of(i), "blob": b"n" * 100} for i in range(3)
        ])
        kept = {entry.seq for entry in store.entries()}
        # The old report is evicted; the whole new batch survives even
        # though it exceeds the budget on its own.
        assert kept == {entry.seq for entry in entries}

    def test_add_many_empty(self, tmp_path):
        store = ReportStore(tmp_path, num_shards=2)
        assert store.add_many([]) == []
        assert len(store) == 0


class TestEntryEquality(object):
    def test_stored_entry_has_upload_id_default(self):
        entry = StoredEntry(
            digest="ab" * 32, seq=0, observed_at=0, byte_size=1,
            replay_window=0, fault_kind="", program_name="",
            shard=0, filename="f",
        )
        assert entry.upload_id == ""
