"""Dedup-before-validate admission: the validated-signature cache.

The contracts pinned here keep the admission shortcut honest:

- **Equivalence**: with the cache enabled, every commit (store entry,
  upload index, rollups, bucket, signature, race evidence) is
  byte-identical to what full validation would have produced — over
  the whole multithreaded Table-1 suite, racy bugs included.
- **Trust-but-verify determinism**: the reverify sample is a pure
  function of ``(seed, fingerprint, upload_id)``, so restarts and
  cluster peers draw the same sample and an upload cannot dodge
  re-validation by retrying.
- **Quarantine**: a poisoned cache entry that survives the probe's
  integrity cross-check (its lie is in the *tail*, not the fields the
  blob itself witnesses) is caught by the sampled re-validation; the
  bucket quarantines, its entries evict, and re-admission is refused.
- **Persistence**: derived from the store — entries come back from
  the committed preimages on reopen (or when the store absorbs another
  writer's commits), only quarantines have a log of their own, and a
  corrupt, torn or killed-mid-write log is a cold start, not a crash.
"""

import hashlib
import itertools
import multiprocessing
import os
import signal
import time
from pathlib import Path

import pytest

from repro.common.config import BugNetConfig
from repro.fleet.admitcache import (
    QUARANTINE_FILE,
    AdmitCache,
    CachedOutcome,
    blob_fingerprint,
)
from repro.fleet.ingest import IngestPipeline
from repro.fleet.store import ReportStore, _pack_preimage, _parse_preimages
from repro.fleet.triage import build_buckets
from repro.fleet.validate import ValidatedReport, validate_report
from repro.forensics.autopsy import bug_suite_resolver
from repro.obs import REGISTRY
from repro.tracing.serialize import dump_crash_report, load_report_header
from repro.workloads.bugs import BUGS_BY_NAME, run_bug

MT_SUITE = ("gaim-0.82.1", "napster-1.5.2", "python-2.1.1-1",
            "python-2.1.1-2", "w3m-0.3.2.2")


@pytest.fixture(scope="module")
def resolver():
    return bug_suite_resolver()


@pytest.fixture(scope="module")
def mt_blobs(resolver):
    """One recorded shipment per multithreaded Table-1 bug."""
    config = BugNetConfig(checkpoint_interval=20_000)
    blobs = {}
    for name in MT_SUITE:
        run = run_bug(BUGS_BY_NAME[name], bugnet=config, record=True,
                      interleave_seed=9)
        assert run.crashed, name
        blobs[name] = dump_crash_report(run.result.crash, config)
    return blobs


@pytest.fixture(scope="module")
def gaim_blob(mt_blobs):
    return mt_blobs["gaim-0.82.1"]


def _counter(name, labels=()):
    return REGISTRY.sample_value(name, labels) or 0


def _entry_key(entry):
    return (entry.digest, entry.seq, entry.observed_at, entry.byte_size,
            entry.replay_window, entry.fault_kind, entry.program_name,
            entry.shard, entry.filename, entry.upload_id, entry.race_pcs,
            entry.route_key)


class TestProbeAndRecord:
    def test_cold_probe_misses_then_hits_after_record(
            self, gaim_blob, resolver, tmp_path):
        cache = AdmitCache(ReportStore(tmp_path / "cache"))
        assert cache.probe(gaim_blob) is None
        validated = validate_report("g", gaim_blob, None, resolver)
        assert isinstance(validated, ValidatedReport)
        cache.record(blob_fingerprint(gaim_blob), validated)
        entry = cache.probe(gaim_blob)
        assert entry is not None
        assert entry.digest == validated.signature.digest
        assert entry.race_pcs == validated.signature.race_pcs
        assert entry.route_key == validated.route_key

    def test_hit_materializes_identical_validated_report(
            self, gaim_blob, resolver, tmp_path):
        cache = AdmitCache(ReportStore(tmp_path / "cache"))
        validated = validate_report("g", gaim_blob, None, resolver)
        cache.record(blob_fingerprint(gaim_blob), validated)
        entry = cache.probe(gaim_blob)
        materialized = entry.validated("g", gaim_blob, None)
        assert materialized.signature == validated.signature
        assert materialized.instructions == validated.instructions
        assert materialized.route_key == validated.route_key
        assert materialized.fault_kind == validated.fault_kind
        assert materialized.program_name == validated.program_name

    def test_flipped_bit_is_a_miss_not_a_hit(self, gaim_blob, resolver,
                                             tmp_path):
        """The fingerprint covers the whole blob: a corrupt variant of
        a cached report takes the full validation path (and dies
        there), it can never ride the cache."""
        cache = AdmitCache(ReportStore(tmp_path / "cache"))
        validated = validate_report("g", gaim_blob, None, resolver)
        cache.record(blob_fingerprint(gaim_blob), validated)
        corrupt = bytearray(gaim_blob)
        corrupt[len(corrupt) // 2] ^= 0xFF
        assert cache.probe(bytes(corrupt)) is None

    def test_integrity_drop_when_entry_contradicts_blob(
            self, gaim_blob, resolver, tmp_path):
        """An entry whose claims disagree with the blob's own header is
        dropped and counted, never trusted."""
        cache = AdmitCache(ReportStore(tmp_path / "cache"))
        validated = validate_report("g", gaim_blob, None, resolver)
        entry = CachedOutcome.from_validated(
            blob_fingerprint(gaim_blob), validated)
        lying = CachedOutcome(
            fingerprint=entry.fingerprint,
            program_name="not-the-program",
            fault_kind=entry.fault_kind,
            fault_pc=entry.fault_pc,
            tail_pcs=entry.tail_pcs,
            race_pcs=entry.race_pcs,
            instructions=entry.instructions,
            route_key=entry.route_key,
        )
        cache.seed_entry(lying)
        before = _counter("bugnet_admit_cache_total", ("integrity-drop",))
        assert cache.probe(gaim_blob) is None
        after = _counter("bugnet_admit_cache_total", ("integrity-drop",))
        assert after == before + 1
        assert len(cache) == 0  # dropped, not retained

    def test_lru_capacity_bound(self, mt_blobs, resolver, tmp_path):
        cache = AdmitCache(ReportStore(tmp_path / "cache"), capacity=2)
        for name in MT_SUITE[:3]:
            validated = validate_report(name, mt_blobs[name], None, resolver)
            assert isinstance(validated, ValidatedReport), name
            cache.record(blob_fingerprint(mt_blobs[name]), validated)
        assert len(cache) == 2
        # The oldest (first-recorded) entry evicted.
        assert cache.probe(mt_blobs[MT_SUITE[0]]) is None
        assert cache.probe(mt_blobs[MT_SUITE[2]]) is not None


class TestHeaderOnlyDecode:
    def test_header_matches_full_decode(self, mt_blobs):
        from repro.tracing.serialize import load_crash_report

        for name, blob in mt_blobs.items():
            report, _config = load_crash_report(blob)
            header = load_report_header(blob)
            assert header.program_name == report.program_name, name
            assert header.fault_kind == report.fault_kind
            assert header.fault_pc == report.fault_pc
            assert header.fault_message == report.fault_message
            assert header.fault_source_line == report.fault_source_line
            assert header.pid == report.pid
            assert header.faulting_tid == report.faulting_tid

    def test_header_decode_works_on_v1_format(self, resolver):
        config = BugNetConfig(checkpoint_interval=2_000)
        run = run_bug(BUGS_BY_NAME["python-2.1.1-2"], bugnet=config,
                      record=True)
        blob = dump_crash_report(run.result.crash, config, version=1)
        header = load_report_header(blob)
        assert header.program_name == run.result.crash.program_name
        assert header.fault_pc == run.result.crash.fault_pc

    def test_header_decode_rejects_garbage(self, gaim_blob):
        from repro.fleet.validate import DECODE_ERRORS

        with pytest.raises(DECODE_ERRORS):
            load_report_header(b"not a report")
        with pytest.raises(DECODE_ERRORS):
            load_report_header(gaim_blob[:40])  # truncated mid-body


class TestEquivalence:
    """Cache-enabled ingestion commits byte-identically to full
    validation — entry for entry, rollup for rollup — over the whole
    multithreaded suite with every blob uploaded twice."""

    def _traffic(self, mt_blobs):
        items = []
        for index, name in enumerate(MT_SUITE):
            items.append((f"orig:{name}", mt_blobs[name], index))
        for index, name in enumerate(MT_SUITE):
            items.append((f"dup:{name}", mt_blobs[name],
                          len(MT_SUITE) + index))
        return items

    def test_enabled_vs_disabled_identical_store_effects(
            self, mt_blobs, resolver, tmp_path):
        items = self._traffic(mt_blobs)

        plain_store = ReportStore(tmp_path / "plain", num_shards=4)
        plain = IngestPipeline(plain_store, resolver)
        plain_results = plain.ingest_many(items)

        cached_store = ReportStore(tmp_path / "cached", num_shards=4)
        cached = IngestPipeline(
            cached_store, resolver,
            admit_cache=AdmitCache(cached_store, reverify_fraction=0.0),
        )
        cached_results = cached.ingest_many(items)

        assert cached.cache_hits == len(MT_SUITE)  # every dup rode the cache
        for full, shortcut in zip(plain_results, cached_results):
            assert full.accepted and shortcut.accepted
            assert full.digest == shortcut.digest
            assert full.signature == shortcut.signature
            assert full.signature.race_pcs == shortcut.signature.race_pcs
            assert (full.instructions_replayed
                    == shortcut.instructions_replayed)
        # Store effects: identical entries (sequence numbers, shard
        # placement, filenames, every metadata field) and rollups.
        assert ([_entry_key(e) for e in plain_store.entries()]
                == [_entry_key(e) for e in cached_store.entries()])
        assert plain_store.rollups() == cached_store.rollups()
        # Triage sees the same world.
        plain_buckets = build_buckets(plain_store)
        cached_buckets = build_buckets(cached_store)
        assert ([b.to_dict() for b in plain_buckets]
                == [b.to_dict() for b in cached_buckets])

    def test_warm_restart_equivalence(self, mt_blobs, resolver, tmp_path):
        """Second batch in a *new* pipeline (cache rebuilt from the
        store): still identical to full validation."""
        items = self._traffic(mt_blobs)

        warm_store = ReportStore(tmp_path / "warm", num_shards=4)
        first = IngestPipeline(
            warm_store, resolver,
            admit_cache=AdmitCache(warm_store, reverify_fraction=0.0))
        first.ingest_many(items)

        # Restarted consumer, cache rebuilt from the store reopened
        # from disk: everything now hits.
        second = IngestPipeline(
            warm_store, resolver,
            admit_cache=AdmitCache(ReportStore(tmp_path / "warm"),
                                   reverify_fraction=0.0))
        again = second.ingest_many(items)
        assert all(result.accepted for result in again)
        assert second.cache_hits == len(items)

        plain_store = ReportStore(tmp_path / "plain", num_shards=4)
        plain = IngestPipeline(plain_store, resolver)
        plain.ingest_many(items)
        plain.ingest_many(items)
        assert ([_entry_key(e) for e in warm_store.entries()]
                == [_entry_key(e) for e in plain_store.entries()])
        assert warm_store.rollups() == plain_store.rollups()


class TestReverifyDeterminism:
    def test_sample_identical_across_restarts_and_nodes(self, tmp_path):
        """(seed, fingerprint, upload_id) fully determines membership:
        a restarted cache (same store) and a cluster peer (different
        store, same seed) draw the identical sample."""
        draws = [(blob_fingerprint(f"blob-{i}".encode()), f"upload-{i}")
                 for i in range(200)]
        first = AdmitCache(ReportStore(tmp_path / "a"), seed=7,
                           reverify_fraction=0.1)
        restarted = AdmitCache(ReportStore(tmp_path / "a"), seed=7,
                               reverify_fraction=0.1)
        peer = AdmitCache(ReportStore(tmp_path / "b" / "peer"), seed=7,
                          reverify_fraction=0.1)
        sample = [first.should_reverify(fp, up) for fp, up in draws]
        assert sample == [restarted.should_reverify(fp, up)
                          for fp, up in draws]
        assert sample == [peer.should_reverify(fp, up) for fp, up in draws]
        # The fraction is honored in expectation (loose bounds: 200
        # draws at 0.1 — the point is "nonzero and nowhere near all").
        assert 2 <= sum(sample) <= 60

    def test_seed_changes_the_sample(self, tmp_path):
        draws = [(blob_fingerprint(f"blob-{i}".encode()), f"upload-{i}")
                 for i in range(200)]
        a = AdmitCache(ReportStore(tmp_path / "a"), seed=0, reverify_fraction=0.1)
        b = AdmitCache(ReportStore(tmp_path / "b"), seed=1, reverify_fraction=0.1)
        assert ([a.should_reverify(fp, up) for fp, up in draws]
                != [b.should_reverify(fp, up) for fp, up in draws])

    def test_fraction_extremes(self, tmp_path):
        cache = AdmitCache(ReportStore(tmp_path / "c"), reverify_fraction=0.0)
        assert not cache.should_reverify("f" * 64, "u")
        always = AdmitCache(ReportStore(tmp_path / "d"), reverify_fraction=1.0)
        assert always.should_reverify("f" * 64, "u")


class TestQuarantine:
    def _poison_evidence(self, entry):
        """A poisoned entry the probe CANNOT catch: program, fault kind,
        fault PC and route digest all still match the blob's own header
        — the lie is in the replay-derived evidence (the race PCs; the
        tail for a race-free bucket), which only a full replay
        witnesses.  Its digest therefore differs: hits would commit
        into the wrong bucket."""
        return CachedOutcome(
            fingerprint=entry.fingerprint,
            program_name=entry.program_name,
            fault_kind=entry.fault_kind,
            fault_pc=entry.fault_pc,
            tail_pcs=(entry.tail_pcs if entry.race_pcs
                      else tuple(pc + 1 for pc in entry.tail_pcs)),
            race_pcs=tuple(pc + 1 for pc in entry.race_pcs),
            instructions=entry.instructions,
            route_key=entry.route_key,
        )

    def test_poisoned_entry_survives_probe_but_reverify_quarantines(
            self, gaim_blob, resolver, tmp_path):
        cache = AdmitCache(ReportStore(tmp_path / "cache"), reverify_fraction=1.0)
        validated = validate_report("g", gaim_blob, None, resolver)
        honest = CachedOutcome.from_validated(
            blob_fingerprint(gaim_blob), validated)
        poisoned = self._poison_evidence(honest)
        assert poisoned.digest != honest.digest
        cache.seed_entry(poisoned)

        # The probe's integrity cross-check passes — by design, it can
        # only check what the blob itself claims.
        assert cache.probe(gaim_blob) is not None

        # The sampled re-validation catches the lie.
        before = _counter("bugnet_admit_quarantine_total")
        mismatch_before = _counter("bugnet_admit_reverify_total",
                                   ("mismatch",))
        assert not cache.reverify_outcome(poisoned, validated)
        assert _counter("bugnet_admit_quarantine_total") == before + 1
        assert _counter("bugnet_admit_reverify_total",
                        ("mismatch",)) == mismatch_before + 1

        # The bucket is now cold: probe refuses, record refuses.
        assert cache.probe(gaim_blob) is None
        assert cache.record(blob_fingerprint(gaim_blob),
                            ValidatedReport(
                                label="again", blob=gaim_blob,
                                observed_at=None,
                                signature=poisoned.signature,
                                fault_kind=poisoned.fault_kind,
                                program_name=poisoned.program_name,
                                instructions=poisoned.instructions,
                                route_key=poisoned.route_key)) is None
        assert poisoned.digest in cache.quarantined

    def test_quarantine_persists_across_restart(self, gaim_blob, resolver,
                                                tmp_path):
        path = tmp_path / "store"
        cache = AdmitCache(ReportStore(path), reverify_fraction=1.0)
        validated = validate_report("g", gaim_blob, None, resolver)
        honest = CachedOutcome.from_validated(
            blob_fingerprint(gaim_blob), validated)
        poisoned = self._poison_evidence(honest)
        cache.seed_entry(poisoned)
        cache.reverify_outcome(poisoned, validated)

        reborn = AdmitCache(ReportStore(path), reverify_fraction=1.0)
        assert poisoned.digest in reborn.quarantined
        assert reborn.probe(gaim_blob) is None
        assert reborn.record(blob_fingerprint(gaim_blob), ValidatedReport(
            label="again", blob=gaim_blob, observed_at=None,
            signature=poisoned.signature, fault_kind=poisoned.fault_kind,
            program_name=poisoned.program_name,
            instructions=poisoned.instructions,
            route_key=poisoned.route_key)) is None

    def test_pipeline_reverify_catches_poison_end_to_end(
            self, mt_blobs, resolver, tmp_path):
        """The full drill the CI smoke job runs: seed the cache
        honestly, poison the store-held preimage, restart and re-upload
        with the sample forced on — the poisoned bucket quarantines and
        the upload still commits with the *correct* (re-validated)
        signature.  The report is race-free: a race-keyed digest hashes
        the index record's race PCs, not the preimage log's tail."""
        blob = mt_blobs["python-2.1.1-2"]
        store = ReportStore(tmp_path / "store", num_shards=2)
        seeder = IngestPipeline(
            store, resolver,
            admit_cache=AdmitCache(store, reverify_fraction=0.0))
        first = seeder.ingest_many([("orig", blob, 0)])
        assert first[0].accepted
        assert not first[0].signature.race_pcs
        true_digest = first[0].digest

        # Poison the persisted preimage's tail out-of-band.
        assert _poison_preimages(tmp_path / "store") == 1

        restarted = ReportStore(tmp_path / "store")
        pipeline = IngestPipeline(
            restarted, resolver,
            admit_cache=AdmitCache(restarted, reverify_fraction=1.0))
        before = _counter("bugnet_admit_quarantine_total")
        results = pipeline.ingest_many([("dup", blob, 1)])
        assert results[0].accepted
        assert results[0].digest == true_digest  # full replay won
        assert pipeline.reverified == 1
        assert _counter("bugnet_admit_quarantine_total") == before + 1
        assert pipeline.admit_cache.quarantined  # bucket banned


def _poison_preimages(root) -> int:
    """Bump every tail PC in a store's preimage logs — the evidence the
    probe cannot see — and return the number of records poisoned."""
    poisoned = 0
    for path in sorted(Path(root).glob("shard-*/preimages.bin")):
        data = path.read_bytes()
        records, _end = _parse_preimages(data[8:])
        path.write_bytes(data[:8] + b"".join(
            _pack_preimage(digest, fault_pc, tuple(pc + 1 for pc in tail))
            for digest, fault_pc, tail in records))
        poisoned += len(records)
    return poisoned


def _spin_committer(root, ack_path):
    """Commit reports with distinct preimages until killed, appending
    each acknowledged seq to *ack_path*."""
    store = ReportStore(root)
    with open(ack_path, "a", buffering=1) as acks:
        for index in itertools.count():
            entry = store.add(
                hashlib.sha256(b"%d" % index).hexdigest(), os.urandom(64),
                upload_id=f"k-{index}", fault_pc=index,
                tail_pcs=tuple(range(index % 13)))
            acks.write(f"{entry.seq}\n")


class TestPersistence:
    """The cache persists nothing but quarantines: its entries come
    back from the store's committed preimages."""

    def _pipeline(self, root, resolver, **cache_options):
        store = ReportStore(root, num_shards=1)
        return IngestPipeline(store, resolver, admit_cache=AdmitCache(
            store, reverify_fraction=0.0, **cache_options))

    def test_concurrent_writers_union_not_clobber(self, gaim_blob,
                                                  mt_blobs, resolver,
                                                  tmp_path):
        """Two writers on one store: a reopen warms from both."""
        blob_b = mt_blobs["python-2.1.1-2"]
        a = self._pipeline(tmp_path, resolver)
        b = self._pipeline(tmp_path, resolver)
        assert a.ingest_many([("a", gaim_blob, None)])[0].accepted
        assert b.ingest_many([("b", blob_b, None)])[0].accepted
        merged = AdmitCache(ReportStore(tmp_path))
        assert merged.probe(gaim_blob) is not None
        assert merged.probe(blob_b) is not None

    def test_absorb_pickup_of_foreign_writes(self, gaim_blob, mt_blobs,
                                             resolver, tmp_path):
        """Another writer's commit reaches this cache when this store
        absorbs it — on its own next commit to the shard."""
        reader = self._pipeline(tmp_path, resolver)
        writer = self._pipeline(tmp_path, resolver)
        assert writer.ingest_many([("w", gaim_blob, None)])[0].accepted
        assert reader.admit_cache.probe(gaim_blob) is None  # not absorbed
        blob = mt_blobs["python-2.1.1-2"]
        assert reader.ingest_many([("r", blob, None)])[0].accepted
        assert reader.admit_cache.probe(gaim_blob) is not None

    def test_corrupt_cache_file_is_cold_start_not_crash(self, gaim_blob,
                                                        resolver,
                                                        tmp_path):
        """Garbage or a torn tail in the preimage log, garbage in the
        quarantine log: the cache opens cold and the next commit
        repairs the preimage log."""
        first = self._pipeline(tmp_path, resolver)
        assert first.ingest_many([("g", gaim_blob, None)])[0].accepted
        log = tmp_path / "shard-00" / "preimages.bin"
        intact = log.read_bytes()
        (tmp_path / QUARANTINE_FILE).write_bytes(b"\x00garbage\nzz")
        for damaged in (intact[:-3], b"not a preimage log", b"BG"):
            log.write_bytes(damaged)
            cache = AdmitCache(ReportStore(tmp_path))
            assert len(cache) == 0
            assert not cache.quarantined
            assert cache.probe(gaim_blob) is None
        again = self._pipeline(tmp_path, resolver)
        assert again.ingest_many([("g2", gaim_blob, None)])[0].accepted
        assert log.read_bytes() == intact  # rewritten whole
        assert AdmitCache(ReportStore(tmp_path)).probe(gaim_blob) is not None

    def test_sigkill_mid_commit_leaves_no_half_preimage(self, tmp_path):
        """SIGKILL a committing writer: its preimage log ends on a
        record boundary and holds the preimage of every acked report."""
        ReportStore(tmp_path, num_shards=2)
        ack_path = tmp_path / "acks.txt"
        ctx = multiprocessing.get_context("fork")
        proc = ctx.Process(target=_spin_committer,
                           args=(str(tmp_path), str(ack_path)))
        proc.start()
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if ack_path.exists() and len(ack_path.read_text().split()) >= 40:
                break
            time.sleep(0.01)
        os.kill(proc.pid, signal.SIGKILL)
        proc.join(timeout=30)
        acked = {int(line) for line in ack_path.read_text().split()}
        assert len(acked) >= 40
        logged = {}
        for log in tmp_path.glob("shard-*/preimages.bin"):
            data = log.read_bytes()
            records, end = _parse_preimages(data[8:])
            assert 8 + end == len(data), "half-written preimage record"
            logged.update({digest: (fault_pc, tail)
                           for digest, fault_pc, tail in records})
        reopened = ReportStore(tmp_path)
        for entry in reopened.entries():
            if entry.seq in acked:
                index = int(entry.upload_id.split("-")[1])
                assert logged[entry.digest] == (index,
                                                tuple(range(index % 13)))


class TestIntraBatchDedup:
    def test_same_batch_duplicates_defer_to_leader(self, gaim_blob,
                                                   resolver, tmp_path):
        store = ReportStore(tmp_path / "store", num_shards=2)
        pipeline = IngestPipeline(
            store, resolver,
            admit_cache=AdmitCache(store, reverify_fraction=0.0))
        results = pipeline.ingest_many([
            ("one", gaim_blob, 0),
            ("two", gaim_blob, 1),
            ("three", gaim_blob, 2),
        ])
        assert all(result.accepted for result in results)
        assert len({result.digest for result in results}) == 1
        assert pipeline.cache_hits == 2  # one leader validated
        assert len(store) == 3

    def test_rejected_leader_rejects_its_duplicates(self, resolver,
                                                    tmp_path):
        store = ReportStore(tmp_path / "store", num_shards=2)
        pipeline = IngestPipeline(
            store, resolver,
            admit_cache=AdmitCache(store, reverify_fraction=0.0))
        bogus = b"BGNT" + b"\x00" * 64
        results = pipeline.ingest_many([
            ("one", bogus, 0),
            ("two", bogus, 1),
        ])
        assert not results[0].accepted
        assert not results[1].accepted
        assert results[0].reason == results[1].reason
        assert len(store) == 0
