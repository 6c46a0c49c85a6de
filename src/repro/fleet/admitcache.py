"""Dedup-before-validate admission: the validated-signature cache.

BugNet's fleet premise is that millions of deployed machines ship
crash reports and the collector dedups them into a handful of buckets
— but validate-before-commit replays *every* upload in full, so
duplicate-dominated racy traffic pays the expensive multi-thread
replay once per copy.  This module is the first admission tier: a
bounded, persistent cache mapping a report blob's fingerprint (sha256
of the raw bytes) to the **validated outcome** a previous full
validation produced — everything a commit needs (the signature
preimage, the replay window, the routing key), so a repeat upload
commits byte-identically to a full validation without replaying a
single instruction.

Three properties keep the shortcut honest:

* **Integrity cross-check on every hit.**  A probe decodes the blob
  (cheap — no replay) and requires the cached entry to agree with the
  report's own claims: program, fault kind, faulting PC, and the
  replay-free :func:`~repro.fleet.signature.route_digest`.  An entry
  that disagrees with its own blob is dropped, not trusted.
* **Trust-but-verify sampling.**  A deterministic, seeded fraction of
  repeats (:meth:`AdmitCache.should_reverify`) still takes the full
  validation path; the outcome is compared against the cache.  The
  sample is a pure function of ``(seed, fingerprint, upload_id)``, so
  every service worker, restart, and cluster node draws the *same*
  sample — reverification cannot be dodged by retrying an upload.
* **Quarantine on mismatch.**  If a sampled re-validation disagrees
  with the cached outcome, the bucket's digest is quarantined: its
  entries are evicted, future outcomes for that digest are refused
  admission to the cache, and every subsequent upload of that bucket
  takes the full validation path.  The quarantine set persists in
  ``admit-quarantine.log`` in the store root, one appended line per
  banned digest.

The cache has no file of its own: it is an in-memory LRU derived from
the :class:`~repro.fleet.store.ReportStore` it is opened over, whose
commits persist each report's signature preimage (DESIGN.md §13).  It
is rebuilt from the newest committed reports on open, and takes in
other writers' commits when the store absorbs them.
"""

from __future__ import annotations

import hashlib
import os
import re
import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.fleet.signature import CrashSignature, route_digest
from repro.fleet.store import ReportStore, StoredEntry
from repro.fleet.validate import DECODE_ERRORS, ValidatedReport
from repro.obs import REGISTRY
from repro.tracing.serialize import load_report_header

_CACHE_PROBES = REGISTRY.counter(
    "bugnet_admit_cache_total",
    "Admission-cache probe outcomes (hit = commit without replay).",
    ("result",),  # hit | miss | quarantined | integrity-drop
)
_REVERIFY = REGISTRY.counter(
    "bugnet_admit_reverify_total",
    "Sampled trust-but-verify re-validations of cache hits.",
    ("result",),  # match | mismatch
)
_QUARANTINES = REGISTRY.counter(
    "bugnet_admit_quarantine_total",
    "Buckets quarantined after a reverify mismatch (poisoned cache).",
)

#: The quarantine log in the store root, and one well-formed line of it.
QUARANTINE_FILE = "admit-quarantine.log"
_DIGEST_LINE = re.compile(rb"[0-9a-f]{64}")


def blob_fingerprint(blob: bytes) -> str:
    """Cache key of a report blob: sha256 over the raw upload bytes.

    Byte-identical uploads — the fleet's duplicate-dominated common
    case — share a fingerprint; a single flipped bit misses and takes
    the full validation path, so the cache can never launder a corrupt
    variant of a known-good report."""
    return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True)
class CachedOutcome:
    """One validated admission outcome, keyed by blob fingerprint.

    Carries the full :class:`~repro.fleet.signature.CrashSignature`
    preimage (not just the digest) so a cache-hit commit reconstructs
    the signature and every store field byte-identically to the full
    validation that seeded the entry — and so the digest itself is
    recomputable as an integrity check on entries that arrive from
    disk or replication."""

    fingerprint: str
    program_name: str
    fault_kind: str
    fault_pc: int
    tail_pcs: "tuple[int, ...]"
    race_pcs: "tuple[int, ...]"
    instructions: int
    route_key: str

    @property
    def signature(self) -> CrashSignature:
        """The signature this outcome commits under (recomputed)."""
        return CrashSignature(
            program_name=self.program_name,
            fault_kind=self.fault_kind,
            fault_pc=self.fault_pc,
            tail_pcs=self.tail_pcs,
            race_pcs=self.race_pcs,
        )

    @property
    def digest(self) -> str:
        """Bucket digest (recomputed from the preimage)."""
        return self.signature.digest

    def validated(self, label: str, blob: bytes,
                  observed_at: "int | None") -> ValidatedReport:
        """Materialize the commit-ready :class:`ValidatedReport` a full
        validation of *blob* would have produced."""
        return ValidatedReport(
            label=label,
            blob=blob,
            observed_at=observed_at,
            signature=self.signature,
            fault_kind=self.fault_kind,
            program_name=self.program_name,
            instructions=self.instructions,
            route_key=self.route_key,
        )

    @classmethod
    def from_validated(cls, fingerprint: str,
                       validated: ValidatedReport) -> "CachedOutcome":
        signature = validated.signature
        return cls(
            fingerprint=fingerprint,
            program_name=signature.program_name,
            fault_kind=signature.fault_kind,
            fault_pc=signature.fault_pc,
            tail_pcs=tuple(signature.tail_pcs),
            race_pcs=tuple(signature.race_pcs),
            instructions=validated.instructions,
            route_key=validated.route_key,
        )


class AdmitCache:
    """Bounded validated-signature cache over a :class:`ReportStore`.

    *store* is the store the cache's outcomes commit to and are rebuilt
    from; the cache subscribes to its ``on_absorb``.  *capacity* bounds
    the entry count — least-recently-used entries evict first, which
    under fleet traffic keeps the hot buckets resident.  *seed* and
    *reverify_fraction* parameterize the deterministic
    trust-but-verify sample; every node of a cluster must share the
    seed for the sample to be cluster-consistent."""

    def __init__(self, store: ReportStore, capacity: int = 4096,
                 seed: int = 0, reverify_fraction: float = 0.05) -> None:
        self.store = store
        #: The quarantine log (what :meth:`flush` appends to).
        self.path = store.root / QUARANTINE_FILE
        self.capacity = max(int(capacity), 1)
        self.seed = int(seed)
        self.reverify_fraction = float(reverify_fraction)
        self._entries: "OrderedDict[str, CachedOutcome]" = OrderedDict()
        self._quarantined: "set[str]" = self._read_quarantine()
        self._unflushed: "list[str]" = []
        # One cache instance is shared by every in-process consumer
        # (service chunk tasks run on executor threads).
        self._mutex = threading.RLock()
        self._absorb(store.entries())
        store.on_absorb = self._absorb

    # -- probes --------------------------------------------------------------

    def probe(self, blob: bytes) -> "CachedOutcome | None":
        """First admission tier: return the cached validated outcome
        for *blob*, or ``None`` (take the full validation path).

        A hit requires the signature-prefix cross-check to pass: the
        blob must decode, and its own (program, fault kind, fault PC,
        route digest) must match the entry.  Since the fingerprint is
        a hash of the full blob this only fails when the *cache entry*
        is wrong — corrupt or poisoned — and such entries are dropped
        and counted rather than trusted."""
        with self._mutex:
            fingerprint = blob_fingerprint(blob)
            entry = self._entries.get(fingerprint)
            if entry is None:
                _CACHE_PROBES.labels("miss").inc()
                return None
            if entry.digest in self._quarantined:
                _CACHE_PROBES.labels("quarantined").inc()
                return None
        # The decode cross-check runs outside the mutex — it is pure
        # CPU work on the blob and the entry is immutable.  Header-only
        # decode: the probe needs the report's *claims*, not its logs.
        try:
            report = load_report_header(blob)
        except DECODE_ERRORS:
            report = None
        if (report is None
                or report.program_name != entry.program_name
                or report.fault_kind != entry.fault_kind
                or report.fault_pc != entry.fault_pc
                or route_digest(report.program_name, report.fault_kind,
                                report.fault_pc) != entry.route_key):
            with self._mutex:
                self._entries.pop(fingerprint, None)
            _CACHE_PROBES.labels("integrity-drop").inc()
            return None
        with self._mutex:
            if fingerprint in self._entries:
                self._entries.move_to_end(fingerprint)
        _CACHE_PROBES.labels("hit").inc()
        return entry

    def should_reverify(self, fingerprint: str, upload_id: str) -> bool:
        """Deterministic trust-but-verify sample membership.

        A pure function of ``(seed, fingerprint, upload_id)`` — the
        same upload draws the same verdict on every worker, across
        restarts, and on every cluster node, so the sample cannot be
        dodged and the drill in CI is reproducible."""
        fraction = self.reverify_fraction
        if fraction <= 0.0:
            return False
        if fraction >= 1.0:
            return True
        hasher = hashlib.sha256()
        hasher.update(b"reverify-v1\x00")
        hasher.update(str(self.seed).encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(fingerprint.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(upload_id.encode("utf-8"))
        draw = int.from_bytes(hasher.digest()[:8], "big") / float(1 << 64)
        return draw < fraction

    # -- mutation ------------------------------------------------------------

    def record(self, fingerprint: str,
               validated: ValidatedReport) -> "CachedOutcome | None":
        """Admit a full-validation outcome into the cache (in memory:
        the store commit of the report persists its preimage).
        Quarantined buckets are refused — once a digest misbehaved,
        every upload of it revalidates until an operator clears the
        quarantine."""
        entry = CachedOutcome.from_validated(fingerprint, validated)
        return entry if self.seed_entry(entry) else None

    def seed_entry(self, entry: CachedOutcome) -> bool:
        """Admit an entry validated elsewhere (a replicated report).

        The digest is recomputed from the preimage by construction
        (:attr:`CachedOutcome.digest`), so an entry cannot claim a
        digest its fields do not hash to."""
        with self._mutex:
            if entry.digest in self._quarantined:
                return False
            self._entries[entry.fingerprint] = entry
            self._entries.move_to_end(entry.fingerprint)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
        return True

    def reverify_outcome(self, expected: CachedOutcome,
                         outcome) -> bool:
        """Compare a sampled full re-validation against its cache
        entry; on mismatch quarantine the bucket.  Returns ``True``
        when the cache told the truth."""
        matches = (
            isinstance(outcome, ValidatedReport)
            and outcome.signature.digest == expected.digest
            and outcome.instructions == expected.instructions
            and outcome.route_key == expected.route_key
        )
        if matches:
            _REVERIFY.labels("match").inc()
            return True
        _REVERIFY.labels("mismatch").inc()
        self.quarantine(expected.digest)
        return False

    def quarantine(self, digest: str) -> None:
        """Quarantine a bucket: evict its entries, refuse new ones,
        persist the ban."""
        with self._mutex:
            if digest not in self._quarantined:
                self._quarantined.add(digest)
                self._unflushed.append(digest)
                _QUARANTINES.inc()
            stale = [fp for fp, entry in self._entries.items()
                     if entry.digest == digest]
            for fingerprint in stale:
                del self._entries[fingerprint]
            self.flush()

    # -- persistence ---------------------------------------------------------

    def _absorb(self, entries: "list[StoredEntry]") -> None:
        """Fill free capacity from committed store entries (oldest
        first): the newest with a usable preimage become the warmest,
        cached outcomes keep their recency, and at most one blob per
        free slot is read and hashed."""
        preimages: "dict[int, dict]" = {}
        with self._mutex:
            room = self.capacity - len(self._entries)
            for entry in reversed(entries):
                if room <= 0:
                    break
                if entry.shard not in preimages:
                    preimages[entry.shard] = by_digest = {}
                    for digest, fault_pc, tail in self.store.preimages(
                            entry.shard):
                        by_digest.setdefault(digest, []).append(
                            (fault_pc, tail))
                outcome = self._outcome_of(entry, preimages[entry.shard])
                if outcome is None:
                    continue
                room -= 1
                if (outcome.fingerprint not in self._entries
                        and outcome.digest not in self._quarantined):
                    # Newest first, so each lands colder than the last.
                    self._entries[outcome.fingerprint] = outcome
                    self._entries.move_to_end(outcome.fingerprint,
                                              last=False)

    def _outcome_of(self, entry: StoredEntry,
                    preimages: dict) -> "CachedOutcome | None":
        """The outcome a stored report was committed with, or ``None``
        when its shard's *preimages* (digest -> ``(fault_pc, tail_pcs)``)
        lack it (committed without one, or the log is torn) or hold
        several that fit its fault site."""
        if not entry.route_key:
            return None
        fitting = [
            (fault_pc, tail)
            for fault_pc, tail in preimages.get(entry.digest, ())
            if route_digest(entry.program_name, entry.fault_kind,
                            fault_pc) == entry.route_key
        ]
        if len(fitting) != 1:
            return None
        try:
            blob = self.store.path_of(entry).read_bytes()
        except OSError:  # evicted since the index was read
            return None
        (fault_pc, tail), = fitting
        return CachedOutcome(
            fingerprint=blob_fingerprint(blob),
            program_name=entry.program_name,
            fault_kind=entry.fault_kind,
            fault_pc=fault_pc,
            tail_pcs=tail,
            race_pcs=entry.race_pcs,
            instructions=entry.replay_window,
            route_key=entry.route_key,
        )

    def _read_quarantine(self) -> "set[str]":
        """Banned digests from the quarantine log; a torn or corrupt
        line is skipped (a cold start for it, not a crash)."""
        try:
            data = self.path.read_bytes()
        except OSError:
            return set()
        return {line.decode() for line in data.split(b"\n")
                if _DIGEST_LINE.fullmatch(line)}

    def flush(self) -> None:
        """Append quarantines not yet persisted to the quarantine log,
        one line each in a single write (the log always exists after a
        flush)."""
        with self._mutex:
            payload = b"".join(f"{digest}\n".encode()
                               for digest in self._unflushed)
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT | os.O_APPEND,
                         0o644)
            try:
                if payload:
                    size = os.fstat(fd).st_size
                    if size and os.pread(fd, 1, size - 1) != b"\n":
                        # A torn line a killed writer left would swallow
                        # the first ban; start on a fresh line.
                        payload = b"\n" + payload
                    os.write(fd, payload)
                if self.store.fsync:
                    os.fsync(fd)
            finally:
                os.close(fd)
            self._unflushed = []

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def quarantined(self) -> "frozenset[str]":
        return frozenset(self._quarantined)

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "capacity": self.capacity,
            "quarantined": len(self._quarantined),
            "reverify_fraction": self.reverify_fraction,
            "seed": self.seed,
        }
