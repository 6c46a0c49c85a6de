"""Validated, batched crash-report ingestion (the CLI batch path).

Every report admitted to the fleet store must *replay*: the pipeline
deserializes the blob, resolves the program binary it names, replays the
faulting thread's log chain (checking it lands on the recorded faulting
PC), optionally probes that the fault actually reproduces, and only then
derives the signature and commits the blob to the store.  Corrupt,
truncated, or divergent reports are rejected with a reason instead of
poisoning triage — iReplayer's in-situ-validation discipline applied at
the developer site.

Validation itself lives in :mod:`repro.fleet.validate` as a pure
function: this pipeline and the live ingestion service
(:mod:`repro.fleet.service`) call the exact same code, so a report
accepted by ``bugnet ingest`` is accepted by ``bugnet serve`` and vice
versa (pinned by tests).  The batch pipeline can still fan validation
out across a *thread* pool — decompression and file reads overlap
while the GIL serializes replay — but its real scaling story is the
service's process pool; this class stays the simple, deterministic,
single-process path.  Commits happen on the calling thread, in
submission order, which keeps sequence numbers — and therefore
eviction and triage recency — deterministic regardless of worker
timing.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

from repro.arch.program import Program
from repro.fleet.signature import DEFAULT_TAIL_DEPTH
from repro.fleet.store import ReportStore
from repro.fleet.validate import (
    DECODE_ERRORS,
    IngestResult,
    ProgramResolver,
    ValidatedReport,
    validate_report,
)
from repro.obs import REGISTRY as _OBS

_INGEST_OUTCOMES = _OBS.counter(
    "bugnet_ingest_outcomes_total",
    "Batch-pipeline ingest outcomes (committed or rejected).",
    ("outcome",),
)

#: Backward-compatible alias (this module's original name).
_DECODE_ERRORS = DECODE_ERRORS


class IngestPipeline:
    """Validates and commits crash reports into a :class:`ReportStore`."""

    def __init__(
        self,
        store: ReportStore,
        resolver: ProgramResolver,
        tail_depth: int = DEFAULT_TAIL_DEPTH,
        workers: int = 1,
        probe: bool = True,
        commit_batch: int = 16,
        admit_cache=None,
    ) -> None:
        self.store = store
        self.resolver = resolver
        self.tail_depth = tail_depth
        self.workers = max(workers, 1)
        self.probe = probe
        # Commits are chunked: add_many protects a whole batch from
        # eviction, so an uncapped batch would let one huge ingest run
        # blow straight through the store's byte budget.
        self.commit_batch = max(commit_batch, 1)
        # Optional first admission tier (repro.fleet.admitcache): repeat
        # blobs commit without replay, minus the deterministic sampled
        # reverify fraction.  None (the default) validates everything.
        self.admit_cache = admit_cache
        self.accepted = 0
        self.rejected = 0
        self.cache_hits = 0
        self.reverified = 0

    # -- validation (pure, runs on workers) --------------------------------

    def _validate(self, label: str, blob: bytes, observed_at: int):
        """Returns ValidatedReport or a rejecting IngestResult."""
        return validate_report(
            label, blob, observed_at, self.resolver,
            tail_depth=self.tail_depth, probe=self.probe,
        )

    # -- commit (store writer, calling thread only) -------------------------

    def _commit_batch(
        self, validated: "list[ValidatedReport]"
    ) -> "list[IngestResult]":
        """Commit validated reports in submission order, chunked into
        locked store passes of ``commit_batch`` (consecutive sequence
        numbers; one metadata/eviction sweep per chunk, so the byte
        budget is enforced *during* a large run, not only after it)."""
        entries = []
        for start in range(0, len(validated), self.commit_batch):
            chunk = validated[start: start + self.commit_batch]
            entries.extend(self.store.add_many([
                item.commit_item(preimage=self.admit_cache is not None)
                for item in chunk
            ]))
        return [
            IngestResult(
                label=item.label,
                accepted=True,
                reason="ok",
                signature=item.signature,
                entry=entry,
                instructions_replayed=item.instructions,
                stage_ms=item.stage_ms,
            )
            for item, entry in zip(validated, entries)
        ]

    # -- public API ---------------------------------------------------------

    def ingest_blob(self, label: str, blob: bytes,
                    observed_at: "int | None" = None) -> IngestResult:
        """Validate and (if clean) store one report."""
        return self.ingest_many([(label, blob, observed_at)])[0]

    def ingest_many(
        self, items: "list[tuple[str, bytes, int | None]]"
    ) -> list[IngestResult]:
        """Ingest a batch of ``(label, blob, observed_at)`` items.

        An ``observed_at`` of ``None`` takes the store's monotonic
        sequence number, which stays correctly ordered across separate
        ingest invocations.  Validation runs on ``workers`` threads;
        commits happen here in submission order, so results (sequence
        numbers, evictions) are identical whatever the pool's
        scheduling did.

        With an :class:`~repro.fleet.admitcache.AdmitCache` attached,
        repeat blobs skip validation entirely (their cached outcome
        commits byte-identically) except for the cache's deterministic
        reverify sample, which replays in full and is cross-checked
        against the cache — a mismatch quarantines the bucket.
        """
        cache = self.admit_cache
        outcomes: "list" = [None] * len(items)
        reverify: "dict[int, object]" = {}
        deferred: "dict[int, tuple[str, int]]" = {}
        if cache is None:
            pending = list(enumerate(items))
        else:
            from repro.fleet.admitcache import blob_fingerprint

            pending = []
            # Intra-batch dedup: a blob byte-identical to an earlier
            # *miss* in this same batch defers to that leader's outcome
            # instead of replaying again (the cache only learns the
            # leader after validation, too late for an upfront probe).
            leaders: "dict[str, int]" = {}
            for position, (label, blob, observed_at) in enumerate(items):
                entry = cache.probe(blob)
                if entry is not None:
                    if cache.should_reverify(entry.fingerprint, label):
                        reverify[position] = entry
                        pending.append((position, items[position]))
                    else:
                        self.cache_hits += 1
                        outcomes[position] = entry.validated(
                            label, blob, observed_at
                        )
                    continue
                fingerprint = blob_fingerprint(blob)
                leader = leaders.get(fingerprint)
                if leader is not None and not cache.should_reverify(
                    fingerprint, label
                ):
                    self.cache_hits += 1
                    deferred[position] = (fingerprint, leader)
                else:
                    leaders.setdefault(fingerprint, position)
                    pending.append((position, items[position]))
        pending_items = [item for _position, item in pending]
        if self.workers == 1 or len(pending_items) <= 1:
            validated = [self._validate(*item) for item in pending_items]
        else:
            with ThreadPoolExecutor(max_workers=self.workers) as pool:
                validated = list(pool.map(
                    lambda it: self._validate(*it), pending_items
                ))
        for (position, item), outcome in zip(pending, validated):
            outcomes[position] = outcome
            if cache is None:
                continue
            expected = reverify.get(position)
            if expected is not None:
                self.reverified += 1
                # quarantine-on-mismatch persists inside the cache; the
                # full validation's outcome is authoritative either way.
                cache.reverify_outcome(expected, outcome)
            elif isinstance(outcome, ValidatedReport):
                cache.record(blob_fingerprint(item[1]), outcome)
        for position, (fingerprint, leader) in deferred.items():
            label, blob, observed_at = items[position]
            leader_outcome = outcomes[leader]
            if isinstance(leader_outcome, ValidatedReport):
                from repro.fleet.admitcache import CachedOutcome

                outcomes[position] = CachedOutcome.from_validated(
                    fingerprint, leader_outcome
                ).validated(label, blob, observed_at)
            else:
                # The leader was rejected; byte-identical bytes reject
                # byte-identically.
                outcomes[position] = IngestResult(
                    label, False, leader_outcome.reason
                )
        committed = iter(self._commit_batch(
            [o for o in outcomes if isinstance(o, ValidatedReport)]
        ))
        results = []
        for outcome in outcomes:
            if isinstance(outcome, ValidatedReport):
                outcome = next(committed)
            if outcome.accepted:
                self.accepted += 1
                _INGEST_OUTCOMES.labels("accepted").inc()
            else:
                self.rejected += 1
                _INGEST_OUTCOMES.labels("rejected").inc()
            results.append(outcome)
        return results

    def ingest_paths(self, paths, observed_at_of=None) -> list[IngestResult]:
        """Ingest report files; ``observed_at_of(path) -> int`` is optional
        (default: the store's monotonic ingest order)."""
        items = []
        for path in paths:
            with open(path, "rb") as handle:
                blob = handle.read()
            observed = observed_at_of(path) if observed_at_of else None
            items.append((str(path), blob, observed))
        return self.ingest_many(items)


def resolver_from_programs(programs: "dict[str, Program]") -> ProgramResolver:
    """Resolver over an explicit name → program mapping."""
    return programs.get


def resolver_from_sources(sources: "list[tuple[str, Program]]") -> ProgramResolver:
    """Resolver for CLI use: match report program names against assembled
    sources by full name, then basename; a single source matches anything
    (the common one-binary case)."""
    by_name = {name: program for name, program in sources}
    by_base = {name.rsplit("/", 1)[-1]: program for name, program in sources}

    def resolve(name: str) -> "Program | None":
        if name in by_name:
            return by_name[name]
        base = name.rsplit("/", 1)[-1]
        if base in by_base:
            return by_base[base]
        if len(sources) == 1:
            return sources[0][1]
        return None

    return resolve
