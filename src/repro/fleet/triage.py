"""Signature bucketing and triage ranking over a :class:`ReportStore`.

Sundmark et al.'s industrial observation: replay debugging pays off once
report handling is *systematized* — a developer opens the top bucket,
not a random report.  Triage groups stored reports by signature, ranks
buckets by occurrence count (ties: most recently observed first, then
digest for determinism), and picks one representative report per bucket
— the one with the **largest replay window**, because that is the
report a developer can chase furthest back from the crash.

Counts outlive blobs: retention/budget eviction folds evicted reports
into the store's per-signature rollups
(:meth:`~repro.fleet.store.ReportStore.rollups`), and triage merges
those back in.  A bucket therefore ranks on its *total* occurrence
count — a bug that crashed the fleet ten thousand times last quarter
still tops the table even after its blobs aged out; only the
representative (which needs a resident blob) degrades.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

from repro.analysis.report import Table, format_bytes
from repro.fleet.store import ReportStore, StoredEntry


@dataclass
class Bucket:
    """All stored reports sharing one crash signature."""

    digest: str
    fault_kind: str
    program_name: str
    #: Resident reports, in ingest (seq) order.
    entries: list[StoredEntry] = field(default_factory=list)
    #: Evicted occurrences folded in from the store's rollups — the
    #: part of the bucket's history whose blobs no longer exist.
    rolled_up: int = 0
    rollup: "dict | None" = None

    @property
    def count(self) -> int:
        """Occurrences with a resident (replayable) report."""
        return len(self.entries)

    @property
    def total_count(self) -> int:
        """Lifetime occurrences: resident + rolled-up evictions."""
        return self.count + self.rolled_up

    @property
    def first_seen(self) -> int:
        seen = list(map(attrgetter("observed_at"), self.entries))
        if self.rollup is not None:
            seen.append(self.rollup.get("first_seen", 0))
        return min(seen)

    @property
    def last_seen(self) -> int:
        seen = list(map(attrgetter("observed_at"), self.entries))
        if self.rollup is not None:
            seen.append(self.rollup.get("last_seen", 0))
        return max(seen)

    @property
    def bytes_stored(self) -> int:
        return sum(map(attrgetter("byte_size"), self.entries))

    @property
    def racy(self) -> bool:
        """True when ingest-time validation race-keyed this bucket.

        Read straight from the stored index (v3) — no replay needed at
        triage time.  Any entry suffices: race evidence is part of the
        signature, so a bucket is either all-racy or all-not.
        """
        return bool(self.race_pcs)

    @property
    def race_pcs(self) -> tuple[int, ...]:
        """PCs of the racing remote stores this bucket is keyed on."""
        pcs: set[int] = set().union(*map(attrgetter("race_pcs"),
                                         self.entries))
        if self.rollup is not None:
            pcs.update(self.rollup.get("race_pcs", ()))
        return tuple(sorted(pcs))

    @property
    def representative(self) -> "StoredEntry | None":
        """The report to open first: largest replay window, oldest wins
        ties (it has been reproducing the longest).  ``None`` for a
        rollup-only bucket — every blob was evicted, the count alone
        survives."""
        if not self.entries:
            return None
        # max() keeps the first of equal windows: the lowest seq.
        return max(self.entries, key=attrgetter("replay_window"))

    @property
    def rank_key(self):
        """Most occurrences first, then most recent, then stable digest."""
        return (-self.total_count, -self.last_seen, self.digest)

    def to_dict(self) -> dict:
        """JSON-friendly rendering (the ``bugnet triage --json`` shape)."""
        rep = self.representative
        race_pcs = self.race_pcs
        return {
            "signature": self.digest,
            "program": self.program_name,
            "fault_kind": self.fault_kind,
            "count": self.count,
            "rolled_up": self.rolled_up,
            "total_count": self.total_count,
            "first_seen": self.first_seen,
            "last_seen": self.last_seen,
            "bytes_stored": self.bytes_stored,
            "racy": bool(race_pcs),
            "race_pcs": list(race_pcs),
            "representative": None if rep is None else {
                "seq": rep.seq,
                "shard": rep.shard,
                "filename": rep.filename,
                "replay_window": rep.replay_window,
            },
        }


def build_buckets(store: ReportStore,
                  include_rollups: bool = True) -> list[Bucket]:
    """Bucket every stored report by signature, ranked for triage.

    With *include_rollups* (the default) evicted occurrences from the
    store's retention/budget rollups keep contributing to each bucket's
    total count and recency — a bucket may even be rollup-only, with no
    resident representative left to open.
    """
    buckets = {
        digest: Bucket(digest=digest, fault_kind=entries[0].fault_kind,
                       program_name=entries[0].program_name,
                       entries=entries)
        for digest, entries in store.entries_by_digest().items()
    }
    if include_rollups:
        for digest, slot in store.rollups().items():
            bucket = buckets.get(digest)
            if bucket is None:
                bucket = buckets[digest] = Bucket(
                    digest=digest,
                    fault_kind=slot.get("fault_kind", ""),
                    program_name=slot.get("program_name", ""),
                )
            bucket.rolled_up = int(slot.get("count", 0))
            bucket.rollup = slot
    return sorted(buckets.values(), key=lambda bucket: bucket.rank_key)


def render_triage(buckets: list[Bucket], limit: int | None = None,
                  autopsies: "dict[str, object] | None" = None) -> str:
    """The triage table a developer reads top-down.

    *autopsies* (digest → :class:`~repro.forensics.autopsy.BucketAutopsy`)
    links each bucket to its automated root-cause analysis: the table
    gains a ``root cause`` column naming the verdict and the culprit
    source line (``bugnet triage --autopsy`` / ``bugnet autopsy
    --store``).
    """
    headers = ["#", "signature", "program", "fault", "count",
               "window", "stored", "representative"]
    if autopsies is not None:
        headers.append("root cause")
    table = Table("Crash triage (ranked by occurrences)", headers)
    shown = buckets if limit is None else buckets[:limit]
    for rank, bucket in enumerate(shown, start=1):
        rep = bucket.representative
        count = str(bucket.count)
        if bucket.rolled_up:
            count = f"{bucket.total_count} ({bucket.rolled_up} evicted)"
        row = [
            rank,
            bucket.digest[:12],
            bucket.program_name,
            # Race-keyed buckets are flagged inline: the bucket's
            # identity is the racing store, not the (schedule-
            # dependent) fault site.
            bucket.fault_kind + (" [racy]" if bucket.racy else ""),
            count,
            rep.replay_window if rep is not None else "-",
            format_bytes(bucket.bytes_stored),
            (f"shard-{rep.shard:02d}/{rep.filename}" if rep is not None
             else "(all blobs evicted)"),
        ]
        if autopsies is not None:
            row.append(_autopsy_cell(autopsies.get(bucket.digest)))
        table.add(*row)
    lines = [table.render()]
    if limit is not None and len(buckets) > limit:
        lines.append(f"... and {len(buckets) - limit} more bucket(s)")
    return "\n".join(lines)


def _autopsy_cell(result) -> str:
    """One-cell summary of a bucket's autopsy outcome."""
    if result is None:
        return "-"
    if getattr(result, "error", ""):
        return f"error: {result.error}"
    autopsy = result.autopsy
    if autopsy is None:
        return "-"
    cell = autopsy.verdict
    if autopsy.culprit_line is not None:
        cell += f" @ line {autopsy.culprit_line}"
    if autopsy.race_adjacent:
        cell += " [race]"
    return cell
