"""Pure crash-report validation: decode → replay → fault probe.

The single validation implementation shared by the batch CLI pipeline
(:class:`~repro.fleet.ingest.IngestPipeline`) and the live ingestion
service (:mod:`repro.fleet.service`): one report blob in, one verdict
out, **no side effects** — no store writes, no shared mutable state.
That purity is what lets the service fan validation out across a
process pool while the batch path runs it inline, with test-pinned
identical outcomes (``tests/test_fleet_ingest.py``).

The module also carries the process-pool plumbing: a picklable
:class:`ResolverSpec` describing how a worker process should build its
program resolver (assembled programs are not picklable-cheap, source
text is), a pool initializer, and a module-level work function —
everything a ``ProcessPoolExecutor`` needs to run validation in a
separate interpreter.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable

from repro.arch.program import Program
from repro.common.errors import ReplayDivergence, ReproError
from repro.fleet.signature import (
    DEFAULT_TAIL_DEPTH,
    CrashSignature,
    ReplayedTail,
    replay_tail,
    route_digest,
    signature_from_tail,
)
from repro.obs import REGISTRY, SpanRecorder
from repro.replay.replayer import Replayer
from repro.tracing.serialize import load_crash_report

#: Per-stage validation timing.  Spans nest: ``replay`` contains the
#: per-thread ``chain-replay`` stages plus ``mrl-merge`` and
#: ``race-inference`` for multithreaded reports, so the nested stage
#: histograms overlap their parent by design.
_STAGE_SECONDS = REGISTRY.histogram(
    "bugnet_validate_stage_seconds",
    "Wall time of one named validation stage (see DESIGN.md §11).",
    ("stage",),
)
_VALIDATE_OUTCOMES = REGISTRY.counter(
    "bugnet_validate_outcomes_total",
    "Validation verdicts, before store commit.",
    ("outcome",),
)

#: Everything a hostile/corrupt blob can legitimately raise while being
#: decoded or replayed: our own error hierarchy, zlib/struct framing
#: errors, field-validation errors from reconstructing the recorder
#: config, and lookup failures from corrupt dictionary-encoded FLL
#: payloads (``LookupError`` covers ``KeyError`` and ``IndexError`` —
#: a flipped bit in a compressed record indexes an empty dictionary
#: entry, which must reject the report, not traceback through
#: ``bugnet ingest``).
DECODE_ERRORS = (ReproError, zlib.error, struct.error, ValueError,
                 LookupError)

ProgramResolver = Callable[[str], "Program | None"]

#: Instructions from the end of the faulting thread's replay whose
#: *loads* anchor race-evidence inference.  The crash idioms BugNet
#: targets dereference a value loaded at most a couple of instructions
#: before the fault (the pointer load feeding the crashing access);
#: a wider window would sweep in benign shared traffic (worker-pool
#: scratch buffers) and key race buckets on noise.
RACE_EVIDENCE_WINDOW = 4


@dataclass
class IngestResult:
    """Outcome of ingesting one report."""

    label: str
    accepted: bool
    reason: str                        # "ok" or the rejection reason
    signature: CrashSignature | None = None
    entry: object | None = None        # StoredEntry once committed
    instructions_replayed: int = 0
    #: Top-level validation stage timings in milliseconds (empty when
    #: the result never went through ``validate_report`` — e.g. a
    #: protocol-level rejection synthesized by the service).
    stage_ms: dict = field(default_factory=dict)

    @property
    def digest(self) -> str | None:
        """Signature digest, when validation got that far."""
        return self.signature.digest if self.signature else None


@dataclass
class ValidatedReport:
    """A report that survived validation, ready to commit."""

    label: str
    blob: bytes
    observed_at: int | None
    signature: CrashSignature
    fault_kind: str
    program_name: str
    instructions: int    # validated replay window = instructions replayed
    stage_ms: dict = field(default_factory=dict)  # top-level stage timings
    #: Cluster ring routing digest (:func:`repro.fleet.signature.
    #: route_digest`) — replay-free, so clients and forwarding nodes
    #: compute the identical key from the raw blob.
    route_key: str = ""

    def commit_item(self, upload_id: str = "",
                    preimage: bool = False) -> dict:
        """The :meth:`ReportStore.add_many` item that commits this
        report; with *preimage*, the rest of the signature preimage
        rides along for the store to persist (what an admit cache is
        rebuilt from)."""
        signature = self.signature
        item = {
            "digest": signature.digest, "blob": self.blob,
            "replay_window": self.instructions,
            "fault_kind": self.fault_kind,
            "program_name": self.program_name,
            "observed_at": self.observed_at, "upload_id": upload_id,
            "race_pcs": signature.race_pcs, "route_key": self.route_key,
        }
        if preimage:
            item["fault_pc"] = signature.fault_pc
            item["tail_pcs"] = signature.tail_pcs
        return item


def route_key_of_blob(blob: bytes) -> "str | None":
    """Cluster ring routing digest of a raw report blob, or None when
    the blob does not decode.

    This is the replay-free half of validation: clients and forwarding
    nodes decode just far enough to read (program, fault kind, fault
    PC) and route on :func:`~repro.fleet.signature.route_digest`.  An
    undecodable blob has no route key — any node may coordinate it,
    since validation will reject it identically everywhere.
    """
    try:
        report, _config = load_crash_report(blob)
    except DECODE_ERRORS:
        return None
    return route_digest(report.program_name, report.fault_kind,
                        report.fault_pc)


def validate_report(
    label: str,
    blob: bytes,
    observed_at: "int | None",
    resolver: ProgramResolver,
    tail_depth: int = DEFAULT_TAIL_DEPTH,
    probe: bool = True,
    spans: "SpanRecorder | None" = None,
) -> "ValidatedReport | IngestResult":
    """Validate one crash-report blob; pure function of its inputs.

    Returns a :class:`ValidatedReport` on success or a rejecting
    :class:`IngestResult` naming the reason.  The pipeline: deserialize
    the blob, resolve the program binary it names, replay the resident
    log chain of **every thread with logs** (compiled-dispatch replay),
    cross-check the MRL ordering constraints across threads, check the
    faulting thread's replay ends on the recorded faulting PC, and
    optionally re-execute the faulting instruction against the replayed
    state to confirm the fault reproduces.

    Single-thread reports take exactly the old fast path.  For
    multithreaded reports the whole-report replay additionally infers
    the data races feeding the crash; the racing remote stores' PCs
    become the signature's race evidence, so schedule-different
    manifestations of one race dedup into one bucket — and a report
    whose *non-faulting* thread logs are corrupt is rejected here, at
    ingest, instead of crashing ``bugnet autopsy`` after commit.

    Every validation runs under a span recorder (*spans*, or a private
    one): the named stage timings land in the
    ``bugnet_validate_stage_seconds`` histograms and, as a flat
    millisecond map, on the returned outcome's ``stage_ms``.  Pass a
    fresh recorder per call — ``bugnet profile`` passes its own to
    render the breakdown.
    """
    recorder = spans if spans is not None else SpanRecorder()
    result = _validate(
        label, blob, observed_at, resolver, tail_depth, probe, recorder
    )
    result.stage_ms = recorder.stage_ms()
    if REGISTRY.enabled:
        for span in recorder.spans:
            _STAGE_SECONDS.labels(span.name).observe(span.seconds)
        _VALIDATE_OUTCOMES.labels(
            "accepted" if isinstance(result, ValidatedReport)
            else "rejected"
        ).inc()
    return result


def _validate(
    label: str,
    blob: bytes,
    observed_at: "int | None",
    resolver: ProgramResolver,
    tail_depth: int,
    probe: bool,
    recorder: SpanRecorder,
) -> "ValidatedReport | IngestResult":
    """The un-instrumented validation pipeline behind
    :func:`validate_report` (which owns metrics + ``stage_ms``)."""
    try:
        with recorder.span("decode"):
            report, config = load_crash_report(blob)
    except DECODE_ERRORS as error:
        return IngestResult(label, False, f"decode: {error}")
    with recorder.span("resolve"):
        program = resolver(report.program_name)
    if program is None:
        return IngestResult(
            label, False, f"unknown program {report.program_name!r}"
        )
    race_pcs: "tuple[int, ...]" = ()
    try:
        with recorder.span("replay"):
            if len(report.thread_ids) > 1:
                tail, race_pcs = _validate_threads(
                    report, config, program, tail_depth, recorder)
            else:
                tail = replay_tail(report, config, program, tail_depth)
    except DECODE_ERRORS as error:
        return IngestResult(label, False, f"replay: {error}")
    last_fll = tail.last_fll
    if last_fll.fault_pc is None:
        # The faulting thread's final resident checkpoint never
        # recorded a fault point: the fault interval was stripped or
        # the report was tampered with.  Accepting it would skip
        # every fault check below.
        return IngestResult(
            label, False,
            "final checkpoint records no fault point "
            "(fault interval missing from the chain)",
        )
    if last_fll.fault_pc != report.fault_pc:
        return IngestResult(
            label, False,
            f"fault pc mismatch: log says {last_fll.fault_pc:#010x}, "
            f"report says {report.fault_pc:#010x}",
        )
    if tail.end_pc != report.fault_pc:
        return IngestResult(
            label, False,
            f"replay ends at {tail.end_pc:#010x}, "
            f"not the faulting pc {report.fault_pc:#010x}",
        )
    if probe:
        with recorder.span("fault-probe"):
            reproduced = probe_fault(report, config, program, tail)
        if not reproduced:
            return IngestResult(
                label, False,
                f"fault does not reproduce at {report.fault_pc:#010x}",
            )
    with recorder.span("signature"):
        signature = signature_from_tail(report, tail, race_pcs=race_pcs)
    return ValidatedReport(
        label=label,
        blob=blob,
        observed_at=observed_at,
        signature=signature,
        fault_kind=report.fault_kind,
        program_name=report.program_name,
        # The *validated* window: instructions the chain actually
        # replayed (an ungrounded prefix would overstate it).
        instructions=tail.instructions,
        route_key=route_digest(
            report.program_name, report.fault_kind, report.fault_pc
        ),
    )


def _validate_threads(
    report, config, program, tail_depth, recorder=None,
) -> "tuple[ReplayedTail, tuple[int, ...]]":
    """Chain-replay every thread with grounded logs; returns the
    faulting thread's tail plus the inferred race evidence.

    The slim block-compiled replay (:func:`replay_all_threads` with
    ``slim=True``) replays each thread's grounded chain, decodes every
    MRL, maps the entries onto replay indices (rejecting out-of-range
    entries), and cross-checks constraint feasibility — an infeasible
    (cyclic) constraint system, a corrupt FLL/MRL payload, or a chain
    that diverges from the binary all raise into the caller's
    rejection path, naming the offending thread.  The faulting thread
    replays first and in full; every other thread records only the
    accesses at the addresses feeding the crash (identical race
    evidence, pinned by ``tests/test_fleet_mt_validation.py``).
    """
    from repro.obs import NULL_RECORDER
    from repro.replay.races import ReportLogs, replay_all_threads

    if recorder is None:
        recorder = NULL_RECORDER
    logs = ReportLogs(report, grounded=True)
    threads = logs.threads()
    faulting = report.faulting_tid
    if faulting not in threads:
        raise ReplayDivergence(
            f"no replayable chain for faulting thread {faulting} "
            f"(threads with logs: {report.thread_ids or 'none'})"
        )
    mt = replay_all_threads(
        logs, {tid: program for tid in threads}, config, slim=True,
        tail_depth=max(tail_depth, 1), faulting_tid=faulting,
        evidence_window=RACE_EVIDENCE_WINDOW, spans=recorder,
    )
    thread = mt.traced[faulting]
    tail = ReplayedTail(
        tail_pcs=tuple(thread.tail_pcs[-max(tail_depth, 1):]),
        instructions=thread.instructions,
        end_pc=thread.end_pc,
        intervals=thread.intervals,
        end_regs=thread.end_regs,
        memory=thread.memory,
        last_fll=report.replay_chain(faulting)[-1],
    )
    from repro.analysis.static.lockset import cached_race_candidates

    with recorder.span("race-inference"):
        candidates = cached_race_candidates(program)
        evidence = race_evidence(mt, faulting, candidates=candidates)
    return tail, evidence


def race_evidence(
    mt,
    faulting_tid: int,
    window: int = RACE_EVIDENCE_WINDOW,
    max_reports: int = 64,
    candidates=None,
) -> "tuple[int, ...]":
    """PCs of remote stores racing with the accesses feeding the crash.

    The relevance anchor is the set of addresses the faulting thread
    *loaded* within its last *window* replayed instructions — the
    pointer/operand loads feeding the faulting access.  A data race on
    one of those addresses whose store side belongs to another thread
    is the schedule-stable identity of a racy crash: the store PC stays
    put while the manifestation site moves with the interleaving.
    Returns ``()`` for race-free reports (the signature then keys on
    the fault site exactly as for single-thread reports).

    *candidates* is the static lockset pruning set
    (:func:`repro.analysis.static.lockset.cached_race_candidates`);
    pairs it proved non-racing are skipped inside
    :func:`~repro.replay.races.infer_races` without changing which
    races are reported.
    """
    from repro.replay.races import infer_races

    thread = mt.traced[faulting_tid]
    cutoff = thread.instructions - window
    relevant = set()
    # Accesses are (index, addr, value, is_load[, pc]) — the traced
    # path records 4-tuples, the slim path 5-tuples with embedded PCs.
    for entry in reversed(thread.accesses):
        if entry[0] < cutoff:
            break  # accesses are in execution order
        if entry[3]:
            relevant.add(entry[1])
    if not relevant:
        return ()
    races = infer_races(mt, sync=[], max_reports=max_reports,
                        addrs=relevant, candidates=candidates)
    pcs = set()
    for race in races:
        for side, kind in zip((race.first, race.second), race.kinds):
            if kind == "store" and side[0] != faulting_tid:
                pcs.add(side[2])
    return tuple(sorted(pcs))


def probe_fault(report, config, program, tail) -> bool:
    """Re-execute the faulting instruction against the replayed state
    the validation replay already produced."""
    replayer = Replayer(program, config)
    fault = replayer.probe_fault(
        tail.last_fll, tail.memory, tail.end_pc, tail.end_regs,
        mapped_pages=report.mapped_pages,
    )
    return fault is not None and fault.kind == report.fault_kind


# -- process-pool plumbing ---------------------------------------------------

@dataclass(frozen=True)
class ResolverSpec:
    """Picklable recipe for building a program resolver in a worker.

    ``sources`` maps resolver names to BN32 *source text* (read in the
    parent, assembled in the worker — source strings pickle cheaply and
    carry no interpreter state); ``include_bug_suite`` additionally
    resolves Table-1 bug names, which is how fleet-sim traffic runs
    unattended.
    """

    sources: tuple = field(default_factory=tuple)  # ((name, source), ...)
    include_bug_suite: bool = True

    def build(self) -> ProgramResolver:
        """Assemble the spec into an actual resolver (worker side)."""
        from repro.arch.assembler import assemble

        extra: dict[str, Program] = {}
        for name, source in self.sources:
            program = assemble(source, name=name)
            extra[name] = program
            extra[name.rsplit("/", 1)[-1]] = program
        if self.include_bug_suite:
            from repro.forensics.autopsy import bug_suite_resolver

            return bug_suite_resolver(extra)
        return extra.get

    @classmethod
    def from_paths(cls, paths, include_bug_suite: bool = True
                   ) -> "ResolverSpec":
        """Spec from ``--source`` file paths (read here, assembled in
        the worker)."""
        sources = []
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                sources.append((str(path), handle.read()))
        return cls(sources=tuple(sources),
                   include_bug_suite=include_bug_suite)


_WORKER_RESOLVER: "ProgramResolver | None" = None


def pool_initializer(spec: ResolverSpec) -> None:
    """``ProcessPoolExecutor`` initializer: build the worker's resolver
    once, so every validation reuses the assembled (and replay-compiled)
    programs."""
    global _WORKER_RESOLVER
    _WORKER_RESOLVER = spec.build()


def pool_validate(
    label: str,
    blob: bytes,
    observed_at: "int | None",
    tail_depth: int = DEFAULT_TAIL_DEPTH,
    probe: bool = True,
) -> "ValidatedReport | IngestResult":
    """Module-level work function (picklable by reference) run on pool
    workers; requires :func:`pool_initializer`."""
    if _WORKER_RESOLVER is None:  # pragma: no cover - misconfiguration
        raise RuntimeError("validation worker used without pool_initializer")
    return validate_report(label, blob, observed_at, _WORKER_RESOLVER,
                           tail_depth=tail_depth, probe=probe)


def validate_many(
    items: "list[tuple[str, bytes, int | None]]",
    resolver: ProgramResolver,
    tail_depth: int = DEFAULT_TAIL_DEPTH,
    probe: bool = True,
) -> "list[ValidatedReport | IngestResult]":
    """Validate a chunk of ``(label, blob, observed_at)`` items.

    Chunking amortizes the per-call executor/IPC handoff that would
    otherwise rival the validation itself at high upload rates; the
    verdicts are exactly item-wise :func:`validate_report`.
    """
    return [
        validate_report(label, blob, observed_at, resolver,
                        tail_depth=tail_depth, probe=probe)
        for label, blob, observed_at in items
    ]


def pool_validate_many(
    items: "list[tuple[str, bytes, int | None]]",
    tail_depth: int = DEFAULT_TAIL_DEPTH,
    probe: bool = True,
) -> "list[ValidatedReport | IngestResult]":
    """Chunked :func:`pool_validate` (one IPC round-trip per chunk)."""
    if _WORKER_RESOLVER is None:  # pragma: no cover - misconfiguration
        raise RuntimeError("validation worker used without pool_initializer")
    return validate_many(items, _WORKER_RESOLVER,
                         tail_depth=tail_depth, probe=probe)


def pool_validate_many_observed(
    items: "list[tuple[str, bytes, int | None]]",
    tail_depth: int = DEFAULT_TAIL_DEPTH,
    probe: bool = True,
) -> "tuple[list[ValidatedReport | IngestResult], dict]":
    """:func:`pool_validate_many` plus the worker's metrics delta.

    The worker's process-local registry accumulated stage histograms
    and replay counters while validating this chunk; ``take_delta``
    snapshots *and resets* them, so shipping the delta back with the
    verdicts hands the parent exactly this chunk's metrics once.  The
    service merges deltas additively — order doesn't matter.

    A forked worker inherits the parent's registry *contents* (anything
    the parent recorded before the pool spawned); merging those back
    would double-count them, so the first thing a chunk does is discard
    whatever the registry already holds.  Between chunks the registry
    is empty (the trailing ``take_delta`` zeroed it), so the discard is
    a no-op everywhere except right after the fork.
    """
    REGISTRY.take_delta()
    results = pool_validate_many(items, tail_depth=tail_depth, probe=probe)
    return results, REGISTRY.take_delta()
