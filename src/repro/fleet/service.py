"""Live fleet ingestion service: ``bugnet serve``.

BugNet's premise is a deployed fleet continuously shipping crash
reports; this is the developer-site endpoint that receives them.  An
asyncio TCP server speaks the length-prefixed protocol of
:mod:`repro.fleet.wire`, validates every upload with the same pure
decode→replay→fault-probe pipeline as the batch CLI
(:func:`repro.fleet.validate.validate_report`), and commits accepted
reports into the multi-writer-safe sharded store in deterministic
batches.

Architecture (DESIGN.md §8)::

    connections ──> bounded admission queue ──> validation pool ──┐
         ▲                (backpressure:        (processes; the   │
         │                 explicit "retry"     replay is pure    │
         ack after         when full, never     CPU work)         │
         durable commit    a silent drop)                         │
         └──────────── commit sequencer <─────────────────────────┘
                       (admission order, batched add_many)

* **Backpressure, never silent drops.**  Admission is a bounded queue;
  when it is full the client gets an explicit ``{"status": "retry"}``
  response and backs off.  Every accepted upload is acknowledged only
  *after* its batch commit returns, so an ack can never be lost to a
  crash that the store would not also survive.
* **Parallel validation.**  Validation is pure (no store access), so it
  fans out over a ``ProcessPoolExecutor`` — real parallelism for the
  interpreter-bound replay, the iReplayer lesson applied off the
  recording site.  ``workers=0`` validates on an in-process thread
  instead (the right choice on single-core hosts, where IPC overhead
  buys nothing).
* **Deterministic batched commits.**  Outcomes are re-sequenced into
  admission order and committed in batches of consecutive accepts
  (``ReportStore.add_many``): sequence numbers, eviction order and
  triage recency are a function of arrival order alone, not of pool
  scheduling.
* **Idempotent retries.**  Clients attach an ``upload_id``; the store
  persists it per record (index v2), so a client that lost an ack to a
  service restart can re-upload and receive ``duplicate: true``
  instead of double-committing — zero loss *and* zero duplication
  across restarts (``tests/test_service_restart.py``).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.fleet.admitcache import AdmitCache, blob_fingerprint
from repro.fleet.signature import DEFAULT_TAIL_DEPTH
from repro.fleet.store import ReportStore
from repro.fleet.validate import (
    IngestResult,
    ResolverSpec,
    ValidatedReport,
    pool_initializer,
    pool_validate_many_observed,
    validate_many,
)
from repro.fleet.wire import (
    MAX_FRAME,
    FrameError,
    read_frame,
    version_error,
    write_frame,
)
from repro.obs import REGISTRY, JsonEventLogger, encode_prometheus
from repro.obs.prom import CONTENT_TYPE as _PROM_CONTENT_TYPE

_HTTP_PREFIX = b"GET "

# -- service metric families (DESIGN.md §11) --------------------------------
#
# Counters mirror ServiceCounters one-for-one (every increment site
# goes through FleetService._tally), so a /metrics scrape and a /stats
# read of the same quiesced service always reconcile — the CI
# service-smoke job and `bugnet load-sim --metrics-check` assert it.
_RECEIVED = REGISTRY.counter(
    "bugnet_service_received_total", "Upload requests received.",
)
_ADMISSION = REGISTRY.counter(
    "bugnet_admission_total",
    "Admission outcomes (accepted / rejected / retry / duplicate).",
    ("outcome",),
)
_PROTOCOL_ERRORS = REGISTRY.counter(
    "bugnet_service_protocol_errors_total",
    "Malformed frames and unknown ops.",
)
_COMMIT_BATCHES = REGISTRY.counter(
    "bugnet_service_commit_batches_total",
    "Store commit batches (add_many calls from the service).",
)
_ACK_LATENCY = REGISTRY.histogram(
    "bugnet_ack_latency_seconds",
    "Admission-to-ack latency of settled uploads (validation + "
    "sequencing + durable commit).",
)
_QUEUE_DEPTH = REGISTRY.gauge(
    "bugnet_service_queue_depth",
    "Admitted uploads not yet settled (set at scrape time).",
)
_QUEUE_LIMIT = REGISTRY.gauge(
    "bugnet_service_queue_limit", "Admission queue bound.",
)
_WIRE_BYTES = REGISTRY.counter(
    "bugnet_connection_bytes_total",
    "Native-protocol bytes moved by the service, by direction.",
    ("direction",),
)
_DRAIN_SECONDS = REGISTRY.gauge(
    "bugnet_service_drain_seconds",
    "Duration of the last graceful drain (0 until a drain ran).",
)
_SHARD_REPORTS = REGISTRY.gauge(
    "bugnet_store_shard_reports",
    "Resident reports per store shard (set at scrape time).",
    ("shard",),
)
_SHARD_BYTES = REGISTRY.gauge(
    "bugnet_store_shard_bytes",
    "Resident blob bytes per store shard (set at scrape time).",
    ("shard",),
)
_STORE_REPORTS = REGISTRY.gauge(
    "bugnet_store_reports", "Resident reports in the store.",
)
_STORE_BYTES = REGISTRY.gauge(
    "bugnet_store_bytes", "Resident blob bytes in the store.",
)
_STORE_EVICTED = REGISTRY.gauge(
    "bugnet_store_evicted_reports",
    "Store-lifetime evicted reports (survives restarts via store.json).",
)

#: ServiceCounters field -> bugnet_admission_total outcome label.
_ADMISSION_OUTCOMES = {
    "accepted": "accepted",
    "rejected": "rejected",
    "retried": "retry",
    "duplicates": "duplicate",
}


def default_workers() -> int:
    """Validation processes worth starting on this host: none (inline
    validation) without spare cores, else leave a core for the event
    loop and commit path."""
    cores = os.cpu_count() or 1
    if cores <= 2:
        return 0
    return min(cores - 1, 8)


@dataclass
class ServiceConfig:
    """Tunables for :class:`FleetService`."""

    host: str = "127.0.0.1"
    port: int = 0                      # 0: pick a free port
    queue_limit: int = 128             # admission queue bound
    workers: int = field(default_factory=default_workers)
    validate_chunk: int = 8            # max uploads per executor handoff
    commit_batch: int = 16             # max accepts per add_many
    tail_depth: int = DEFAULT_TAIL_DEPTH
    probe: bool = True
    max_frame: int = MAX_FRAME
    log_json: bool = False             # one JSON event/line on stdout
    # -- dedup-before-validate admission (DESIGN.md §13) ----------------
    admit_cache: bool = True           # first-tier validated-signature cache
    reverify_fraction: float = 0.05    # trust-but-verify sample of repeats
    admit_seed: int = 0                # must match across cluster nodes
    admit_capacity: int = 4096         # LRU bound on cache entries


@dataclass
class ServiceCounters:
    """Monotonic service-lifetime counters (part of /stats)."""

    received: int = 0
    accepted: int = 0
    rejected: int = 0
    retried: int = 0                   # backpressure responses sent
    duplicates: int = 0                # idempotent re-acks
    commit_batches: int = 0
    protocol_errors: int = 0

    def to_dict(self) -> dict:
        return {
            "received": self.received,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "retried": self.retried,
            "duplicates": self.duplicates,
            "commit_batches": self.commit_batches,
            "protocol_errors": self.protocol_errors,
        }


class _Admitted:
    """One upload in flight between admission and response."""

    __slots__ = ("ticket", "label", "blob", "observed_at", "upload_id",
                 "future", "admitted_at")

    def __init__(self, ticket, label, blob, observed_at, upload_id, future):
        self.ticket = ticket
        self.label = label
        self.blob = blob
        self.observed_at = observed_at
        self.upload_id = upload_id
        self.future = future
        self.admitted_at = time.monotonic()


class FleetService:
    """Concurrent crash-report ingestion endpoint over a ReportStore."""

    def __init__(
        self,
        store_root,
        resolver_spec: ResolverSpec,
        config: "ServiceConfig | None" = None,
        num_shards: "int | None" = None,
        byte_budget: "int | None" = None,
        fsync: bool = False,
        retention_window: "int | None" = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.store_root = store_root
        self.resolver_spec = resolver_spec
        self._store_options = {
            "num_shards": num_shards,
            "byte_budget": byte_budget,
            "fsync": fsync,
            "retention_window": retention_window,
        }
        self.store: "ReportStore | None" = None
        self.admit_cache: "AdmitCache | None" = None
        self.counters = ServiceCounters()
        self._server: "asyncio.AbstractServer | None" = None
        self._pool = None
        self._inline_resolver = None
        self._next_ticket = 0
        self._next_commit = 0
        self._sequenced: "dict[int, tuple]" = {}
        self._commit_lock: "asyncio.Lock | None" = None
        self._slots: "asyncio.Semaphore | None" = None
        self._admission: "asyncio.Queue | None" = None
        self._dispatcher_task: "asyncio.Task | None" = None
        self._inflight_uploads: "dict[str, asyncio.Future]" = {}
        self._connections: "set[asyncio.Task]" = set()
        self._workers: "set[asyncio.Task]" = set()
        self._in_pipeline = 0          # admitted, not yet settled
        self._active_validations = 0   # submitted to the pool
        self._started_at = 0.0
        self._stopping = False
        self.drain_seconds = 0.0       # last graceful drain's duration
        self.metrics = REGISTRY
        self._log = JsonEventLogger(enabled=self.config.log_json)

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "tuple[str, int]":
        """Open the store, start the validation pool and the listener;
        returns the bound (host, port)."""
        self.store = ReportStore(self.store_root, **self._store_options)
        if self.config.admit_cache:
            # Derived from the store: rebuilt from its committed
            # preimages, so batch ingest against the same store and
            # replicated commits warm it with no file of its own.
            self.admit_cache = AdmitCache(
                self.store,
                capacity=self.config.admit_capacity,
                seed=self.config.admit_seed,
                reverify_fraction=self.config.reverify_fraction,
            )
        workers = self.config.workers
        if workers > 0:
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                initializer=pool_initializer,
                initargs=(self.resolver_spec,),
            )
        else:
            # Inline mode: one validation thread in this process — no
            # IPC, the right trade on single-core hosts.
            self._pool = ThreadPoolExecutor(max_workers=1)
            self._inline_resolver = self.resolver_spec.build()
        # Unbounded asyncio.Queue: admission is bounded by the
        # _in_pipeline counter (so backpressure replies stay cheap and
        # explicit), the queue is just the chunking buffer.
        self._admission = asyncio.Queue()
        # Chunks in flight per validator: one running + one queued
        # keeps every validator busy across handoff latency without
        # flooding the executor queue (which starves the event loop —
        # and with it acks and commits — on few-core hosts).
        self._slots = asyncio.Semaphore(max(workers, 1) * 2)
        self._commit_lock = asyncio.Lock()
        self._started_at = time.monotonic()
        self._dispatcher_task = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
        )
        host, port = self._server.sockets[0].getsockname()[:2]
        self.config.port = port
        self._log.event(
            "service-start", host=host, port=port,
            workers=self.config.workers, store=str(self.store_root),
        )
        return host, port

    def _tally(self, field: str) -> None:
        """Bump one ServiceCounters field and its mirrored Prometheus
        counter in lockstep — the single increment path that keeps
        /stats and /metrics reconcilable."""
        setattr(self.counters, field, getattr(self.counters, field) + 1)
        outcome = _ADMISSION_OUTCOMES.get(field)
        if outcome is not None:
            _ADMISSION.labels(outcome).inc()
        elif field == "received":
            _RECEIVED.inc()
        elif field == "protocol_errors":
            _PROTOCOL_ERRORS.inc()
        elif field == "commit_batches":
            _COMMIT_BATCHES.inc()

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        async with self._server:
            await self._server.serve_forever()

    async def stop(self, drain: bool = True) -> None:
        """Stop accepting connections; optionally drain in-flight
        uploads (validated, committed, and acked) before shutdown.

        The drain duration lands on ``drain_seconds``, the
        ``bugnet_service_drain_seconds`` gauge, and (with
        ``--log-json``) a ``drain`` event — the observable artifact
        the SIGTERM kill-harness test checks for."""
        self._stopping = True
        drain_started = time.monotonic()
        draining = self._in_pipeline
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain:
            while self._in_pipeline:
                await asyncio.sleep(0.01)
            self.drain_seconds = time.monotonic() - drain_started
            _DRAIN_SECONDS.set(self.drain_seconds)
            self._log.event(
                "drain",
                in_flight=draining,
                seconds=round(self.drain_seconds, 6),
            )
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        if self._dispatcher_task is not None:
            self._dispatcher_task.cancel()
            try:
                await self._dispatcher_task
            except asyncio.CancelledError:
                pass
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._log.event("service-stop", counters=self.counters.to_dict())

    # -- connection handling ------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            probe = await reader.readexactly(4)
        except (asyncio.IncompleteReadError, ConnectionError):
            writer.close()
            return
        try:
            if probe == _HTTP_PREFIX:
                await self._handle_http(reader, writer)
            else:
                await self._handle_frames(probe, reader, writer)
        except asyncio.CancelledError:
            # Shutdown path: stop() cancelled this handler.  Swallow so
            # the task ends clean instead of tripping the stream
            # helper's exception logger.
            return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except FrameError:
            self._tally("protocol_errors")
            try:
                await write_frame(writer, {
                    "status": "error", "reason": "malformed frame",
                })
            except (ConnectionError, OSError):
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _handle_frames(self, first4: bytes,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        prefix: "bytes | None" = first4
        bytes_in = _WIRE_BYTES.labels("in")
        bytes_out = _WIRE_BYTES.labels("out")
        while True:
            frame = await read_frame(reader, self.config.max_frame,
                                     prefix=prefix, on_bytes=bytes_in.inc)
            if frame is None:
                return
            prefix = None
            header, body = frame
            response = await self._handle_message(header, body)
            # A handler that must return binary data (e.g. a cluster
            # fetch-report) smuggles it out under "_body"; it rides the
            # frame as the body, exactly like upload blobs inbound.
            response_body = response.pop("_body", b"")
            await write_frame(writer, response, body=response_body,
                              on_bytes=bytes_out.inc)

    async def _handle_message(self, header: dict, body: bytes) -> dict:
        rejected = version_error(header)
        if rejected is not None:
            # A newer-versioned frame may carry semantics this build
            # does not implement; refuse with a structured reason the
            # client surfaces instead of a generic decode error.
            self._tally("protocol_errors")
            return rejected
        op = header.get("op")
        if op == "upload":
            return await self._handle_upload(header, body)
        if op == "stats":
            return {"status": "ok", "stats": self.stats()}
        if op == "ping":
            return {"status": "ok"}
        self._tally("protocol_errors")
        return {"status": "error", "reason": f"unknown op {op!r}"}

    async def _handle_upload(self, header: dict, body: bytes) -> dict:
        self._tally("received")
        label = str(header.get("label", ""))
        upload_id = str(header.get("upload_id", ""))
        observed_at = header.get("observed_at")
        if observed_at is not None and not isinstance(observed_at, int):
            return {"status": "error", "reason": "observed_at must be int"}
        if not body:
            self._tally("rejected")
            return {"status": "rejected", "reason": "empty report body"}
        if upload_id:
            committed = self.store.entry_for_upload(upload_id)
            if committed is not None:
                # Retry of an already-committed upload (the ack was
                # lost, e.g. to a restart): re-acknowledge, don't
                # double-commit.
                self._tally("duplicates")
                return {
                    "status": "accepted",
                    "duplicate": True,
                    "signature": committed.digest,
                    "seq": committed.seq,
                }
            inflight = self._inflight_uploads.get(upload_id)
            if inflight is not None:
                # Same upload racing itself (client retried while the
                # original is still in the pipeline): share the outcome.
                self._tally("duplicates")
                return await asyncio.shield(inflight)
        if self._stopping or self._in_pipeline >= self.config.queue_limit:
            # Bounded admission: an explicit retry-later, never a
            # silent drop.  The client backs off and resubmits under
            # the same upload_id.
            self._tally("retried")
            return {
                "status": "retry",
                "reason": ("shutting down" if self._stopping
                           else "admission queue full"),
                "queue_depth": self._in_pipeline,
            }
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        admitted = _Admitted(
            ticket=self._next_ticket,
            label=label,
            blob=body,
            observed_at=observed_at,
            upload_id=upload_id,
            future=future,
        )
        self._next_ticket += 1
        self._in_pipeline += 1
        if upload_id:
            self._inflight_uploads[upload_id] = future
        self._admission.put_nowait(admitted)
        if upload_id:
            # Other connections may be awaiting this same future.
            return await asyncio.shield(future)
        return await future

    # -- validation dispatch ------------------------------------------------

    async def _dispatch_loop(self) -> None:
        """Pull admitted uploads and validate them in adaptive chunks:
        whatever has queued up since the last handoff, capped at
        ``validate_chunk`` — one executor/IPC round-trip per chunk
        instead of per upload."""
        loop = asyncio.get_running_loop()
        queue = self._admission
        while True:
            chunk = [await queue.get()]
            while (len(chunk) < self.config.validate_chunk
                   and not queue.empty()):
                chunk.append(queue.get_nowait())
            await self._slots.acquire()
            task = loop.create_task(self._run_validation_chunk(chunk))
            self._workers.add(task)
            task.add_done_callback(self._workers.discard)

    async def _run_validation_chunk(
        self, chunk: "list[_Admitted]"
    ) -> None:
        loop = asyncio.get_running_loop()
        config = self.config
        cache = self.admit_cache
        settled: "dict[int, object]" = {}      # position -> outcome
        reverify: "dict[int, object]" = {}     # position -> CachedOutcome
        if cache is not None:
            # First admission tier, off the event loop (the probe
            # decodes each blob): cache hits settle without touching
            # the validation pool, minus the deterministic reverify
            # sample which rides the full path as trust-but-verify.
            def _probe_all() -> "list[int]":
                misses = []
                for position, admitted in enumerate(chunk):
                    entry = cache.probe(admitted.blob)
                    if entry is None:
                        misses.append(position)
                    elif cache.should_reverify(
                        entry.fingerprint,
                        admitted.upload_id or admitted.label,
                    ):
                        reverify[position] = entry
                        misses.append(position)
                    else:
                        settled[position] = entry.validated(
                            admitted.label, admitted.blob,
                            admitted.observed_at,
                        )
                return misses

            pending_positions = await loop.run_in_executor(None, _probe_all)
        else:
            pending_positions = list(range(len(chunk)))
        pending = [chunk[position] for position in pending_positions]
        items = [(a.label, a.blob, a.observed_at) for a in pending]
        self._active_validations += len(pending)
        try:
            if not items:
                outcomes = []
            elif self._inline_resolver is not None:
                # Inline mode shares this process's registry — stage
                # metrics land directly, nothing to merge.
                outcomes = await loop.run_in_executor(
                    self._pool, validate_many, items,
                    self._inline_resolver, config.tail_depth, config.probe,
                )
            else:
                outcomes, delta = await loop.run_in_executor(
                    self._pool, pool_validate_many_observed, items,
                    config.tail_depth, config.probe,
                )
                # The worker's process-local stage histograms and
                # replay counters, exactly once per chunk; merge is
                # additive so chunk completion order is irrelevant.
                self.metrics.merge(delta)
        except Exception as error:  # pool/pickling failure
            outcomes = [
                IngestResult(a.label, False, f"validation error: {error}")
                for a in pending
            ]
        finally:
            self._active_validations -= len(pending)
            self._slots.release()
        for position, outcome in zip(pending_positions, outcomes):
            settled[position] = outcome
            if cache is None:
                continue
            expected = reverify.get(position)
            if expected is not None:
                # Mismatch quarantines the bucket (and persists the ban)
                # inside the cache; the full validation stays
                # authoritative.
                cache.reverify_outcome(expected, outcome)
            elif isinstance(outcome, ValidatedReport):
                # In memory only: the commit persists the preimage.
                cache.record(blob_fingerprint(chunk[position].blob), outcome)
        for position, admitted in enumerate(chunk):
            self._sequenced[admitted.ticket] = (admitted, settled[position])
        await self._drain_sequenced()

    # -- deterministic batched commits ---------------------------------------

    async def _drain_sequenced(self) -> None:
        """Commit/respond in strict admission order; batches consecutive
        accepts into one ``add_many``."""
        async with self._commit_lock:
            while self._next_commit in self._sequenced:
                batch: "list[tuple[_Admitted, ValidatedReport]]" = []
                while self._next_commit in self._sequenced:
                    admitted, outcome = self._sequenced[self._next_commit]
                    if isinstance(outcome, ValidatedReport):
                        if len(batch) >= self.config.commit_batch:
                            break
                        del self._sequenced[self._next_commit]
                        self._next_commit += 1
                        batch.append((admitted, outcome))
                    else:
                        if batch:
                            break  # flush accepts before the rejection
                        del self._sequenced[self._next_commit]
                        self._next_commit += 1
                        self._respond_rejected(admitted, outcome)
                if batch:
                    await self._commit_batch(batch)

    def _respond_rejected(self, admitted: _Admitted,
                          outcome: IngestResult) -> None:
        self._tally("rejected")
        self._settle(admitted, {
            "status": "rejected", "reason": outcome.reason,
        }, stage_ms=outcome.stage_ms)

    async def _commit_batch(
        self, batch: "list[tuple[_Admitted, ValidatedReport]]"
    ) -> None:
        loop = asyncio.get_running_loop()
        items = [validated.commit_item(admitted.upload_id,
                                       self.admit_cache is not None)
                 for admitted, validated in batch]
        try:
            # Always off the event loop: add_many takes flocks that a
            # concurrent writer process (batch ingest, second serve)
            # can hold through a long eviction rewrite — blocking here
            # would freeze acks, backpressure replies and /stats for
            # every connection, not just this batch.
            entries = await loop.run_in_executor(
                None, self.store.add_many, items
            )
        except Exception as error:  # disk full, store corruption, ...
            for admitted, _validated in batch:
                self._tally("rejected")
                self._settle(admitted, {
                    "status": "rejected",
                    "reason": f"commit failed: {error}",
                })
            return
        self._tally("commit_batches")
        # Post-commit hook: runs after the local durable commit and
        # before any ack is released — where a cluster node inserts
        # synchronous replication to its ring successors.  Per-item
        # extras are merged into the corresponding ack.
        extras = await self._post_commit(batch, entries)
        for (admitted, validated), entry, extra in zip(
            batch, entries, extras
        ):
            self._tally("accepted")
            response = {
                "status": "accepted",
                "duplicate": False,
                "signature": validated.signature.digest,
                "seq": entry.seq,
                "replayed": validated.instructions,
            }
            if extra:
                response.update(extra)
            self._settle(admitted, response, stage_ms=validated.stage_ms)

    async def _post_commit(
        self,
        batch: "list[tuple[_Admitted, ValidatedReport]]",
        entries: "list",
    ) -> "list[dict]":
        """Between durable local commit and ack: subclasses replicate
        here.  Returns one dict of extra ack fields per batch item."""
        return [{} for _ in batch]

    def _settle(self, admitted: _Admitted, response: dict,
                stage_ms: "dict | None" = None) -> None:
        ack_seconds = time.monotonic() - admitted.admitted_at
        _ACK_LATENCY.observe(ack_seconds)
        self._in_pipeline -= 1
        if admitted.upload_id:
            self._inflight_uploads.pop(admitted.upload_id, None)
        if not admitted.future.done():
            admitted.future.set_result(response)
        if self._log.enabled:
            event = {
                "outcome": response.get("status"),
                "label": admitted.label,
                "upload_id": admitted.upload_id,
                "ack_ms": round(ack_seconds * 1e3, 3),
                "stage_ms": stage_ms or {},
            }
            for key in ("signature", "seq", "reason"):
                if key in response:
                    event[key] = response[key]
            self._log.event("admission", **event)

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict:
        """The /stats shape: queue depth, in-flight work, counters, and
        per-shard occupancy."""
        store = self.store
        return {
            "uptime_sec": round(time.monotonic() - self._started_at, 3),
            # Admitted uploads not yet settled: queued + validating +
            # awaiting their turn in the commit sequence.
            "queue_depth": self._in_pipeline,
            "queue_limit": self.config.queue_limit,
            "validating": self._active_validations,
            "awaiting_commit": len(self._sequenced),
            "workers": self.config.workers,
            "counters": self.counters.to_dict(),
            "admit_cache": (
                self.admit_cache.stats()
                if self.admit_cache is not None else None
            ),
            "store": {
                "reports": len(store),
                "bytes": store.total_bytes,
                "evicted_reports": store.evicted_reports,
                "num_shards": store.num_shards,
                "shards": store.shard_occupancy(),
            },
        }

    # -- metrics --------------------------------------------------------------

    def health(self) -> "tuple[bool, str]":
        """Readiness: ``(ready, reason)``.

        Liveness is answering at all; readiness is being able to admit
        an upload *now*.  Draining and a saturated admission queue are
        the two states where a connect would only earn a retry — a
        load balancer should route elsewhere, which is what the 503
        from ``/healthz`` tells it.
        """
        if self._stopping:
            return False, "draining"
        if self._in_pipeline >= self.config.queue_limit:
            return False, "admission queue saturated"
        return True, "ok"

    def metrics_text(self) -> str:
        """The `/metrics` exposition: refresh scrape-time gauges from
        live state, then encode the whole registry."""
        _QUEUE_DEPTH.set(self._in_pipeline)
        _QUEUE_LIMIT.set(self.config.queue_limit)
        store = self.store
        if store is not None:
            _STORE_REPORTS.set(len(store))
            _STORE_BYTES.set(store.total_bytes)
            _STORE_EVICTED.set(store.evicted_reports)
            for slot in store.shard_occupancy():
                shard = str(slot["shard"])
                _SHARD_REPORTS.labels(shard).set(slot["reports"])
                _SHARD_BYTES.labels(shard).set(slot["bytes"])
        return encode_prometheus(self.metrics)

    # -- http ----------------------------------------------------------------

    async def _handle_http(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        """Minimal HTTP/1.0 for ``curl http://host:port/stats`` (and
        /healthz, /metrics)."""
        request_line = await reader.readline()
        path = request_line.split(b" ")[0].decode("latin-1", "replace")
        while True:  # drain request headers
            line = await reader.readline()
            if line in (b"", b"\r\n", b"\n"):
                break
        content_type = "application/json"
        if path == "/stats":
            body = json.dumps(self.stats(), indent=2).encode()
            status = "200 OK"
        elif path == "/healthz":
            ready, reason = self.health()
            body = json.dumps({"ok": ready, "reason": reason}).encode()
            status = "200 OK" if ready else "503 Service Unavailable"
        elif path == "/metrics":
            body = self.metrics_text().encode()
            status = "200 OK"
            content_type = _PROM_CONTENT_TYPE
        else:
            body = b'{"error": "not found"}'
            status = "404 Not Found"
        writer.write(
            f"HTTP/1.0 {status}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n".encode() + body
        )
        await writer.drain()
