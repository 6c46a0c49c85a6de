"""The three workloads.  Each returns an :class:`~perfbench.common.Outcome`
holding every end-to-end metric, the operation accounting, the
correctness checks and, on a traced run, the per-layer inputs.

Load comes from this one process: one client with two connections in
lockstep, validation in-process (``workers=0``), no process pools, so
the figures measure the program on a 2-core host rather than the
scheduler.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import random
import socket
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from statistics import median

from perfbench import inputs
from perfbench.common import (
    Outcome,
    Upload,
    UploadLoop,
    peak_rss_mb,
    percentile,
    tree_bytes,
)
from perfbench.layers import LayerInputs, machine_overhead
from perfbench.tracer import registry_delta
from repro.fleet import triage
from repro.fleet.store import ReportStore
from repro.forensics import autopsy
from repro.obs import REGISTRY

#: cluster_rw: pause between two quorum triage reads issued beside the
#: uploads.
TRIAGE_PAUSE = 0.05
#: node_racy: triage is read NODE_TRIAGE_REPEATS times each time the
#: store has taken NODE_TRIAGE_EVERY more timed uploads, for the first
#: NODE_TRIAGE_READS such points only, so every run reads the same store
#: sizes whatever its throughput.
NODE_TRIAGE_EVERY = 150
NODE_TRIAGE_READS = 8
NODE_TRIAGE_REPEATS = 3
#: Phase spans whose registry deltas feed the per-layer figures.
TIMED_PHASES = ("phase.uploads", "phase.repair", "phase.autopsy",
                "phase.rounds")
#: node_racy's admit-cache bound: smaller than the distinct reports of
#: one pass, so a report is evicted before the next pass repeats it and
#: the cache serves each burst's copies, not the repeated passes.
ADMIT_CAPACITY = 16
#: record_autopsy ingests each recording this many times, as that many
#: machines hitting the same crash would upload it (the batch pipeline
#: has no admit cache, so each copy is validated): enough acks for a
#: 90th percentile.  Its store stays small, so one triage read takes
#: well under a millisecond; each triage sample is the mean of
#: TRIAGE_REPEATS reads.
INGEST_COPIES = 5
TRIAGE_REPEATS = 10
#: record_autopsy repeats its (cheap) set-up this many times.
SETUP_REPEATS = 15
#: record_autopsy spends this share of its --seconds on whole recording
#: passes over the 18 bugs and the rest on whole ingest rounds; one
#: autopsy pass over the last round's store follows.
RECORD_SHARE = 0.4
#: Autopsies of a store's buckets repeat until this much time is spent
#: (the rate is taken over all of them).
AUTOPSY_SECONDS = 4.0


class Workload:
    """State one run shares between its phases."""

    def __init__(self, root: Path, seed: int, seconds: float,
                 tracer) -> None:
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.started = time.perf_counter()
        self.outcome = Outcome()
        self.layer = LayerInputs()
        self._root_lines: "dict[str, int]" = {}

    @contextmanager
    def phase(self, name: str):
        """A span around one phase of the run, carrying the registry
        delta of that phase (traced runs only)."""
        if self.tracer is None:
            yield
            return
        before = REGISTRY.snapshot()
        with self.tracer.span(name) as record:
            yield
            record["metrics"] = registry_delta(before, REGISTRY.snapshot())

    def setup_done(self) -> None:
        self.outcome.metrics["setup_s"] = (
            time.perf_counter() - self.started, "s")
        gc.collect()

    def finish(self, *store_roots, accepted: int) -> Outcome:
        metrics = self.outcome.metrics
        metrics["stored_bytes_per_report"] = (
            tree_bytes(*store_roots) / max(accepted, 1), "B")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
        return self.outcome

    # -- steps shared by the workloads ----------------------------------------

    def autopsy_buckets(self, store_root: Path) -> None:
        """Root-cause every triage bucket of *store_root*, in whole passes
        until AUTOPSY_SECONDS have been spent, and check each autopsy
        against the bug's annotated ``root_cause`` line."""
        store = ReportStore(store_root)
        resolver = autopsy.bug_suite_resolver()
        window = 0
        spent = 0.0
        with self.phase("phase.autopsy"):
            while spent < AUTOPSY_SECONDS:
                start = time.perf_counter()
                results = autopsy.autopsy_store(store, resolver)
                spent += time.perf_counter() - start
                window += self.autopsied(results)
        self.outcome.metrics["autopsy_ips"] = (window / spent, "instr/s")

    def autopsied(self, results) -> int:
        """Account and check one batch of autopsies; returns the replay
        window instructions they root-caused."""
        window = 0
        for result in results:
            self.outcome.count("autopsy", failed=bool(
                result.error or result.autopsy is None))
            self.layer.autopsy_buckets += 1
            if result.autopsy is None:
                self.outcome.check(f"autopsy {result.program_name}", False,
                                   result.error)
                continue
            window += result.autopsy.window
            self.check_root_cause(result.program_name, result.autopsy)
        return window

    def check_root_cause(self, bug_name: str, result) -> None:
        """The oracle: the source line labelled ``root_cause`` in the
        bug's own source is the autopsy's culprit line or lies in its
        fault slice."""
        if bug_name not in self._root_lines:
            program = inputs.bugs.BUGS_BY_NAME[bug_name].program()
            self._root_lines[bug_name] = program.source_line_of(
                program.pc_of("root_cause"))
        root_line = self._root_lines[bug_name]
        self.outcome.check(
            f"root cause {bug_name}",
            root_line in (result.culprit_line, *result.slice_lines),
            f"root_cause line {root_line}, culprit {result.culprit_line}, "
            f"slice {list(result.slice_lines)}")


def bug_counts(buckets) -> Counter:
    """Per-bug occurrence counts of a triage (``Bucket`` objects or the
    cluster's merged bucket dicts)."""
    counts: Counter = Counter()
    for bucket in buckets:
        if isinstance(bucket, dict):
            counts[bucket["program"]] += bucket["count"]
        else:
            counts[bucket.program_name] += bucket.count
    return counts


def check_triage_read(outcome: Outcome, counts: Counter,
                      acked_before: Counter, sent_after: Counter) -> None:
    """A triage read during writes sees every upload acked before it
    began and nothing that had not been sent when it ended."""
    bad = sorted(
        bug for bug in set(counts) | set(acked_before)
        if not acked_before[bug] <= counts[bug] <= sent_after[bug])
    outcome.check("triage read bounds", not bad,
                  "; ".join(f"{bug}: acked {acked_before[bug]} <= "
                            f"{counts[bug]} <= sent {sent_after[bug]}"
                            for bug in bad))


# -- node_racy ---------------------------------------------------------------

def node_racy(run: Workload) -> Outcome:
    from repro.fleet.service import FleetService, ServiceConfig
    from repro.fleet.validate import ResolverSpec

    outcome = run.outcome
    with run.phase("phase.inputs"):
        reports, stats = inputs.node_racy_reports(run.seed)
        warmup = inputs.warmup_reports(reports, stats)
    run.layer.record = stats
    outcome.metrics.update(stats.end_to_end())
    root = run.root / "node"

    def feed():
        # One group per burst: a report and its copies, back to back.
        for lap in itertools.count():
            for index, report in enumerate(reports):
                ids = [f"nr{run.seed}-p{lap}-{index:03d}-c{copy}"
                       for copy in range(inputs.BURST_COPIES + 1)]
                yield [Upload(report.bug, uid, report.blob, uid) for uid in ids]

    loop = UploadLoop(feed(), 0.0, outcome)
    # The store also holds the warm-up uploads, one per bug.
    warm_counts = Counter(report.bug for report in warmup)
    triage_ms: "list[float]" = []
    next_read = [NODE_TRIAGE_EVERY]

    async def read_triage() -> None:
        """Between bursts, once the store has taken NODE_TRIAGE_EVERY
        more timed uploads: triage of the store opened afresh, as
        ``bugnet triage --store`` reads it, with nothing in flight."""
        if (len(loop.accepted_ids) < next_read[0]
                or next_read[0] > NODE_TRIAGE_EVERY * NODE_TRIAGE_READS):
            return
        next_read[0] += NODE_TRIAGE_EVERY
        for _ in range(NODE_TRIAGE_REPEATS):
            start = time.perf_counter()
            buckets = triage.build_buckets(ReportStore(root))
            triage_ms.append((time.perf_counter() - start) * 1e3)
            outcome.count("triage")
        counts = bug_counts(buckets)
        outcome.check("triage read equals acks",
                      counts == loop.acked + warm_counts,
                      f"{dict(counts)} vs {dict(loop.acked + warm_counts)}")

    async def main() -> None:
        service = FleetService(root, ResolverSpec(), ServiceConfig(
            host="127.0.0.1", port=0, workers=0,
            admit_capacity=ADMIT_CAPACITY))
        host, port = await service.start()
        try:
            warm = UploadLoop(
                ([Upload(r.bug, f"warm-{i}", r.blob, f"nr{run.seed}-warm-{i}")]
                 for i, r in enumerate(warmup)), float("inf"), Outcome())
            await warm.run(lambda upload: (host, port))
            outcome.check("warm-up acked", not warm.failures,
                          "; ".join(warm.failures))
            run.setup_done()
            with run.phase("phase.uploads"):
                loop.deadline = time.perf_counter() + run.seconds
                await loop.run(lambda upload: (host, port), read_triage)
            if not triage_ms:  # fewer than NODE_TRIAGE_EVERY uploads
                next_read[0] = 0
                await read_triage()
        finally:
            await service.stop()

    asyncio.run(main())
    outcome.metrics.update(loop.end_to_end())
    outcome.metrics["triage_p50_ms"] = (median(triage_ms), "ms")
    outcome.check("uploads acked", not loop.failures,
                  "; ".join(loop.failures[:5]))

    store = ReportStore(root)
    buckets = triage.build_buckets(store)
    expected = loop.sent + warm_counts
    counts = bug_counts(buckets)
    outcome.check("bucket counts per bug", counts == expected,
                  f"triage {dict(counts)} vs uploads {dict(expected)}")
    for bug in inputs.RACY_BUGS:
        mine = [bucket for bucket in buckets if bucket.program_name == bug]
        outcome.check(f"{bug} is one racy bucket",
                      len(mine) == 1 and mine[0].racy,
                      f"{len(mine)} bucket(s)")
    stored = Counter(entry.upload_id for entry in store.entries())
    accepted = Counter(loop.accepted_ids)
    outcome.check("accepted ids stored once",
                  all(stored[uid] == 1 for uid in accepted)
                  and sum(stored.values()) == len(accepted) + len(warmup),
                  f"{sum(stored.values())} entries for "
                  f"{len(accepted)} accepted + {len(warmup)} warm-up")

    run.layer.uploads = len(accepted)
    # A burst's first upload is a new blob to the cache (the previous
    # pass's copy has been evicted); anything more is waste.
    run.layer.new_blobs = loop.groups
    run.autopsy_buckets(root)
    if run.tracer is not None:
        machine_overhead(run.layer, warmup)
    return run.finish(root, accepted=len(accepted) + len(warmup))


# -- record_autopsy ----------------------------------------------------------

def _crash_kind(run) -> str:
    """The recorded fault kind, with ``alignment`` read as ``memory``
    (``AlignmentFault`` subclasses ``MemoryFault``)."""
    kind = run.result.crash.fault_kind
    return "memory" if kind == "alignment" else kind


def record_autopsy(run: Workload) -> Outcome:
    from repro.fleet.ingest import IngestPipeline
    from repro.replay.fastreplay import compiled_plan

    outcome = run.outcome
    order = inputs.autopsy_order(run.seed)
    # Set-up is cheap here, so it is repeated and the median reported:
    # a fresh resolver assembles every program and compiles its replay
    # plans (the last one is used).
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        resolver = autopsy.bug_suite_resolver()
        for name in order:
            compiled_plan(resolver(name))
        setups.append(time.perf_counter() - start)
    outcome.metrics["setup_s"] = (median(setups), "s")
    started = time.perf_counter()
    stats = inputs.RecordStats()
    recorded: "dict[str, inputs.Report]" = {}
    with run.phase("phase.record"):
        while not recorded or (time.perf_counter() - started
                               < run.seconds * RECORD_SHARE):
            for name in order:
                bug = inputs.bugs.BUGS_BY_NAME[name]
                report, made = inputs.record(
                    name, inputs.AUTOPSY_INTERVAL,
                    inputs.AUTOPSY_INTERLEAVE if bug.multithreaded else 0,
                    stats)
                outcome.count("recording", failed=report is None)
                if report is None:
                    outcome.check(f"{name} crashes", False, "no crash")
                    continue
                outcome.check(f"{name} fault kind",
                              _crash_kind(made) in bug.expect_fault,
                              f"{made.result.crash.fault_kind} vs "
                              f"{bug.expect_fault}")
                first = recorded.setdefault(name, report)
                outcome.check(f"{name} records the same bytes every time",
                              first.blob == report.blob)
    reports = [recorded[name] for name in order if name in recorded]
    acks: "list[float]" = []
    triage_ms: "list[float]" = []
    roots = []
    with run.phase("phase.rounds"):
        while not roots or time.perf_counter() - started < run.seconds:
            root = run.root / f"round{len(roots)}"
            roots.append(root)
            pipeline = IngestPipeline(ReportStore(root), resolver)
            # Copies go in passes over all reports, so each bug's acks
            # are spread over the ingest rather than taken back to back.
            for copy in range(INGEST_COPIES):
                for report in reports:
                    start = time.perf_counter()
                    result = pipeline.ingest_blob(f"{report.bug}#{copy}",
                                                  report.blob)
                    acks.append(time.perf_counter() - start)
                    outcome.count("ingest", failed=not result.accepted)
                    outcome.check(f"{report.bug} validates", result.accepted,
                                  result.reason)
                    start = time.perf_counter()
                    for _ in range(TRIAGE_REPEATS):
                        triage.build_buckets(pipeline.store)
                    triage_ms.append((time.perf_counter() - start) * 1e3
                                     / TRIAGE_REPEATS)
                    outcome.count("triage")
            buckets = triage.build_buckets(pipeline.store)
            outcome.check(
                "one bucket per bug",
                bug_counts(buckets) == Counter(
                    {name: INGEST_COPIES for name in order})
                and len(buckets) == len(order),
                str(dict(bug_counts(buckets))))
    with run.phase("phase.autopsy"):
        start = time.perf_counter()
        results = autopsy.autopsy_store(pipeline.store, resolver)
        seconds = time.perf_counter() - start
    metrics = outcome.metrics
    metrics["autopsy_ips"] = (run.autopsied(results) / seconds, "instr/s")
    metrics.update(stats.end_to_end())
    metrics["reports_per_s"] = (len(acks) / sum(acks), "reports/s")
    metrics["ack_p50_ms"] = (percentile(acks, 0.50) * 1e3, "ms")
    metrics["ack_p90_ms"] = (percentile(acks, 0.90) * 1e3, "ms")
    metrics["triage_p50_ms"] = (median(triage_ms), "ms")
    run.layer.record = stats
    run.layer.uploads = run.layer.new_blobs = len(acks)
    if run.tracer is not None:
        machine_overhead(run.layer, reports)
    return run.finish(*roots, accepted=len(acks))


# -- cluster_rw --------------------------------------------------------------

#: Three nodes, every report on R of them.
NODES = 3
REPLICATION = 2
#: Byte-distinct uploads available to the timed phase (it ends early,
#: with fewer, if they run out) and uploads written while one node is
#: down.
CLUSTER_UPLOADS = 1200
OUTAGE_UPLOADS = 60
#: Anti-entropy rounds allowed before repair counts as failed.
REPAIR_ROUNDS = 10


def listen_ports(count: int) -> "list[int]":
    """*count* free ports below Linux's default ephemeral range (32768
    and up).  A port from that range (as ``bind(0)`` picks) can be taken
    as the source port of an outgoing connection while its node is
    stopped, and the node then cannot bind it again when it restarts."""
    candidates = list(range(20_000, 32_768))
    random.Random(os.getpid()).shuffle(candidates)
    ports = []
    for port in candidates:
        with socket.socket() as probe:
            try:
                probe.bind(("127.0.0.1", port))
            except OSError:
                continue
        ports.append(port)
        if len(ports) == count:
            return ports
    raise RuntimeError("no free listening ports")


def cluster_rw(run: Workload) -> Outcome:
    from repro.fleet.cluster import admin
    from repro.fleet.cluster.node import ClusterNodeService
    from repro.fleet.cluster.topology import ClusterSpec, NodeSpec
    from repro.fleet.service import ServiceConfig
    from repro.fleet.validate import ResolverSpec

    outcome = run.outcome
    with run.phase("phase.inputs"):
        reports, stats = inputs.cluster_reports(
            run.seed, CLUSTER_UPLOADS + OUTAGE_UPLOADS
            + len(inputs.CLUSTER_BUGS))
    run.layer.record = stats
    outcome.metrics.update(stats.end_to_end())
    warmup = [next(r for r in reports if r.bug == bug)
              for bug in inputs.CLUSTER_BUGS]
    rest = [r for r in reports if r not in warmup]
    outage, main = rest[:OUTAGE_UPLOADS], rest[OUTAGE_UPLOADS:]
    ports = listen_ports(NODES)
    spec = ClusterSpec(
        nodes=tuple(NodeSpec(node_id=f"n{index}", host="127.0.0.1",
                             port=ports[index]) for index in range(NODES)),
        replication=REPLICATION)
    roots = [run.root / member.node_id for member in spec.nodes]

    def make_node(index: int) -> ClusterNodeService:
        member = spec.nodes[index]
        # Anti-entropy runs only when called, so repair is timed alone.
        return ClusterNodeService(
            roots[index], ResolverSpec(), spec, member.node_id,
            config=ServiceConfig(host=member.host, port=member.port,
                                 workers=0, queue_limit=64),
            anti_entropy_interval=3600.0)

    def uploads(batch, tag: str, group: int = UploadLoop.connections):
        # Upload i goes to node i mod 3, as from a client that does not
        # know the ring: a third of uploads land on a node outside the
        # report's replica set and are forwarded.
        made = [Upload(report.bug, f"cr{run.seed}-{tag}-{index:04d}",
                       report.blob, f"cr{run.seed}-{tag}-{index:04d}",
                       slot=index)
                for index, report in enumerate(batch)]
        return (made[i:i + group] for i in range(0, len(made), group))

    def node_address(live):
        def pick(upload):
            member = spec.nodes[live[upload.slot % len(live)]]
            return member.host, member.port
        return pick

    warm = UploadLoop(uploads(warmup, "warm", group=1), float("inf"),
                      Outcome())
    down = UploadLoop(uploads(outage, "down"), float("inf"), outcome)
    loop = UploadLoop(uploads(main, "w"), 0.0, outcome)
    triage_ms: "list[float]" = []

    def held(nodes, upload_ids) -> "dict[str, int]":
        return {uid: sum(node.store.entry_for_upload(uid) is not None
                         for node in nodes) for uid in upload_ids}

    async def catch_up(nodes) -> "tuple[int, float]":
        """Anti-entropy on the restarted node until every upload so far
        is on R nodes.  Only that node pulls: a peer whose gossip has
        not yet seen it come back would pull degraded-mode copies too."""
        expected = warm.accepted_ids + loop.accepted_ids + down.accepted_ids
        start = time.perf_counter()
        pulled = 0
        for _round in range(REPAIR_ROUNDS):
            pulled += await nodes[2].anti_entropy_round()
            if min(held(nodes, expected).values()) >= REPLICATION:
                break
        seconds = time.perf_counter() - start
        short = sum(1 for n in held(nodes, expected).values()
                    if n < REPLICATION)
        for index in range(pulled + short):
            outcome.count("pull", failed=index >= pulled)
        return pulled, seconds

    async def repair_phase(nodes) -> None:
        """n2 stops, uploads go on without it, it restarts with its
        store intact and catches up."""
        with run.phase("phase.repair"):
            await nodes[2].stop()
            await down.run(node_address([0, 1]))
            nodes[2] = make_node(2)
            await nodes[2].start()
            pulled, seconds = await catch_up(nodes)
            run.layer.pulled = pulled
            run.layer.catchup_reports_per_s = pulled / seconds
            start = time.perf_counter()
            await nodes[2].anti_entropy_round()
            run.layer.noop_round_ms = (time.perf_counter() - start) * 1e3

    async def triage_read(before: Counter, sent: Counter) -> Counter:
        start = time.perf_counter()
        view = await admin.cluster_triage(spec)
        ok = view["quorum"]["ok"]
        outcome.count("triage", failed=not ok)
        outcome.check("quorum triage", ok, str(view["quorum"]))
        counts = bug_counts(view["buckets"])
        if ok:
            triage_ms.append((time.perf_counter() - start) * 1e3)
            check_triage_read(outcome, counts, before, sent)
        return counts

    async def uploads_phase(nodes) -> None:
        earlier = warm.acked

        async def reader() -> None:
            while not loop.done:
                await triage_read(loop.acked + earlier, loop.sent + earlier)
                await asyncio.sleep(TRIAGE_PAUSE)

        with run.phase("phase.uploads"):
            loop.deadline = time.perf_counter() + run.seconds
            upload_task = asyncio.ensure_future(
                loop.run(node_address([0, 1, 2])))
            read_task = asyncio.ensure_future(reader())
            await upload_task
            await read_task
        final = await triage_read(loop.acked + earlier, loop.sent + earlier)
        outcome.check("last triage equals acks",
                      final == loop.acked + earlier,
                      f"{dict(final)} vs {dict(loop.acked + earlier)}")

    async def scenario() -> "dict[str, int]":
        nodes = [make_node(index) for index in range(NODES)]
        try:
            for node in nodes:
                await node.start()
            await warm.run(node_address([0, 1, 2]))
            outcome.check("warm-up acked", not warm.failures,
                          "; ".join(warm.failures))
            run.setup_done()
            await uploads_phase(nodes)
            await repair_phase(nodes)
            return held(nodes, warm.accepted_ids + loop.accepted_ids
                        + down.accepted_ids)
        finally:
            for node in nodes:
                await node.stop()

    holders = asyncio.run(scenario())
    outcome.metrics.update(loop.end_to_end())
    outcome.metrics["triage_p50_ms"] = (median(triage_ms), "ms")
    outcome.check("uploads acked", not (loop.failures or down.failures),
                  "; ".join((loop.failures + down.failures)[:5]))
    # Outage uploads may stay on R+1 nodes: the copy the degraded
    # replica set put on the substitute node is never dropped.
    outage_ids = set(down.accepted_ids)
    wrong = {uid: n for uid, n in holders.items()
             if n != REPLICATION and not (uid in outage_ids
                                          and n == REPLICATION + 1)}
    outcome.check("replica sets after repair", not wrong,
                  f"{len(wrong)} upload(s) on the wrong number of nodes, "
                  f"e.g. {sorted(wrong.items())[:3]}")
    print(f"repair: {run.layer.pulled} pulled; "
          f"{sum(1 for uid in outage_ids if holders[uid] > REPLICATION)} "
          f"of {len(outage_ids)} outage uploads end on "
          f"{REPLICATION + 1} nodes")

    # Every upload of the uploads and repair phases is a new blob.
    run.layer.uploads = run.layer.new_blobs = (
        len(loop.accepted_ids) + len(outage_ids))
    run.autopsy_buckets(roots[0])
    if run.tracer is not None:
        machine_overhead(run.layer, warmup)
    return run.finish(*roots, accepted=len(holders))
