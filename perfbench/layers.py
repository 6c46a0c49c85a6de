"""Per-layer metrics of a traced run, from the benchmark's spans and the
deltas of the program's own registry counters and histograms.

Layers are named after the repository's modules.  A layer a workload
does not exercise reads 0 there (no spans, no counter movement).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from perfbench import inputs


@dataclass
class LayerInputs:
    """Counts only the workload knows, needed to normalise layer figures."""

    record: "inputs.RecordStats | None" = None
    uploads: int = 0            # accepted uploads in the timed phase
    new_blobs: int = 0          # blobs first seen in the timed phase
    pulled: int = 0             # reports pulled by anti-entropy
    catchup_reports_per_s: float = 0.0
    noop_round_ms: float = 0.0  # one converged anti_entropy_round
    autopsy_buckets: int = 0
    unrecorded_ips: float = 0.0
    record_overhead_x: float = 0.0


def machine_overhead(layer: LayerInputs, reports) -> None:
    """Run each report's bug again with recording on and off (same
    interval and interleave seed) and compare host time."""
    from repro.common.config import BugNetConfig

    recorded = unrecorded = 0.0
    instructions = 0
    for report in reports:
        bug = inputs.bugs.BUGS_BY_NAME[report.bug]
        config = BugNetConfig(checkpoint_interval=report.interval)
        timings = []
        for record in (True, False):
            start = time.perf_counter()
            run = inputs.bugs.run_bug(bug, bugnet=config, record=record,
                                      interleave_seed=report.interleave)
            timings.append(time.perf_counter() - start)
        recorded += timings[0]
        unrecorded += timings[1]
        instructions += run.result.global_steps
    layer.unrecorded_ips = instructions / unrecorded
    layer.record_overhead_x = recorded / unrecorded


def _merged(phases: "list[dict]") -> dict:
    """Sum the registry deltas of several phase spans."""
    total: dict = {}
    for phase in phases:
        for name, samples in phase.get("metrics", {}).items():
            slot = total.setdefault(name, {})
            for labels, value in samples.items():
                if isinstance(value, dict):
                    prior = slot.get(labels)
                    if prior is None:
                        slot[labels] = dict(value, counts=list(value["counts"]))
                    else:
                        prior["counts"] = [a + b for a, b in zip(
                            prior["counts"], value["counts"])]
                        prior["sum"] += value["sum"]
                else:
                    slot[labels] = slot.get(labels, 0.0) + value
    return total


def _counter(delta: dict, name: str, *labels: str) -> float:
    samples = delta.get(name, {})
    if labels:
        return samples.get(tuple(labels), 0.0)
    return sum(samples.values())


def _histogram(delta: dict, name: str, *labels: str) -> "tuple[int, float]":
    value = delta.get(name, {}).get(tuple(labels))
    if value is None:
        return 0, 0.0
    return sum(value["counts"]), value["sum"]


def _histogram_p50(delta: dict, name: str) -> float:
    """Median estimated from bucket counts (linear within a bucket)."""
    value = delta.get(name, {}).get(())
    if value is None:
        return 0.0
    counts, bounds = value["counts"], value["buckets"]
    total = sum(counts)
    target = total / 2.0
    seen = 0
    lower = 0.0
    for count, upper in zip(counts, list(bounds) + [bounds[-1]]):
        if count and seen + count >= target:
            return lower + (upper - lower) * (target - seen) / count
        seen += count
        lower = upper
    return bounds[-1]


def _mean_ms(spans: "list[dict]") -> float:
    if not spans:
        return 0.0
    return 1e3 * sum(s["end"] - s["start"] for s in spans) / len(spans)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(tracer, layer: LayerInputs, timed_phases) -> dict:
    """Every per-layer metric.  *timed_phases* names the phase spans
    whose registry deltas count (the timed region and what follows it,
    not input synthesis)."""
    spans = tracer.spans
    phases = [s for s in spans if s["name"] in timed_phases]
    delta = _merged(phases)
    ancestors = {s["id"]: s for s in spans}

    def under(span, phase_name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            node = ancestors[parent]
            if node["name"] == phase_name:
                return True
            parent = node["parent"]
        return False

    def named(name: str) -> "list[dict]":
        return [s for s in spans if s["name"] == name]

    def wire(op: str) -> "list[dict]":
        return [s for s in named("ServiceClient.request_full")
                if s.get("op") == op]

    def autopsy_ms(name: str) -> float:
        """Milliseconds per autopsied bucket spent in *name*."""
        seconds = sum(s["end"] - s["start"] for s in named(name)
                      if under(s, "phase.autopsy"))
        return seconds * 1e3 / max(layer.autopsy_buckets, 1)

    uploads = max(layer.uploads, 1)
    validations = _counter(delta, "bugnet_validate_outcomes_total")

    def stage_ms(stage: str) -> float:
        """Mean milliseconds per validation spent in one stage."""
        _count, seconds = _histogram(delta, "bugnet_validate_stage_seconds",
                                     stage)
        return 1e3 * _ratio(seconds, validations)

    probes = _counter(delta, "bugnet_admit_cache_total")
    hits = _counter(delta, "bugnet_admit_cache_total", "hit")
    reverified = _counter(delta, "bugnet_admit_reverify_total")
    plan_hits = _counter(delta, "bugnet_fastreplay_plan_cache_total", "hit")
    plans = _counter(delta, "bugnet_fastreplay_plan_cache_total")
    replayed = _counter(delta, "bugnet_replay_instructions_total")
    _count, replay_seconds = _histogram(
        delta, "bugnet_validate_stage_seconds", "replay")
    batches, batch_seconds = _histogram(
        delta, "bugnet_store_commit_batch_seconds")
    waits, wait_seconds = _histogram(delta, "bugnet_store_flock_wait_seconds")
    flushes = named("AdmitCache.flush")
    ddg = [s for s in named("DDG.build") if under(s, "phase.autopsy")]
    record = layer.record or inputs.RecordStats()
    sync = wire("sync-digests")
    bucket_calls = wire("buckets")
    metrics = {
        "machine.unrecorded_ips": layer.unrecorded_ips,
        "machine.record_overhead_x": layer.record_overhead_x,
        "tracing.dump_ms": _mean_ms(named("dump_crash_report")),
        "tracing.header_decode_ms": _mean_ms(named("load_report_header")),
        "tracing.load_ms": _mean_ms(named("load_crash_report")),
        "replay.ips": _ratio(replayed, replay_seconds),
        "replay.plan_cache_hit_rate": _ratio(plan_hits, plans),
        "validate.reports": validations,
        "admit.hit_rate": _ratio(hits, probes),
        "admit.wasted_validations": max(
            validations - layer.new_blobs - reverified, 0.0),
        "admit.flush_ms": _mean_ms(flushes),
        "admit.file_bytes": max((s["file_bytes"] for s in flushes),
                                default=0),
        "service.reports_per_commit_batch": _ratio(
            _counter(delta, "bugnet_admission_total", "accepted"),
            _counter(delta, "bugnet_service_commit_batches_total")),
        "service.ack_p50_ms": 1e3 * _histogram_p50(
            delta, "bugnet_ack_latency_seconds"),
        "wire.bytes_per_upload": _ratio(
            _counter(delta, "bugnet_connection_bytes_total"), uploads),
        "store.commit_batch_ms": 1e3 * _ratio(batch_seconds, batches),
        "store.flock_wait_ms": 1e3 * _ratio(wait_seconds, waits),
        "store.add_ms": _mean_ms(named("ReportStore.add")),
        "cluster.replicate_calls_per_upload": len(wire("replicate")) / uploads,
        "cluster.replicate_rtt_ms": _mean_ms(wire("replicate")),
        "cluster.forwarded_per_upload": _counter(
            delta, "bugnet_cluster_forwarded_total") / uploads,
        "cluster.gossip_rtt_ms": _mean_ms(wire("gossip")),
        "cluster.sync_digests_bytes": _ratio(
            sum(s["bytes_in"] for s in sync), len(sync)),
        "cluster.sync_digests_ms": _mean_ms(sync),
        "cluster.fetch_calls_per_pulled_report": _ratio(
            len(wire("fetch-report")), layer.pulled),
        "cluster.noop_round_ms": layer.noop_round_ms,
        "cluster.catchup_reports_per_s": layer.catchup_reports_per_s,
        "cluster.buckets_bytes": _ratio(
            sum(s["bytes_in"] for s in bucket_calls), len(bucket_calls)),
        "cluster.buckets_ms": _mean_ms(bucket_calls),
        "triage.build_buckets_ms": _mean_ms(named("build_buckets")),
        "forensics.ddg_build_ips": _ratio(
            sum(s["instructions"] for s in ddg),
            sum(s["end"] - s["start"] for s in ddg)),
        "forensics.slice_ms": autopsy_ms("slice_from_fault"),
        "forensics.provenance_ms": autopsy_ms("value_provenance"),
        "forensics.race_inference_ms": autopsy_ms("races.infer_races"),
    }
    for stage in ("decode", "replay", "chain-replay", "mrl-merge",
                  "race-inference", "fault-probe", "signature"):
        metrics[f"validate.{stage}_ms"] = stage_ms(stage)
    metrics.update(record.per_layer())
    return metrics


def admit_growth(tracer, slices: int = 5) -> "list[tuple]":
    """The uploads phase cut into *slices* equal spans of time: per slice,
    uploads acked per second (client side), the admit-cache file size
    after its last flush and the mean flush time."""
    phase = next((s for s in tracer.spans if s["name"] == "phase.uploads"),
                 None)
    if phase is None:
        return []
    width = (phase["end"] - phase["start"]) / slices
    rows = []
    for index in range(slices):
        low = phase["start"] + index * width
        high = low + width
        # The client's own uploads run under the phase span; a node
        # forwarding an upload makes a request_full of its own.
        acked = [s for s in tracer.spans
                 if s["name"] == "ServiceClient.request_full"
                 and s["parent"] == phase["id"]
                 and s.get("op") == "upload" and low <= s["end"] < high]
        flushes = [s for s in tracer.spans if s["name"] == "AdmitCache.flush"
                   and low <= s["end"] < high]
        rows.append((index + 1, len(acked) / width,
                     max((s["file_bytes"] for s in flushes), default=0),
                     _mean_ms(flushes)))
    return rows
