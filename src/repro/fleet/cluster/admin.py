"""Cluster administration: aggregated views, quorum reads, and planned
topology change.

Every node keeps serving its own :mod:`repro.obs` endpoints; this
module gives operators the *fleet* view on top — fan out to the
members, sum what is summable, and (the part that keeps everyone
honest) **reconcile** the two substrates against each other: summed
Prometheus admission counters must equal summed /stats counters, and
the store gauges must match the store sections.  The CI cluster smoke
job runs that reconciliation after a kill -9, where double-counting or
loss would show up first.

Cluster triage merges per-node buckets by **signature digest** — the
replay-derived identity — while the ring placed the underlying blobs
by *route* digest.  Replication means one report legitimately lives on
R nodes, so occurrence counts come from distinct ``upload_id`` sets,
never from summing per-node counts.

Reads are **quorum reads** (DESIGN.md §14): every per-node answer
carries the node's topology epoch, the quorum epoch is the newest one
observed, and a read needs ⌈(R+1)/2⌉ answers *at that epoch* before
its merge is trusted.  A partitioned minority node (or a dropped
member that was never told) still answers — with its stale epoch — so
its buckets are flagged and excluded instead of silently merged under
the wrong topology.

Planned topology change is driven from here too (:func:`add_node`,
:func:`decommission`): mint the next epoch, push it to the live
members, stream the remapped ranges over the ordinary anti-entropy
ops *while the old ring keeps serving*, and only then commit the epoch
that flips routing.  No step deletes anything, so a crash mid-change
leaves at worst a node holding extra reports — never a lost one.
"""

from __future__ import annotations

import asyncio
import time
import weakref

from repro.fleet.cluster.topology import (
    ClusterSpec,
    NodeSpec,
    diff_rings,
    ranges_gained_by,
)
from repro.fleet.loadsim import ServiceClient, fetch_metrics
from repro.fleet.wire import FrameError

#: /stats counter fields that sum across nodes.
_SUMMED_COUNTERS = ("received", "accepted", "rejected", "retried",
                    "duplicates", "commit_batches", "protocol_errors")
#: Cluster-layer counters (ClusterNodeService.cluster_counters).
_SUMMED_CLUSTER = ("forwarded", "replicated_out", "replicated_in",
                   "gossip_rounds", "handoff_reports",
                   "spec_updates", "stale_epochs")


async def fetch_node_stats(member: NodeSpec) -> "dict | None":
    """One node's /stats, or None when it is unreachable."""
    client = ServiceClient(member.host, member.port)
    try:
        return await client.stats()
    except (ConnectionError, OSError, FrameError, asyncio.TimeoutError):
        return None
    finally:
        await client.close()


async def cluster_stats(spec: ClusterSpec) -> "dict[str, dict | None]":
    """/stats from every member, keyed by node id (None = unreachable)."""
    results = await asyncio.gather(*(
        fetch_node_stats(member) for member in spec.nodes
    ))
    return {
        member.node_id: stats
        for member, stats in zip(spec.nodes, results)
    }


def aggregate_stats(per_node: "dict[str, dict | None]") -> dict:
    """Sum the summable /stats fields across reachable nodes."""
    counters = {name: 0 for name in _SUMMED_COUNTERS}
    cluster = {name: 0 for name in _SUMMED_CLUSTER}
    store = {"reports": 0, "bytes": 0, "evicted_reports": 0}
    queue_depth = 0
    reachable = []
    for node_id, stats in sorted(per_node.items()):
        if stats is None:
            continue
        reachable.append(node_id)
        queue_depth += stats.get("queue_depth", 0)
        for name in _SUMMED_COUNTERS:
            counters[name] += stats.get("counters", {}).get(name, 0)
        for name in _SUMMED_CLUSTER:
            cluster[name] += (stats.get("cluster", {})
                              .get("counters", {}).get(name, 0))
        for name in store:
            store[name] += stats.get("store", {}).get(name, 0)
    return {
        "nodes": len(per_node),
        "reachable": reachable,
        "unreachable": sorted(
            node_id for node_id, stats in per_node.items() if stats is None
        ),
        "queue_depth": queue_depth,
        "counters": counters,
        "cluster": cluster,
        "store": store,
    }


async def cluster_metrics(spec: ClusterSpec) -> "dict[str, dict | None]":
    """Parsed /metrics scrape from every member (None = unreachable)."""

    async def scrape(member: NodeSpec):
        try:
            return await fetch_metrics(member.host, member.port)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            return None

    results = await asyncio.gather(*(
        scrape(member) for member in spec.nodes
    ))
    return {
        member.node_id: samples
        for member, samples in zip(spec.nodes, results)
    }


def aggregate_metrics(per_node: "dict[str, dict | None]") -> dict:
    """Pointwise sum of parsed Prometheus samples across nodes.

    Counters and occupancy gauges sum meaningfully fleet-wide; the
    result keeps the :func:`repro.obs.prom.parse_prometheus` shape so
    :func:`repro.obs.prom.sample` reads it unchanged.
    """
    merged: "dict[str, dict]" = {}
    for samples in per_node.values():
        if samples is None:
            continue
        for name, series in samples.items():
            slot = merged.setdefault(name, {})
            for labels, value in series.items():
                slot[labels] = slot.get(labels, 0.0) + value
    return merged


def reconcile(metrics: dict, stats: dict) -> "list[str]":
    """Cross-check aggregated /metrics against aggregated /stats.

    Both views are fed by the same ``_tally`` call sites on every node,
    so on a quiesced cluster the sums must agree exactly; a mismatch
    means an increment path bypassed one substrate.  Returns
    human-readable mismatch descriptions (empty = reconciled).
    """
    from repro.obs.prom import sample

    pairs = [
        ("received",
         sample(metrics, "bugnet_service_received_total")),
        ("accepted",
         sample(metrics, "bugnet_admission_total", outcome="accepted")),
        ("rejected",
         sample(metrics, "bugnet_admission_total", outcome="rejected")),
        ("retried",
         sample(metrics, "bugnet_admission_total", outcome="retry")),
        ("duplicates",
         sample(metrics, "bugnet_admission_total", outcome="duplicate")),
    ]
    mismatches = []
    for name, metric_total in pairs:
        stat_total = stats["counters"].get(name, 0)
        if metric_total != stat_total:
            mismatches.append(
                f"{name}: /metrics sums to {metric_total:g}, "
                f"/stats sums to {stat_total}"
            )
    store_reports = sample(metrics, "bugnet_store_reports")
    if store_reports != stats["store"]["reports"]:
        mismatches.append(
            f"store reports: /metrics gauge sums to {store_reports:g}, "
            f"/stats sums to {stats['store']['reports']}"
        )
    return mismatches


#: Idle connections of triage reads, per event loop and node address:
#: a reader polling every few tens of milliseconds would otherwise pay
#: a TCP connect and accept per node per read.
_IDLE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


async def fetch_node_buckets(member: NodeSpec) -> "dict | None":
    """One node's ``buckets`` response (with its epoch), or None.

    Reuses an idle connection to the node when one is open; one that
    went stale (the node restarted) is dropped for a fresh one."""
    idle = _IDLE.setdefault(asyncio.get_running_loop(), {}).setdefault(
        (member.host, member.port), [])
    while True:
        reused = bool(idle)
        client = idle.pop() if reused else ServiceClient(member.host,
                                                         member.port)
        try:
            response = await client.request({"op": "buckets"})
        except (ConnectionError, OSError, FrameError, asyncio.TimeoutError):
            await client.close()
            if reused:
                continue
            return None
        idle.append(client)
        return response if response.get("status") == "ok" else None


async def cluster_buckets(spec: ClusterSpec) -> "list[dict]":
    """Cluster-wide triage: per-node buckets merged by signature digest.

    Counts are **distinct upload ids**, not per-node sums — replication
    stores each accepted report on R nodes, and double-counting copies
    would rank buckets by replication factor instead of by occurrences.
    Rolled-up (evicted) counts take the per-node maximum for the same
    reason: replicas roll up the same evictions independently.

    This is the reachability-only merge; :func:`cluster_triage` is the
    quorum-read variant that excludes stale-epoch answers.
    """
    responses = await asyncio.gather(*(
        fetch_node_buckets(member) for member in spec.nodes
    ))
    return merge_buckets(
        response.get("buckets", []) for response in responses
        if response is not None
    )


def merge_buckets(per_node) -> "list[dict]":
    """Merge per-node bucket lists by signature digest (see
    :func:`cluster_buckets` for the counting rules)."""
    merged: "dict[str, dict]" = {}
    uploads: "dict[str, set]" = {}
    for node_buckets in per_node:
        if node_buckets is None:
            continue
        for bucket in node_buckets:
            digest = bucket["signature"]
            seen = uploads.setdefault(digest, set())
            seen.update(bucket.get("upload_ids", ()))
            slot = merged.get(digest)
            if slot is None:
                merged[digest] = dict(bucket)
                continue
            slot["first_seen"] = min(slot["first_seen"],
                                     bucket["first_seen"])
            slot["last_seen"] = max(slot["last_seen"], bucket["last_seen"])
            slot["rolled_up"] = max(slot.get("rolled_up", 0),
                                    bucket.get("rolled_up", 0))
            slot["racy"] = slot["racy"] or bucket["racy"]
            slot["race_pcs"] = sorted(
                set(slot.get("race_pcs", ())) | set(bucket.get("race_pcs", ()))
            )
            # The widest-window representative across replicas.
            mine, theirs = slot.get("representative"), \
                bucket.get("representative")
            if mine is None or (
                theirs is not None
                and theirs["replay_window"] > mine["replay_window"]
            ):
                slot["representative"] = theirs
    buckets = []
    for digest, slot in merged.items():
        slot["count"] = len(uploads[digest])
        slot["total_count"] = slot["count"] + slot.get("rolled_up", 0)
        slot["upload_ids"] = sorted(uploads[digest])
        buckets.append(slot)
    buckets.sort(key=lambda slot: (
        -slot["total_count"], -slot["last_seen"], slot["signature"],
    ))
    return buckets


# -- quorum reads -----------------------------------------------------------

def quorum_requirement(replication: int) -> int:
    """⌈(R+1)/2⌉ — epoch-consistent answers a cluster read requires.

    R=2 needs 2 (both replicas of any report agree on the topology),
    R=3 needs 2, R=5 needs 3: always a strict majority of a replica
    set, so two reads that both reach quorum overlap in at least one
    node and cannot disagree about an acknowledged report.
    """
    return (replication + 2) // 2


def quorum_verdict(epochs: "dict[str, int | None]",
                   replication: int) -> dict:
    """Classify per-node answers (node id → claimed epoch, None =
    unreachable) against the quorum rule.

    The quorum epoch is the **newest** observed: topology epochs only
    move forward, so any node claiming a newer epoch proves the older
    claims stale — a stale majority cannot outvote it, it can only fail
    the read until the cluster converges (which one gossip round-trip
    per stale node fixes).
    """
    known = {node_id: epoch for node_id, epoch in epochs.items()
             if isinstance(epoch, int)}
    quorum_epoch = max(known.values(), default=None)
    consistent = sorted(node_id for node_id, epoch in known.items()
                        if epoch == quorum_epoch)
    required = quorum_requirement(replication)
    return {
        "required": required,
        "epoch": quorum_epoch,
        "consistent": consistent,
        "stale": sorted(node_id for node_id, epoch in known.items()
                        if epoch != quorum_epoch),
        "unreachable": sorted(node_id for node_id, epoch in epochs.items()
                              if not isinstance(epoch, int)),
        "ok": len(consistent) >= required,
    }


def _stats_epoch(stats: "dict | None") -> "int | None":
    if stats is None:
        return None
    epoch = stats.get("cluster", {}).get("epoch", 1)
    return epoch if isinstance(epoch, int) else None


async def cluster_stats_quorum(spec: ClusterSpec) -> dict:
    """Quorum-read /stats: per-node answers, the quorum verdict, and an
    aggregate summed over the epoch-consistent nodes only."""
    per_node = await cluster_stats(spec)
    quorum = quorum_verdict(
        {node_id: _stats_epoch(stats)
         for node_id, stats in per_node.items()},
        spec.replication,
    )
    consistent = set(quorum["consistent"])
    aggregate = aggregate_stats({
        node_id: stats for node_id, stats in per_node.items()
        if node_id in consistent
    })
    aggregate["nodes"] = len(per_node)
    return {"per_node": per_node, "quorum": quorum,
            "aggregate": aggregate}


async def cluster_triage(spec: ClusterSpec) -> dict:
    """Quorum-read triage: merge buckets from epoch-consistent nodes
    only; a stale minority's answer is reported (``quorum["stale"]``)
    but never merged."""
    responses = await asyncio.gather(*(
        fetch_node_buckets(member) for member in spec.nodes
    ))
    epochs: "dict[str, int | None]" = {}
    for member, response in zip(spec.nodes, responses):
        if response is None:
            epochs[member.node_id] = None
        else:
            epoch = response.get("epoch", 1)
            epochs[member.node_id] = (
                epoch if isinstance(epoch, int) else 1
            )
    quorum = quorum_verdict(epochs, spec.replication)
    consistent = set(quorum["consistent"])
    buckets = merge_buckets(
        response.get("buckets", [])
        for member, response in zip(spec.nodes, responses)
        if response is not None and member.node_id in consistent
    )
    return {"buckets": buckets, "quorum": quorum}


async def fetch_report_blob(
    member: NodeSpec, upload_id: str,
) -> "tuple[dict, bytes] | None":
    """Pull one stored report (metadata + blob) from a node via the
    anti-entropy ``fetch-report`` op; None when unreachable/absent."""
    client = ServiceClient(member.host, member.port)
    try:
        response, body = await client.request_full(
            {"op": "fetch-report", "upload_id": upload_id}
        )
    except (ConnectionError, OSError, FrameError, asyncio.TimeoutError):
        return None
    finally:
        await client.close()
    if response.get("status") != "ok" or not body:
        return None
    return response, body


# -- planned topology change ------------------------------------------------

async def push_spec(spec: ClusterSpec,
                    members=None) -> "dict[str, bool]":
    """Push a spec epoch to members (default: all of *spec*); returns
    node id → acknowledged.  An unreachable member is fine: gossip
    epoch-stamps deliver the spec on its first contact with any peer
    that took the push."""

    async def push(member: NodeSpec) -> bool:
        client = ServiceClient(member.host, member.port)
        try:
            response = await client.request(
                {"op": "spec-update", "spec": spec.to_dict()}
            )
        except (ConnectionError, OSError, FrameError,
                asyncio.TimeoutError):
            return False
        finally:
            await client.close()
        return response.get("status") == "ok"

    members = list(spec.nodes) if members is None else list(members)
    results = await asyncio.gather(*(push(member) for member in members))
    return {member.node_id: ok
            for member, ok in zip(members, results)}


async def node_holdings(
    member: NodeSpec, ranges=None,
) -> "dict[str, str] | None":
    """upload_id → route_key held by one node (optionally restricted to
    ``(start, end]`` token *ranges*); None when unreachable."""
    client = ServiceClient(member.host, member.port)
    try:
        request: dict = {"op": "sync-digests"}
        if ranges is not None:
            request["ranges"] = [list(pair) for pair in ranges]
        response = await client.request(request)
    except (ConnectionError, OSError, FrameError, asyncio.TimeoutError):
        return None
    finally:
        await client.close()
    if response.get("status") != "ok":
        return None
    return {
        str(item["upload_id"]): str(item.get("route_key", ""))
        for item in response.get("entries", ())
        if item.get("upload_id")
    }


def _range_span(transfers) -> float:
    """Fraction of the 64-bit token space the transfers cover."""
    from repro.fleet.cluster.topology import TOKEN_SPACE

    total = 0
    for transfer in transfers:
        if transfer.start < transfer.end:
            total += transfer.end - transfer.start
        else:
            total += TOKEN_SPACE - transfer.start + transfer.end
    return total / TOKEN_SPACE


async def add_node(
    spec_path,
    node_id: str,
    host: str,
    port: int,
    start_callback=None,
    poll_interval: float = 0.25,
    timeout: float = 60.0,
) -> dict:
    """Grow the cluster by one node with zero availability dip.

    1. Mint epoch+1 with the new member **joining** (addressable, not
       routed to), write it to *spec_path*, push it to the members.
    2. *start_callback(joining_spec)* — the hook where the operator (or
       harness) starts the new node's process; CLI flow prints the
       serve command instead and the operator runs it by hand before
       invoking add-node, which also works: the push in step 1 reaches
       it then.
    3. Wait until the joining node has streamed every report in its
       remapped ranges (the ring diff's ~1/N of the keyspace) from the
       current owners — the old ring serves the whole time.
    4. Mint epoch+2 flipping the member to **active**, write + push:
       routing moves only after the data did.
    """
    spec = ClusterSpec.load(spec_path)
    joining = spec.add_member(
        NodeSpec(node_id=node_id, host=host, port=int(port),
                 status="joining")
    )
    old_ring = spec.routing_ring()
    target_ring = joining.activated(node_id).routing_ring()
    transfers = diff_rings(old_ring, target_ring, spec.replication)
    pull_ranges = ranges_gained_by(transfers, node_id)
    joining.dump(spec_path)
    await push_spec(joining, members=spec.nodes)
    if start_callback is not None:
        await start_callback(joining)
    new_member = joining.node(node_id)
    deadline = time.monotonic() + timeout
    streamed: "set[str]" = set()
    while True:
        expected: "dict[str, str]" = {}
        for member in spec.nodes:  # the *old* members hold the data
            listing = await node_holdings(member, pull_ranges)
            if listing:
                expected.update(listing)
        held = await node_holdings(new_member)
        missing = set(expected) - set(held or ())
        if held is not None and not missing:
            streamed = set(expected)
            break
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"add-node {node_id}: {len(missing)} report(s) still "
                f"unstreamed after {timeout:.0f}s "
                f"(is the new node running and gossiping?)"
            )
        await asyncio.sleep(poll_interval)
    final = joining.set_status(node_id, "active")
    final.dump(spec_path)
    pushed = await push_spec(final)
    return {
        "node": node_id,
        "epochs": {"before": spec.epoch, "joining": joining.epoch,
                   "final": final.epoch},
        "ranges": len(pull_ranges),
        "range_span": _range_span(
            [t for t in transfers if node_id in t.targets]
        ),
        "streamed": len(streamed),
        "pushed": pushed,
    }


async def decommission(
    spec_path,
    node_id: str,
    poll_interval: float = 0.25,
    timeout: float = 60.0,
) -> dict:
    """Shrink the cluster by one node with zero availability dip.

    1. Mint epoch+1 with the member **draining**: it leaves the routing
       ring immediately (new writes route to the successors; an upload
       that still lands on it is forwarded), but keeps serving reads
       and anti-entropy fetches.
    2. Wait until every report it holds is fully replicated under the
       *new* ring: each route-keyed report on all of its new preference
       list, each route-less report on at least one surviving active.
    3. Mint epoch+2 dropping the member and push it to the survivors.
       The dropped node is deliberately **not** told: a spec without
       itself is unadoptable (see ``ClusterNodeService._adopt_spec``),
       so it keeps answering with its stale epoch until the operator
       stops the process — which is exactly what quorum reads flag.
    """
    spec = ClusterSpec.load(spec_path)
    member = spec.node(node_id)
    if member.status != "active":
        raise ValueError(
            f"cannot decommission {node_id!r}: status is "
            f"{member.status!r}, not active"
        )
    try:
        draining = spec.set_status(node_id, "draining")
    except ValueError as error:
        raise ValueError(
            f"cannot decommission {node_id!r}: {error}"
        ) from error
    old_ring = spec.routing_ring()
    new_ring = draining.routing_ring()
    transfers = diff_rings(old_ring, new_ring, spec.replication)
    draining.dump(spec_path)
    await push_spec(draining)
    survivors = [m for m in draining.nodes
                 if m.node_id != node_id and m.status == "active"]
    deadline = time.monotonic() + timeout
    drained = 0
    while True:
        held = await node_holdings(member)
        if held is None:
            raise RuntimeError(
                f"decommission {node_id}: node unreachable while "
                f"draining — its reports cannot be confirmed replicated"
            )
        holdings: "dict[str, set]" = {}
        for survivor in survivors:
            listing = await node_holdings(survivor)
            holdings[survivor.node_id] = set(listing or ())
        missing = []
        for upload_id, route_key in held.items():
            if route_key:
                owners = new_ring.preference_list(
                    route_key, draining.replication
                )
                ok = all(upload_id in holdings.get(owner, ())
                         for owner in owners)
            else:
                ok = any(upload_id in ids for ids in holdings.values())
            if not ok:
                missing.append(upload_id)
        if not missing:
            drained = len(held)
            break
        if time.monotonic() >= deadline:
            raise TimeoutError(
                f"decommission {node_id}: {len(missing)} report(s) not "
                f"yet replicated off the draining node after "
                f"{timeout:.0f}s"
            )
        await asyncio.sleep(poll_interval)
    final = draining.drop_member(node_id)
    final.dump(spec_path)
    pushed = await push_spec(final)
    return {
        "node": node_id,
        "epochs": {"before": spec.epoch, "draining": draining.epoch,
                   "final": final.epoch},
        "ranges": len(transfers),
        "range_span": _range_span(transfers),
        "drained": drained,
        "pushed": pushed,
    }
