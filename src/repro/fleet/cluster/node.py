"""One member of a ``bugnet serve`` cluster: :class:`ClusterNodeService`.

A cluster node is a :class:`~repro.fleet.service.FleetService` plus
five responsibilities, each riding the existing wire protocol as new
ops (all protocol v1 — an old standalone client can still upload to a
cluster node directly):

* **Forwarding** (``fwd``-flagged uploads): a misdirected upload —
  one whose route digest this node does not own *under the current
  epoch's routing ring* — is proxied to a live owner and the owner's
  ack relayed back, never rejected.  The client does not need to know
  the topology to be served correctly; ring routing on the client
  (:mod:`~repro.fleet.cluster.router`) is an optimization, not a
  requirement.  Joining and draining members own nothing, so they
  forward everything — which is exactly what keeps the *old* ring
  serving while a topology change streams data around.
* **Synchronous replication** (``replicate``): the coordinator commits
  locally, then pushes the validated blob + metadata to every *live*
  node of the report's preference list before releasing the ack — so a
  kill -9 of any single node after an ack cannot lose the report.
  Replicas commit without re-validating (the coordinator already
  replayed the report; replication is a durability copy, idempotent
  via ``upload_id``).
* **Epoch agreement** (``spec-update`` + the ``epoch`` header field):
  every peer-to-peer op is stamped with the sender's topology epoch.
  A mismatch is *refused* with a structured ``stale-epoch`` response
  instead of served under the wrong ring — the newer side's spec rides
  the refusal (or a follow-up ``spec-update`` push), the stale side
  adopts and persists it, and the op retries under the agreed epoch.
  One round-trip heals any staleness; silent mis-routing is impossible
  (DESIGN.md §14).
* **Gossip** (``gossip``): heartbeat-counter exchange driving the
  liveness view (:class:`~repro.fleet.cluster.topology.GossipState`).
  Routing, replication and anti-entropy all consult it; epoch stamps
  on gossip frames make it double as topology-change propagation.
* **Anti-entropy / handoff / range streaming** (``sync-digests`` +
  ``fetch-report``): a periodic pull loop asks peers for their entry
  summaries and fetches whatever this node should hold but does not —
  how a rejoining node catches up, how a surviving node absorbs a dead
  peer's range, and (new) how a **joining** node streams its future
  vpoint ranges in *before* the routing flip: ``sync-digests`` accepts
  the exact ``(start, end]`` token ranges the ring diff remapped, so
  the stream moves only what the new topology needs.  Retention
  compaction (:meth:`~repro.fleet.store.ReportStore.compact`) folds
  into the same loop.

Every committed entry carries a non-empty ``upload_id``: the client's
token when given, else ``blob-<sha256(body)[:24]>`` synthesized by the
first node that touches the upload.  That single identity is what
makes replication, retries *through different nodes*, anti-entropy,
and topology-change streaming all collapse into "commit if absent" —
no vector clocks needed for an immutable-blob store.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
from operator import attrgetter
from pathlib import Path

from repro.fleet.admitcache import CachedOutcome, blob_fingerprint
from repro.fleet.cluster.topology import (
    ClusterSpec,
    GossipState,
    diff_rings,
    ranges_gained_by,
)
from repro.fleet.loadsim import ServiceClient
from repro.fleet.service import FleetService, ServiceConfig
from repro.fleet.triage import build_buckets
from repro.fleet.validate import ResolverSpec, route_key_of_blob
from repro.fleet.wire import header_epoch, is_stale_epoch, stale_epoch_error
from repro.obs import REGISTRY

_FORWARDED = REGISTRY.counter(
    "bugnet_cluster_forwarded_total",
    "Misdirected uploads proxied to their owner node.",
)
_REPLICATED = REGISTRY.counter(
    "bugnet_cluster_replicated_total",
    "Replication copies, by direction (out = pushed to peers, "
    "in = committed from a peer's push).",
    ("direction",),
)
_GOSSIP_ROUNDS = REGISTRY.counter(
    "bugnet_cluster_gossip_rounds_total",
    "Completed gossip fan-outs.",
)
_HANDOFF = REGISTRY.counter(
    "bugnet_cluster_handoff_reports_total",
    "Reports pulled by anti-entropy (rejoin catch-up, dead-node range "
    "handoff, and topology-change range streaming).",
)
_SPEC_UPDATES = REGISTRY.counter(
    "bugnet_cluster_spec_updates_total",
    "Cluster-spec epochs adopted (topology changes applied).",
)
_STALE_EPOCHS = REGISTRY.counter(
    "bugnet_cluster_stale_epoch_total",
    "Epoch mismatches on cluster ops (each refused, then healed by a "
    "spec push).",
)

#: Peer-to-peer ops that are refused under an epoch mismatch.  Client
#: ops (``upload``, ``stats``, ...) carry no epoch and are always
#: served: an upload is routed under the *receiver's* ring either way,
#: and bouncing a client over topology it cannot know about would
#: trade an internal refresh for external unavailability.
_EPOCH_GATED_OPS = frozenset(
    {"gossip", "replicate", "sync-digests", "fetch-report", "buckets"}
)
_UPLOAD_ID = attrgetter("upload_id")


class ClusterNodeService(FleetService):
    """A FleetService that owns a range of the node ring."""

    def __init__(
        self,
        store_root,
        resolver_spec: ResolverSpec,
        spec: ClusterSpec,
        node_id: str,
        config: "ServiceConfig | None" = None,
        gossip_interval: float = 0.3,
        anti_entropy_interval: float = 1.0,
        fail_after: float = 2.0,
        **store_kwargs,
    ) -> None:
        spec.node(node_id)  # raises on an id not in the spec
        # A node that adopted a newer epoch before a restart must not
        # resurrect the seed file's stale topology: the persisted copy
        # (written on every adoption) wins by epoch.
        persisted = self._load_persisted_spec(store_root)
        if (persisted is not None and persisted.epoch > spec.epoch
                and persisted.has_node(node_id)):
            spec = persisted
        # Cluster nodes listen where the spec says, unless the caller
        # overrides (tests bind port 0 and patch the spec afterwards).
        if config is None:
            member = spec.node(node_id)
            config = ServiceConfig(host=member.host, port=member.port)
        super().__init__(store_root, resolver_spec, config, **store_kwargs)
        self.spec = spec
        self.node_id = node_id
        self.gossip = GossipState(
            self_id=node_id, node_ids=spec.node_ids, fail_after=fail_after,
        )
        self._rebuild_topology()
        self.gossip_interval = gossip_interval
        self.anti_entropy_interval = anti_entropy_interval
        self._peer_clients: "dict[str, ServiceClient]" = {}
        self._peer_locks: "dict[str, asyncio.Lock]" = {}
        self._cluster_tasks: "list[asyncio.Task]" = []
        self.cluster_counters = {
            "forwarded": 0,
            "replicated_out": 0,
            "replicated_in": 0,
            "gossip_rounds": 0,
            "handoff_reports": 0,
            "spec_updates": 0,
            "stale_epochs": 0,
        }

    # -- topology -----------------------------------------------------------

    @staticmethod
    def _spec_path(store_root) -> Path:
        return Path(store_root) / "cluster.json"

    @classmethod
    def _load_persisted_spec(cls, store_root) -> "ClusterSpec | None":
        path = cls._spec_path(store_root)
        if not path.exists():
            return None
        try:
            return ClusterSpec.load(path)
        except ValueError:
            # A torn write cannot be allowed to wedge a restart; the
            # seed spec still works and gossip re-delivers the newest
            # epoch on the first exchange.
            return None

    def _persist_spec(self) -> None:
        path = self._spec_path(self.store_root)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp = path.with_name(path.name + ".tmp")
            self.spec.dump(tmp)
            tmp.replace(path)
        except OSError:
            pass  # persistence is an optimization; gossip re-heals

    def _rebuild_topology(self) -> None:
        """Derive routing state from ``self.spec``: the active routing
        ring, this member's status, and — while joining — the target
        ring plus the exact token ranges to stream in."""
        self.ring = self.spec.routing_ring()
        me = self.spec.node(self.node_id)
        self.status = me.status
        if me.status == "joining":
            self.target_ring = self.spec.activated(
                self.node_id
            ).routing_ring()
            self.pull_ranges = ranges_gained_by(
                diff_rings(self.ring, self.target_ring,
                           self.spec.replication),
                self.node_id,
            )
        else:
            self.target_ring = None
            self.pull_ranges = None

    def _adopt_spec(self, new_spec: ClusterSpec) -> bool:
        """Switch to a newer topology epoch; returns whether adopted.

        The final decommission epoch no longer lists this node — that
        spec is *not* adopted: the dropped member keeps its draining
        view (out of the ring, serving reads and fetches) until the
        operator stops the process, instead of ending up with a
        topology it cannot place itself in.
        """
        if new_spec.epoch <= self.spec.epoch:
            return False
        if not new_spec.has_node(self.node_id):
            return False
        old_spec = self.spec
        self.spec = new_spec
        self._rebuild_topology()
        self.gossip.update_members(new_spec.node_ids)
        for peer_id in list(self._peer_clients):
            stale = not new_spec.has_node(peer_id)
            if not stale:
                # An address change across epochs invalidates the
                # cached connection even though the id survives.
                old = old_spec.node(peer_id) if old_spec.has_node(
                    peer_id) else None
                new = new_spec.node(peer_id)
                stale = old is None or (old.host, old.port) != (
                    new.host, new.port)
            if stale:
                client = self._peer_clients.pop(peer_id)
                self._peer_locks.pop(peer_id, None)
                try:
                    asyncio.get_running_loop().create_task(client.close())
                except RuntimeError:
                    pass  # not on the loop (startup): nothing connected
        self._persist_spec()
        self._bump("spec_updates", _SPEC_UPDATES)
        return True

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "tuple[str, int]":
        host, port = await super().start()
        # Persist the adopted epoch beside the store so a restart
        # cannot regress to the seed file's topology.
        self._persist_spec()
        loop = asyncio.get_running_loop()
        for lap in (self._gossip_loop, self._anti_entropy_loop):
            task = loop.create_task(lap())
            self._cluster_tasks.append(task)
        return host, port

    async def stop(self, drain: bool = True) -> None:
        for task in self._cluster_tasks:
            task.cancel()
        if self._cluster_tasks:
            await asyncio.gather(*self._cluster_tasks,
                                 return_exceptions=True)
        self._cluster_tasks.clear()
        await super().stop(drain=drain)
        for client in self._peer_clients.values():
            await client.close()
        self._peer_clients.clear()

    # -- peer plumbing ------------------------------------------------------

    def _bump(self, name: str, metric=None, amount: int = 1) -> None:
        self.cluster_counters[name] += amount
        if metric is not None:
            metric.inc(amount)

    async def _peer_call(
        self, peer_id: str, header: dict, body: bytes = b"",
        want_body: bool = False,
        heal: bool = True,
    ):
        """One request to a peer over its persistent connection, epoch-
        stamped.

        Returns the response header (or ``(header, body)`` with
        *want_body*); ``None`` on any transport failure, which also
        marks the peer dead — routing and replication immediately stop
        counting on it, long before the heartbeat window expires.

        A ``stale-epoch`` refusal is healed in-line (adopt the peer's
        newer spec, or push ours to the stale peer) and the op retried
        once under the agreed epoch; *heal* guards the recursion.
        """
        try:
            member = self.spec.node(peer_id)
        except KeyError:
            return None  # peer left the topology mid-iteration
        client = self._peer_clients.get(peer_id)
        if client is None:
            client = ServiceClient(member.host, member.port,
                                   max_frame=self.config.max_frame)
            self._peer_clients[peer_id] = client
        stamped = {**header, "epoch": self.spec.epoch}
        lock = self._peer_locks.setdefault(peer_id, asyncio.Lock())
        async with lock:
            try:
                response, response_body = await client.request_full(
                    stamped, body
                )
            except Exception:
                # ConnectionError, OSError, IncompleteReadError,
                # FrameError: any failure means the connection is
                # unusable.  (CancelledError is BaseException and
                # propagates.)
                await client.close()
                self.gossip.mark_dead(peer_id)
                return None
        # A successful round-trip is direct proof of life.
        self.gossip.touch(peer_id)
        if heal and is_stale_epoch(response):
            if await self._heal_epoch(peer_id, response):
                return await self._peer_call(
                    peer_id, header, body, want_body=want_body, heal=False,
                )
        return (response, response_body) if want_body else response

    async def _heal_epoch(self, peer_id: str, response: dict) -> bool:
        """Converge with a peer that refused an op over epochs; returns
        whether a retry is worthwhile."""
        self._bump("stale_epochs", _STALE_EPOCHS)
        spec_raw = response.get("spec")
        if isinstance(spec_raw, dict):
            # The peer is ahead and sent its topology: adopt it.
            try:
                newer = ClusterSpec.from_dict(spec_raw)
            except (KeyError, TypeError, ValueError):
                return False
            return self._adopt_spec(newer)
        peer_epoch = response.get("epoch")
        if isinstance(peer_epoch, int) and peer_epoch < self.spec.epoch:
            # The peer is behind: push our spec, then retry the op.
            pushed = await self._peer_call(
                peer_id,
                {"op": "spec-update", "spec": self.spec.to_dict()},
                heal=False,
            )
            return pushed is not None and pushed.get("status") == "ok"
        return False

    def _preference_list(self, route_key: str,
                         alive: "set[str] | None" = None) -> "list[str]":
        return self.ring.preference_list(
            route_key, self.spec.replication, alive=alive,
        )

    def _owns_now(self, route_key: str) -> bool:
        """Whether this node belongs in a report's replica set under
        the *current* routing ring — either statically (a provisioned
        owner) or because dead owners pushed the alive-filtered walk
        onto it (degraded-mode range handoff).  Joining and draining
        members are not on the ring and own nothing."""
        if not route_key:
            return True  # no routing identity: wherever it landed
        if self.node_id in self._preference_list(route_key):
            return True
        alive = self.gossip.alive()
        return self.node_id in self._preference_list(route_key, alive=alive)

    def _should_hold(self, route_key: str) -> bool:
        """Whether anti-entropy should pull a report here: everything
        the node owns now, plus — while joining — everything it will
        own once the flip commits (the streamed ranges).  A draining
        member absorbs nothing new: it is handing its data off."""
        if not route_key:
            return True
        if self.status == "draining":
            return False
        if self._owns_now(route_key):
            return True
        return (
            self.target_ring is not None
            and self.node_id in self.target_ring.preference_list(
                route_key, self.spec.replication,
            )
        )

    # -- upload path: forwarding + replication ------------------------------

    async def _handle_upload(self, header: dict, body: bytes) -> dict:
        if not str(header.get("upload_id", "")) and body:
            # Synthesize the idempotency token from the blob before
            # anything else: the same bytes retried through a
            # *different* node must still dedup, and replication/
            # anti-entropy key on this id.
            header = {
                **header,
                "upload_id":
                    "blob-" + hashlib.sha256(body).hexdigest()[:24],
            }
        upload_id = str(header.get("upload_id", ""))
        already_local = (
            upload_id and self.store.entry_for_upload(upload_id) is not None
        )
        if body and not header.get("fwd") and not already_local:
            # Decode off the event loop: the route key costs a blob
            # decompression, and this path runs for every upload.
            loop = asyncio.get_running_loop()
            route_key = await loop.run_in_executor(
                None, route_key_of_blob, body
            )
            if route_key is not None and not self._owns_now(route_key):
                targets = self._preference_list(
                    route_key, alive=self.gossip.alive()
                )
                forwarded = {**header, "fwd": self.node_id}
                for peer_id in targets:
                    if peer_id == self.node_id:
                        continue
                    response = await self._peer_call(
                        peer_id, forwarded, body
                    )
                    if response is not None and not is_stale_epoch(
                        response
                    ):
                        self._bump("forwarded", _FORWARDED)
                        response.setdefault("via", self.node_id)
                        return response
                # Every owner unreachable: coordinate locally rather
                # than bounce the client — anti-entropy moves the
                # report to its owners once they return.
        return await super()._handle_upload(header, body)

    async def _post_commit(self, batch, entries) -> "list[dict]":
        """Synchronous replication: after the local durable commit,
        push each report to the live members of its preference list;
        the ack waits for every live replica's confirmation."""
        extras = []
        alive = self.gossip.alive()
        for (admitted, validated), entry in zip(batch, entries):
            replicas = [self.node_id]
            targets = self._preference_list(entry.route_key, alive=alive) \
                if entry.route_key else []
            pushes = [
                self._replicate_to(peer_id, entry, validated)
                for peer_id in targets if peer_id != self.node_id
            ]
            for peer_id, ok in zip(
                [p for p in targets if p != self.node_id],
                await asyncio.gather(*pushes) if pushes else [],
            ):
                if ok:
                    replicas.append(peer_id)
            extras.append({"node": self.node_id, "replicas": replicas})
        return extras

    async def _replicate_to(self, peer_id: str, entry, validated) -> bool:
        signature = validated.signature
        response = await self._peer_call(peer_id, {
            "op": "replicate",
            "digest": entry.digest,
            "upload_id": entry.upload_id,
            "observed_at": entry.observed_at,
            "replay_window": entry.replay_window,
            "fault_kind": entry.fault_kind,
            "program_name": entry.program_name,
            "race_pcs": list(entry.race_pcs),
            "route_key": entry.route_key,
            # Additive (an older node ignores them): the rest of the
            # signature preimage, committed with the replica's copy so
            # its admit cache holds the report too and a duplicate
            # hitting *any* replica commits without replay (DESIGN.md
            # §13).
            "fault_pc": signature.fault_pc,
            "tail_pcs": list(signature.tail_pcs),
        }, validated.blob)
        ok = response is not None and response.get("status") == "ok"
        if ok:
            self._bump("replicated_out", _REPLICATED.labels("out"))
        return ok

    # -- cluster ops --------------------------------------------------------

    async def _handle_message(self, header: dict, body: bytes) -> dict:
        op = header.get("op")
        if op == "spec-update":
            return self._handle_spec_update(header)
        if op == "cluster-info":
            # Always answered, whatever the caller's epoch: this is the
            # refresh endpoint, and it carries the full spec.
            return {
                "status": "ok",
                "epoch": self.spec.epoch,
                "cluster": self._cluster_view(),
                "spec": self.spec.to_dict(),
            }
        claimed = header_epoch(header)
        if (claimed is not None and op in _EPOCH_GATED_OPS
                and claimed != self.spec.epoch):
            # Refuse rather than serve under mismatched rings.  If the
            # sender is behind, our spec rides the refusal so one
            # round-trip heals it; if *we* are behind, the bare refusal
            # tells the sender to push its spec (see _heal_epoch).
            self._bump("stale_epochs", _STALE_EPOCHS)
            if claimed < self.spec.epoch:
                return stale_epoch_error(self.spec.epoch,
                                         self.spec.to_dict())
            return stale_epoch_error(self.spec.epoch)
        if op == "gossip":
            return self._handle_gossip(header)
        if op == "replicate":
            return await self._handle_replicate(header, body)
        if op == "sync-digests":
            return self._handle_sync_digests(header)
        if op == "fetch-report":
            return await self._handle_fetch_report(header)
        if op == "buckets":
            return self._handle_buckets()
        return await super()._handle_message(header, body)

    def _handle_spec_update(self, header: dict) -> dict:
        raw = header.get("spec")
        if not isinstance(raw, dict):
            self._tally("protocol_errors")
            return {"status": "error",
                    "reason": "spec-update needs a spec object"}
        try:
            pushed = ClusterSpec.from_dict(raw)
        except (KeyError, TypeError, ValueError) as error:
            self._tally("protocol_errors")
            return {"status": "error",
                    "reason": f"bad cluster spec: {error}"}
        adopted = self._adopt_spec(pushed)
        return {"status": "ok", "adopted": adopted,
                "epoch": self.spec.epoch}

    def _handle_gossip(self, header: dict) -> dict:
        peer_id = header.get("from")
        counters = header.get("counters")
        if isinstance(counters, dict):
            self.gossip.observe({
                str(node): int(count)
                for node, count in counters.items()
                if isinstance(count, int)
            })
        if isinstance(peer_id, str):
            self.gossip.touch(peer_id)
        return {"status": "ok", "from": self.node_id,
                "epoch": self.spec.epoch,
                "counters": self.gossip.snapshot()}

    async def _handle_replicate(self, header: dict, body: bytes) -> dict:
        upload_id = str(header.get("upload_id", ""))
        digest = str(header.get("digest", ""))
        if not body or not upload_id or not digest:
            self._tally("protocol_errors")
            return {"status": "error",
                    "reason": "replicate needs digest, upload_id and body"}
        existing = self.store.entry_for_upload(upload_id)
        if existing is not None:
            return {"status": "ok", "duplicate": True, "seq": existing.seq}
        outcome = (_replicated_outcome(header, body)
                   if self.admit_cache is not None else None)
        loop = asyncio.get_running_loop()
        entry = await loop.run_in_executor(None, functools.partial(
            self.store.add,
            digest,
            body,
            replay_window=int(header.get("replay_window", 0)),
            fault_kind=str(header.get("fault_kind", "")),
            program_name=str(header.get("program_name", "")),
            observed_at=header.get("observed_at"),
            upload_id=upload_id,
            race_pcs=tuple(header.get("race_pcs", ()) or ()),
            route_key=str(header.get("route_key", "")),
            fault_pc=outcome.fault_pc if outcome is not None else None,
            tail_pcs=outcome.tail_pcs if outcome is not None else (),
        ))
        self._bump("replicated_in", _REPLICATED.labels("in"))
        if outcome is not None and self.admit_cache is not None:
            # In memory only: the commit above persisted the preimage,
            # which is all a restart needs to rebuild the entry.
            self.admit_cache.seed_entry(outcome)
        return {"status": "ok", "duplicate": False, "seq": entry.seq}

    def _handle_sync_digests(self, header: dict) -> dict:
        ranges = header.get("ranges")
        if ranges is not None:
            try:
                entries = self.store.entries_in_token_ranges(ranges)
            except (TypeError, ValueError, IndexError):
                self._tally("protocol_errors")
                return {"status": "error",
                        "reason": "ranges must be [start, end] pairs"}
        else:
            entries = self.store.entries()
        return {
            "status": "ok",
            "from": self.node_id,
            "epoch": self.spec.epoch,
            "entries": [
                {
                    "upload_id": entry.upload_id,
                    "digest": entry.digest,
                    "route_key": entry.route_key,
                    "observed_at": entry.observed_at,
                }
                for entry in entries
                if entry.upload_id
            ],
        }

    async def _handle_fetch_report(self, header: dict) -> dict:
        upload_id = str(header.get("upload_id", ""))
        entry = self.store.entry_for_upload(upload_id)
        if entry is None:
            return {"status": "error", "reason": "no such upload_id"}
        loop = asyncio.get_running_loop()
        try:
            blob = await loop.run_in_executor(
                None, self.store.path_of(entry).read_bytes
            )
        except OSError as error:
            return {"status": "error", "reason": f"blob unreadable: {error}"}
        # Body rides back beside the metadata, the same framing uploads
        # use in the other direction.
        return {
            "status": "ok",
            "digest": entry.digest,
            "upload_id": entry.upload_id,
            "observed_at": entry.observed_at,
            "replay_window": entry.replay_window,
            "fault_kind": entry.fault_kind,
            "program_name": entry.program_name,
            "race_pcs": list(entry.race_pcs),
            "route_key": entry.route_key,
            "_body": blob,
        }

    def _handle_buckets(self) -> dict:
        """Per-node triage buckets for cluster-wide merge: signature
        digest plus the distinct upload ids behind each count, so the
        cluster view can dedup replica copies.  The epoch rides along
        for quorum reads: a partitioned or dropped member keeps
        answering, but its stale epoch flags the answer instead of
        letting it pollute the merge."""
        buckets = []
        for bucket in build_buckets(self.store):
            payload = bucket.to_dict()
            payload["upload_ids"] = sorted(
                filter(None, map(_UPLOAD_ID, bucket.entries)))
            buckets.append(payload)
        return {"status": "ok", "node": self.node_id,
                "epoch": self.spec.epoch, "buckets": buckets}

    # -- background loops ---------------------------------------------------

    async def _gossip_loop(self) -> None:
        while True:
            try:
                await asyncio.sleep(self.gossip_interval)
                self.gossip.beat()
                frame = {
                    "op": "gossip",
                    "from": self.node_id,
                    "counters": self.gossip.snapshot(),
                }
                responses = await asyncio.gather(*(
                    self._peer_call(member.node_id, dict(frame))
                    for member in self.spec.peers_of(self.node_id)
                ))
                for response in responses:
                    if response and isinstance(
                        response.get("counters"), dict
                    ):
                        self._handle_gossip(response)
                self._bump("gossip_rounds", _GOSSIP_ROUNDS)
            except asyncio.CancelledError:
                raise
            except Exception:
                # A gossip round must never kill the loop; the next
                # tick retries everything.
                continue

    async def _anti_entropy_loop(self) -> None:
        while True:
            try:
                await asyncio.sleep(self.anti_entropy_interval)
                await self.anti_entropy_round()
                if self.store.retention_window is not None:
                    loop = asyncio.get_running_loop()
                    await loop.run_in_executor(None, self.store.compact)
            except asyncio.CancelledError:
                raise
            except Exception:
                continue

    async def anti_entropy_round(self) -> int:
        """Pull every report this node should hold but does not from
        live peers; returns the number fetched.  Public so tests and
        the harness can force convergence instead of sleeping.

        A joining member narrows the peer listing to the exact token
        ranges the ring diff remapped to it (``sync-digests`` range
        filter), so the pre-flip stream moves ~1/N of the keyspace,
        not N copies of everything.  A draining member pulls nothing.
        """
        if self.status == "draining":
            return 0
        alive = self.gossip.alive()
        request: dict = {"op": "sync-digests"}
        if self.status == "joining" and self.pull_ranges is not None:
            request["ranges"] = self.pull_ranges
        fetched = 0
        for member in self.spec.peers_of(self.node_id):
            if member.node_id not in alive:
                continue
            summary = await self._peer_call(member.node_id, dict(request))
            if not summary or summary.get("status") != "ok":
                continue
            for item in summary.get("entries", ()):
                upload_id = str(item.get("upload_id", ""))
                route_key = str(item.get("route_key", ""))
                if not upload_id or not route_key:
                    continue
                if not self._should_hold(route_key):
                    continue
                if self.store.entry_for_upload(upload_id) is not None:
                    continue
                if await self._fetch_from(member.node_id, upload_id):
                    fetched += 1
        return fetched

    async def _fetch_from(self, peer_id: str, upload_id: str) -> bool:
        result = await self._peer_call(
            peer_id, {"op": "fetch-report", "upload_id": upload_id},
            want_body=True,
        )
        if result is None:
            return False
        response, blob = result
        if response.get("status") != "ok" or not blob:
            return False
        if self.store.entry_for_upload(upload_id) is not None:
            return True  # raced another pull; already durable
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, functools.partial(
            self.store.add,
            str(response.get("digest", "")),
            blob,
            replay_window=int(response.get("replay_window", 0)),
            fault_kind=str(response.get("fault_kind", "")),
            program_name=str(response.get("program_name", "")),
            observed_at=response.get("observed_at"),
            upload_id=upload_id,
            race_pcs=tuple(response.get("race_pcs", ()) or ()),
            route_key=str(response.get("route_key", "")),
        ))
        self._bump("handoff_reports", _HANDOFF)
        return True

    # -- stats --------------------------------------------------------------

    def _cluster_view(self) -> dict:
        return {
            "node": self.node_id,
            "epoch": self.spec.epoch,
            "status": self.status,
            "replication": self.spec.replication,
            "members": list(self.spec.node_ids),
            "active": list(self.spec.active_ids),
            "alive": sorted(self.gossip.alive()),
            "counters": dict(self.cluster_counters),
        }

    def stats(self) -> dict:
        payload = super().stats()
        payload["cluster"] = self._cluster_view()
        return payload


def _replicated_outcome(header: dict, body: bytes) -> "CachedOutcome | None":
    """The validated outcome a replicate push carries (the
    coordinator's signature preimage), or ``None`` when it carries none
    or one that does not hash to the pushed digest — cache hits would
    then diverge from the replicated copy."""
    if "tail_pcs" not in header:
        return None
    try:
        outcome = CachedOutcome(
            fingerprint=blob_fingerprint(body),
            program_name=str(header.get("program_name", "")),
            fault_kind=str(header.get("fault_kind", "")),
            fault_pc=int(header["fault_pc"]),
            tail_pcs=tuple(int(pc) for pc in header["tail_pcs"]),
            race_pcs=tuple(int(pc) for pc in header.get("race_pcs") or ()),
            instructions=int(header.get("replay_window", 0)),
            route_key=str(header.get("route_key", "")),
        )
    except (KeyError, TypeError, ValueError):
        return None
    if outcome.digest != str(header.get("digest", "")):
        return None
    return outcome
