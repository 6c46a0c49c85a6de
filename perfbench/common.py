"""Pieces the three workloads share: the closed-loop upload client,
operation accounting, correctness checks and the metric helpers."""

from __future__ import annotations

import asyncio
import math
import os
import resource
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.fleet.loadsim import ServiceClient
from repro.fleet.wire import FrameError


@dataclass
class Outcome:
    """Everything one workload run reports."""

    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    ops: dict = field(default_factory=dict)       # op -> [attempted, failed]
    checks: list = field(default_factory=list)    # (name, ok, detail)

    def count(self, op: str, failed: bool = False) -> None:
        tally = self.ops.setdefault(op, [0, 0])
        tally[0] += 1
        tally[1] += int(failed)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (the rank ``ceil(fraction * n)``)."""
    ordered = sorted(values)
    rank = max(math.ceil(fraction * len(ordered)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


def tree_bytes(*roots) -> int:
    """Bytes of every file under *roots* (blobs, indexes, rollups,
    store metadata, admit cache)."""
    total = 0
    for root in roots:
        for directory, _dirs, files in os.walk(root):
            for name in files:
                try:
                    total += os.path.getsize(os.path.join(directory, name))
                except OSError:
                    pass  # a temp file replaced while walking
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: An upload not acked after this many seconds (retries included) is
#: failed.
ACK_LIMIT = 30.0


@dataclass
class Upload:
    bug: str
    label: str
    blob: bytes
    upload_id: str
    slot: int = 0               # which node a multi-node client picks


class UploadLoop:
    """A closed-loop client with two connections in lockstep: uploads go
    out two at a time, one per connection, and the next two leave only
    when both are acked.

    The feed yields groups of :class:`Upload` (a crash burst, or one
    pair); once *deadline* has passed no new group starts, so every run
    uploads whole groups.  Lockstep keeps the concurrency pattern the
    same from run to run: the first two uploads of a burst are always in
    flight together.  *between*, if given, is awaited after each group,
    with no upload in flight; the time it takes is left out of the
    loop's elapsed time and added to its deadline.
    """

    connections = 2

    def __init__(self, feed, deadline: float, outcome: Outcome) -> None:
        self.feed = feed
        self.deadline = deadline
        self.outcome = outcome
        self.latencies: "list[float]" = []
        self.sent: "Counter[str]" = Counter()
        self.acked: "Counter[str]" = Counter()
        self.accepted_ids: "list[str]" = []
        self.failures: "list[str]" = []
        self.groups = 0
        self.elapsed = 0.0
        self.paused = 0.0
        self.done = False

    async def _send(self, clients: dict, upload: Upload, pick_target):
        target = pick_target(upload)
        client = clients.get(target)
        if client is None:
            client = clients[target] = ServiceClient(*target)
        self.sent[upload.bug] += 1
        start = time.perf_counter()
        try:
            response = await asyncio.wait_for(
                self._upload(client, upload), ACK_LIMIT)
        except (ConnectionError, OSError, FrameError,
                asyncio.TimeoutError) as error:
            await client.close()
            response = {"status": "failed",
                        "reason": str(error) or type(error).__name__}
        accepted = response.get("status") == "accepted"
        self.outcome.count("upload", failed=not accepted)
        if accepted:
            self.latencies.append(time.perf_counter() - start)
            self.acked[upload.bug] += 1
            self.accepted_ids.append(upload.upload_id)
        else:
            self.failures.append(f"{upload.upload_id}: "
                                 f"{response.get('status')} "
                                 f"{response.get('reason', '')}")

    @staticmethod
    async def _upload(client, upload: Upload) -> dict:
        response = await client.upload(
            upload.label, upload.blob, upload.upload_id)
        while response.get("status") == "retry":
            await asyncio.sleep(0.005)
            response = await client.upload(
                upload.label, upload.blob, upload.upload_id)
        return response

    async def run(self, pick_target, between=None) -> None:
        connections = [{} for _ in range(self.connections)]
        started = time.perf_counter()
        try:
            for group in self.feed:
                if time.perf_counter() >= self.deadline:
                    break
                for first in range(0, len(group), self.connections):
                    await asyncio.gather(*(
                        self._send(clients, upload, pick_target)
                        for clients, upload in zip(
                            connections,
                            group[first:first + self.connections])))
                self.groups += 1
                if between is not None:
                    start = time.perf_counter()
                    await between()
                    paused = time.perf_counter() - start
                    self.paused += paused
                    self.deadline += paused
        finally:
            self.elapsed = time.perf_counter() - started - self.paused
            self.done = True
            for clients in connections:
                for client in clients.values():
                    await client.close()

    def end_to_end(self) -> dict:
        return {
            "reports_per_s": (len(self.latencies) / self.elapsed,
                              "reports/s"),
            "ack_p50_ms": (percentile(self.latencies, 0.50) * 1e3, "ms"),
            "ack_p90_ms": (percentile(self.latencies, 0.90) * 1e3, "ms"),
        }
