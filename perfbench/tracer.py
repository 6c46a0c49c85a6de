"""Span recording for the traced run (``--trace 1``).

Spans are recorded by the benchmark's own code: :func:`install` wraps
public functions of each layer in place (module attributes and class
methods) for the duration of a traced run, and :meth:`Tracer.restore`
puts the originals back.  Nothing inside ``src/`` knows about it.

Each span has a name, start, end, parent and a key; spans of one upload
or report share the key (the upload id or label, or the blob's
fingerprint where the wrapped call sees only the blob).  Parents follow
``contextvars``, so they are exact within one asyncio task or thread;
work the program hands to an executor thread starts a new root there.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

_CURRENT: "contextvars.ContextVar[int | None]" = contextvars.ContextVar(
    "perfbench_span", default=None)


class Tracer:
    """Collects spans; one per traced run."""

    def __init__(self) -> None:
        self.spans: "list[dict]" = []
        self._next_id = 0
        self._restore: "list[tuple[object, str, object]]" = []

    @contextmanager
    def span(self, name: str, key: str = "", **attrs):
        """Record one span around the ``with`` body; yields its dict so
        the caller can attach attributes (registry deltas, byte counts)."""
        self._next_id += 1
        record = {"id": self._next_id, "parent": _CURRENT.get(),
                  "name": name, "key": key, "start": time.perf_counter(),
                  "end": 0.0}
        record.update(attrs)
        token = _CURRENT.set(record["id"])
        try:
            yield record
        finally:
            _CURRENT.reset(token)
            record["end"] = time.perf_counter()
            self.spans.append(record)

    # -- wrapping ------------------------------------------------------------

    def _traced(self, function, name: str, key_of, attrs_of=None):
        if inspect.iscoroutinefunction(function):
            @functools.wraps(function)
            async def traced_async(*args, **kwargs):
                with self.span(name, key_of(args, kwargs)) as record:
                    result = await function(*args, **kwargs)
                    if attrs_of is not None:
                        record.update(attrs_of(args, kwargs, result))
                    return result
            return traced_async

        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name, key_of(args, kwargs)) as record:
                result = function(*args, **kwargs)
                if attrs_of is not None:
                    record.update(attrs_of(args, kwargs, result))
                return result
        return traced

    def wrap_method(self, cls, attr: str, name: str, key_of=None,
                    attrs_of=None) -> None:
        raw = cls.__dict__[attr]
        key_of = key_of or _no_key
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                self._traced(raw.__func__, name, key_of, attrs_of))
        else:
            wrapped = self._traced(raw, name, key_of, attrs_of)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def wrap_function(self, function, name: str, key_of=None,
                      attrs_of=None) -> None:
        """Replace *function* in every loaded ``repro`` module that binds
        it, so ``from x import f`` call sites are traced too."""
        wrapped = self._traced(function, name, key_of or _no_key, attrs_of)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is function:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- analysis ------------------------------------------------------------

    def by_name(self, name: str) -> "list[dict]":
        return [span for span in self.spans if span["name"] == name]

    def self_seconds(self) -> "dict[str, float]":
        """Per span name: total duration minus the part of each span's
        interval covered by its children."""
        children: "dict[int, list[dict]]" = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(span)
        totals: "dict[str, float]" = {}
        for span in self.spans:
            covered = 0.0
            cursor = span["start"]
            for child in sorted(children.get(span["id"], ()),
                                key=lambda c: c["start"]):
                start = max(child["start"], cursor)
                end = min(child["end"], span["end"])
                if end > start:
                    covered += end - start
                    cursor = end
            totals[span["name"]] = (totals.get(span["name"], 0.0)
                                    + span["end"] - span["start"] - covered)
        return totals

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([_jsonable(span) for span in self.spans]))


def _jsonable(value):
    """Registry deltas key samples by label tuples; JSON wants strings."""
    if isinstance(value, dict):
        return {(",".join(key) if isinstance(key, tuple) else key):
                _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    return value


def _no_key(args, kwargs) -> str:
    return ""


def registry_delta(before: dict, after: dict) -> dict:
    """Counter and histogram deltas between two ``REGISTRY.snapshot()``s:
    ``{name: {label_tuple: value}}``; a histogram value is
    ``{"counts": per-bucket deltas, "sum": ..., "buckets": bounds}``."""
    delta = {}
    for name, family in after.items():
        if family["type"] == "gauge":
            continue
        old = before.get(name, {}).get("samples", {})
        samples = {}
        for labels, value in family["samples"].items():
            prior = old.get(labels)
            if family["type"] == "histogram":
                counts = [now - (prior["counts"][i] if prior else 0)
                          for i, now in enumerate(value["counts"])]
                if any(counts):
                    samples[labels] = {
                        "counts": counts,
                        "sum": value["sum"] - (prior["sum"] if prior else 0.0),
                        "buckets": family["buckets"],
                    }
            else:
                change = value - (prior or 0.0)
                if change:
                    samples[labels] = change
        if samples:
            delta[name] = samples
    return delta


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads call
    into; :meth:`Tracer.restore` undoes it."""
    from repro.fleet import triage
    from repro.fleet.admitcache import AdmitCache, blob_fingerprint
    from repro.fleet.cluster import admin
    from repro.fleet.cluster.node import ClusterNodeService
    from repro.fleet.loadsim import ServiceClient
    from repro.fleet.store import ReportStore
    from repro.fleet.validate import validate_report
    from repro.forensics import autopsy  # noqa: F401 - binds the names below
    from repro.forensics.ddg import DDG
    from repro.forensics.provenance import value_provenance
    from repro.forensics.slicing import slice_from_fault
    from repro.mp.machine import Machine
    from repro.replay import races
    from repro.tracing import serialize

    def fingerprint(args, kwargs):
        return blob_fingerprint(args[-1])[:16]

    def wire_bytes(args, kwargs, result):
        header = args[1] if len(args) > 1 else kwargs.get("header", {})
        body = args[2] if len(args) > 2 else kwargs.get("body", b"")
        response, response_body = result
        return {
            "op": header.get("op", ""),
            "bytes_out": len(json.dumps(header)) + len(body),
            "bytes_in": len(json.dumps(response)) + len(response_body),
        }

    tracer.wrap_method(
        Machine, "run", "Machine.run",
        key_of=lambda a, k: a[0].program.name,
        attrs_of=lambda a, k, r: {"instructions": r.global_steps,
                                  "record": a[0].record})
    tracer.wrap_function(
        serialize.dump_crash_report, "dump_crash_report",
        key_of=lambda a, k: a[0].program_name,
        attrs_of=lambda a, k, r: {"bytes": len(r)})
    tracer.wrap_function(serialize.load_report_header,
                         "load_report_header", key_of=fingerprint)
    tracer.wrap_function(serialize.load_crash_report, "load_crash_report",
                         key_of=fingerprint)
    tracer.wrap_function(validate_report, "validate_report",
                         key_of=lambda a, k: a[0])
    tracer.wrap_method(AdmitCache, "probe", "AdmitCache.probe",
                       key_of=fingerprint,
                       attrs_of=lambda a, k, r: {"hit": r is not None})
    tracer.wrap_method(AdmitCache, "record", "AdmitCache.record",
                       key_of=lambda a, k: a[1][:16])
    tracer.wrap_method(
        AdmitCache, "flush", "AdmitCache.flush",
        attrs_of=lambda a, k, r: {"file_bytes": a[0].path.stat().st_size})
    tracer.wrap_method(ReportStore, "add", "ReportStore.add",
                       key_of=lambda a, k: k.get("upload_id", ""))
    tracer.wrap_method(ReportStore, "add_many", "ReportStore.add_many",
                       attrs_of=lambda a, k, r: {"reports": len(r)})
    tracer.wrap_method(ReportStore, "entries", "ReportStore.entries")
    tracer.wrap_method(
        ServiceClient, "request_full", "ServiceClient.request_full",
        key_of=lambda a, k: str(a[1].get("upload_id", "")),
        attrs_of=wire_bytes)
    tracer.wrap_function(admin.cluster_triage, "admin.cluster_triage")
    tracer.wrap_method(
        ClusterNodeService, "anti_entropy_round",
        "ClusterNodeService.anti_entropy_round",
        key_of=lambda a, k: a[0].node_id,
        attrs_of=lambda a, k, r: {"fetched": r})
    tracer.wrap_function(triage.build_buckets, "build_buckets")
    tracer.wrap_method(
        DDG, "build", "DDG.build",
        key_of=lambda a, k: a[1].name,
        attrs_of=lambda a, k, r: {"instructions": len(r)})
    tracer.wrap_function(slice_from_fault, "slice_from_fault")
    tracer.wrap_function(value_provenance, "value_provenance")
    tracer.wrap_function(races.infer_races, "races.infer_races")
