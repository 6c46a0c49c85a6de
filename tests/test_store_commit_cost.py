"""A store commit costs O(batch), not O(store) — counted, not timed.

One ``add_many`` of N reports is run against a store holding 10
entries and against one holding 1 000, with the file-system calls that
create, write or rename files counted (``open`` in every form,
``os.write``/``os.pwrite``, ``os.replace``/``os.rename``).  The two
counts must be equal, and bounded by N blob writes plus a fixed number
of calls per touched shard (lock, preimage append, index append) plus a
fixed number per batch (global lock, in-place ``seq`` write): nothing a
commit writes may grow with the store.  A count is host-independent,
unlike a time.
"""

import builtins
import hashlib
import io
import os
from collections import Counter

import pytest

from repro.fleet.store import ReportStore

_COUNTED = (
    (builtins, "open"), (io, "open"), (os, "open"), (os, "write"),
    (os, "pwrite"), (os, "replace"), (os, "rename"),
)
#: Calls per report: its blob (open + write).
PER_REPORT = 2
#: Calls per touched shard: its lock, the preimage log (open + write)
#: and the index append (open + write).
PER_SHARD = 5
#: Calls per batch: the global lock, the seq file (open + pwrite).
PER_BATCH = 3


def digest_of(tag) -> str:
    return hashlib.sha256(f"report-{tag}".encode()).hexdigest()


def _item(tag, index: int) -> dict:
    return {
        "digest": digest_of((tag, index)),
        "blob": bytes([index % 251]) * 64,
        "upload_id": f"{tag}-{index}",
        "fault_kind": "memory",
        "program_name": "prog",
        "route_key": digest_of(("route", tag, index)),
        "fault_pc": 0x400000 + index,
        "tail_pcs": tuple(range(index % 12)),
    }


def _filled_store(root, size: int) -> ReportStore:
    store = ReportStore(root, num_shards=4)
    for start in range(0, size, 100):
        store.add_many([_item("old", index)
                        for index in range(start, min(start + 100, size))])
    return store


def _count_commit(store: ReportStore, items, monkeypatch) -> Counter:
    calls: Counter = Counter()
    with monkeypatch.context() as patch:
        for module, name in _COUNTED:
            original = getattr(module, name)

            def counted(*args, _original=original,
                        _key=f"{module.__name__}.{name}", **kwargs):
                calls[_key] += 1
                return _original(*args, **kwargs)

            patch.setattr(module, name, counted)
        store.add_many(items)
    return calls


@pytest.mark.parametrize("batch", [1, 2, 8])
def test_commit_file_calls_do_not_grow_with_the_store(tmp_path, monkeypatch,
                                                      batch):
    small = _filled_store(tmp_path / "small", 10)
    large = _filled_store(tmp_path / "large", 1000)
    items = [_item("new", index) for index in range(batch)]
    small_calls = _count_commit(small, items, monkeypatch)
    large_calls = _count_commit(large, items, monkeypatch)
    assert small_calls == large_calls
    shards = len({small.shard_of(item["digest"]) for item in items})
    assert sum(small_calls.values()) <= (
        PER_REPORT * batch + PER_SHARD * shards + PER_BATCH), small_calls
    # No temp + rename anywhere on the commit path.
    assert not small_calls["os.replace"] and not small_calls["os.rename"]


def test_known_preimages_skip_the_preimage_log(tmp_path, monkeypatch):
    """A preimage the shard already holds costs no file call at all:
    the log grows with distinct buckets, not with reports."""
    store = _filled_store(tmp_path, 10)
    again = [dict(_item("old", index), upload_id=f"again-{index}")
             for index in range(4)]
    calls = _count_commit(store, again, monkeypatch)
    shards = len({store.shard_of(item["digest"]) for item in again})
    assert sum(calls.values()) == (
        PER_REPORT * len(again) + (PER_SHARD - 2) * shards + PER_BATCH)
