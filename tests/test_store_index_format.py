"""The shard-index parser against a reference reader.

``_parse_records`` is on the path of every store open (and so of every
``bugnet triage`` read), which is why it unpacks each record's fixed
prefix with one precompiled ``struct`` and slices strings out of a
``memoryview``.  The format is unchanged, so its results must be too:
this module keeps the straightforward field-at-a-time reader as the
reference and pins equal entries *and* equal valid-end offsets over
v1–v4 records, every truncation point, and garbage tails.
"""

import io
import random
import struct

import pytest

from repro.common.errors import LogDecodeError
from repro.fleet.store import StoredEntry, _parse_records

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")


class _Reader:
    """Field-at-a-time reference reader."""

    def __init__(self, data: bytes) -> None:
        self._view = memoryview(data)
        self.position = 0

    @property
    def remaining(self) -> int:
        return len(self._view) - self.position

    def u32(self) -> int:
        if self.remaining < 4:
            raise LogDecodeError("truncated shard index")
        value = _U32.unpack_from(self._view, self.position)[0]
        self.position += 4
        return value

    def u64(self) -> int:
        if self.remaining < 8:
            raise LogDecodeError("truncated shard index")
        value = _U64.unpack_from(self._view, self.position)[0]
        self.position += 8
        return value

    def raw(self, length: int) -> bytes:
        data = bytes(self._view[self.position: self.position + length])
        if len(data) != length:
            raise LogDecodeError("truncated shard index")
        self.position += length
        return data

    def text(self) -> str:
        return self.raw(self.u32()).decode("utf-8")


def _reference_parse(data: bytes, shard: int, version: int,
                     base_offset: int):
    reader = _Reader(data)
    entries = []
    valid = 0
    while reader.remaining:
        try:
            digest = reader.raw(32).hex()
            seq = reader.u64()
            observed_at = reader.u64()
            byte_size = reader.u32()
            replay_window = reader.u64()
            fault_kind = reader.text()
            program_name = reader.text()
            filename = reader.text()
            upload_id = reader.text() if version >= 2 else ""
            race_pcs = ()
            if version >= 3:
                race_pcs = tuple(reader.u64() for _ in range(reader.u32()))
            route_key = reader.text() if version >= 4 else ""
        except (LogDecodeError, UnicodeDecodeError):
            break
        entries.append(StoredEntry(
            digest=digest, seq=seq, observed_at=observed_at,
            byte_size=byte_size, replay_window=replay_window,
            fault_kind=fault_kind, program_name=program_name,
            filename=filename, upload_id=upload_id, race_pcs=race_pcs,
            route_key=route_key, shard=shard,
        ))
        valid = reader.position
    return entries, base_offset + valid


def _pack(entry: StoredEntry, version: int) -> bytes:
    """One record at *version* (v2 added upload_id, v3 race_pcs, v4
    route_key)."""
    out = io.BytesIO()

    def text(value: str) -> None:
        data = value.encode("utf-8")
        out.write(_U32.pack(len(data)) + data)

    out.write(bytes.fromhex(entry.digest))
    out.write(struct.pack("<QQIQ", entry.seq, entry.observed_at,
                          entry.byte_size, entry.replay_window))
    text(entry.fault_kind)
    text(entry.program_name)
    text(entry.filename)
    if version >= 2:
        text(entry.upload_id)
    if version >= 3:
        out.write(_U32.pack(len(entry.race_pcs)))
        for pc in entry.race_pcs:
            out.write(_U64.pack(pc))
    if version >= 4:
        text(entry.route_key)
    return out.getvalue()


def _entries(count: int) -> "list[StoredEntry]":
    rng = random.Random(count)
    return [
        StoredEntry(
            digest=rng.randbytes(32).hex(),
            seq=index * 3,
            observed_at=rng.randrange(1 << 40),
            byte_size=rng.randrange(1 << 20),
            replay_window=rng.randrange(1 << 33),
            fault_kind=("memory", "illegal-instruction", "")[index % 3],
            program_name=f"prog-{index}-ü",
            shard=2,
            filename=f"{index:08d}-abc.bugnet",
            upload_id="" if index % 4 == 0 else f"upload-{index}",
            race_pcs=tuple(0x400000 + 4 * pc for pc in range(index % 4)),
            route_key="" if index % 5 == 0 else rng.randbytes(32).hex(),
        )
        for index in range(count)
    ]


def _assert_same(data: bytes, version: int) -> None:
    expected = _reference_parse(data, 2, version, 8)
    assert _parse_records(data, 2, version, 8) == expected


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_complete_records_parse_identically(version):
    entries = _entries(40)
    data = b"".join(_pack(entry, version) for entry in entries)
    parsed, end = _parse_records(data, 2, version, 8)
    assert end == 8 + len(data)
    assert len(parsed) == len(entries)
    _assert_same(data, version)


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_every_truncation_point(version):
    data = b"".join(_pack(entry, version) for entry in _entries(5))
    for cut in range(len(data) + 1):
        _assert_same(data[:cut], version)


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_garbage_tails(version):
    data = b"".join(_pack(entry, version) for entry in _entries(6))
    rng = random.Random(version)
    tails = [rng.randbytes(length) for length in (1, 7, 59, 60, 61, 300)
             for _ in range(20)]
    tails += [
        b"\xff" * 200,                        # invalid UTF-8 everywhere
        bytes(60) + _U32.pack(1 << 31),       # length far past the end
        bytes(60) + _U32.pack(2) + b"\xc3\x28" + bytes(40),  # bad UTF-8
        bytes(60) + _U32.pack(0) * 4 + _U32.pack(1 << 29),   # huge race count
    ]
    for tail in tails:
        _assert_same(data + tail, version)
