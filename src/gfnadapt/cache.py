"""Persistent terminal-reward cache.

Append-only binary log of what the simulator produced: each record is the
canonical key bytes, the per-context raw losses as little-endian float64, and
a CRC32 of both. In memory the cache holds one float per key, its aggregate
loss, derived from the raw losses by the cache's `derive` function in one
pass over all records on load and one pass per committed batch. A record
whose aggregate is not finite is refused, on load and before it is written.
Duplicate keys resolve to the first-written record, which makes the file
crash-safe and merge-friendly across runs.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .space import StateKey, key_bytes

_MAGIC = b"GFRC"
SCHEMA_VERSION = 2
_HEADER = struct.Struct("<4sBBBx")  # magic, schema, key_len, n_contexts, pad
MAX_KEY_LEN = 255  # slots per key: the header holds the key length in one byte
MAX_ACTIONS = 256  # actions per slot: a key holds each action in one byte


class RewardCache:
    """Thread-safe first-write-wins raw-loss log keyed by canonical key bytes.

    `derive` maps (n, C) raw losses to the (n,) aggregate losses of the
    records."""

    def __init__(self, path, key_len: int, n_contexts: int, derive: Callable):
        self.path = Path(path)
        self.key_len = key_len
        self.n_contexts = n_contexts
        self.derive = derive
        self._record = np.dtype([("key", f"V{key_len}"), ("raw", "<f8", n_contexts),
                                 ("crc", "<u4")])
        self._index: dict[bytes, float] = {}  # key bytes -> aggregate loss
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            self._load()
        else:
            # packed first: a key length or context count the header cannot
            # hold fails here, before the file exists
            header = _HEADER.pack(_MAGIC, SCHEMA_VERSION, key_len, n_contexts)
            with open(self.path, "wb") as fh:
                fh.write(header)

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            head, data = fh.read(_HEADER.size), fh.read()
        if len(head) < _HEADER.size or not head.startswith(_MAGIC):
            raise ValueError(f"unrecognized cache file {self.path}; delete it to rebuild")
        _, version, key_len, n_contexts = _HEADER.unpack(head)
        if version != SCHEMA_VERSION:
            raise ValueError(f"cache {self.path} has schema {version}, expected "
                             f"{SCHEMA_VERSION}; delete it to rebuild")
        if key_len != self.key_len or n_contexts != self.n_contexts:
            raise ValueError(
                f"cache {self.path} has key_len={key_len}, C={n_contexts}; "
                f"expected key_len={self.key_len}, C={self.n_contexts}"
            )
        size = self._record.itemsize
        whole = len(data) - len(data) % size
        if whole < len(data):  # torn tail write: cut back to the last whole record
            os.truncate(self.path, _HEADER.size + whole)
        records = np.frombuffer(data, self._record, whole // size)
        bad = np.flatnonzero(records["crc"] != self._crcs(records))
        if bad.size:
            raise ValueError(f"cache {self.path}: record at byte "
                             f"{_HEADER.size + bad[0] * size} fails its CRC32 check")
        first: dict[bytes, int] = {}  # key bytes -> index of its first record
        for i, kb in enumerate(records["key"].tolist()):
            first.setdefault(kb, i)
        rows = list(first.values())
        agg = self._derived(records["raw"][rows], lambda i: (
            f"record at byte {_HEADER.size + rows[i] * size}", "delete it to rebuild"))
        self._index = dict(zip(first, agg))

    def _crcs(self, records: np.ndarray) -> list[int]:
        """CRC32 of each record's key and raw-loss bytes, each read as one
        bytes object from one copy of the records' bytes."""
        size = self._record.itemsize
        body = np.ndarray(len(records), f"V{size - 4}", records.tobytes(), strides=(size,))
        return list(map(zlib.crc32, body.tolist()))

    def _derived(self, raw: np.ndarray, blame: Callable) -> list[float]:
        """The aggregate losses of (n, C) raw losses, refused if any is not
        finite: `blame(i)` names row i's record and what to do about it."""
        agg = self.derive(raw)
        bad = np.flatnonzero(~np.isfinite(agg))
        if bad.size:
            record, remedy = blame(bad[0])
            raise ValueError(f"cache {self.path}: {record} derives the aggregate loss "
                             f"{float(agg[bad[0]])!r}, which is not finite; {remedy}")
        return agg.tolist()

    def __len__(self) -> int:
        return len(self._index)

    def get(self, key: StateKey) -> float | None:
        """The aggregate loss of a held key; None if the cache lacks it."""
        return self._index.get(key_bytes(key))

    def put(self, keys: Sequence[StateKey], raw: np.ndarray) -> list[float]:
        """Commit the (n, C) raw losses of n keys: the keys not yet held are
        derived in one pass and appended in one write, none of them if any
        derives a non-finite aggregate. Returns each key's winning (maybe
        pre-existing) aggregate loss."""
        with self._lock:
            encoded = [key_bytes(key) for key in keys]
            fresh: dict[bytes, int] = {}  # key bytes -> row of its first occurrence
            for i, kb in enumerate(encoded):
                if kb not in self._index:
                    fresh.setdefault(kb, i)
            if fresh:
                rows = list(fresh.values())
                records = np.zeros(len(fresh), self._record)
                records["key"] = np.frombuffer(b"".join(fresh), records.dtype["key"])
                records["raw"] = np.asarray(raw, dtype=float)[rows]
                records["crc"] = self._crcs(records)
                agg = self._derived(records["raw"], lambda i: (
                    f"key {tuple(map(int, keys[rows[i]]))}", "nothing was written"))
                with open(self.path, "ab") as fh:
                    fh.write(records.tobytes())
                    fh.flush()
                self._index.update(zip(fresh, agg))
            return [self._index[kb] for kb in encoded]
