"""Persistent terminal-reward cache.

Append-only binary log of what the simulator produced: each record is the
canonical key bytes, the per-context raw losses as little-endian float64, and
a CRC32 of both. The normalized losses, aggregate and reward are derived from
the raw losses by the cache's `derive` function, in one pass over all records
on load and one pass per committed batch. Duplicate keys resolve to the
first-written record, which makes the file crash-safe and merge-friendly
across runs.
"""

from __future__ import annotations

import os
import struct
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .space import StateKey, key_bytes, key_from_bytes

_MAGIC = b"GFRC"
SCHEMA_VERSION = 2
_HEADER = struct.Struct("<4sBBBx")  # magic, schema, key_len, n_contexts, pad


@dataclass(frozen=True)
class LossRecord:
    key: StateKey
    raw: np.ndarray         # per-context raw losses
    normalized: np.ndarray  # per-context quantile-normalized losses
    aggregate: float        # tail-risk adaptation loss
    reward: float           # exp(-beta * aggregate)


class RewardCache:
    """Thread-safe first-write-wins raw-loss log keyed by canonical key bytes.

    `derive` maps (n, C) raw losses to the (n, C) normalized losses, (n,)
    aggregates and (n,) rewards of the records."""

    def __init__(self, path, key_len: int, n_contexts: int, derive: Callable):
        self.path = Path(path)
        self.key_len = key_len
        self.n_contexts = n_contexts
        self.derive = derive
        self._record = np.dtype([("key", f"V{key_len}"), ("raw", "<f8", n_contexts),
                                 ("crc", "<u4")])
        self._index: dict[bytes, LossRecord] = {}
        self._lock = threading.Lock()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            self._load()
        else:
            with open(self.path, "wb") as fh:
                fh.write(_HEADER.pack(_MAGIC, SCHEMA_VERSION, key_len, n_contexts))

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
        view, first = memoryview(data), {}  # key bytes -> index of its first record
        for i, at in enumerate(range(0, whole, size)):
            if zlib.crc32(view[at : at + size - 4]) != records["crc"][i]:
                raise ValueError(f"cache {self.path}: record at byte "
                                 f"{_HEADER.size + at} fails its CRC32 check")
            first.setdefault(bytes(view[at : at + self.key_len]), i)
        keys = [key_from_bytes(kb) for kb in first]
        self._index = dict(zip(first, self._records(keys, records["raw"][list(first.values())])))

    def _records(self, keys: list[StateKey], raw: np.ndarray) -> list[LossRecord]:
        norm, agg, rew = self.derive(raw)
        # row copies: a view would keep its whole batch array alive
        return [LossRecord(key, raw[i].copy(), norm[i].copy(), float(agg[i]), float(rew[i]))
                for i, key in enumerate(keys)]

    def __len__(self) -> int:
        return len(self._index)

    def get(self, key: StateKey) -> LossRecord | None:
        return self._index.get(key_bytes(key))

    def put(self, keys: Sequence[StateKey], raw: np.ndarray) -> list[LossRecord]:
        """Commit the (n, C) raw losses of n keys: the keys not yet held are
        derived in one pass and appended in one write. Returns each key's
        winning (maybe pre-existing) record."""
        with self._lock:
            fresh: dict[bytes, int] = {}  # key bytes -> row of its first occurrence
            for i, key in enumerate(keys):
                kb = key_bytes(key)
                if kb not in self._index:
                    fresh.setdefault(kb, i)
            if fresh:
                rows = list(fresh.values())
                records = self._records([keys[i] for i in rows],
                                        np.asarray(raw, dtype=float)[rows])
                blob = bytearray()
                for kb, record in zip(fresh, records):
                    body = kb + record.raw.astype("<f8").tobytes()
                    blob += body + zlib.crc32(body).to_bytes(4, "little")
                with open(self.path, "ab") as fh:
                    fh.write(blob)
                    fh.flush()
                self._index.update(zip(fresh, records))
            return [self._index[key_bytes(key)] for key in keys]
