"""Persistent terminal-reward cache.

Append-only binary record log with an in-memory index. Each record is the
canonical key bytes followed by the per-context raw losses, per-context
normalized losses, the aggregate loss, and the reward as little-endian
float64. Duplicate keys resolve to the first-written record, which makes the
file crash-safe and merge-friendly across runs and seeds.
"""

from __future__ import annotations

import os
import struct
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .space import StateKey, key_bytes, key_from_bytes

_MAGIC = b"GFRC"
SCHEMA_VERSION = 1
_HEADER = struct.Struct("<4sBBBx")  # magic, schema, key_len, n_contexts, pad


@dataclass(frozen=True)
class LossRecord:
    key: StateKey
    raw: np.ndarray         # per-context raw losses
    normalized: np.ndarray  # per-context quantile-normalized losses
    aggregate: float        # tail-risk adaptation loss
    reward: float           # exp(-beta * aggregate)


class RewardCache:
    """Thread-safe first-write-wins record log keyed by canonical key bytes."""

    def __init__(self, path, key_len: int, n_contexts: int):
        self.path = Path(path)
        self.key_len = key_len
        self.n_contexts = n_contexts
        self._record = struct.Struct(f"<{key_len}s{2 * n_contexts + 2}d")
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
            head = fh.read(_HEADER.size)
            magic, version, key_len, n_contexts = _HEADER.unpack(head)
            if magic != _MAGIC or version != SCHEMA_VERSION:
                raise ValueError(f"unrecognized cache file {self.path}")
            if key_len != self.key_len or n_contexts != self.n_contexts:
                raise ValueError(
                    f"cache {self.path} has key_len={key_len}, C={n_contexts}; "
                    f"expected key_len={self.key_len}, C={self.n_contexts}"
                )
            while True:
                chunk = fh.read(self._record.size)
                if len(chunk) < self._record.size:
                    if chunk:  # torn tail write: cut back to the last whole record
                        os.truncate(self.path, fh.tell() - len(chunk))
                    break
                fields = self._record.unpack(chunk)
                kb = fields[0]
                if kb in self._index:
                    continue
                vals = fields[1:]
                c = self.n_contexts
                self._index[kb] = LossRecord(
                    key=key_from_bytes(kb),
                    raw=np.array(vals[:c]),
                    normalized=np.array(vals[c : 2 * c]),
                    aggregate=vals[2 * c],
                    reward=vals[2 * c + 1],
                )

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key: StateKey) -> bool:
        return key_bytes(key) in self._index

    def get(self, key: StateKey) -> LossRecord | None:
        return self._index.get(key_bytes(key))

    def put(self, record: LossRecord) -> LossRecord:
        """Commit a record; returns the winning (possibly pre-existing) one."""
        kb = key_bytes(record.key)
        with self._lock:
            existing = self._index.get(kb)
            if existing is not None:
                return existing
            packed = self._record.pack(
                kb,
                *record.raw,
                *record.normalized,
                record.aggregate,
                record.reward,
            )
            with open(self.path, "ab") as fh:
                fh.write(packed)
                fh.flush()
            self._index[kb] = record
            return record
