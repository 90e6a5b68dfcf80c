import threading

import numpy as np
import pytest

from gfnadapt.cache import LossRecord, RewardCache


def record(key, value):
    c = 3
    return LossRecord(
        key=key,
        raw=np.full(c, value),
        normalized=np.full(c, value * 2),
        aggregate=value,
        reward=float(np.exp(-value)),
    )


def test_roundtrip(tmp_path):
    path = tmp_path / "c.bin"
    cache = RewardCache(path, key_len=2, n_contexts=3)
    cache.put(record((1, 2), 0.5))
    reopened = RewardCache(path, key_len=2, n_contexts=3)
    got = reopened.get((1, 2))
    assert got.aggregate == 0.5
    assert np.array_equal(got.raw, np.full(3, 0.5))
    assert len(reopened) == 1


def test_first_write_wins(tmp_path):
    cache = RewardCache(tmp_path / "c.bin", key_len=2, n_contexts=3)
    first = cache.put(record((0, 0), 1.0))
    second = cache.put(record((0, 0), 2.0))
    assert second.aggregate == first.aggregate == 1.0
    assert cache.get((0, 0)).aggregate == 1.0


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "c.bin"
    RewardCache(path, key_len=2, n_contexts=3)
    with pytest.raises(ValueError, match="key_len"):
        RewardCache(path, key_len=5, n_contexts=3)


def test_torn_tail_write_tolerated(tmp_path):
    path = tmp_path / "c.bin"
    cache = RewardCache(path, key_len=2, n_contexts=3)
    cache.put(record((1, 1), 0.25))
    with open(path, "ab") as fh:
        fh.write(b"\x00\x01\x02")  # simulated crash mid-record
    reopened = RewardCache(path, key_len=2, n_contexts=3)
    assert len(reopened) == 1
    assert reopened.get((1, 1)).aggregate == 0.25


def test_append_after_torn_tail_reloads_exactly(tmp_path):
    path = tmp_path / "c.bin"
    cache = RewardCache(path, key_len=2, n_contexts=3)
    cache.put(record((1, 2), 0.25))
    with open(path, "ab") as fh:
        fh.write(b"\x00\x01\x02")  # simulated crash mid-record
    appended = record((1, 1), 0.75)
    RewardCache(path, key_len=2, n_contexts=3).put(appended)
    reloaded = RewardCache(path, key_len=2, n_contexts=3)
    assert len(reloaded) == 2
    got = reloaded.get((1, 1))
    assert got is not None and got.key == (1, 1)
    assert np.array_equal(got.raw, appended.raw)
    assert np.array_equal(got.normalized, appended.normalized)
    assert got.aggregate == appended.aggregate
    assert got.reward == appended.reward


def test_concurrent_puts_commit_once(tmp_path):
    cache = RewardCache(tmp_path / "c.bin", key_len=2, n_contexts=3)
    results = []

    def worker(value):
        results.append(cache.put(record((3, 3), value)).aggregate)

    threads = [threading.Thread(target=worker, args=(float(v),)) for v in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert len(cache) == 1
    reopened = RewardCache(tmp_path / "c.bin", key_len=2, n_contexts=3)
    assert len(reopened) == 1
