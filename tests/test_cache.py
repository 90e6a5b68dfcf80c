import struct
import threading
import zlib

import numpy as np
import pytest

from gfnadapt.cache import RewardCache

HEADER_SIZE = 8
RECORD_SIZE = 2 + 3 * 8 + 4  # key bytes, 3 raw losses, CRC32


class Derive:
    """Stand-in derivation that records the shape of every call."""

    def __init__(self):
        self.shapes = []

    def __call__(self, raw):
        self.shapes.append(raw.shape)
        agg = raw.mean(axis=-1)
        return agg, np.exp(-agg)


def open_cache(path, key_len=2):
    return RewardCache(path, key_len=key_len, n_contexts=3, derive=Derive())


def test_roundtrip(tmp_path):
    path = tmp_path / "c.bin"
    cache = open_cache(path)
    cache.put([(1, 2)], [np.full(3, 0.5)])
    reopened = open_cache(path)
    assert reopened.get((1, 2)) == (0.5, np.exp(-0.5))
    assert len(reopened) == 1
    assert reopened.get((2, 1)) is None


def test_file_holds_raw_losses_only(tmp_path):
    path = tmp_path / "c.bin"
    cache = open_cache(path)
    for i in range(4):
        cache.put([(i, 0)], [np.full(3, float(i))])
    assert path.stat().st_size == HEADER_SIZE + 4 * RECORD_SIZE


def test_record_layout(tmp_path):
    # key bytes, raw losses as little-endian float64, CRC32 of both
    path = tmp_path / "c.bin"
    raw = [[0.25, -1.5, 3.0], [1.0, 2.0, 4.0]]
    open_cache(path).put([(7, 1), (0, 255)], np.array(raw))
    blob = path.read_bytes()
    assert blob[:HEADER_SIZE] == struct.pack("<4sBBBx", b"GFRC", 2, 2, 3)
    for i, (key, losses) in enumerate(zip([(7, 1), (0, 255)], raw)):
        body = bytes(key) + struct.pack("<3d", *losses)
        at = HEADER_SIZE + i * RECORD_SIZE
        assert blob[at : at + RECORD_SIZE] == body + struct.pack("<I", zlib.crc32(body))


def test_derived_once_over_all_records_on_load(tmp_path):
    path = tmp_path / "c.bin"
    cache = open_cache(path)
    for i in range(5):
        cache.put([(i, 1)], [np.arange(3.0) + i])
    assert cache.derive.shapes == [(1, 3)] * 5
    reopened = open_cache(path)
    assert reopened.derive.shapes == [(5, 3)]
    for i in range(5):
        assert reopened.get((i, 1)) == cache.get((i, 1))


def test_first_write_wins(tmp_path):
    cache = open_cache(tmp_path / "c.bin")
    first = cache.put([(0, 0)], [np.full(3, 1.0)])[0]
    second = cache.put([(0, 0)], [np.full(3, 2.0)])[0]
    assert second == first == (1.0, np.exp(-1.0))
    assert cache.get((0, 0)) == first
    assert open_cache(tmp_path / "c.bin").get((0, 0)) == first


def test_duplicate_records_in_file_resolve_to_first(tmp_path):
    # two writers that opened the file before either appended
    a, b = open_cache(tmp_path / "c.bin"), open_cache(tmp_path / "c.bin")
    a.put([(0, 1)], [np.full(3, 1.0)])
    b.put([(0, 1)], [np.full(3, 2.0)])
    b.put([(1, 1)], [np.full(3, 3.0)])
    reopened = open_cache(tmp_path / "c.bin")
    assert len(reopened) == 2
    assert reopened.get((0, 1))[0] == 1.0
    assert reopened.get((1, 1))[0] == 3.0


def test_header_mismatch_rejected(tmp_path):
    path = tmp_path / "c.bin"
    open_cache(path)
    with pytest.raises(ValueError, match="key_len"):
        open_cache(path, key_len=5)


def test_unencodable_header_creates_no_file(tmp_path):
    # a key length the header's one byte cannot hold fails before the file
    # exists, so no empty file is left for later runs to refuse
    path = tmp_path / "c.bin"
    with pytest.raises(struct.error):
        open_cache(path, key_len=256)
    assert not path.exists()
    open_cache(path, key_len=255)
    assert path.stat().st_size == HEADER_SIZE


def test_schema_one_file_refused(tmp_path):
    path = tmp_path / "c.bin"
    # schema 1: key bytes, raw, normalized, aggregate and reward, no CRC
    record = struct.pack("<2s8d", bytes((1, 2)), *([0.5] * 8))
    path.write_bytes(struct.pack("<4sBBBx", b"GFRC", 1, 2, 3) + record)
    with pytest.raises(ValueError, match="schema 1.*delete it to rebuild"):
        open_cache(path)


@pytest.mark.parametrize("blob", [b"GFR", b"NOPE\x02\x02\x03\x00"])
def test_foreign_or_truncated_header_refused(tmp_path, blob):
    path = tmp_path / "c.bin"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="unrecognized cache file"):
        open_cache(path)


def test_flipped_byte_in_record_rejected(tmp_path):
    path = tmp_path / "c.bin"
    cache = open_cache(path)
    for i in range(3):
        cache.put([(i, 2)], [np.full(3, 0.1 * i)])
    blob = bytearray(path.read_bytes())
    middle = HEADER_SIZE + RECORD_SIZE
    blob[middle + 7] ^= 0x10  # inside the middle record's raw losses
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match=rf"c\.bin: record at byte {middle} fails its CRC32"):
        open_cache(path)


def test_torn_tail_write_tolerated(tmp_path):
    path = tmp_path / "c.bin"
    cache = open_cache(path)
    cache.put([(1, 1)], [np.full(3, 0.25)])
    with open(path, "ab") as fh:
        fh.write(b"\x00\x01\x02")  # simulated crash mid-record
    reopened = open_cache(path)
    assert len(reopened) == 1
    assert reopened.get((1, 1))[0] == 0.25


def test_append_after_torn_tail_reloads_exactly(tmp_path):
    path = tmp_path / "c.bin"
    cache = open_cache(path)
    cache.put([(1, 2)], [np.full(3, 0.25)])
    with open(path, "ab") as fh:
        fh.write(b"\x00\x01\x02")  # simulated crash mid-record
    appended = open_cache(path).put([(1, 1)], [np.array([0.75, 0.5, 0.25])])[0]
    reloaded = open_cache(path)
    assert len(reloaded) == 2
    assert reloaded.get((1, 1)) == appended
    assert reloaded.get((1, 2)) == (0.25, np.exp(-0.25))


def test_concurrent_puts_commit_once(tmp_path):
    cache = open_cache(tmp_path / "c.bin")
    results = []

    def worker(value):
        results.append(cache.put([(3, 3)], [np.full(3, value)])[0])

    threads = [threading.Thread(target=worker, args=(float(v),)) for v in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(results)) == 1
    assert len(cache) == 1
    reopened = open_cache(tmp_path / "c.bin")
    assert len(reopened) == 1
