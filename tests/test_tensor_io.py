import mmap
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mexfuse.config import DataFileError
from mexfuse.tensor_io import read_tensor, write_tensor


@pytest.fixture
def maps(monkeypatch):
    """The length of each mapping ``read_tensor`` makes, in order."""
    made = []
    real = mmap.mmap

    def counted(fileno, length, **kw):
        out = real(fileno, length, **kw)
        made.append(len(out))
        return out

    monkeypatch.setattr(mmap, "mmap", counted)
    return made


def test_round_trip_f64(tmp_path, maps):
    arr = np.random.default_rng(0).standard_normal((3, 4, 2))
    path = tmp_path / "a.mext"
    write_tensor(path, arr)
    got = read_tensor(path)
    assert np.array_equal(got, arr) and got.dtype == np.float64
    # mapped from the file's payload, which follows 8 header and 24 extent bytes
    assert maps == [os.path.getsize(path)] and got.nbytes == maps[0] - 32


def test_mapped_array_is_read_only(tmp_path):
    path = tmp_path / "a.mext"
    write_tensor(path, np.arange(6.0).reshape(2, 3))
    got = read_tensor(path)
    assert not got.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        got[0, 0] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        got += 1.0
    assert np.array_equal(got, np.arange(6.0).reshape(2, 3))


def test_rewriting_a_file_from_its_own_mapping(tmp_path):
    # write_tensor reads the values before it truncates the file they are mapped from
    arr = np.random.default_rng(1).standard_normal((5, 7))
    path = tmp_path / "a.mext"
    write_tensor(path, arr)
    raw = path.read_bytes()
    write_tensor(path, read_tensor(path))
    assert path.read_bytes() == raw


def test_f32_refused(tmp_path):
    path = tmp_path / "b.mext"
    with pytest.raises(ValueError, match="unsupported dtype float32"):
        write_tensor(path, np.ones(5, dtype=np.float32))
    assert not path.exists()
    # five float32 values under dtype code 1
    path.write_bytes(b"MEXT" + struct.pack("<HBBQ5f", 1, 1, 1, 5, *[1.0] * 5))
    with pytest.raises(DataFileError, match=f"{path}: unknown dtype code 1"):
        read_tensor(path)


def test_header_layout(tmp_path):
    path = tmp_path / "c.mext"
    write_tensor(path, np.zeros((2, 3)))
    raw = path.read_bytes()
    assert raw[:4] == b"MEXT"
    assert raw[4:6] == (1).to_bytes(2, "little")   # version
    assert raw[6] == 0                             # f64
    assert raw[7] == 2                             # rank
    assert raw[8:16] == (2).to_bytes(8, "little")


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.mext"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(DataFileError, match="magic"):
        read_tensor(path)


def test_truncated_payload(tmp_path, maps):
    path = tmp_path / "short.mext"
    write_tensor(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataFileError, match=rf"{path}: truncated payload \(120 of 128 bytes\)"):
        read_tensor(path)
    assert maps == []  # refused before anything is mapped


@pytest.mark.parametrize("keep", range(4, 24))
def test_truncated_header(tmp_path, keep):
    # a rank-2 header is 24 bytes: magic, version/code/rank, two extents
    path = tmp_path / "head.mext"
    write_tensor(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(DataFileError, match="truncated (header|extents)"):
        read_tensor(path)


def test_extents_beyond_file_allocate_nothing(tmp_path):
    path = tmp_path / "huge.mext"
    write_tensor(path, np.ones((2, 3)))
    raw = bytearray(path.read_bytes())
    raw[8:24] = struct.pack("<2Q", 2**40, 2**40)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFileError, match=rf"truncated payload \(48 of {2**80 * 8} bytes"):
        read_tensor(path)


def test_unsupported_dtype(tmp_path):
    with pytest.raises(ValueError, match="unsupported dtype int64"):
        write_tensor(tmp_path / "d.mext", np.zeros(3, dtype=np.int64))


def test_zero_extent_next_to_huge_ones(tmp_path):
    path = tmp_path / "zero.mext"
    path.write_bytes(b"MEXT" + struct.pack("<HBB3Q", 1, 0, 3, 0, 2**40, 2**40))
    with pytest.raises(DataFileError, match=rf"{path}: extents \(0, {2**40}, {2**40}\)"):
        read_tensor(path)


def test_empty_extent_reads_an_empty_array(tmp_path):
    path = tmp_path / "empty.mext"
    write_tensor(path, np.zeros((0, 3)))
    got = read_tensor(path)
    assert got.shape == (0, 3) and got.size == 0 and got.dtype == np.float64


# a saved rank-3 tensor: 8 header bytes, 24 bytes of extents, 24 of payload
SAVED = b"MEXT" + struct.pack("<HBB3Q3d", 1, 0, 3, 1, 3, 1, 0.5, -1.0, 2.0)
EXTENT = st.sampled_from([0, 1, 2, 3, 2**31, 2**40, 2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1)


@settings(max_examples=300, deadline=None, database=None)
@given(data=st.data())
def test_corrupt_header_gives_an_array_or_a_named_error(data):
    """Random bytes over the header and extents, with or without a truncation,
    give an array or a DataFileError naming the file, never another error."""
    raw = bytearray(SAVED)
    if data.draw(st.booleans(), label="whole extents"):
        raw[8:32] = struct.pack("<3Q", *(data.draw(EXTENT, label="extent") for _ in range(3)))
    else:
        for k in data.draw(st.lists(st.integers(0, 31), min_size=1, max_size=6), label="at"):
            raw[k] = data.draw(st.integers(0, 255), label="byte")
    keep = data.draw(st.just(len(raw)) | st.integers(0, len(raw)), label="keep")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.mext")
        with open(path, "wb") as fh:
            fh.write(raw[:keep])
        try:
            assert isinstance(read_tensor(path), np.ndarray)
        except DataFileError as exc:
            assert str(exc).startswith(f"{path}: ")
