import struct

import numpy as np
import pytest

from mexfuse.tensor_io import TensorFileError, read_tensor, write_tensor


def test_round_trip_f64(tmp_path):
    arr = np.random.default_rng(0).standard_normal((3, 4, 2))
    path = tmp_path / "a.mext"
    write_tensor(path, arr)
    assert np.array_equal(read_tensor(path), arr)


def test_round_trip_f32(tmp_path):
    arr = np.random.default_rng(1).standard_normal((5,)).astype(np.float32)
    path = tmp_path / "b.mext"
    write_tensor(path, arr)
    out = read_tensor(path)
    assert out.dtype == np.float32
    assert np.array_equal(out, arr)


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
    with pytest.raises(TensorFileError, match="magic"):
        read_tensor(path)


def test_truncated_payload(tmp_path):
    path = tmp_path / "short.mext"
    write_tensor(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(TensorFileError, match="truncated"):
        read_tensor(path)


@pytest.mark.parametrize("keep", range(4, 24))
def test_truncated_header(tmp_path, keep):
    # a rank-2 header is 24 bytes: magic, version/code/rank, two extents
    path = tmp_path / "head.mext"
    write_tensor(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(TensorFileError, match="truncated (header|extents)"):
        read_tensor(path)


def test_extents_beyond_file_allocate_nothing(tmp_path):
    path = tmp_path / "huge.mext"
    write_tensor(path, np.ones((2, 3)))
    raw = bytearray(path.read_bytes())
    raw[8:24] = struct.pack("<2Q", 2**40, 2**40)
    path.write_bytes(bytes(raw))
    with pytest.raises(TensorFileError, match=rf"truncated payload \(48 of {2**80 * 8} bytes"):
        read_tensor(path)


def test_unsupported_dtype(tmp_path):
    with pytest.raises(TensorFileError):
        write_tensor(tmp_path / "d.mext", np.zeros(3, dtype=np.int64))
