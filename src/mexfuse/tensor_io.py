"""Binary tensor files for embedding fixtures and saved parameters.

Layout: magic "MEXT", version u16, dtype code u8 (0=f64, 1=f32), rank u8,
extents as u64 little-endian, then raw values little-endian.
"""

import os
import struct

import numpy as np

MAGIC = b"MEXT"
VERSION = 1

_DTYPE_CODES = {0: np.dtype("<f8"), 1: np.dtype("<f4")}
_CODE_FOR = {np.dtype("float64"): 0, np.dtype("float32"): 1}


class TensorFileError(ValueError):
    pass


def write_tensor(path, array):
    arr = np.ascontiguousarray(array)
    if arr.dtype not in _CODE_FOR:
        raise TensorFileError(f"unsupported dtype {arr.dtype}")
    code = _CODE_FOR[arr.dtype]
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HBB", VERSION, code, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.astype(arr.dtype.newbyteorder("<")).tobytes())


def _read_exact(fh, n, path, part):
    """The next ``n`` bytes of ``fh``, checked against what is left of the file
    first, so that corrupt extents allocate nothing."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise TensorFileError(f"{path}: truncated {part} ({left} of {n} bytes)")
    return fh.read(n)


def read_tensor(path):
    """The array in the ``.mext`` file at ``path``.

    Raises TensorFileError naming the file for a bad magic, version or
    dtype code, and for a file that ends inside its header or before the
    payload its extents give.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise TensorFileError(f"{path}: bad magic {magic!r}")
        version, code, rank = struct.unpack("<HBB", _read_exact(fh, 4, path, "header"))
        if version != VERSION:
            raise TensorFileError(f"{path}: unsupported version {version}")
        if code not in _DTYPE_CODES:
            raise TensorFileError(f"{path}: unknown dtype code {code}")
        shape = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, path, "extents"))
        dtype = _DTYPE_CODES[code]
        count = 1
        for s in shape:
            count *= s
        raw = _read_exact(fh, count * dtype.itemsize, path, "payload")
        return np.frombuffer(raw, dtype=dtype).reshape(shape).astype(dtype.newbyteorder("="))
