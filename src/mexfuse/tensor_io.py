"""Binary tensor files for embedding fixtures and saved parameters.

Layout: magic "MEXT", version u16, dtype code u8 (0 = f64, the only one), rank u8,
extents as u64 little-endian, then raw values little-endian.
"""

import math
import mmap
import os
import struct

import numpy as np

from .config import DataFileError, cannot_read

MAGIC = b"MEXT"
VERSION = 1


def write_tensor(path, array):
    arr = np.ascontiguousarray(array)
    if arr.dtype != np.float64:
        raise ValueError(f"unsupported dtype {arr.dtype}: tensors are float64")
    # the values are read before the file is opened: ``array`` may be mapped
    # from the very file that opening truncates (``read_tensor``)
    payload = arr.astype("<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HBB", VERSION, 0, arr.ndim))  # dtype code 0: f64
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(payload)


def _check_left(fh, n, path, part):
    """Raise DataFileError unless ``n`` bytes of the file are left after the
    position of ``fh``, so that corrupt extents read, map and allocate nothing."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise DataFileError(f"{path}: truncated {part} ({left} of {n} bytes)")


def _read_exact(fh, n, path, part):
    _check_left(fh, n, path, part)
    return fh.read(n)


def read_tensor(path):
    """The array in the ``.mext`` file at ``path``, mapped read-only from its payload.

    Nothing is read or copied up front: a page of values is read from the
    file when the array first touches it, and the mapping is released when
    the last array over it dies. Writing into the array raises. Truncating
    or rewriting the file in place while the array lives can end the
    process with SIGBUS.

    Raises DataFileError naming the file for a missing or unreadable file,
    a bad magic, version or dtype code, a file that ends inside its header
    or before the payload its extents give, and extents that shape no array;
    all of them before anything is mapped.
    """
    try:
        with open(path, "rb") as fh:
            magic = fh.read(4)
            if magic != MAGIC:
                raise DataFileError(f"{path}: bad magic {magic!r}")
            version, code, rank = struct.unpack("<HBB", _read_exact(fh, 4, path, "header"))
            if version != VERSION:
                raise DataFileError(f"{path}: unsupported version {version}")
            if code != 0:
                raise DataFileError(f"{path}: unknown dtype code {code}")
            shape = struct.unpack(f"<{rank}Q", _read_exact(fh, 8 * rank, path, "extents"))
            count = math.prod(shape)
            _check_left(fh, count * 8, path, "payload")
            flat = np.frombuffer(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ), "<f8",
                                 count, fh.tell())
    except OSError as exc:
        raise cannot_read(path, exc) from None
    try:  # a 0 extent next to huge ones, or a rank past numpy's limit
        return flat.reshape(shape)
    except ValueError as exc:
        raise DataFileError(f"{path}: extents {shape} shape no array ({exc})") from None
