"""Binary tensor files for embedding fixtures and saved parameters.

Layout: magic "MEXT", version u16, dtype code u8 (0 = f64, the only one), rank u8,
extents as u64 little-endian, then raw values little-endian.
"""

import math
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
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<HBB", VERSION, 0, arr.ndim))  # dtype code 0: f64
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.astype("<f8").tobytes())


def _read_exact(fh, n, path, part):
    """The next ``n`` bytes of ``fh``, checked against what is left of the file
    first, so that corrupt extents allocate nothing."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise DataFileError(f"{path}: truncated {part} ({left} of {n} bytes)")
    return fh.read(n)


def read_tensor(path):
    """The array in the ``.mext`` file at ``path``.

    Raises DataFileError naming the file for a missing or unreadable file,
    a bad magic, version or dtype code, a file that ends inside its header
    or before the payload its extents give, and extents that shape no array.
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
            raw = _read_exact(fh, math.prod(shape) * 8, path, "payload")
    except OSError as exc:
        raise cannot_read(path, exc) from None
    try:  # a 0 extent next to huge ones, or a rank past numpy's limit
        return np.frombuffer(raw, dtype="<f8").reshape(shape).astype(np.float64)
    except ValueError as exc:
        raise DataFileError(f"{path}: extents {shape} shape no array ({exc})") from None
