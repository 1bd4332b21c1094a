"""Binary tensor files for embedding fixtures and saved parameters.

Layout: magic "MEXT", version u16, dtype code u8 (0 = f64, the only one), rank u8,
extents as u64 little-endian, then raw values little-endian, every one finite.
"""

import math
import mmap
import os
import struct

import numpy as np

from .config import DataFileError, cannot_read

MAGIC = b"MEXT"
VERSION = 1
# values read and checked finite at a time: 64 KiB, which the allocator
# serves from its heap and reuses (1 MiB chunks raised a score's peak RSS)
_CHECK_VALUES = 1 << 13


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

    The values are read once through the file, 64 KiB at a time, and
    checked finite; the array is not a copy of them: a page of values is
    read from the mapping when the array first touches it, and the mapping
    is released when the last array over it dies. Writing into the array
    raises. Truncating or rewriting the file in place while the array lives
    can end the process with SIGBUS.

    Raises DataFileError naming the file for a missing or unreadable file,
    a bad magic, version or dtype code, a file that ends inside its header
    or before the payload its extents give, a non-finite value, and extents
    that shape no array; all of them before anything is mapped.
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
            count, offset = math.prod(shape), fh.tell()
            _check_left(fh, count * 8, path, "payload")
            # through the file: pages the mapping touched would stay resident
            chunk = np.empty(min(count, _CHECK_VALUES), "<f8")
            for start in range(0, count, _CHECK_VALUES):
                vals = chunk[:count - start]
                fh.readinto(vals)
                finite = np.isfinite(vals)
                if not finite.all():
                    i = int(np.argmin(finite))
                    raise DataFileError(f"{path}: non-finite value {vals[i]} at index {start + i}")
            flat = np.frombuffer(mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ), "<f8",
                                 count, offset)
    except OSError as exc:
        raise cannot_read(path, exc) from None
    try:  # a 0 extent next to huge ones, or a rank past numpy's limit
        return flat.reshape(shape)
    except ValueError as exc:
        raise DataFileError(f"{path}: extents {shape} shape no array ({exc})") from None
