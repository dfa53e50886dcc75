"""The IDX writer the tests build their MNIST-shaped files with."""

import struct

import numpy as np


def write_idx(tensor: np.ndarray) -> bytes:
    """Inverse of dcx.datasets.parse_idx; round-trips byte-identically:
    two zero bytes, type code 0x08 (unsigned bytes), the dimension count,
    each size as a big-endian 32-bit integer, then the bytes."""
    arr = np.ascontiguousarray(tensor, dtype=np.uint8)
    header = bytes([0, 0, 0x08, arr.ndim])
    header += struct.pack(f">{arr.ndim}I", *arr.shape)
    return header + arr.tobytes()
