"""Deterministic 64-bit random streams for reproducible artifacts.

Projection matrices must be reconstructible from (kind, d, k, seed) alone,
so their entries come from a fixed, documented generator rather than
whatever a library's default happens to be.  The generator used here is
splitmix64: output i (0-based) of stream `seed` is

    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2**64
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9  mod 2**64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB  mod 2**64
    out = z ^ (z >> 31)

Uniform doubles in [0, 1) take the top 53 bits: (out >> 11) * 2**-53.
A stream is read by `blocks`, from output `first` on: a part of a
projection drawn alone is drawn from its own place in the stream.
Serialized models record GENERATOR_NAME so files are self-describing.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np

GENERATOR_NAME = "splitmix64"

_MASK64 = (1 << 64) - 1
_GAMMA_INT = 0x9E3779B97F4A7C15
_GAMMA = np.uint64(_GAMMA_INT)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
CHUNK = 1 << 14  # outputs mixed at a time, in place: two 128 KiB buffers stay in cache


def blocks(seed: int, count: int, size: int = CHUNK,
           first: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """Outputs first..first+count-1 of the splitmix64 stream as (offset, block) pairs
    of ``size`` outputs, ``offset`` counted from ``first`` (the last block may be shorter).

    Any integer seed is taken modulo 2**64.  Each block is mixed in place in one
    buffer, which the caller may overwrite and the next block reuses.
    """
    ramp = _GAMMA * np.arange(1, min(size, count) + 1, dtype=np.uint64)
    buffer, shifted = np.empty_like(ramp), np.empty_like(ramp)
    for start in range(0, count, size):
        z, t = buffer[:count - start], shifted[:count - start]
        # z[i] = seed + (first + start + i + 1) * gamma
        #      = ramp[i] + (seed + (first + start) * gamma)
        np.add(ramp[:len(z)], np.uint64((seed + (first + start) * _GAMMA_INT) & _MASK64), out=z)
        np.right_shift(z, np.uint64(30), out=t)
        z ^= t
        z *= _MIX1
        np.right_shift(z, np.uint64(27), out=t)
        z ^= t
        z *= _MIX2
        np.right_shift(z, np.uint64(31), out=t)
        z ^= t
        yield start, z


def derive_seed(master: int, stage: str) -> int:
    """Expand one master seed into a per-stage seed.

    Rule: low 8 bytes (little-endian) of SHA-256 over "<stage>:<master>".
    Keeps pipeline stages decoupled while the whole run stays reproducible
    from a single number.
    """
    digest = hashlib.sha256(f"{stage}:{master}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")
