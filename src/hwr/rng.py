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
A stream is always read from its start: outputs 0..count-1.
Serialized models record GENERATOR_NAME so files are self-describing.
"""

from __future__ import annotations

import hashlib

import numpy as np

GENERATOR_NAME = "splitmix64"

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def splitmix64(seed: int, count: int) -> np.ndarray:
    """The first `count` outputs of the splitmix64 stream, as uint64."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    i = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + _GAMMA * i
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def uniforms(seed: int, count: int) -> np.ndarray:
    """float64 uniforms in [0, 1), one per splitmix64 output."""
    return (splitmix64(seed, count) >> np.uint64(11)) * 2.0**-53


def derive_seed(master: int, stage: str) -> int:
    """Expand one master seed into a per-stage seed.

    Rule: low 8 bytes (little-endian) of SHA-256 over "<stage>:<master>".
    Keeps pipeline stages decoupled while the whole run stays reproducible
    from a single number.
    """
    digest = hashlib.sha256(f"{stage}:{master}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")
