"""Seeded draws for eigencombinations and sampled checks.

Every seeded draw of the package comes from one `Sampler`, the stdlib
Mersenne Twister (`random.Random`) started from a seed >= 0.  The stream
depends on the seed alone, not on the numpy version, and drawing needs
neither `numpy.random` nor OpenSSL's hashes.
"""

from __future__ import annotations

import random

import numpy as np


class Sampler(random.Random):
    """random.Random(seed) for a seed >= 0, with blocks of indices.

    Scalars come from `randrange` and `uniform`, rows without repeats from
    `sample`.  `indices(n, size)` reads `getrandbits(64 * size)` as size
    little-endian uint64 words and reduces each mod n.  A word is uniform
    on 0..2^64 - 1, so each index has probability floor(2^64 / n) / 2^64
    or one 2^-64 more, and the draw is within total variation n / 2^64 of
    uniform on 0..n - 1: below 2^-32 for every n below 2^32.
    """

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        super().__init__(seed)

    def indices(self, n: int, size: int) -> np.ndarray:
        """size draws (int64) from 0..n - 1."""
        if n < 1:
            raise ValueError(f"cannot draw from 0..{n - 1}")
        words = self.getrandbits(64 * size).to_bytes(8 * size, "little")
        return (np.frombuffer(words, dtype="<u8") % np.uint64(n)).astype(np.int64)
