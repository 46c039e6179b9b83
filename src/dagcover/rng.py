"""Reproducible random streams.

All randomized code in the package draws from Philox, a counter-based
generator: the user seed becomes the key and the stream path (for
example ``(n, sample_index, tag)``) is planted in the high words of the
counter.  Streams with different paths never overlap because generation
only advances the low counter word, so parallel sampling stays
bit-stable regardless of scheduling.  Each counter step yields four
64-bit words and a double uses one, so ``bit_generator.advance(k)``
skips exactly 4k doubles: a stream can be cut at any multiple of 4 and
its pieces drawn on separate threads, reading the same uniforms.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInputError

_MASK64 = (1 << 64) - 1


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, path); at most 3 path components."""
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    if seed >= 1 << 128:
        raise InvalidInputError(f"seed must be below 2**128 (the Philox key width), got {seed}")
    if len(path) > 3:
        raise InvalidInputError("stream path is limited to 3 components")
    if any(c < 0 or c > _MASK64 for c in path):
        raise InvalidInputError(f"bad stream path {path}")
    key = [seed & _MASK64, (seed >> 64) & _MASK64]
    counter = [0, 0, 0, 0]
    for i, c in enumerate(path):
        counter[1 + i] = c
    return np.random.Generator(np.random.Philox(counter=counter, key=key))
