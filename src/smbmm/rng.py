"""Deterministic, splittable randomness.

All protocol randomness flows through :class:`Stream`, a counter-based
SplitMix64 sequence. The i-th output of a stream with key k is

    mix64(k + i * 0x9E3779B97F4A7C15)   (everything mod 2**64)

where ``mix64`` is the SplitMix64 finalizer. Sub-streams are derived by
keyed BLAKE2b over a text label, so sources, the noise generators and
the harness can all carve independent streams out of one experiment
seed. Identical (seed, label path) pairs reproduce bit-identical draws
on every platform.
"""

import hashlib

from .errors import ParamError

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """SplitMix64 finalizer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Stream:
    """Counter-based SplitMix64 stream with labelled sub-streams."""

    __slots__ = ("key", "counter")

    def __init__(self, key: int):
        self.key = key & _MASK
        self.counter = 0

    def derive(self, label: str) -> "Stream":
        """Child stream keyed by BLAKE2b(label, key=parent key)."""
        digest = hashlib.blake2b(
            label.encode("utf-8"),
            key=self.key.to_bytes(8, "little"),
            digest_size=8,
        ).digest()
        return Stream(int.from_bytes(digest, "little"))

    def next_u64(self) -> int:
        self.counter += 1
        return mix64((self.key + self.counter * _GOLDEN) & _MASK)

    def next_below(self, bound: int) -> int:
        """Uniform draw from [0, bound) via rejection sampling (no modulo bias)."""
        if bound <= 0:
            raise ParamError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound
