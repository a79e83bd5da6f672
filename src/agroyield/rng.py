"""Reproducible pseudo-randomness.

The shuffle generator is a splitmix64 recurrence:

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z      <- (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output <- z XOR (z >> 31)

Train/test splits and any other ordering decision that must be identical
across runs use this generator directly, so the stream is fully specified
here rather than inherited from a library default.

Module seeds are fanned out from one global seed via
``derive_seed(global_seed, label)`` = first splitmix64 output of
``global_seed XOR fnv1a64(label)``, so one stage consuming more or fewer
draws can never shift another stage's stream.
"""

MASK64 = (1 << 64) - 1

GAMMA = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & MASK64
    return h


class SplitMix64:
    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * MIX1) & MASK64
        z = ((z ^ (z >> 27)) * MIX2) & MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_u64() % n

    def permutation(self, n: int) -> list:
        """Fisher-Yates shuffle of range(n), high index first."""
        idx = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.below(i + 1)
            idx[i], idx[j] = idx[j], idx[i]
        return idx


def derive_seed(global_seed: int, label: str) -> int:
    return SplitMix64((global_seed & MASK64) ^ fnv1a64(label)).next_u64()
