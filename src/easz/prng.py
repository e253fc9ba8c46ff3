"""Counter-based 64-bit PRNG used for mask generation.

The mask seed travels in the wire header, so the sender and receiver must
regenerate bit-identical masks from it even if they are different
implementations.  We therefore pin the generator exactly: the SplitMix64
sequence of Steele, Lea & Flood (2014).

    state_{k+1} = (state_k + 0x9E3779B97F4A7C15) mod 2^64
    z = state_{k+1}
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   (mod 2^64)
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB   (mod 2^64)
    output_k = z XOR (z >> 31)

Bounded draws use plain modulo reduction: next_below(n) = next_u64() % n.
The modulo bias is irrelevant at mask-grid scale (n <= a few thousand) and
keeping the reduction trivial makes cross-language reimplementation easy.
"""

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic stream of 64-bit values seeded by a single integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        return self.next_below(1 << 64)

    def skip(self, k: int) -> None:
        """Advance past k draws in O(1): the state is a counter in steps of gamma."""
        self._state = (self._state + k * _GAMMA) & _MASK64

    def next_below(self, n: int) -> int:
        """Uniform-ish draw in [0, n)."""
        if n <= 0:
            raise ValueError("next_below requires n >= 1")
        # the output mix, inline: the mask sampler's inner loop calls this
        z = self._state = (self._state + _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return (z ^ (z >> 31)) % n


def digest64(data: bytes) -> int:
    """64-bit content digest (first 8 bytes of SHA-256, big-endian).

    Used as the checkpoint trailer checksum; picked over FNV/CRC so the
    digest stays fast on multi-megabyte parameter payloads.
    """
    import hashlib

    return int.from_bytes(hashlib.sha256(data).digest()[:8], "big")
