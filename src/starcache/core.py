"""Core fixed-width building blocks shared by every cache model.

Addresses are 48-bit byte addresses.  A cache geometry splits them into
(tag, index, offset) where the index is log2(line_count) bits wide plus
an optional number of extra bits used by the randomized-mapping model.
All randomness in the simulator flows through Rng so that a run is a
pure function of its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ADDRESS_BITS = 48
ADDRESS_LIMIT = 1 << ADDRESS_BITS

DOMAIN_BITS = 8
# Reserved id, the one above the last valid domain: trace parsing and
# synth_trace accept domain ids below it only.
DOMAIN_NONE = (1 << DOMAIN_BITS) - 1

_MASK64 = (1 << 64) - 1


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class CacheGeometry:
    """Shape of one cache level.

    line_size and line_count must be powers of two.  extra_index_bits
    widens the index field beyond log2(line_count); only the
    randomized-mapping model uses a nonzero value.  associativity is
    meaningful only for the set-associative models.
    """

    line_size: int = 64
    line_count: int = 512
    associativity: int = 8
    extra_index_bits: int = 0

    def __post_init__(self):
        if not _is_pow2(self.line_size):
            raise ValueError(f"line_size must be a power of two, got {self.line_size}")
        if not _is_pow2(self.line_count):
            raise ValueError(f"line_count must be a power of two, got {self.line_count}")
        if self.associativity < 1 or self.line_count % self.associativity:
            raise ValueError(
                f"associativity {self.associativity} does not divide {self.line_count} lines"
            )
        if not 0 <= self.extra_index_bits <= 16:
            raise ValueError(f"extra_index_bits out of range: {self.extra_index_bits}")
        if self.offset_bits + self.index_bits >= ADDRESS_BITS:
            raise ValueError("index and offset fields exceed the address width")

    @property
    def offset_bits(self) -> int:
        return self.line_size.bit_length() - 1

    @property
    def base_index_bits(self) -> int:
        return self.line_count.bit_length() - 1

    @property
    def index_bits(self) -> int:
        return self.base_index_bits + self.extra_index_bits

    @property
    def set_count(self) -> int:
        return self.line_count // self.associativity


# splitmix64 (Steele/Lea/Flood).  Chosen for a tiny, portable core that
# behaves identically on every platform: one 64-bit add per step plus a
# finalizing mix.  Constants below are the published ones.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Rng computes its outputs ahead in blocks that double from the first
# size up to the cap, so a short-lived fork pays for one small block.
# A larger cap saves little per draw but holds more memory per stream
# and makes each refill a longer pause.
_FIRST_BLOCK = 16
_BLOCK_CAP = 256
# _STEPS[-n:] is n*gamma, ..., 2*gamma, gamma (mod 2**64): a block's
# state offsets, last output first
_STEPS = np.arange(_BLOCK_CAP, 0, -1, dtype=np.uint64) * np.uint64(_GAMMA)
_U_MIX1 = np.uint64(_MIX1)
_U_MIX2 = np.uint64(_MIX2)


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def chance_threshold(p: float) -> int:
    """The bound below which a 64-bit draw means a success with
    probability p; raises for p outside [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability out of range: {p}")
    return int(p * 18446744073709551616.0)


class Rng:
    """Deterministic 64-bit generator (splitmix64).

    Output i is the mix of seed + (i + 1) * gamma alone, so the stream
    is computed ahead in uint64 numpy blocks and each draw pops the next
    buffered value; the values and their order are those of stepping
    one output at a time.

    choose(n) maps one output onto [0, n) with the multiply-shift trick;
    the bias is at most n / 2**64 and invisible at any count this
    simulator draws.
    """

    __slots__ = ("_state", "_buf", "_block")

    def __init__(self, seed: int):
        # the state after the last buffered output; _buf holds the
        # outputs not yet drawn, next one last
        self._state = seed & _MASK64
        self._buf: list[int] = []
        self._block = _FIRST_BLOCK

    def _refill(self) -> int:
        """Compute the next block and draw its first output."""
        n = self._block
        z = _STEPS[-n:] + np.uint64(self._state)
        z ^= z >> 30
        z *= _U_MIX1
        z ^= z >> 27
        z *= _U_MIX2
        z ^= z >> 31
        buf = self._buf = z.tolist()
        self._state = (self._state + n * _GAMMA) & _MASK64
        self._block = min(2 * n, _BLOCK_CAP)
        return buf.pop()

    def next_u64(self) -> int:
        buf = self._buf
        return buf.pop() if buf else self._refill()

    def choose(self, n: int) -> int:
        if n <= 0:
            raise ValueError("choose() needs a positive range")
        buf = self._buf
        return ((buf.pop() if buf else self._refill()) * n) >> 64

    def chance(self, p: float) -> bool:
        below = chance_threshold(p)     # a rejected p draws nothing
        return self.next_u64() < below

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """One Box-Muller draw; the partner sample is discarded."""
        u1 = (self.next_u64() >> 11) * 2.0 ** -53
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        return mu + sigma * r * math.cos(2.0 * math.pi * u2)

    def fork(self, label: int | str) -> "Rng":
        """Independent child stream; deterministic in (seed, label) and
        in how many values the parent has drawn, not in its blocks.

        String labels fold through the mixer eight bytes at a time, so
        labels sharing a prefix still land on distinct streams.
        """
        if isinstance(label, str):
            h = len(label)
            data = label.encode("utf-8")
            for i in range(0, len(data), 8):
                h = _mix64(h ^ int.from_bytes(data[i:i + 8], "little"))
            label = h
        state = (self._state - len(self._buf) * _GAMMA) & _MASK64
        return Rng(_mix64(state ^ _mix64(label & _MASK64)))


class FlatMemory:
    """Sparse line-granular backing store.

    Unwritten lines read as zeros.  read_line never allocates state, so
    reading is side-effect free and a snapshot taken before a read
    equals one taken after.
    """

    __slots__ = ("line_size", "_line_mask", "_lines", "_zero")

    def __init__(self, line_size: int = 64):
        if not _is_pow2(line_size):
            raise ValueError("line_size must be a power of two")
        self.line_size = line_size
        self._line_mask = ~(line_size - 1)
        self._lines: dict[int, bytes] = {}
        self._zero = bytes(line_size)

    def read_line(self, addr: int) -> bytes:
        if not 0 <= addr < ADDRESS_LIMIT:
            raise ValueError(f"address 0x{addr:x} outside the 48-bit space")
        return self._lines.get(addr & self._line_mask, self._zero)

    def write_line(self, addr: int, data) -> None:
        """Store a copy of data; a bytes payload is kept as it is."""
        if len(data) != self.line_size:
            raise ValueError(f"line payload must be {self.line_size} bytes")
        if not 0 <= addr < ADDRESS_LIMIT:
            raise ValueError(f"address 0x{addr:x} outside the 48-bit space")
        self._lines[addr & self._line_mask] = bytes(data)

    def nonzero_lines(self) -> dict[int, bytes]:
        """Copy of every line that was ever written (zeros included)."""
        return dict(self._lines)
