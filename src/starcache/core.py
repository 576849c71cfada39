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

ADDRESS_BITS = 48
ADDRESS_LIMIT = 1 << ADDRESS_BITS

DOMAIN_BITS = 8
# Reserved id stamped on cleared lines; it never matches a request.
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
    def tag_bits(self) -> int:
        return ADDRESS_BITS - self.offset_bits - self.index_bits

    @property
    def set_count(self) -> int:
        return self.line_count // self.associativity

    def check_address(self, addr: int) -> None:
        if not 0 <= addr < ADDRESS_LIMIT:
            raise ValueError(f"address 0x{addr:x} outside the 48-bit space")

    def decompose(self, addr: int) -> tuple[int, int, int]:
        """Split addr into (tag, index, offset); inverse of reassemble."""
        self.check_address(addr)
        offset = addr & (self.line_size - 1)
        index = (addr >> self.offset_bits) & ((1 << self.index_bits) - 1)
        tag = addr >> (self.offset_bits + self.index_bits)
        return tag, index, offset

    def reassemble(self, tag: int, index: int, offset: int) -> int:
        if not 0 <= offset < self.line_size:
            raise ValueError(f"offset {offset} outside line")
        if not 0 <= index < (1 << self.index_bits):
            raise ValueError(f"index {index} wider than {self.index_bits} bits")
        if not 0 <= tag < (1 << self.tag_bits):
            raise ValueError(f"tag 0x{tag:x} wider than {self.tag_bits} bits")
        return (((tag << self.index_bits) | index) << self.offset_bits) | offset



# splitmix64 (Steele/Lea/Flood).  Chosen for a tiny, portable core that
# behaves identically on every platform: one 64-bit add per step plus a
# finalizing mix.  Constants below are the published ones.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic 64-bit generator (splitmix64).

    choose(n) maps one output onto [0, n) with the multiply-shift trick;
    the bias is at most n / 2**64 and invisible at any count this
    simulator draws.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def choose(self, n: int) -> int:
        if n <= 0:
            raise ValueError("choose() needs a positive range")
        return (self.next_u64() * n) >> 64

    def chance(self, p: float) -> bool:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        return self.next_u64() < int(p * 18446744073709551616.0)

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """One Box-Muller draw; the partner sample is discarded."""
        u1 = (self.next_u64() >> 11) * 2.0 ** -53
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        return mu + sigma * r * math.cos(2.0 * math.pi * u2)

    def fork(self, label: int | str) -> "Rng":
        """Independent child stream; deterministic in (seed, label).

        String labels fold through the mixer eight bytes at a time, so
        labels sharing a prefix still land on distinct streams.
        """
        if isinstance(label, str):
            h = len(label)
            data = label.encode("utf-8")
            for i in range(0, len(data), 8):
                h = _mix64(h ^ int.from_bytes(data[i:i + 8], "little"))
            label = h
        return Rng(_mix64(self._state ^ _mix64(label & _MASK64)))


class FlatMemory:
    """Sparse line-granular backing store.

    Unwritten lines read as zeros.  read_line never allocates state, so
    reading is side-effect free and a snapshot taken before a read
    equals one taken after.
    """

    __slots__ = ("line_size", "_offset_mask", "_lines", "_zero")

    def __init__(self, line_size: int = 64):
        if not _is_pow2(line_size):
            raise ValueError("line_size must be a power of two")
        self.line_size = line_size
        self._offset_mask = line_size - 1
        self._lines: dict[int, bytes] = {}
        self._zero = bytes(line_size)

    def _base(self, addr: int) -> int:
        if not 0 <= addr < ADDRESS_LIMIT:
            raise ValueError(f"address 0x{addr:x} outside the 48-bit space")
        return addr & ~self._offset_mask

    def read_line(self, addr: int) -> bytes:
        return self._lines.get(self._base(addr), self._zero)

    def write_line(self, addr: int, data) -> None:
        if len(data) != self.line_size:
            raise ValueError(f"line payload must be {self.line_size} bytes")
        self._lines[self._base(addr)] = bytes(data)

    def nonzero_lines(self) -> dict[int, bytes]:
        """Copy of every line that was ever written (zeros included)."""
        return dict(self._lines)
