"""Two-level inclusive write-back hierarchy.

L1 is one of the three cache models; L2 is always a conventional
set-associative LRU cache.  Latency is additive along the path that
served an access: an L1 hit costs l1_hit_cycles, an L2 hit adds
l2_hit_cycles, a memory fetch adds memory_cycles on top of both.

Inclusion is by address: any address valid in L1 is also valid in L2
(the forward-without-fill outcome leaves lines that exist only in L2,
which inclusion permits).  An L2 eviction recalls every L1 copy of that
address.  Squash-time invalidation requests travel strictly downward
and produce no response; level n forwards one to level n+1 only when
the squashed load's data came from below level n.

Write-backs go one level down.  A dirty L1 line lands in its L2 line,
which inclusion keeps resident; that line turns dirty and loses its
spec_bit, because stored data is architectural.  So speculative lines
stay clean at both levels, and squash invalidation can drop them
without a write-back.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import CacheGeometry, FlatMemory, Rng
from .models import (AccessKind, AccessOutcome, FarrCache, NewsCache, Op,
                     SetAssocLru, SFillAction)

_LOAD = Op.LOAD
_STORE = Op.STORE
_HIT = AccessKind.HIT


@dataclass(slots=True)
class MemoryResponse:
    """What the execution engine keeps about a finished access."""
    latency: int
    source_level: int


@dataclass(slots=True)
class SFillInvRequest:
    """One-way invalidation sent when a speculative load is squashed.

    source_level is where the squashed load's data came from; loads
    served by an L1 hit are filtered out before a request is built.
    """
    addr: int
    domain: int
    source_level: int

    def __post_init__(self):
        if self.source_level not in (2, 3):
            raise ValueError(
                f"invalidation carries source level 2 or 3, got {self.source_level}")


class _MemoryPort:
    """Bottom of the stack: line fetches and write-backs against flat
    memory."""

    __slots__ = ("memory", "cycles")

    def __init__(self, memory: FlatMemory, cycles: int):
        self.memory = memory
        self.cycles = cycles

    def fetch(self, addr: int, domain: int, spec_bit: int):
        return self.memory.read_line(addr), 3, self.cycles

    def writeback(self, base: int, domain: int, data) -> None:
        self.memory.write_line(base, data)


class _L2Port:
    """L1's view of the rest of the hierarchy: a miss fetches through L2
    (filling it from memory on an L2 miss), an eviction writes back into
    the L2 line."""

    __slots__ = ("l2",)

    def __init__(self, l2: SetAssocLru):
        self.l2 = l2

    def fetch(self, addr: int, domain: int, spec_bit: int):
        l2 = self.l2
        out = l2.access(_LOAD, addr, domain, spec_bit)
        return l2.find(addr).data, 2 if out.kind is _HIT else 3, out.latency

    def writeback(self, base: int, domain: int, data) -> None:
        rec = self.l2.find(base)
        assert rec is not None, "write-back target missing from L2"
        rec.data[:] = data
        rec.dirty = 1
        rec.spec_bit = 0    # stored data is architectural


class Hierarchy:
    """One simulated core's view of memory: L1 + L2 + flat backing store."""

    def __init__(self, model: str, l1_geometry: CacheGeometry,
                 l2_geometry: CacheGeometry, rng: Rng,
                 l1_hit_cycles: int = 1, l2_hit_cycles: int = 12,
                 memory_cycles: int = 100, debug_checks: bool = False,
                 farr_deterministic_victim: bool = False,
                 news_fill_on_spec_tagmiss: bool = False):
        for name, lat in (("l1_hit_cycles", l1_hit_cycles),
                          ("l2_hit_cycles", l2_hit_cycles),
                          ("memory_cycles", memory_cycles)):
            if lat < 1:
                raise ValueError(f"{name} must be at least 1, got {lat}")
        if l1_geometry.line_size != l2_geometry.line_size:
            raise ValueError("levels must share one line size")
        self.model = model
        self.rng = rng
        self.debug_checks = debug_checks
        self.memory = FlatMemory(l1_geometry.line_size)

        self.l2 = SetAssocLru(l2_geometry, l2_hit_cycles,
                              _MemoryPort(self.memory, memory_cycles),
                              secure_inval=(model != "sa-lru"), level=2)
        self.l2.on_evict = self._back_invalidate
        port = _L2Port(self.l2)
        if model == "sa-lru":
            self.l1 = SetAssocLru(l1_geometry, l1_hit_cycles, port,
                                  secure_inval=False, level=1)
        elif model == "star-farr":
            self.l1 = FarrCache(l1_geometry, l1_hit_cycles, port, rng, level=1,
                                deterministic_victim=farr_deterministic_victim)
        elif model == "star-news":
            self.l1 = NewsCache(l1_geometry, l1_hit_cycles, port, rng, level=1,
                                fill_on_spec_tagmiss=news_fill_on_spec_tagmiss)
        else:
            raise ValueError(f"unknown model {model!r}")

        self._store_seq = 0
        self.loads = 0
        self.stores = 0
        self.l1_hits = 0
        self.l1_miss_l2 = 0
        self.l1_miss_mem = 0
        self.flushes = 0
        self.sfill_inv_sent = 0

    # -- statistics helpers --
    @property
    def sfill_inv_dropped_case_i(self) -> int:
        return self.l1.inval_dropped_case_i + self.l2.inval_dropped_case_i

    @property
    def tagmiss_forward_nofill(self) -> int:
        return getattr(self.l1, "tagmiss_forward_nofill", 0)

    # -- the architectural operations --
    def load(self, addr: int, domain: int, spec_bit: int = 0) -> AccessOutcome:
        self.loads += 1
        # looked up per call: a tracer may wrap the instance's access
        out = self.l1.access(_LOAD, addr, domain, spec_bit)
        source = out.source_level
        if source == 1:
            self.l1_hits += 1
        elif source == 2:
            self.l1_miss_l2 += 1
        else:
            self.l1_miss_mem += 1
        if self.debug_checks:
            self.check_invariants()
        return out

    def store(self, addr: int, domain: int,
              value: int | None = None) -> AccessOutcome:
        """Stores are architectural: they issue at commit, never
        speculatively.  With no explicit value a deterministic token
        (running store count modulo 256) is written so write-back paths
        stay checkable against a flat reference."""
        self.stores += 1
        if value is None:
            value = self._store_seq
            self._store_seq = (self._store_seq + 1) & 0xFF
        # hit/miss tallies cover loads only, so hits + misses = loads holds
        out = self.l1.access(_STORE, addr, domain, 0, value & 0xFF)
        if self.debug_checks:
            self.check_invariants()
        return out

    def flush(self, addr: int, domain: int) -> bool:
        """Invalidate addr's line, writing dirty data back to memory.

        The conventional baseline flushes whatever copy is resident, as
        a flush instruction would.  The hardened models only honour the
        caller's own domain; lines other domains own stay put."""
        self.flushes += 1
        own_only = self.model != "sa-lru"
        l1rec = self.l1.flush_line(addr, domain, own_only)
        l2rec = self.l2.flush_line(addr, domain, own_only)
        if l1rec is not None and l1rec.dirty:
            self.memory.write_line(l1rec.base, l1rec.data)
            # keep any cross-domain L2 copy coherent with memory
            stale = self.l2.find(addr)
            if stale is not None:
                stale.data[:] = l1rec.data
                stale.dirty = 0
        elif l2rec is not None and l2rec.dirty:
            self.memory.write_line(l2rec.base, l2rec.data)
        if self.debug_checks:
            self.check_invariants()
        return l1rec is not None or l2rec is not None

    def sfill_inv(self, req: SFillInvRequest) -> None:
        """Deliver a squash invalidation; fire-and-forget for the
        issuer."""
        self.sfill_inv_sent += 1
        action = self.l1.handle_sfill_inv(req.addr, req.domain, req.source_level)
        if action is SFillAction.PROPAGATE:
            # beyond L2 sits stateless memory, so L2's own forward
            # decision has nowhere to go
            self.l2.handle_sfill_inv(req.addr, req.domain, req.source_level)
        if self.debug_checks:
            self.check_invariants()

    def _back_invalidate(self, base: int) -> None:
        # L2 lost the address; no L1 copy of it may survive.  A dirty
        # L1 copy skips the (gone) L2 line and lands in memory.  Copies
        # go in ascending slot order, the order the free list expects.
        l1 = self.l1
        for rec in l1.lines_at(base):
            l1.flush_line(base, rec.domain, True)
            if rec.dirty:
                self.memory.write_line(base, rec.data)

    def drain(self) -> None:
        """Write every dirty line back and empty both levels."""
        for rec in list(self.l1.valid_lines()):
            self.l1.flush_line(rec.base, rec.domain, True)
            if rec.dirty:
                self.l1.lower.writeback(rec.base, rec.domain, rec.data)
        for rec in list(self.l2.valid_lines()):
            self.l2.invalidate(rec.base)
            if rec.dirty:
                self.memory.write_line(rec.base, rec.data)

    def check_invariants(self) -> None:
        l1_lines = list(self.l1.valid_lines())
        by_base: dict[int, list] = {}
        for rec in l1_lines:
            assert self.l2.contains_addr(rec.base), \
                f"L1 line 0x{rec.base:x} missing from L2"
            assert not (rec.spec_bit and rec.dirty), \
                f"speculative line 0x{rec.base:x} is dirty"
            by_base.setdefault(rec.base, []).append(rec)
        # the base index must agree with a scan, slot order included
        for base, recs in by_base.items():
            assert self.l1.contains_addr(base), \
                f"base index lost L1 line 0x{base:x}"
            assert self.l1.lines_at(base) == recs, \
                f"base index disagrees with the L1 lines at 0x{base:x}"
        if not isinstance(self.l1, SetAssocLru):
            assert self.l1._at.keys() == by_base.keys(), \
                "base index holds a line base no L1 line has"
        for rec in self.l2.valid_lines():
            assert not (rec.spec_bit and rec.dirty), \
                f"speculative L2 line 0x{rec.base:x} is dirty"
        if isinstance(self.l1, NewsCache):
            seen = set()
            for (dom, idx), slot in self.l1._keys.items():
                rec = self.l1._slots[slot]
                assert rec is not None and rec.domain == dom and rec.index == idx, \
                    "mapping entry points at the wrong line"
                assert slot not in seen
                seen.add(slot)
            valid = sum(1 for r in self.l1._slots if r is not None)
            assert len(self.l1._keys) == valid, "mapping entry per valid line"
