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
the squashed load's data came from below level n.  A squash reaches L2
only after it has reached every L1 copy the window made.

The hardened models keep one L1 copy per domain, and those copies are
not kept coherent with each other.  Two domains storing to one line is
out of scope: the later write-back overwrites the other's bytes.
Invalidating the other copies on a store would let one domain evict
another's line, the channel that domain gating closes.

Write-backs go one level down.  A dirty L1 line lands in its L2 line,
which inclusion keeps resident; that line turns dirty and loses its
spec_bit, because stored data is architectural.  So speculative lines
stay clean at both levels, and squash invalidation can drop them
without a write-back.

Line payloads follow the copy-on-write rule in models: an L1 fill
shares the L2 line's bytes, and the L2 fill shares memory's.  A
write-back and a flush resync therefore give the L2 line a fresh bytes
payload rather than writing into the one it holds.
"""

from __future__ import annotations

from .core import CacheGeometry, FlatMemory, Rng
from .models import (AccessKind, AccessOutcome, FarrCache, NewsCache, Op,
                     SetAssocLru, SFillAction)

_LOAD = Op.LOAD
_STORE = Op.STORE
_HIT = AccessKind.HIT
_PROPAGATE = SFillAction.PROPAGATE


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

    __slots__ = ("l2", "_sets", "_line_mask", "_offset_bits", "_setmask")

    def __init__(self, l2: SetAssocLru):
        self.l2 = l2
        # an access leaves its line in its set, so fetch reads the
        # payload from there rather than looking the line up again
        self._sets = l2._sets
        self._line_mask = l2._line_mask
        self._offset_bits = l2._offset_bits
        self._setmask = l2._setmask

    def fetch(self, addr: int, domain: int, spec_bit: int):
        # looked up per call: a tracer may wrap the instance's access
        out = self.l2.access(_LOAD, addr, domain, spec_bit)
        base = addr & self._line_mask
        data = self._sets[(base >> self._offset_bits) & self._setmask][base].data
        return data, 2 if out.kind is _HIT else 3, out.latency

    def writeback(self, base: int, domain: int, data) -> None:
        rec = self.l2.find(base)
        assert rec is not None, "write-back target missing from L2"
        rec.data = bytes(data)
        rec.dirty = 1
        rec.spec_bit = 0    # stored data is architectural


class Hierarchy:
    """One simulated core's view of memory: L1 + L2 + flat backing store."""

    def __init__(self, model: str, l1_geometry: CacheGeometry,
                 l2_geometry: CacheGeometry, rng: Rng,
                 l1_hit_cycles: int = 1, l2_hit_cycles: int = 12,
                 memory_cycles: int = 100, debug_checks: bool = False):
        for name, lat in (("l1_hit_cycles", l1_hit_cycles),
                          ("l2_hit_cycles", l2_hit_cycles),
                          ("memory_cycles", memory_cycles)):
            if lat < 1:
                raise ValueError(f"{name} must be at least 1, got {lat}")
        if l1_geometry.line_size != l2_geometry.line_size:
            raise ValueError("levels must share one line size")
        self.model = model
        # the hardened models flush only the caller's own copies
        self._own_only = model != "sa-lru"
        self.rng = rng
        self.debug_checks = debug_checks
        self.memory = FlatMemory(l1_geometry.line_size)
        self._line_mask = ~(l1_geometry.line_size - 1)

        self.l2 = SetAssocLru(l2_geometry, l2_hit_cycles,
                              _MemoryPort(self.memory, memory_cycles),
                              secure_inval=(model != "sa-lru"), level=2)
        self.l2.on_evict = self._back_invalidate
        port = _L2Port(self.l2)
        if model == "sa-lru":
            self.l1 = SetAssocLru(l1_geometry, l1_hit_cycles, port,
                                  secure_inval=False, level=1)
        elif model == "star-farr":
            self.l1 = FarrCache(l1_geometry, l1_hit_cycles, port, rng)
        elif model == "star-news":
            self.l1 = NewsCache(l1_geometry, l1_hit_cycles, port, rng)
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
        caller's own domain; lines other domains own stay put.  A
        hardened flush also keeps the L2 line, whoever owns it, while
        another domain's L1 copy of it remains: inclusion needs it, and
        recalling that copy would let one domain evict another's line."""
        self.flushes += 1
        own_only = self._own_only
        l1 = self.l1
        l1rec = l1.flush_line(addr, domain, own_only)
        if own_only and l1.contains_addr(addr & self._line_mask):
            l2rec = None
        else:
            l2rec = self.l2.flush_line(addr, domain, own_only)
        if l1rec is not None and l1rec.dirty:
            data = bytes(l1rec.data)
            self.memory.write_line(l1rec.base, data)
            # keep a surviving L2 copy coherent with memory
            stale = self.l2.find(addr)
            if stale is not None:
                stale.data = data
                stale.dirty = 0
        elif l2rec is not None and l2rec.dirty:
            self.memory.write_line(l2rec.base, l2rec.data)
        if self.debug_checks:
            self.check_invariants()
        return l1rec is not None or l2rec is not None

    def sfill_inv(self, addr: int, domain: int, source_level: int) -> bool:
        """The L1 phase of one squash invalidation; True when L1 passes
        it on to L2.  source_level is where the squashed load's data
        came from, 2 or 3."""
        self.sfill_inv_sent += 1
        return self.l1.handle_sfill_inv(addr, domain,
                                        source_level) is _PROPAGATE

    def squash(self, loads) -> None:
        """Invalidate one squashed window's (addr, domain, source_level)
        loads, fire-and-forget for the issuer.  Every L1 copy goes
        first; then L2 drops each forwarded line unless an L1 copy of it
        remains, which inclusion needs.  Beyond L2 sits stateless
        memory, so L2's own forward decision has nowhere to go."""
        forwarded = [load for load in loads if self.sfill_inv(*load)]
        for addr, domain, source_level in forwarded:
            if not self.l1.contains_addr(addr & self._line_mask):
                self.l2.handle_sfill_inv(addr, domain, source_level)
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
            self.l2.flush_line(rec.base, rec.domain, False)
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
            for key, slot in self.l1._keys.items():
                assert self.l1._slot_keys[slot] == key, \
                    "slot key disagrees with the key map"
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
