"""Two-level inclusive write-back hierarchy.

L1 is built from a design record (models.DESIGNS); L2 is always a
conventional set-associative LRU cache.  The levels stack directly:
L1's lower is L2 and L2's lower is the flat memory, so a miss fetches
through the level below and an eviction writes back into it.  A level
reports only which level supplied an access's data; the hierarchy owns
the latency ladder, additive along that path: an L1 hit costs
l1_hit_cycles, an L2 hit adds l2_hit_cycles, a memory fetch adds
memory_cycles on top of both.

Inclusion is by address: any address valid in L1 is also valid in L2
(the forward-without-fill outcome leaves lines that exist only in L2,
which inclusion permits).  An L2 eviction recalls every L1 copy of that
address.  Squash-time invalidation requests travel strictly downward
and produce no response; level n forwards one to level n+1 only when
the squashed load's data came from below level n.  A squash reaches L2
only after it has reached every L1 copy the window made.  A hierarchy
whose design record turns squash invalidation off counts each request
and drops it.

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

from typing import NamedTuple

from .core import CacheGeometry, FlatMemory, Rng
from .models import Design, SetAssocLru


class AccessOutcome(NamedTuple):
    """Result of one load or store: its cycles and the level that
    supplied the data (1 for L1, 2 for L2, 3 for memory).  Immutable, so
    a hierarchy shares one outcome among the accesses of each level."""

    latency: int
    source_level: int


class Hierarchy:
    """One simulated core's view of memory: L1 + L2 + flat backing store."""

    def __init__(self, design: Design, l1_geometry: CacheGeometry,
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
        self.domain_gated = design.l1.domain_gated
        self.squash_invalidation = design.squash_invalidation
        self.debug_checks = debug_checks
        self.memory = FlatMemory(l1_geometry.line_size)
        self._line_mask = ~(l1_geometry.line_size - 1)
        # outcome[source level]; index 0 is never a source
        l2_cycles = l1_hit_cycles + l2_hit_cycles
        self._outcome = (None, AccessOutcome(l1_hit_cycles, 1),
                         AccessOutcome(l2_cycles, 2),
                         AccessOutcome(l2_cycles + memory_cycles, 3))

        l2 = self.l2 = SetAssocLru(l2_geometry, self.memory, level=2)
        l2.on_evict = self._back_invalidate
        self.l1 = design.l1(l1_geometry, l2, rng)

        self._store_seq = 0
        self.loads = self.stores = self.flushes = self.sfill_inv_sent = 0
        self.l1_hits = self.l1_miss_l2 = self.l1_miss_mem = 0

    # -- statistics helpers --
    @property
    def sfill_inv_dropped_case_i(self) -> int:
        return self.l1.inval_dropped_case_i + self.l2.inval_dropped_case_i

    @property
    def tagmiss_forward_nofill(self) -> int:
        return self.l1.tagmiss_forward_nofill

    # -- the architectural operations --
    def load(self, addr: int, domain: int, spec_bit: int = 0) -> AccessOutcome:
        self.loads += 1
        # looked up per call: a tracer may wrap the instance's access
        source = self.l1.access(addr, domain, spec_bit)
        if source == 1:
            self.l1_hits += 1
        elif source == 2:
            self.l1_miss_l2 += 1
        else:
            self.l1_miss_mem += 1
        if self.debug_checks:
            self.check_invariants()
        return self._outcome[source]

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
        source = self.l1.access(addr, domain, 0, value & 0xFF)
        if self.debug_checks:
            self.check_invariants()
        return self._outcome[source]

    def flush(self, addr: int, domain: int) -> bool:
        """Invalidate addr's line, writing dirty data back to memory.

        Under an L1 that is not domain_gated (the baseline) a flush
        removes whatever copy is resident, as a flush instruction would.
        Under a gated one only the caller's own copies go, and the L2
        line, whoever owns it, stays while another domain's L1 copy of
        it remains: inclusion needs it, and recalling that copy would
        let one domain evict another's line."""
        self.flushes += 1
        owner = domain if self.domain_gated else None
        l1 = self.l1
        l1rec = l1.flush_line(addr, owner)
        if owner is not None and l1.contains_addr(addr & self._line_mask):
            l2rec = None
        else:
            l2rec = self.l2.flush_line(addr, owner)
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
        came from, 2 or 3.  Without squash_invalidation the request is
        counted and dropped unseen."""
        self.sfill_inv_sent += 1
        return self.squash_invalidation and self.l1.handle_sfill_inv(
            addr, domain, source_level)

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
            l1.flush_line(base, rec.domain)
            if rec.dirty:
                self.memory.write_line(base, rec.data)

    def drain(self) -> None:
        """Write every dirty line back and empty both levels."""
        for rec in list(self.l1.valid_lines()):
            self.l1.flush_line(rec.base, rec.domain)
            if rec.dirty:
                self.l2.writeback(rec.base, rec.domain, rec.data)
        for rec in list(self.l2.valid_lines()):
            self.l2.flush_line(rec.base, rec.domain)
            if rec.dirty:
                self.memory.write_line(rec.base, rec.data)

    def check_invariants(self) -> None:
        """Inclusion, then each level's own structure."""
        for rec in self.l1.valid_lines():
            assert self.l2.contains_addr(rec.base), \
                f"L1 line 0x{rec.base:x} missing from L2"
        self.l1.check_invariants()
        self.l2.check_invariants()
