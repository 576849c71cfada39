"""The three L1 data cache models.

sa-lru      conventional set-associative cache with LRU replacement; no
            domain awareness.  Serves as the insecure baseline and, with
            its secure invalidation handler enabled, as the L2 model.
star-farr   fully associative array with uniform random replacement.  A
            hit requires both the tag and the requesting domain to
            match, so one domain can never hit (or flush) another
            domain's lines.
star-news   randomized-mapping cache.  Each line is found through a
            per-line mapping entry (domain, index) where the index field
            is log2(line_count) + k bits of the address.  A mapping hit
            with a tag mismatch forwards data without filling when the
            load is speculative (plus one random eviction); a mapping
            miss replaces a uniformly random line.

Every model keeps a spec_bit per line: set when the line was filled by a
speculative load, cleared by the first non-speculative touch.  Lines
with spec_bit set are never dirty, which lets squash-time invalidation
drop them without a write-back.

Hits are the common case, so they allocate nothing: every model returns
one preallocated, immutable hit outcome, and only misses build a new
AccessOutcome.  Every model also answers "which lines hold this base?"
without scanning (lines_at, contains_addr): the set-associative cache
through its per-set dict, the two random-slot designs through a base
index from line base to the slots holding a copy, one copy per domain
at most.  The hierarchy uses it to recall L1 copies when L2 evicts.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from typing import NamedTuple

from .core import CacheGeometry, Rng


class Op(enum.Enum):
    LOAD = "load"
    STORE = "store"


class AccessKind(enum.Enum):
    HIT = "hit"
    MISS_FILLED = "miss_filled"
    MISS_FORWARD_NOFILL = "miss_forward_nofill"


class SFillAction(enum.Enum):
    PROPAGATE = "propagate"
    DROP = "drop"


# The access paths compare against these instead of looking the members
# up on their enum classes on every call.
_STORE = Op.STORE
_HIT = AccessKind.HIT
_FILLED = AccessKind.MISS_FILLED
_NOFILL = AccessKind.MISS_FORWARD_NOFILL
_DROP = SFillAction.DROP
_PROPAGATE = SFillAction.PROPAGATE


class AccessOutcome(NamedTuple):
    """Result of one L1 access.

    kind HIT implies source_level 1; the miss kinds carry the level that
    supplied the data (2 = L2, 3 = memory).  victim_evicted is the base
    address of a valid line displaced by this access, if any.  Outcomes
    are immutable: a model hands out the same hit outcome every time.
    """

    kind: AccessKind
    latency: int
    source_level: int
    victim_evicted: int | None = None


class CacheLineMeta:
    """One resident line.  Presence in the model's lookup structures is
    what makes it valid; freed slots hold no record."""

    __slots__ = ("base", "tag", "index", "domain", "spec_bit", "dirty", "data")

    def __init__(self, base, tag, index, domain, spec_bit, dirty, data):
        self.base = base
        self.tag = tag
        self.index = index
        self.domain = domain
        self.spec_bit = spec_bit
        self.dirty = dirty
        self.data = data


class SetAssocLru:
    """Conventional set-associative LRU cache.

    Hits ignore the requesting domain.  secure_inval selects the squash
    invalidation handler: the baseline L1 ignores those requests
    entirely, while an L2 serving the hardened models honours them.
    """

    kind = "sa-lru"

    def __init__(self, geometry: CacheGeometry, hit_cycles: int, lower,
                 secure_inval: bool = False, level: int = 1):
        if geometry.extra_index_bits:
            raise ValueError("set-associative model takes no extra index bits")
        self.geom = geometry
        self.hit_cycles = hit_cycles
        self.lower = lower
        self.secure_inval = secure_inval
        self.level = level
        self._offset_bits = geometry.offset_bits
        self._line_mask = ~(geometry.line_size - 1)
        self._setmask = geometry.set_count - 1
        self._assoc = geometry.associativity
        # per-set OrderedDict keyed by line base; insertion end is MRU
        self._sets = [OrderedDict() for _ in range(geometry.set_count)]
        self._hit = AccessOutcome(_HIT, hit_cycles, 1)
        self.inval_dropped_case_i = 0
        # set by the hierarchy when this cache backs an upper level;
        # called after an eviction so the upper copy can be recalled
        self.on_evict = None

    # -- lookup without side effects (debug / invariant checks) --
    def find(self, addr: int, domain: int | None = None) -> CacheLineMeta | None:
        base = addr & self._line_mask
        rec = self._sets[(base >> self._offset_bits) & self._setmask].get(base)
        if rec is None:
            return None
        if domain is not None and rec.domain != domain:
            return None
        return rec

    def contains_addr(self, base: int) -> bool:
        return base in self._sets[(base >> self._offset_bits) & self._setmask]

    def lines_at(self, base: int) -> list[CacheLineMeta]:
        """The line holding base, if any: a set holds one copy at most."""
        rec = self._sets[(base >> self._offset_bits) & self._setmask].get(base)
        return [] if rec is None else [rec]

    def valid_lines(self):
        for s in self._sets:
            yield from s.values()

    def access(self, op: Op, addr: int, domain: int, spec_bit: int,
               value: int | None = None) -> AccessOutcome:
        base = addr & self._line_mask
        od = self._sets[(base >> self._offset_bits) & self._setmask]
        rec = od.get(base)
        if rec is not None:
            od.move_to_end(base)
            if not spec_bit:
                rec.spec_bit = 0
            if op is _STORE:
                rec.data[addr - base] = value
                rec.dirty = 1
            return self._hit

        data, source, below = self.lower.fetch(addr, domain, spec_bit)
        victim = None
        if len(od) >= self._assoc:
            vbase, vrec = od.popitem(last=False)
            if vrec.dirty:
                self.lower.writeback(vbase, vrec.domain, vrec.data)
            if self.on_evict is not None:
                self.on_evict(vbase)
            victim = vbase
        rec = CacheLineMeta(base, base >> self._offset_bits, 0, domain,
                            spec_bit, 0, bytearray(data))
        if op is _STORE:
            rec.spec_bit = 0
            rec.data[addr - base] = value
            rec.dirty = 1
        od[base] = rec
        return AccessOutcome(_FILLED, self.hit_cycles + below, source, victim)

    def flush_line(self, addr: int, domain: int,
                   own_domain_only: bool) -> CacheLineMeta | None:
        base = addr & self._line_mask
        od = self._sets[(base >> self._offset_bits) & self._setmask]
        rec = od.get(base)
        if rec is None or (own_domain_only and rec.domain != domain):
            return None
        del od[base]
        return rec

    def invalidate(self, base: int) -> CacheLineMeta | None:
        """Unconditional removal (back-invalidation); caller owns any
        write-back of the returned record."""
        od = self._sets[(base >> self._offset_bits) & self._setmask]
        return od.pop(base, None)

    def handle_sfill_inv(self, addr: int, domain: int,
                         source_level: int) -> SFillAction:
        if not self.secure_inval:
            # conventional cache: the message means nothing here
            return _DROP
        base = addr & self._line_mask
        od = self._sets[(base >> self._offset_bits) & self._setmask]
        rec = od.get(base)
        if rec is not None and rec.domain == domain:
            if not rec.spec_bit:
                self.inval_dropped_case_i += 1
                return _DROP
            assert not rec.dirty, "speculative line must be clean"
            del od[base]
        # fell through: either invalidated or not resident here
        return _PROPAGATE if source_level > self.level else _DROP


class _SlotCache:
    """Slot array, free list, key map and base index shared by the two
    random-slot designs.

    Lookups go through self._keys, which maps the subclass's _key(rec)
    to a slot.  The base index self._at maps a line base to the slots
    holding a copy of it, in the order they were filled; lines_at sorts
    them, because back-invalidation must free slots in ascending order
    to keep later fills where they always landed.
    """

    # fault-injection hook for the self test: chooses slot 0 forever
    deterministic_victim = False

    def __init__(self, geometry: CacheGeometry, hit_cycles: int, lower,
                 rng: Rng, level: int):
        self.geom = geometry
        self.hit_cycles = hit_cycles
        self.lower = lower
        self.rng = rng
        self.level = level
        n = geometry.line_count
        self._n = n
        self._line_mask = ~(geometry.line_size - 1)
        self._slots: list[CacheLineMeta | None] = [None] * n
        self._free = list(range(n - 1, -1, -1))
        self._keys: dict[tuple[int, int], int] = {}   # _key(rec) -> slot
        self._at: dict[int, list[int]] = {}           # base -> slots
        self._hit = AccessOutcome(_HIT, hit_cycles, 1)
        self.inval_dropped_case_i = 0

    @staticmethod
    def _key(rec: CacheLineMeta):
        raise NotImplementedError

    def contains_addr(self, base: int) -> bool:
        return base in self._at

    def lines_at(self, base: int) -> list[CacheLineMeta]:
        """Every copy of base, in ascending slot order."""
        slots = self._at.get(base)
        if slots is None:
            return []
        return [self._slots[s] for s in sorted(slots)]

    def valid_lines(self):
        return (rec for rec in self._slots if rec is not None)

    def _fill(self, slot: int, rec: CacheLineMeta) -> None:
        self._slots[slot] = rec
        self._keys[self._key(rec)] = slot
        at = self._at.get(rec.base)
        if at is None:
            self._at[rec.base] = [slot]
        else:
            at.append(slot)

    def _release(self, slot: int) -> CacheLineMeta:
        """Empty slot, drop its line from both maps and free the slot;
        the caller owns any write-back of the returned record."""
        rec = self._slots[slot]
        self._slots[slot] = None
        del self._keys[self._key(rec)]
        at = self._at[rec.base]
        if len(at) == 1:
            del self._at[rec.base]
        else:
            at.remove(slot)
        self._free.append(slot)
        return rec

    def _evict_slot(self, slot: int) -> int:
        rec = self._slots[slot]
        if rec.dirty:
            self.lower.writeback(rec.base, rec.domain, rec.data)
        self._release(slot)
        return rec.base

    def _random_valid_slot(self) -> int | None:
        if len(self._free) == self._n:
            return None
        if self.deterministic_victim:
            for i, rec in enumerate(self._slots):
                if rec is not None:
                    return i
        while True:
            slot = self.rng.choose(self._n)
            if self._slots[slot] is not None:
                return slot

    def _take_slot(self) -> tuple[int, int | None]:
        """A slot for a new line, invalid slots first, else a random
        valid one evicted; returns (slot, evicted base or None)."""
        if self._free:
            return self._free.pop(), None
        slot = self._random_valid_slot()
        victim = self._evict_slot(slot)
        self._free.pop()
        return slot, victim

    def _drop_spec_line(self, slot: int | None,
                        source_level: int) -> SFillAction:
        """Squash invalidation for the line in slot (None: not here)."""
        if slot is not None:
            rec = self._slots[slot]
            if not rec.spec_bit:
                self.inval_dropped_case_i += 1
                return _DROP
            assert not rec.dirty, "speculative line must be clean"
            self._release(slot)
        return _PROPAGATE if source_level > self.level else _DROP


class FarrCache(_SlotCache):
    """Fully associative cache, uniform random replacement, domain-checked
    hits."""

    kind = "star-farr"

    def __init__(self, geometry: CacheGeometry, hit_cycles: int, lower,
                 rng: Rng, level: int = 1, deterministic_victim: bool = False):
        super().__init__(geometry, hit_cycles, lower, rng, level)
        self.deterministic_victim = deterministic_victim

    @staticmethod
    def _key(rec: CacheLineMeta):
        # domain-gated lookup: one copy per (line base, domain)
        return rec.base, rec.domain

    def find(self, addr: int, domain: int) -> CacheLineMeta | None:
        slot = self._keys.get((addr & self._line_mask, domain))
        return None if slot is None else self._slots[slot]

    def access(self, op: Op, addr: int, domain: int, spec_bit: int,
               value: int | None = None) -> AccessOutcome:
        base = addr & self._line_mask
        slot = self._keys.get((base, domain))
        if slot is not None:
            rec = self._slots[slot]
            if not spec_bit:
                rec.spec_bit = 0
            if op is _STORE:
                rec.data[addr - base] = value
                rec.dirty = 1
            return self._hit

        data, source, below = self.lower.fetch(addr, domain, spec_bit)
        slot, victim = self._take_slot()
        rec = CacheLineMeta(base, base >> self.geom.offset_bits, 0, domain,
                            spec_bit, 0, bytearray(data))
        if op is _STORE:
            rec.spec_bit = 0
            rec.data[addr - base] = value
            rec.dirty = 1
        self._fill(slot, rec)
        return AccessOutcome(_FILLED, self.hit_cycles + below, source, victim)

    def flush_line(self, addr: int, domain: int,
                   own_domain_only: bool = True) -> CacheLineMeta | None:
        # domain-checked design: a flush can only ever see its own lines
        slot = self._keys.get((addr & self._line_mask, domain))
        return None if slot is None else self._release(slot)

    def handle_sfill_inv(self, addr: int, domain: int,
                         source_level: int) -> SFillAction:
        return self._drop_spec_line(
            self._keys.get((addr & self._line_mask, domain)), source_level)


class NewsCache(_SlotCache):
    """Randomized-mapping cache.

    Lookup walks a mapping array keyed by (domain, index) where the
    index takes k extra address bits beyond log2(line_count); at most
    one valid line holds a given key.  A speculative load that reaches a
    mapping hit with the wrong tag gets its data forwarded without
    filling, and a uniformly random valid line (the conflicting one
    included) is evicted.  The same conflict under a non-speculative
    access replaces the conflicting line in place.
    """

    kind = "star-news"

    def __init__(self, geometry: CacheGeometry, hit_cycles: int, lower,
                 rng: Rng, level: int = 1, fill_on_spec_tagmiss: bool = False):
        super().__init__(geometry, hit_cycles, lower, rng, level)
        # fault-injection hook: treat the speculative conflict like the
        # non-speculative one (fill anyway)
        self.fill_on_spec_tagmiss = fill_on_spec_tagmiss
        self._offset_bits = geometry.offset_bits
        self._index_mask = (1 << geometry.index_bits) - 1
        self._tag_shift = geometry.offset_bits + geometry.index_bits
        self.tagmiss_forward_nofill = 0

    @staticmethod
    def _key(rec: CacheLineMeta):
        # the mapping entry: one line per (domain, index)
        return rec.domain, rec.index

    def _slot_of(self, addr: int, domain: int) -> int | None:
        """Slot holding addr's line for domain: mapping and tag match."""
        slot = self._keys.get((domain, (addr >> self._offset_bits)
                              & self._index_mask))
        if slot is None or self._slots[slot].tag != addr >> self._tag_shift:
            return None
        return slot

    def find(self, addr: int, domain: int) -> CacheLineMeta | None:
        slot = self._slot_of(addr, domain)
        return None if slot is None else self._slots[slot]

    def access(self, op: Op, addr: int, domain: int, spec_bit: int,
               value: int | None = None) -> AccessOutcome:
        index = (addr >> self._offset_bits) & self._index_mask
        tag = addr >> self._tag_shift
        slot = self._keys.get((domain, index))
        if slot is not None:
            rec = self._slots[slot]
            if rec.tag == tag:
                if not spec_bit:
                    rec.spec_bit = 0
                if op is _STORE:
                    rec.data[addr - rec.base] = value
                    rec.dirty = 1
                return self._hit

        base = addr & self._line_mask
        data, source, below = self.lower.fetch(addr, domain, spec_bit)
        # the fetch may have recalled lines (an L2 eviction), so take a
        # fresh look at who owns the mapping entry now
        slot = self._keys.get((domain, index))

        if slot is not None:
            # mapping hit, tag miss: a same-domain line owns this index
            if spec_bit and not self.fill_on_spec_tagmiss:
                # forward the data but leave no trace of the requested
                # line; evict one random valid line instead
                self.tagmiss_forward_nofill += 1
                vslot = self._random_valid_slot()
                victim = self._evict_slot(vslot) if vslot is not None else None
                return AccessOutcome(_NOFILL, self.hit_cycles + below, source,
                                     victim)
            # non-speculative conflict replaces the conflicting line in
            # place; the mapping key stays, the tag changes
            victim = self._evict_slot(slot)
            self._free.pop()
        else:
            # mapping miss: fill over a random victim (invalid slots first)
            slot, victim = self._take_slot()
        rec = CacheLineMeta(base, tag, index, domain, spec_bit, 0,
                            bytearray(data))
        if op is _STORE:
            rec.spec_bit = 0
            rec.data[addr - base] = value
            rec.dirty = 1
        self._fill(slot, rec)
        return AccessOutcome(_FILLED, self.hit_cycles + below, source, victim)

    def flush_line(self, addr: int, domain: int,
                   own_domain_only: bool = True) -> CacheLineMeta | None:
        slot = self._slot_of(addr, domain)
        return None if slot is None else self._release(slot)

    def handle_sfill_inv(self, addr: int, domain: int,
                         source_level: int) -> SFillAction:
        return self._drop_spec_line(self._slot_of(addr, domain), source_level)


MODEL_NAMES = ("sa-lru", "star-farr", "star-news")
