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

Accesses allocate no outcome: every model returns one preallocated,
immutable hit outcome, and one shared miss outcome per (kind, source
level, cycles below), built the first time it is needed.

Line payloads are copy-on-write.  A lower level's fetch returns
immutable bytes, and a fill keeps that object, so an L1 line, its L2
line and the memory line may share one buffer; a line takes a private
bytearray on its first store.  Nothing else writes a payload in place:
a write-back into L2 or a flush resync replaces the L2 payload with
fresh bytes.  So a shared buffer is never written.

Every model also answers "which lines hold this base?" without
scanning (lines_at, contains_addr): the set-associative cache through
its per-set dict, the two random-slot designs through a base index
from line base to the slots holding a copy, one copy per domain at
most.  The hierarchy uses it to recall L1 copies when L2 evicts.
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
    supplied the data (2 = L2, 3 = memory).  Outcomes are immutable: a
    model hands out the same outcome for every access of one kind that
    took the same path.
    """

    kind: AccessKind
    latency: int
    source_level: int


class _MissOutcomes(dict):
    """The shared outcomes of one miss kind, keyed by below << 2 |
    source: the cycles the level below took, and the level that supplied
    the data (2 or 3, so two bits hold it).  Each outcome is built the
    first time it is looked up."""

    __slots__ = ("kind", "hit_cycles")

    def __init__(self, kind: AccessKind, hit_cycles: int):
        super().__init__()
        self.kind = kind
        self.hit_cycles = hit_cycles

    def __missing__(self, key: int) -> AccessOutcome:
        out = self[key] = AccessOutcome(self.kind,
                                        self.hit_cycles + (key >> 2), key & 3)
        return out


def _store(rec: CacheLineMeta, offset: int, value: int) -> None:
    """Write one byte.  A shared bytes payload is copied to a private
    bytearray first.  Stores are architectural, so the line turns dirty
    and non-speculative."""
    data = rec.data
    if data.__class__ is bytes:
        data = rec.data = bytearray(data)
    data[offset] = value
    rec.dirty = 1
    rec.spec_bit = 0


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
        self._filled = _MissOutcomes(_FILLED, hit_cycles)
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
                _store(rec, addr - base, value)
            return self._hit

        data, source, below = self.lower.fetch(addr, domain, spec_bit)
        if len(od) >= self._assoc:
            vbase, vrec = od.popitem(last=False)
            if vrec.dirty:
                self.lower.writeback(vbase, vrec.domain, vrec.data)
            if self.on_evict is not None:
                self.on_evict(vbase)
        rec = od[base] = CacheLineMeta(base, base >> self._offset_bits, 0,
                                       domain, spec_bit, 0, data)
        if op is _STORE:
            _store(rec, addr - base, value)
        return self._filled[below << 2 | source]

    def flush_line(self, addr: int, domain: int,
                   own_domain_only: bool) -> CacheLineMeta | None:
        base = addr & self._line_mask
        od = self._sets[(base >> self._offset_bits) & self._setmask]
        rec = od.get(base)
        if rec is None or (own_domain_only and rec.domain != domain):
            return None
        del od[base]
        return rec

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

    Lookups go through self._keys, which maps the subclass's lookup key
    to a slot; the key a slot was filled under is kept beside it, so a
    release drops it without rebuilding it.  The base index self._at
    maps a line base to the slots holding a copy of it, in the order
    they were filled; lines_at sorts them, because back-invalidation
    must free slots in ascending order to keep later fills where they
    always landed.
    """

    # fault-injection hook for the self test: chooses slot 0 forever
    deterministic_victim = False

    def __init__(self, geometry: CacheGeometry, hit_cycles: int, lower,
                 rng: Rng, level: int = 1):
        self.geom = geometry
        self.hit_cycles = hit_cycles
        self.lower = lower
        self.rng = rng
        self.level = level
        n = geometry.line_count
        self._n = n
        self._offset_bits = geometry.offset_bits
        self._line_mask = ~(geometry.line_size - 1)
        self._slots: list[CacheLineMeta | None] = [None] * n
        self._slot_keys: list[tuple[int, int] | None] = [None] * n
        self._free = list(range(n - 1, -1, -1))
        self._keys: dict[tuple[int, int], int] = {}   # lookup key -> slot
        self._at: dict[int, list[int]] = {}           # base -> slots
        self._hit = AccessOutcome(_HIT, hit_cycles, 1)
        self._filled = _MissOutcomes(_FILLED, hit_cycles)
        self.inval_dropped_case_i = 0

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

    def _fill(self, slot: int, key: tuple[int, int],
              rec: CacheLineMeta) -> None:
        self._slots[slot] = rec
        self._slot_keys[slot] = key
        self._keys[key] = slot
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
        del self._keys[self._slot_keys[slot]]
        at = self._at[rec.base]
        if len(at) == 1:
            del self._at[rec.base]
        else:
            at.remove(slot)
        self._free.append(slot)
        return rec

    def _evict_slot(self, slot: int) -> None:
        rec = self._slots[slot]
        if rec.dirty:
            self.lower.writeback(rec.base, rec.domain, rec.data)
        self._release(slot)

    def _random_valid_slot(self) -> int | None:
        """A uniformly random valid slot, None when all are free.

        Draws slots until one is valid.  The loop ends: one slot at
        least is valid, and the Rng's outputs run through every 64-bit
        value once per period, so every slot is drawn within one period;
        the expected number of draws is line_count / valid lines.  A
        direct draw over the valid slots would consume the stream
        differently and move every seeded output.
        """
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

    def _reuse(self, slot: int) -> int:
        """Evict the line in slot and take the slot back for the
        caller's new line."""
        self._evict_slot(slot)
        self._free.pop()
        return slot

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
    hits.  The lookup key is (line base, domain): one copy per domain."""

    kind = "star-farr"

    def find(self, addr: int, domain: int) -> CacheLineMeta | None:
        slot = self._keys.get((addr & self._line_mask, domain))
        return None if slot is None else self._slots[slot]

    def access(self, op: Op, addr: int, domain: int, spec_bit: int,
               value: int | None = None) -> AccessOutcome:
        base = addr & self._line_mask
        key = (base, domain)
        slot = self._keys.get(key)
        if slot is not None:
            rec = self._slots[slot]
            if not spec_bit:
                rec.spec_bit = 0
            if op is _STORE:
                _store(rec, addr - base, value)
            return self._hit

        data, source, below = self.lower.fetch(addr, domain, spec_bit)
        # the fetch may have freed slots (an L2 eviction recalls lines),
        # so look at the free list only now
        free = self._free
        slot = free.pop() if free else self._reuse(self._random_valid_slot())
        rec = CacheLineMeta(base, base >> self._offset_bits, 0, domain,
                            spec_bit, 0, data)
        self._fill(slot, key, rec)
        if op is _STORE:
            _store(rec, addr - base, value)
        return self._filled[below << 2 | source]

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
    # fault-injection hook for the self test: treat the speculative
    # conflict like the non-speculative one (fill anyway)
    fill_on_spec_tagmiss = False

    def __init__(self, geometry: CacheGeometry, hit_cycles: int, lower,
                 rng: Rng, level: int = 1):
        super().__init__(geometry, hit_cycles, lower, rng, level)
        self._index_mask = (1 << geometry.index_bits) - 1
        self._tag_shift = geometry.offset_bits + geometry.index_bits
        self._nofill = _MissOutcomes(_NOFILL, hit_cycles)
        self.tagmiss_forward_nofill = 0

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
        key = (domain, index)       # the mapping entry
        slot = self._keys.get(key)
        if slot is not None:
            rec = self._slots[slot]
            if rec.tag == tag:
                if not spec_bit:
                    rec.spec_bit = 0
                if op is _STORE:
                    _store(rec, addr - rec.base, value)
                return self._hit

        base = addr & self._line_mask
        data, source, below = self.lower.fetch(addr, domain, spec_bit)
        # the fetch may have recalled lines (an L2 eviction), so take a
        # fresh look at who owns the mapping entry now
        slot = self._keys.get(key)

        if slot is not None:
            # mapping hit, tag miss: a same-domain line owns this index
            if spec_bit and not self.fill_on_spec_tagmiss:
                # forward the data but leave no trace of the requested
                # line; evict one random valid line instead
                self.tagmiss_forward_nofill += 1
                vslot = self._random_valid_slot()
                if vslot is not None:
                    self._evict_slot(vslot)
                return self._nofill[below << 2 | source]
            # non-speculative conflict replaces the conflicting line in
            # place; the mapping key stays, the tag changes
            self._reuse(slot)
        else:
            # mapping miss: fill over a random victim (invalid slots first)
            free = self._free
            slot = (free.pop() if free
                    else self._reuse(self._random_valid_slot()))
        rec = CacheLineMeta(base, tag, index, domain, spec_bit, 0, data)
        self._fill(slot, key, rec)
        if op is _STORE:
            _store(rec, addr - base, value)
        return self._filled[below << 2 | source]

    def flush_line(self, addr: int, domain: int,
                   own_domain_only: bool = True) -> CacheLineMeta | None:
        slot = self._slot_of(addr, domain)
        return None if slot is None else self._release(slot)

    def handle_sfill_inv(self, addr: int, domain: int,
                         source_level: int) -> SFillAction:
        return self._drop_spec_line(self._slot_of(addr, domain), source_level)


MODEL_NAMES = ("sa-lru", "star-farr", "star-news")
