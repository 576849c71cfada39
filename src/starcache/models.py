"""The three L1 data cache models.

sa-lru      conventional set-associative cache with LRU replacement; no
            domain awareness.  Serves as the insecure baseline and, with
            its secure invalidation handler enabled, as the L2 model.
star-farr   fully associative array with uniform random replacement.  A
            hit requires both the tag and the requesting domain to
            match, so one domain can never hit (or flush) another
            domain's lines.  It is star-news with a mapping over the
            whole line address: every line has its own mapping entry,
            so a mapping hit is always a tag match.
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
immutable hit outcome, and one shared miss outcome per (source level,
cycles below), built the first time it is needed.  A NEWS forward
without fill shares the outcome of a filled miss down the same path.

Line payloads are copy-on-write.  A lower level's fetch returns
immutable bytes, and a fill keeps that object, so an L1 line, its L2
line and the memory line may share one buffer; a line takes a private
bytearray on its first store.  Nothing else writes a payload in place:
a write-back into L2 or a flush resync replaces the L2 payload with
fresh bytes.  So a shared buffer is never written.

Levels stack: each one's lower is the level below it.  Every model
answers access(addr, domain, spec_bit, value=None), a store of the byte
value exactly when a value is passed (a store is never speculative: a
NEWS mapping conflict, which forwards a speculative load without a
fill, raises ValueError for one); flush_line(addr, domain,
own_domain_only), which returns the removed line or None; and
handle_sfill_inv(addr, domain, source_level), True when the squash
invalidation travels on, which it does only when the data came from
below this level.  A level below answers fetch(addr, domain, spec_bit)
with (payload, source level, cycles below) and writeback(base, domain,
data) for a dirty line coming down: the set-associative cache as an L2
does, the flat memory in core as the bottom level.

A line is known by its base (the address with its offset bits
cleared).  The random-slot designs find a line through its (domain,
index) mapping entry; once the index matches, its tag matches exactly
when the base does, so the tag match is a base match.

Every model also answers "which lines hold this base?" without
scanning (lines_at, contains_addr): the set-associative cache through
its per-set dict, the random-slot designs through a base index
from line base to the slots holding a copy, one copy per domain at
most.  The hierarchy uses it to recall L1 copies when L2 evicts.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

from .core import CacheGeometry, Rng


class AccessOutcome(NamedTuple):
    """Result of one L1 access.

    source_level is the level that supplied the data: 1 on a hit, 2 for
    L2, 3 for memory.  Outcomes are immutable: a model hands out the
    same outcome for every access that took the same path.
    """

    latency: int
    source_level: int


class _MissOutcomes(dict):
    """The shared miss outcomes of one level, keyed by below << 2 |
    source: the cycles the level below took, and the level that supplied
    the data (2 or 3, so two bits hold it).  Each outcome is built the
    first time it is looked up."""

    __slots__ = ("hit_cycles",)

    def __init__(self, hit_cycles: int):
        super().__init__()
        self.hit_cycles = hit_cycles

    def __missing__(self, key: int) -> AccessOutcome:
        out = self[key] = AccessOutcome(self.hit_cycles + (key >> 2), key & 3)
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

    __slots__ = ("base", "domain", "spec_bit", "dirty", "data")

    def __init__(self, base, domain, spec_bit, dirty, data):
        self.base = base
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

    def __init__(self, geometry: CacheGeometry, hit_cycles: int, lower,
                 secure_inval: bool = False, level: int = 1):
        if geometry.extra_index_bits:
            raise ValueError("set-associative model takes no extra index bits")
        self.geom = geometry
        self.lower = lower
        self.secure_inval = secure_inval
        self.level = level
        self._offset_bits = geometry.offset_bits
        self._line_mask = ~(geometry.line_size - 1)
        self._setmask = geometry.set_count - 1
        self._assoc = geometry.associativity
        # per-set OrderedDict keyed by line base; insertion end is MRU
        self._sets = [OrderedDict() for _ in range(geometry.set_count)]
        self._hit = AccessOutcome(hit_cycles, 1)
        self._miss = _MissOutcomes(hit_cycles)
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

    def access(self, addr: int, domain: int, spec_bit: int,
               value: int | None = None) -> AccessOutcome:
        base = addr & self._line_mask
        od = self._sets[(base >> self._offset_bits) & self._setmask]
        rec = od.get(base)
        if rec is not None:
            od.move_to_end(base)
            if not spec_bit:
                rec.spec_bit = 0
            if value is not None:
                _store(rec, addr - base, value)
            return self._hit

        data, source, below = self.lower.fetch(addr, domain, spec_bit)
        if len(od) >= self._assoc:
            vbase, vrec = od.popitem(last=False)
            if vrec.dirty:
                self.lower.writeback(vbase, vrec.domain, vrec.data)
            if self.on_evict is not None:
                self.on_evict(vbase)
        rec = od[base] = CacheLineMeta(base, domain, spec_bit, 0, data)
        if value is not None:
            _store(rec, addr - base, value)
        return self._miss[below << 2 | source]

    def fetch(self, addr: int, domain: int, spec_bit: int):
        """Serve a miss from the level above: load addr's line here,
        filling it from below first on a miss."""
        # looked up per call: a tracer may wrap the instance's access
        out = self.access(addr, domain, spec_bit)
        # the access left the line in its set; read the payload there
        base = addr & self._line_mask
        data = self._sets[(base >> self._offset_bits) & self._setmask][base].data
        return data, 2 if out.source_level == 1 else 3, out.latency

    def writeback(self, base: int, domain: int, data) -> None:
        """Land a dirty line from the level above in its line here,
        which inclusion keeps resident."""
        rec = self.find(base)
        assert rec is not None, "write-back target missing from L2"
        rec.data = bytes(data)
        rec.dirty = 1
        rec.spec_bit = 0    # stored data is architectural

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
                         source_level: int) -> bool:
        if not self.secure_inval:
            # conventional cache: the message means nothing here
            return False
        base = addr & self._line_mask
        od = self._sets[(base >> self._offset_bits) & self._setmask]
        rec = od.get(base)
        if rec is not None and rec.domain == domain:
            if not rec.spec_bit:
                self.inval_dropped_case_i += 1
                return False
            assert not rec.dirty, "speculative line must be clean"
            del od[base]
        # fell through: either invalidated or not resident here
        return source_level > self.level


class NewsCache:
    """Randomized-mapping cache with random replacement.

    Lookup walks a mapping array keyed by (domain, index), where the
    index is the field of the line base that key_mask selects: by
    default log2(line_count) + k address bits.  At most one valid line
    holds a given key.  A speculative load that reaches a mapping hit
    with the wrong tag gets its data forwarded without filling, and a
    uniformly random valid line (the conflicting one included) is
    evicted.  The same conflict under a non-speculative access replaces
    the conflicting line in place.  A mapping miss fills an invalid slot
    if there is one, and otherwise replaces a uniformly random line.

    Each mapping entry is rebuilt from the line it points at, so a
    release drops it without keeping it beside the slot.  The base
    index self._at maps a line base to the slots holding a copy of it,
    in the order they were filled; lines_at sorts them, because
    back-invalidation must free slots in ascending order to keep later
    fills where they always landed.
    """

    def __init__(self, geometry: CacheGeometry, hit_cycles: int, lower,
                 rng: Rng, level: int = 1):
        self.geom = geometry
        self.lower = lower
        self.rng = rng
        self.level = level
        n = geometry.line_count
        self._n = n
        self._line_mask = ~(geometry.line_size - 1)
        # the index field, left in place in the line base
        self._key_mask = ((1 << geometry.index_bits) - 1) << geometry.offset_bits
        self._slots: list[CacheLineMeta | None] = [None] * n
        self._free = list(range(n - 1, -1, -1))
        self._keys: dict[tuple[int, int], int] = {}   # mapping entry -> slot
        self._at: dict[int, list[int]] = {}           # base -> slots
        self._hit = AccessOutcome(hit_cycles, 1)
        self._miss = _MissOutcomes(hit_cycles)
        self.inval_dropped_case_i = 0
        self.tagmiss_forward_nofill = 0

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

    def _slot_of(self, addr: int, domain: int) -> int | None:
        """Slot holding addr's line for domain: mapping and tag match."""
        base = addr & self._line_mask
        slot = self._keys.get((domain, base & self._key_mask))
        if slot is None or self._slots[slot].base != base:
            return None
        return slot

    def find(self, addr: int, domain: int) -> CacheLineMeta | None:
        slot = self._slot_of(addr, domain)
        return None if slot is None else self._slots[slot]

    def _release(self, slot: int) -> CacheLineMeta:
        """Empty slot, drop its line from both maps and free the slot;
        the caller owns any write-back of the returned record."""
        rec = self._slots[slot]
        self._slots[slot] = None
        del self._keys[(rec.domain, rec.base & self._key_mask)]
        at = self._at[rec.base]
        if len(at) == 1:
            del self._at[rec.base]
        else:
            at.remove(slot)
        self._free.append(slot)
        return rec

    def _evict_slot(self, slot: int) -> None:
        """Release slot, writing a dirty line back; the slot goes to the
        end of the free list, so the next fill takes it."""
        rec = self._release(slot)
        if rec.dirty:
            self.lower.writeback(rec.base, rec.domain, rec.data)

    def _random_valid_slot(self) -> int:
        """A uniformly random valid slot.

        Callers draw only when one slot at least is valid: on an empty
        free list, or on a mapping hit.  Draws slots until one is
        valid.  The loop ends: the Rng's outputs run through every
        64-bit value once per period, so every slot is drawn within one
        period; the expected number of draws is line_count / valid
        lines.  A direct draw over the valid slots would consume the
        stream differently and move every seeded output.
        """
        while True:
            slot = self.rng.choose(self._n)
            if self._slots[slot] is not None:
                return slot

    def access(self, addr: int, domain: int, spec_bit: int,
               value: int | None = None) -> AccessOutcome:
        base = addr & self._line_mask
        key = (domain, base & self._key_mask)   # the mapping entry
        slot = self._keys.get(key)
        if slot is not None:
            rec = self._slots[slot]
            if rec.base == base:        # the tag match
                if not spec_bit:
                    rec.spec_bit = 0
                if value is not None:
                    _store(rec, addr - base, value)
                return self._hit

        data, source, below = self.lower.fetch(addr, domain, spec_bit)
        # the fetch may have recalled lines (an L2 eviction), so take a
        # fresh look at who owns the mapping entry and which slots are
        # free now
        slot = self._keys.get(key)
        if slot is not None:
            # mapping hit, tag miss: a same-domain line owns this index
            if spec_bit:
                # forward the data but leave no trace of the requested
                # line; evict one random valid line instead
                if value is not None:
                    raise ValueError(
                        f"speculative store to 0x{addr:x}: a store is never "
                        "speculative")
                self.tagmiss_forward_nofill += 1
                self._evict_slot(self._random_valid_slot())
                return self._miss[below << 2 | source]
            # non-speculative conflict replaces the conflicting line in
            # place; the mapping key stays, the base changes
            self._evict_slot(slot)
        elif not self._free:
            # mapping miss with no invalid slot: a random victim
            self._evict_slot(self._random_valid_slot())
        slot = self._free.pop()
        rec = self._slots[slot] = CacheLineMeta(base, domain, spec_bit, 0, data)
        self._keys[key] = slot
        at = self._at.get(base)
        if at is None:
            self._at[base] = [slot]
        else:
            at.append(slot)
        if value is not None:
            _store(rec, addr - base, value)
        return self._miss[below << 2 | source]

    def flush_line(self, addr: int, domain: int,
                   own_domain_only: bool = True) -> CacheLineMeta | None:
        # domain-checked design: a flush can only ever see its own lines
        slot = self._slot_of(addr, domain)
        return None if slot is None else self._release(slot)

    def handle_sfill_inv(self, addr: int, domain: int,
                         source_level: int) -> bool:
        slot = self._slot_of(addr, domain)
        if slot is not None:
            rec = self._slots[slot]
            if not rec.spec_bit:
                self.inval_dropped_case_i += 1
                return False
            assert not rec.dirty, "speculative line must be clean"
            self._release(slot)
        # fell through: either invalidated or not resident here
        return source_level > self.level


class FarrCache(NewsCache):
    """Fully associative cache, uniform random replacement, domain-checked
    hits: NEWS whose mapping index is the whole line address.  The key
    is then (domain, line base), one copy per domain, and a mapping hit
    is always a tag match, so the conflict paths never run."""

    def __init__(self, geometry: CacheGeometry, hit_cycles: int, lower,
                 rng: Rng, level: int = 1):
        super().__init__(geometry, hit_cycles, lower, rng, level)
        self._key_mask = self._line_mask


MODEL_NAMES = ("sa-lru", "star-farr", "star-news")
