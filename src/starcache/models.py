"""The L1 cache classes, and DESIGNS: each model name's L1 class and
the defenses its hierarchy turns on.

sa-lru      SetAssocLru: set-associative, LRU, blind to domains.  The
            insecure baseline, whose record turns squash invalidation
            off; also the L2 model.
star-farr   FarrCache: fully associative, uniform random replacement.
star-news   NewsCache: randomized mapping over log2(line_count) + k
            index bits, forward-without-fill on speculative conflicts.
Both star classes are domain_gated: a hit or flush needs a tag and
domain match, so no domain hits or flushes another domain's lines.

Every model keeps a spec_bit per line: set when the line was filled by a
speculative load, cleared by the first non-speculative touch.  Lines
with spec_bit set are never dirty, which lets squash-time invalidation
drop them without a write-back.

Line payloads are copy-on-write.  A lower level's fetch returns
immutable bytes, and a fill keeps that object, so an L1 line, its L2
line and the memory line may share one buffer; a line takes a private
bytearray on its first store.  Nothing else writes a payload in place:
a write-back into L2 or a flush resync replaces the L2 payload with
fresh bytes.  So a shared buffer is never written.

Levels stack: each one's lower is the level below it, and keep no
latencies.  access(addr, domain, spec_bit, value=None) returns the
level that supplied the data: its own on a hit, else what the fetch
below reported, a NEWS forward without fill included.  It stores the
byte value exactly when a value is passed (a store is never
speculative: a NEWS mapping conflict raises ValueError for one).
flush_line(addr, domain) removes and returns what find(addr, domain)
finds, domain None meaning any domain's copy on the set-associative
cache; handle_sfill_inv(addr, domain, source_level) is True when the
squash invalidation travels on, which it does only when the data came
from below this level.  A level below answers fetch(addr, domain,
spec_bit) with (payload, source level) and writeback(base, domain,
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


class _Level:
    """The squash-invalidation rule, once for every level, and its
    counters.  domain_gated: hits and flushes see only the caller's own
    lines; the hierarchy flushes L2 the way its L1 is gated."""

    domain_gated = False
    inval_dropped_case_i = 0
    tagmiss_forward_nofill = 0

    def handle_sfill_inv(self, addr: int, domain: int,
                         source_level: int) -> bool:
        rec = self.find(addr, domain)
        if rec is not None:
            if not rec.spec_bit:
                self.inval_dropped_case_i += 1
                return False
            assert not rec.dirty, "speculative line must be clean"
            self.flush_line(addr, domain)
        # fell through: either invalidated or not resident here
        return source_level > self.level


class SetAssocLru(_Level):
    """Conventional set-associative LRU cache.

    Hits ignore the requesting domain, and a set holds one copy of a
    base, so nothing is forwarded without a fill.  It takes an rng, as
    every L1 class does, and draws nothing from it.
    """

    def __init__(self, geometry: CacheGeometry, lower, rng: Rng | None = None,
                 level: int = 1):
        if geometry.extra_index_bits:
            raise ValueError("set-associative model takes no extra index bits")
        self.geom = geometry
        self.lower = lower
        self.level = level
        self._offset_bits = geometry.offset_bits
        self._line_mask = ~(geometry.line_size - 1)
        self._setmask = geometry.set_count - 1
        self._assoc = geometry.associativity
        # per-set OrderedDict keyed by line base; insertion end is MRU
        self._sets = [OrderedDict() for _ in range(geometry.set_count)]
        # set by the hierarchy when this cache backs an upper level;
        # called after an eviction so the upper copy can be recalled
        self.on_evict = None

    # -- lookup without side effects (debug / invariant checks) --
    def find(self, addr: int, domain: int | None = None) -> CacheLineMeta | None:
        base = addr & self._line_mask
        rec = self._sets[(base >> self._offset_bits) & self._setmask].get(base)
        if rec is None or (domain is not None and rec.domain != domain):
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

    def check_invariants(self) -> None:
        for i, od in enumerate(self._sets):
            assert len(od) <= self._assoc, f"set {i} holds more lines than ways"
            for base, rec in od.items():
                assert (rec.base == base and
                        (base >> self._offset_bits) & self._setmask == i), \
                    f"line 0x{rec.base:x} filed under the wrong set or base"
                assert not (rec.spec_bit and rec.dirty), \
                    f"speculative L{self.level} line 0x{base:x} is dirty"

    def access(self, addr: int, domain: int, spec_bit: int,
               value: int | None = None) -> int:
        base = addr & self._line_mask
        od = self._sets[(base >> self._offset_bits) & self._setmask]
        rec = od.get(base)
        if rec is not None:
            od.move_to_end(base)
            if not spec_bit:
                rec.spec_bit = 0
            if value is not None:
                _store(rec, addr - base, value)
            return self.level

        data, source = self.lower.fetch(addr, domain, spec_bit)
        if len(od) >= self._assoc:
            vbase, vrec = od.popitem(last=False)
            if vrec.dirty:
                self.lower.writeback(vbase, vrec.domain, vrec.data)
            if self.on_evict is not None:
                self.on_evict(vbase)
        rec = od[base] = CacheLineMeta(base, domain, spec_bit, 0, data)
        if value is not None:
            _store(rec, addr - base, value)
        return source

    def fetch(self, addr: int, domain: int, spec_bit: int):
        """Serve a miss from the level above: load addr's line here,
        filling it from below first on a miss."""
        # looked up per call: a tracer may wrap the instance's access
        source = self.access(addr, domain, spec_bit)
        # the access left the line in its set; read the payload there
        base = addr & self._line_mask
        data = self._sets[(base >> self._offset_bits) & self._setmask][base].data
        return data, source

    def writeback(self, base: int, domain: int, data) -> None:
        """Land a dirty line from the level above in its line here,
        which inclusion keeps resident."""
        rec = self.find(base)
        assert rec is not None, "write-back target missing from L2"
        rec.data = bytes(data)
        rec.dirty = 1
        rec.spec_bit = 0    # stored data is architectural

    def flush_line(self, addr: int, domain: int | None) -> CacheLineMeta | None:
        base = addr & self._line_mask
        od = self._sets[(base >> self._offset_bits) & self._setmask]
        rec = od.get(base)
        if rec is None or (domain is not None and rec.domain != domain):
            return None
        del od[base]
        return rec


class NewsCache(_Level):
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

    domain_gated = True

    def __init__(self, geometry: CacheGeometry, lower, rng: Rng,
                 level: int = 1):
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

    def check_invariants(self) -> None:
        lines = list(self.valid_lines())
        by_base: dict[int, list] = {}
        for rec in lines:
            assert not (rec.spec_bit and rec.dirty), \
                f"speculative L{self.level} line 0x{rec.base:x} is dirty"
            by_base.setdefault(rec.base, []).append(rec)
        # the base index must agree with a scan, slot order included
        assert self._at.keys() == by_base.keys(), \
            "base index holds a line base no line has"
        for base, recs in by_base.items():
            assert self.lines_at(base) == recs, \
                f"base index disagrees with the lines at 0x{base:x}"
        # each entry names its own line's key, so distinct entries
        # point at distinct slots
        for (dom, field), slot in self._keys.items():
            rec = self._slots[slot]
            assert (rec is not None and rec.domain == dom and
                    rec.base & self._key_mask == field), \
                "mapping entry points at the wrong line"
        assert len(self._keys) == len(lines), "mapping entry per valid line"

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
               value: int | None = None) -> int:
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
                return self.level

        data, source = self.lower.fetch(addr, domain, spec_bit)
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
                return source
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
        return source

    def flush_line(self, addr: int, domain: int) -> CacheLineMeta | None:
        # domain-checked design: a flush can only ever see its own lines
        slot = self._slot_of(addr, domain)
        return None if slot is None else self._release(slot)


class FarrCache(NewsCache):
    """Fully associative cache, uniform random replacement, domain-checked
    hits: NEWS whose mapping index is the whole line address.  The key
    is then (domain, line base), one copy per domain, and a mapping hit
    is always a tag match, so the conflict paths never run."""

    def __init__(self, geometry: CacheGeometry, lower, rng: Rng,
                 level: int = 1):
        super().__init__(geometry, lower, rng, level)
        self._key_mask = self._line_mask


class Design(NamedTuple):
    """One L1 design, immutable.  Its L1 class decides whether flushes
    stay in a domain (domain_gated); without squash_invalidation the
    hierarchy counts each squash invalidation and drops it; k is the
    default count of extra index bits, None for a design that takes none."""

    l1: type        # built as l1(geometry, lower, rng, level=1)
    squash_invalidation: bool
    k: int | None = None


# model name -> design, in the order every report runs them
DESIGNS = {"sa-lru": Design(SetAssocLru, False),
           "star-farr": Design(FarrCache, True),
           "star-news": Design(NewsCache, True, k=4)}
MODEL_NAMES = tuple(DESIGNS)
