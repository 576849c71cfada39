import pytest

from starcache.core import CacheGeometry, FlatMemory, Rng
from starcache.hierarchy import Hierarchy
from starcache.models import DESIGNS, FarrCache, NewsCache, SetAssocLru


class _Lower:
    """Flat backing store (source level 3) recording traffic."""

    def __init__(self):
        self.fetches = []
        self.writebacks = []

    def fetch(self, addr, domain, spec_bit):
        self.fetches.append((addr, domain, spec_bit))
        return bytes(64), 3

    def writeback(self, base, domain, data):
        self.writebacks.append((base, domain, bytes(data)))


def _lru(sets=4, assoc=2, **kw):
    return SetAssocLru(CacheGeometry(64, sets * assoc, assoc), _Lower(), **kw)


def _farr(lines=8, seed=5, **kw):
    return FarrCache(CacheGeometry(64, lines, lines), _Lower(), Rng(seed), **kw)


def _news(lines=8, k=2, seed=5, **kw):
    return NewsCache(CacheGeometry(64, lines, lines, k), _Lower(), Rng(seed),
                     **kw)


def _set_stride(cache):
    return 64 * cache.geom.set_count


def _bases(cache):
    return {rec.base for rec in cache.valid_lines()}


# -- set-associative LRU --

def test_lru_hit_and_miss_source_levels():
    c = _lru()
    assert c.access(0x1000, 0, 0) == 3        # what the stub fetch reported
    assert c.find(0x1000) is not None
    assert c.access(0x1000, 0, 0) == 1
    assert c.access(0x1004, 0, 0, 7) == 1      # a store hit alike


def test_lru_eviction_order():
    c = _lru(sets=4, assoc=2)
    stride = _set_stride(c)
    a, b, d = 0x1000, 0x1000 + stride, 0x1000 + 2 * stride   # same set
    c.access(a, 0, 0)
    c.access(b, 0, 0)
    c.access(a, 0, 0)          # a becomes MRU
    c.access(d, 0, 0)          # evicts b, the LRU
    assert _bases(c) == {a, d}
    assert c.find(a) is not None
    assert c.find(b) is None
    assert c.find(d) is not None


def test_lru_hits_ignore_domain_and_keep_owner():
    c = _lru()
    c.access(0x2000, 1, 0)
    assert c.access(0x2000, 2, 0) == 1
    assert c.find(0x2000).domain == 1    # the line is not retagged


def test_lru_nonspec_touch_clears_spec_bit():
    c = _lru()
    c.access(0x3000, 0, 1)
    assert c.find(0x3000).spec_bit == 1
    c.access(0x3000, 0, 1)      # spec hit leaves it set
    assert c.find(0x3000).spec_bit == 1
    c.access(0x3000, 0, 0)
    assert c.find(0x3000).spec_bit == 0


def test_lru_store_sets_dirty_and_writes_byte():
    c = _lru()
    c.access(0x4007, 0, 0, 0xAB)
    rec = c.find(0x4000)
    assert rec.dirty == 1
    assert rec.spec_bit == 0
    assert rec.data[7] == 0xAB


def test_an_access_is_a_store_exactly_when_it_carries_a_value():
    for make in (_lru, _farr, _news):
        c = make()
        # every access is speculative, so only a store clears the spec bit
        c.access(0x1000, 0, 1)                  # miss, no value
        c.access(0x1005, 0, 1)                  # hit, no value
        rec = c.find(0x1000, 0)
        assert (rec.dirty, rec.spec_bit, bytes(rec.data)) == (0, 1, bytes(64))
        c.access(0x1005, 0, 1, 0x5A)            # hit with a value
        assert (rec.dirty, rec.spec_bit, rec.data[5]) == (1, 0, 0x5A)
        c.access(0x1043, 0, 1, 0)               # miss with the value 0
        rec = c.find(0x1040, 0)
        assert (rec.dirty, rec.spec_bit) == (1, 0)
        assert rec.data.__class__ is bytearray  # took a private copy


def test_lru_dirty_eviction_writes_back():
    c = _lru(sets=1, assoc=2)
    stride = _set_stride(c)
    c.access(0x5001, 0, 0, 0x11)
    c.access(0x5000 + stride, 0, 0)
    c.access(0x5000 + 2 * stride, 0, 0)   # evicts the dirty line
    wb = c.lower.writebacks
    assert len(wb) == 1
    assert wb[0][0] == 0x5000
    assert wb[0][2][1] == 0x11


def test_lru_flush_line_domain_filter():
    c = _lru()
    c.access(0x6000, 1, 0)
    assert c.flush_line(0x6000, 2) is None     # wrong domain
    assert c.find(0x6000) is not None
    assert c.flush_line(0x6000, None) is not None   # any domain
    assert c.find(0x6000) is None


def test_lru_on_evict_callback():
    seen = []
    c = _lru(sets=1, assoc=1)
    c.on_evict = seen.append
    stride = _set_stride(c)
    c.access(0x7000, 0, 0)
    c.access(0x7000 + stride, 0, 0)
    assert seen == [0x7000]


# -- the level protocol: an L2 over flat memory --

def _l2_over_memory():
    mem = FlatMemory(64)
    return SetAssocLru(CacheGeometry(64, 8, 2), mem, level=2), mem


def test_lru_fetch_shares_the_resident_payload():
    l2, mem = _l2_over_memory()
    mem.write_line(0x1000, bytes(range(64)))
    data, _ = l2.fetch(0x1000 + 5, 0, 0)
    assert data is l2.find(0x1000).data is mem.read_line(0x1000)
    again, _ = l2.fetch(0x1000, 0, 0)
    assert again is data


def test_lru_fetch_reports_the_source_level():
    l2, mem = _l2_over_memory()
    mem.write_line(0x2000, bytes(range(64)))
    payload = mem.read_line(0x2000)
    assert l2.fetch(0x2000, 1, 0) == (payload, 3)    # filled from memory
    assert l2.fetch(0x2000 + 3, 1, 0) == (payload, 2)


def test_lru_writeback_takes_fresh_bytes_dirty_and_architectural():
    l2, _ = _l2_over_memory()
    l2.fetch(0x3000, 0, 1)
    rec = l2.find(0x3000)
    assert rec.spec_bit == 1 and rec.dirty == 0
    line = bytearray(range(64))
    l2.writeback(0x3000, 0, line)
    assert rec.data == line and rec.data.__class__ is bytes
    line[0] = 0xFF                                   # no alias kept
    assert rec.data[0] == 0
    assert rec.dirty == 1 and rec.spec_bit == 0


# -- fully associative random replacement --

def test_farr_domain_gated_hits():
    c = _farr()
    c.access(0x1000, 1, 0)
    assert c.access(0x1000, 2, 0) == 3        # no cross-domain hit
    # both domains now hold private copies of the same base
    assert c.find(0x1000, 1) is not None
    assert c.find(0x1000, 2) is not None
    assert c.access(0x1000, 1, 0) == 1


def test_farr_fills_invalid_slots_before_evicting():
    c = _farr(lines=8)
    filled = set()
    for i in range(8):
        c.access(0x1000 + 64 * i, 0, 0)
        filled.add(0x1000 + 64 * i)
        assert _bases(c) == filled          # nothing evicted yet
    c.access(0x9000, 0, 0)
    after = _bases(c)
    assert 0x9000 in after and len(after) == 8
    assert len(filled - after) == 1         # one earlier line evicted


def test_farr_random_victims_spread():
    c = _farr(lines=8, seed=3)
    for i in range(8):
        c.access(0x1000 + 64 * i, 0, 0)
    victims = set()
    for j in range(60):
        before = _bases(c)
        c.access(0x20000 + 64 * j, 0, 0)
        (victim,) = before - _bases(c)
        victims.add(victim)
    assert len(victims) > 20     # not stuck on one slot


def test_farr_spec_bit_rules():
    c = _farr()
    c.access(0x3000, 0, 1)
    assert c.find(0x3000, 0).spec_bit == 1
    c.access(0x3000, 0, 0)
    assert c.find(0x3000, 0).spec_bit == 0


def test_farr_flush_is_domain_keyed():
    c = _farr()
    c.access(0x4000, 1, 0)
    assert c.flush_line(0x4000, 2) is None
    assert c.flush_line(0x4000, 1) is not None
    assert c.find(0x4000, 1) is None


def test_farr_maps_the_whole_line_address():
    # same domain, same geometry index field, different lines: FARR has
    # no index field narrower than the line, so both lines stay
    c = _farr(lines=8)
    a = 0x1000
    b = a ^ (1 << (c.geom.offset_bits + c.geom.index_bits))
    c.access(a, 0, 0)
    assert c.access(b, 0, 1) == 3
    assert c.find(a, 0) is not None and c.find(b, 0) is not None
    assert c.tagmiss_forward_nofill == 0


# -- randomized mapping --

def test_news_basic_hit_miss():
    c = _news()
    assert c.access(0x1000, 0, 0) == 3
    assert c.access(0x1000, 0, 0) == 1
    assert c.access(0x1000, 1, 0) == 3
    assert c.find(0x1000, 1) is not None


def test_news_nonspec_conflict_replaces_in_place():
    c = _news(lines=8, k=2)
    # same (domain, index), different tag: flip a bit above the index
    conflict_bit = c.geom.offset_bits + c.geom.index_bits
    a = 0x1000
    b = a ^ (1 << conflict_bit)
    c.access(a, 0, 0)
    before = len(list(c.valid_lines()))
    assert c.access(b, 0, 0) == 3
    assert _bases(c) == {b}
    assert c.find(a, 0) is None
    assert c.find(b, 0) is not None
    assert len(list(c.valid_lines())) == before    # in place, no growth


def test_news_spec_conflict_forwards_without_fill():
    c = _news(lines=8, k=2)
    conflict_bit = c.geom.offset_bits + c.geom.index_bits
    a = 0x1000
    b = a ^ (1 << conflict_bit)
    c.access(a, 0, 0)
    assert c.access(b, 0, 1) == 3       # data still came from below
    assert c.tagmiss_forward_nofill == 1
    assert c.find(b, 0) is None        # left no trace of itself
    # exactly one random eviction happened (a was the only valid line)
    assert _bases(c) == set()


def test_news_rejects_a_speculative_store_on_a_mapping_conflict():
    c = _news(lines=8, k=2)
    c.access(0x1000, 0, 0)
    with pytest.raises(ValueError, match="store is never speculative"):
        c.access(0x2003, 0, 1, 9)        # same index field, another tag
    assert c.find(0x1000, 0) is not None  # no random eviction ran
    assert c.find(0x2000, 0) is None
    assert c.tagmiss_forward_nofill == 0


def test_news_spec_mapping_miss_fills():
    c = _news()
    assert c.access(0x2000, 0, 1) == 3
    assert c.find(0x2000, 0).spec_bit == 1


def test_news_mapping_one_line_per_key():
    c = _news(lines=8, k=2, seed=9)
    rng = Rng(40)
    for _ in range(300):
        c.access(64 * rng.choose(4096), rng.choose(3), 0)
        keys = [(rec.domain, (rec.base >> c.geom.offset_bits)
                 & ((1 << c.geom.index_bits) - 1)) for rec in c.valid_lines()]
        assert len(keys) == len(set(keys))
        assert len(keys) <= 8


def test_news_dirty_conflict_writes_back():
    c = _news(lines=8, k=2)
    conflict_bit = c.geom.offset_bits + c.geom.index_bits
    a = 0x1000
    c.access(a + 3, 0, 0, 0x7E)
    c.access(a ^ (1 << conflict_bit), 0, 0)
    wb = c.lower.writebacks
    assert len(wb) == 1 and wb[0][0] == a and wb[0][2][3] == 0x7E


# -- squash invalidation handling --

# every level class runs the one shared handler through its own
# domain-aware find: the set-associative cache as L2, FARR and NEWS as L1
_SFILL_LEVELS = (lambda: _lru(level=2), _farr, _news)


def _filled(cache, addr, spec):
    cache.access(addr, 0, spec)
    return cache


def test_sfill_nonspec_line_drops_and_counts():
    for make in _SFILL_LEVELS:
        c = _filled(make(), 0x1000, 0)
        assert c.handle_sfill_inv(0x1000, 0, 3) is False
        assert c.find(0x1000, 0) is not None
        assert c.inval_dropped_case_i == 1


def test_sfill_spec_line_invalidated_then_propagates_by_source():
    for make in _SFILL_LEVELS:
        c = _filled(make(), 0x1000, 1)
        level = c.level
        propagates = c.handle_sfill_inv(0x1000, 0, 3)
        assert c.find(0x1000, 0) is None
        assert propagates is (3 > level)
        assert c.inval_dropped_case_i == 0


def test_sfill_absent_propagates_only_deeper():
    for make in _SFILL_LEVELS:
        c = make()
        assert c.handle_sfill_inv(0x1000, 0, 2) is (2 > c.level)
        assert c.handle_sfill_inv(0x1000, 0, 3) is True


def test_sfill_conventional_cache_ignores_message():
    # the baseline's conventional L1 never sees the message: its
    # speculative line stays, spec bit set, and nothing is counted
    h = Hierarchy(DESIGNS["sa-lru"], CacheGeometry(64, 8, 2),
                  CacheGeometry(64, 32, 4), Rng(1))
    c = h.l1
    c.access(0x1000, 0, 1)
    assert h.sfill_inv(0x1000, 0, 3) is False
    assert c.find(0x1000).spec_bit == 1
    assert c.inval_dropped_case_i == 0


def test_sfill_wrong_domain_treated_as_absent():
    for make in _SFILL_LEVELS:
        c = make()
        c.access(0x1000, 1, 1)
        assert c.handle_sfill_inv(0x1000, 0, 2) is (2 > c.level)
        assert c.handle_sfill_inv(0x1000, 0, 3) is True
        assert c.find(0x1000, 1) is not None
        assert c.inval_dropped_case_i == 0


def test_lru_rejects_extra_index_bits():
    with pytest.raises(ValueError):
        SetAssocLru(CacheGeometry(64, 8, 2, 2), _Lower())


# -- source levels and base index --

def test_a_level2_hit_reports_level_2():
    for make in (_lru, _farr, _news):
        c = make(level=2)
        assert c.access(0x1000, 0, 0) == 3        # the stub fetch's level
        assert c.access(0x1000, 0, 0) == 2
        assert c.access(0x1004, 0, 0, 7) == 2     # stores alike


def test_news_forward_without_fill_reports_the_source_below():
    c = _news(lines=8, k=2)
    conflict_bit = c.geom.offset_bits + c.geom.index_bits
    a = 0x1000
    b = a ^ (1 << conflict_bit)
    assert c.access(a, 0, 0) == 3
    # a forward without fill reports the level the fetch below named;
    # the counter and the cache contents tell it from a fill
    assert c.access(b, 0, 1) == 3
    assert c.tagmiss_forward_nofill == 1
    assert c.find(b, 0) is None
    c.lower.fetch = lambda addr, domain, spec_bit: (bytes(64), 2)
    c.access(a, 0, 0)
    assert c.access(a, 0, 0) == 1
    assert c.access(b, 0, 1) == 2
    assert c.tagmiss_forward_nofill == 2
    assert c.find(b, 0) is None


def test_lines_at_lists_every_copy_in_slot_order():
    c = _farr(lines=8)
    for dom in (2, 0, 1):
        c.access(0x1000, dom, 0)
    assert [r.domain for r in c.lines_at(0x1000)] == [2, 0, 1]
    assert c.contains_addr(0x1000) and not c.contains_addr(0x2000)
    c.flush_line(0x1000, 0)
    assert [r.domain for r in c.lines_at(0x1000)] == [2, 1]
    c.access(0x1000, 3, 0)        # reuses the freed slot 1
    assert [r.domain for r in c.lines_at(0x1000)] == [2, 3, 1]
    assert c.lines_at(0x2000) == []
    lru = _lru()
    lru.access(0x1000, 1, 0)
    assert [r.base for r in lru.lines_at(0x1000)] == [0x1000]
    assert lru.lines_at(0x2000) == []


def test_news_conflict_moves_the_slot_to_the_new_base():
    c = _news(lines=8, k=2)
    conflict_bit = c.geom.offset_bits + c.geom.index_bits
    a = 0x1000
    b = a ^ (1 << conflict_bit)
    c.access(a, 0, 0)
    c.access(b, 0, 0)             # replaces a in place
    assert not c.contains_addr(a)
    assert [r.base for r in c.lines_at(b)] == [b]
