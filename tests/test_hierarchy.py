import pytest

from starcache.checks import flat_replay_reference
from starcache.config import RunConfig
from starcache.core import Rng
from starcache.engine import SpecEngine
from starcache.hierarchy import Hierarchy
from starcache.trace import parse_trace, replay


def _hier(model="sa-lru", **kw):
    cfg = RunConfig(model=model, **kw).validate()
    return cfg.build_hierarchy(Rng(1).fork("test"))


def test_latency_ladder():
    h = _hier()
    assert h.load(0x1000, 0).latency == 113      # memory fill
    assert h.load(0x1000, 0).latency == 1        # L1 hit
    # push the line out of L1 only: fill its L1 set (64 sets, 8 ways)
    for i in range(1, 9):
        h.load(0x1000 + 4096 * i, 0)
    out = h.load(0x1000, 0)
    assert out.latency == 13                     # L2 hit
    assert out.source_level == 2


def test_flush_then_reload_pays_memory():
    h = _hier()
    h.load(0x2000, 0)
    assert h.flush(0x2000, 0) is True
    assert h.flush(0x2000, 0) is False           # nothing left
    assert h.load(0x2000, 0).latency == 113


def test_inclusion_after_mixed_work():
    for model in ("sa-lru", "star-farr", "star-news"):
        h = _hier(model)
        rng = Rng(17)
        for _ in range(3000):
            addr = 0x100_0000 + 64 * rng.choose(1024)
            if rng.chance(0.3):
                h.store(addr, rng.choose(2))
            else:
                h.load(addr, rng.choose(2))
        h.check_invariants()
        for rec in h.l1.valid_lines():
            assert h.l2.contains_addr(rec.base)


def test_back_invalidation_removes_l1_copy():
    # 16-set L2 of associativity 2: three loads in one L2 set evict the
    # first, which must disappear from the (still roomy) L1 as well
    h = _hier(l1_lines=16, l1_assoc=8, l2_lines=32, l2_assoc=2)
    stride = 64 * 16
    h.load(0x8000, 0)
    h.load(0x8000 + stride, 0)
    assert h.l1.contains_addr(0x8000)
    h.load(0x8000 + 2 * stride, 0)
    assert not h.l2.contains_addr(0x8000)
    assert not h.l1.contains_addr(0x8000)


def test_back_invalidation_saves_dirty_data():
    h = _hier(l1_lines=16, l1_assoc=8, l2_lines=32, l2_assoc=2)
    stride = 64 * 16
    h.store(0x8005, 0, 0xCD)
    h.load(0x8000 + stride, 0)
    h.load(0x8000 + 2 * stride, 0)     # evicts the dirty line from L2
    assert bytes(h.memory.read_line(0x8000))[5] == 0xCD


def test_store_token_sequence():
    h = _hier()
    h.store(0x3000, 0)        # token 0
    h.store(0x3001, 0)        # token 1
    h.store(0x3002, 0)        # token 2
    h.drain()
    line = bytes(h.memory.read_line(0x3000))
    assert line[:3] == bytes([0, 1, 2])


def test_store_explicit_value_does_not_advance_token():
    h = _hier()
    h.store(0x3000, 0, 0x55)
    h.store(0x3001, 0)        # still token 0
    h.drain()
    line = bytes(h.memory.read_line(0x3000))
    assert line[:2] == bytes([0x55, 0])


def test_baseline_flush_crosses_domains():
    h = _hier("sa-lru")
    h.load(0x6000, 1)
    assert h.flush(0x6000, 2) is True
    assert not h.l2.contains_addr(0x6000)


def test_hardened_flush_respects_domains():
    for model in ("star-farr", "star-news"):
        h = _hier(model)
        h.load(0x6000, 1)
        assert h.flush(0x6000, 2) is False
        assert h.l2.contains_addr(0x6000)
        assert h.flush(0x6000, 1) is True


def test_hardened_flush_resyncs_foreign_l2_copy():
    h = _hier("star-farr")
    h.load(0x7000, 2)          # L2 copy belongs to domain 2
    h.load(0x7000, 1)
    h.store(0x7004, 1, 0x99)   # domain 1's L1 copy goes dirty
    assert h.flush(0x7000, 1) is True
    rec = h.l2.find(0x7000)
    assert rec is not None and rec.domain == 2     # survived, not retagged
    assert rec.dirty == 0
    assert bytes(rec.data)[4] == 0x99              # but carries the data
    assert bytes(h.memory.read_line(0x7000))[4] == 0x99


def test_cross_domain_load_misses_on_hardened_models():
    for model in ("star-farr", "star-news"):
        h = _hier(model)
        h.load(0x9000, 1)
        out = h.load(0x9000, 2)
        assert out.source_level == 2
        assert out.latency == 13       # served by L2, no domain gate there
    h = _hier("sa-lru")
    h.load(0x9000, 1)
    assert h.load(0x9000, 2).source_level == 1


def test_sfill_inv_scrubs_both_levels_from_memory_fill():
    for model in ("star-farr", "star-news"):
        h = _hier(model)
        h.load(0xA000, 0, spec_bit=1)
        assert h.l1.find(0xA000, 0).spec_bit == 1
        assert h.l2.find(0xA000).spec_bit == 1
        h.squash([(0xA000, 0, 3)])
        assert h.l1.find(0xA000, 0) is None
        assert not h.l2.contains_addr(0xA000)


def test_sfill_inv_source2_stops_at_nonspec_l2_line():
    h = _hier("star-farr")
    h.load(0xB000, 0)                   # non-spec everywhere
    # evict from L1 only, then refill speculatively out of L2
    for rec in list(h.l1.valid_lines()):
        h.l1.flush_line(rec.base, rec.domain, True)
    out = h.load(0xB000, 0, spec_bit=1)
    assert out.source_level == 2
    h.squash([(0xB000, 0, 2)])
    assert h.l1.find(0xB000, 0) is None
    assert h.l2.contains_addr(0xB000)            # case i at L2
    assert h.sfill_inv_dropped_case_i == 1


def test_sfill_inv_ignored_by_baseline_l1():
    h = _hier("sa-lru")
    h.load(0xC000, 0, spec_bit=1)
    assert h.sfill_inv(0xC000, 0, 3) is False    # not passed on to L2
    assert h.l1.find(0xC000) is not None
    assert h.l2.contains_addr(0xC000)


def test_spec_clean_invariant_holds():
    h = _hier("star-news")
    h.load(0xD000, 0, spec_bit=1)
    h.store(0xD000, 0)       # non-spec store clears the bit, then dirties
    rec = h.l1.find(0xD000, 0)
    assert rec.spec_bit == 0 and rec.dirty == 1
    h.check_invariants()


def test_drain_flushes_everything():
    h = _hier()
    rng = Rng(23)
    for i in range(200):
        h.store(0x20_0000 + 64 * rng.choose(64) + rng.choose(64), 0)
    h.drain()
    assert not list(h.l1.valid_lines())
    assert not list(h.l2.valid_lines())


def test_counters_add_up():
    h = _hier()
    rng = Rng(29)
    for _ in range(2000):
        h.load(0x30_0000 + 64 * rng.choose(700), 0)
    assert h.l1_hits + h.l1_miss_l2 + h.l1_miss_mem == h.loads == 2000


def test_mismatched_line_sizes_rejected():
    from starcache.core import CacheGeometry
    with pytest.raises(ValueError):
        Hierarchy("sa-lru", CacheGeometry(64, 512, 8),
                  CacheGeometry(128, 4096, 8), Rng(1))


# -- base index and back-invalidation --

_STRIDE = 64 * 16          # one L2 set apart in a 16-set L2


def _tiny(model):
    """16-line L1 under a 16-set, 2-way L2: a third line in one L2 set
    evicts the first, with invariants checked after every operation."""
    return _hier(model, l1_lines=16, l1_assoc=8, l2_lines=32, l2_assoc=2,
                 debug_checks=True)


def _slot(h, addr, domain):
    return h.l1._slots.index(h.l1.find(addr, domain))


@pytest.mark.parametrize("model", ["star-farr", "star-news"])
def test_l2_eviction_recalls_every_domain_copy(model):
    a = 0x8000
    h = _tiny(model)
    h.store(a + 3, 0, 0x11)            # domain 0's copy, slot 0, dirty
    h.store(a + 3, 1, 0x22)            # domain 1's copy, slot 1, dirty
    h.load(0x9040, 0)                  # slot 2, another L2 set
    assert [_slot(h, a, d) for d in (0, 1)] == [0, 1]
    assert [r.domain for r in h.l1.lines_at(a)] == [0, 1]
    h.load(a + _STRIDE, 0)             # slot 3; the L2 set is now full
    h.load(a + 2 * _STRIDE, 0)         # L2 evicts a: both copies go
    assert not h.l2.contains_addr(a)
    assert not h.l1.contains_addr(a)
    assert h.l1.lines_at(a) == []
    assert h.l1.find(a, 0) is None and h.l1.find(a, 1) is None
    # copies are written back in ascending slot order: slot 1 lands last
    assert bytes(h.memory.read_line(a))[3] == 0x22
    # slots 0 then 1 were freed, so the refill took 1 and the next fill 0
    assert _slot(h, a + 2 * _STRIDE, 0) == 1
    h.load(0xA080, 0)
    assert _slot(h, 0xA080, 0) == 0


@pytest.mark.parametrize("model", ["sa-lru", "star-farr", "star-news"])
def test_l2_eviction_saves_a_dirty_l1_copy(model):
    a = 0x8000
    h = _tiny(model)
    h.store(a + 9, 0, 0x5A)
    h.load(a + _STRIDE, 0)
    h.load(a + 2 * _STRIDE, 0)
    assert not h.l1.contains_addr(a)
    assert bytes(h.memory.read_line(a))[9] == 0x5A
    assert [r.base for r in h.l1.lines_at(a + 2 * _STRIDE)] == [a + 2 * _STRIDE]


@pytest.mark.parametrize("model", ["star-farr", "star-news"])
def test_invariant_check_catches_a_stale_base_index(model):
    h = _tiny(model)
    h.load(0x8000, 0)
    h.check_invariants()
    h.l1._at[0x123440] = [5]
    with pytest.raises(AssertionError, match="base index"):
        h.check_invariants()
    del h.l1._at[0x123440]
    h.l1._at[0x8000].append(7)
    with pytest.raises(AssertionError, match="base index"):
        h.check_invariants()
    h.l1._at[0x8000].pop()
    h.check_invariants()
    (dom, field), slot = h.l1._keys.popitem()
    h.l1._keys[(dom + 1, field)] = slot     # the entry names another domain
    with pytest.raises(AssertionError, match="mapping entry"):
        h.check_invariants()


def _index_matches_scan(l1) -> None:
    by_base = {}
    for rec in l1.valid_lines():
        by_base.setdefault(rec.base, []).append(rec)
    assert set(l1._at) == set(by_base)
    for base, recs in by_base.items():
        assert l1.contains_addr(base)
        assert l1.lines_at(base) == recs


@pytest.mark.parametrize("model", ["star-farr", "star-news"])
def test_base_index_tracks_mixed_work(model):
    # loads (some speculative), stores and flushes from three domains
    # over a footprint four times the L2, so every removal path runs
    h = _hier(model, l1_lines=32, l1_assoc=4, l2_lines=128, l2_assoc=4)
    rng = Rng(31)
    for step in range(3000):
        addr = 0x100_0000 + 64 * rng.choose(512)
        dom = rng.choose(3)
        r = rng.choose(10)
        if r < 3:
            h.store(addr, dom)
        elif r < 4:
            h.flush(addr, dom)
        else:
            h.load(addr, dom, spec_bit=int(r == 9))
        if step % 50 == 0:
            _index_matches_scan(h.l1)
    _index_matches_scan(h.l1)


@pytest.mark.parametrize("model", ["sa-lru", "star-farr", "star-news"])
def test_written_back_l2_line_is_not_speculative(model):
    # a speculative load fills L2 with spec_bit set; after it commits, a
    # store dirties the L1 copy, and that copy's eviction writes back
    # into the L2 line, which must then be dirty and non-speculative
    h = _hier(model, l1_lines=16, l1_assoc=2, l2_lines=64, debug_checks=True)
    text = "SPEC_BEGIN\nL 0x1000\nSPEC_END commit\nL 0x1000\nS 0x1000\n"
    text += "".join(f"L 0x{a:x}\n" for a in range(0x2000, 0x9001, 64))
    replay(parse_trace(text), h)          # debug checks run after each op


# -- cross-domain flushes and shared line payloads --

@pytest.mark.parametrize("model", ["star-farr", "star-news"])
def test_hardened_flush_keeps_l2_line_under_another_domains_copy(model):
    h = _hier(model, l1_lines=16, l1_assoc=2, l2_lines=64)
    h.load(0x1000, 0)                  # the L2 line belongs to domain 0
    h.load(0x1000, 1)                  # domain 1's own copy, an L2 hit
    assert h.flush(0x1000, 0) is True
    h.check_invariants()
    assert h.l1.find(0x1000, 0) is None
    assert h.l1.find(0x1000, 1) is not None
    assert h.l2.contains_addr(0x1000)
    # domain 1's copy still has an L2 line to write back into
    h.store(0x1003, 1, 0x5A)
    h.drain()
    assert h.memory.read_line(0x1000)[3] == 0x5A


@pytest.mark.parametrize("model", ["sa-lru", "star-farr", "star-news"])
def test_multi_domain_write_back_matches_flat_reference(model):
    # loads and flushes from three domains, stores from domain 0 only:
    # per-domain copies are not kept coherent, so two domains storing
    # to one line have no flat reference
    for t in range(100):
        h = _hier(model, l1_lines=16, l1_assoc=2, l2_lines=64,
                  debug_checks=True)
        rng = Rng(4000 + t)
        events = []
        for _ in range(400):
            addr = 0x40_0000 + 64 * rng.choose(96) + rng.choose(64)
            r = rng.choose(10)
            if r < 3:
                h.store(addr, 0)
                events.append(("S", addr))
            elif r < 5:
                h.flush(addr, rng.choose(3))
            else:
                h.load(addr, rng.choose(3))
        h.drain()
        got = {b: d for b, d in h.memory.nonzero_lines().items() if any(d)}
        assert got == flat_replay_reference(events), f"trace {t}"


@pytest.mark.parametrize("model,domains", [
    pytest.param(m, d, id=m if d == 1 else f"{m}-{d}domains")
    for d in (1, 3) for m in ("sa-lru", "star-farr", "star-news")])
def test_speculation_window_write_back_matches_flat_reference(model, domains):
    # windows that commit or squash between plain operations, replayed
    # from trace text; loads come from the first `domains` domains and
    # stores from domain 0.  A squashed window's stores never execute,
    # so the reference sees the committed stores only
    for t in range(100):
        h = _hier(model, l1_lines=16, l1_assoc=2, l2_lines=64,
                  debug_checks=True)
        rng = Rng(5000 + t)
        lines, committed = [], []

        def op():
            addr = 0x40_0000 + 64 * rng.choose(96) + rng.choose(64)
            if rng.choose(10) < 3:
                return "S", addr, 0
            return "L", addr, rng.choose(domains) if domains > 1 else 0

        while len(lines) < 400:
            if rng.choose(4) == 0:
                ops = [op() for _ in range(1 + rng.choose(8))]
                commit = rng.choose(3) != 0
                lines.append("SPEC_BEGIN")
                lines += [f"{o} 0x{a:x} {d}" for o, a, d in ops]
                lines.append(f"SPEC_END {'commit' if commit else 'squash'}")
                if commit:
                    committed += ops
            else:
                o, a, d = op()
                lines.append(f"{o} 0x{a:x} {d}")
                committed.append((o, a, d))
        replay(parse_trace("\n".join(lines)), h)
        h.drain()
        got = {b: d for b, d in h.memory.nonzero_lines().items() if any(d)}
        want = flat_replay_reference([(o, a) for o, a, _ in committed])
        assert got == want, f"trace {t}"


@pytest.mark.parametrize("model", ["star-farr", "star-news"])
def test_squash_keeps_l2_line_under_another_domains_copy(model):
    a = 0x1000
    h = _hier(model, l1_lines=16, l1_assoc=2, l2_lines=64)
    engine = SpecEngine(h)
    engine.issue_barrier()             # both domains load A speculatively
    engine.issue_load(a, 0)
    engine.issue_load(a, 1)
    engine.commit_all()
    h.flush(a, 0)                      # L2 stays under domain 1's copy
    barrier = engine.issue_barrier()
    engine.issue_load(a, 0)            # an L2 hit on the wrong path
    engine.squash_from(barrier.id)
    h.check_invariants()               # inclusion: domain 1's copy in L2
    h.store(a, 1, 0x5A)
    for i in range(1, 40):             # evict the dirty copy
        h.load(a + 0x1000 * i, 1)
    h.drain()
    assert h.memory.read_line(a)[0] == 0x5A


@pytest.mark.parametrize("first", [0, 1])
@pytest.mark.parametrize("model", ["star-farr", "star-news"])
def test_squash_scrubs_a_fresh_line_two_domains_loaded(model, first):
    # both domains fill one fresh line on the wrong path; the squash
    # must take every copy out of both levels, whichever loaded first
    a = 0x1000
    h = _hier(model, l1_lines=16, l1_assoc=2, l2_lines=64, debug_checks=True)
    engine = SpecEngine(h)
    barrier = engine.issue_barrier()
    engine.issue_load(a, first)
    engine.issue_load(a, 1 - first)
    report = engine.squash_from(barrier.id)
    assert report.sfill_inv_sent == 2
    assert not h.l1.contains_addr(a)
    assert not h.l2.contains_addr(a)


@pytest.mark.parametrize("model", ["sa-lru", "star-farr", "star-news"])
def test_store_to_a_shared_fill_leaves_l2_and_memory_alone(model):
    a = 0x5000
    h = _hier(model)
    h.memory.write_line(a, bytes(range(64)))
    h.load(a, 0)                       # L1 and L2 copies of memory's bytes
    h.store(a + 2, 0, 0xEE)
    assert h.l1.find(a, 0).data[2] == 0xEE
    assert h.l2.find(a).data == bytes(range(64))
    assert h.memory.read_line(a) == bytes(range(64))


@pytest.mark.parametrize("model", ["star-farr", "star-news"])
def test_write_back_leaves_another_domains_clean_copy_alone(model):
    a = 0x7000
    h = _hier(model)
    h.load(a, 1)                       # domain 1's clean copy
    h.store(a + 4, 0, 0x99)            # domain 0's dirty copy
    h.l1.lower.writeback(a, 0, h.l1.find(a, 0).data)   # as an eviction does
    assert h.l2.find(a).data[4] == 0x99
    assert h.l1.find(a, 1).data == bytes(64)
    h.store(a + 5, 0, 0x77)
    assert h.l2.find(a).data[5] == 0   # the written-back payload is a copy
    assert h.flush(a, 0) is True       # resyncs the surviving L2 line
    assert h.l2.find(a).data[4:6] == bytes([0x99, 0x77])
    assert h.memory.read_line(a)[4:6] == bytes([0x99, 0x77])
    assert h.l1.find(a, 1).data == bytes(64)


@pytest.mark.parametrize("wrong_path", [False, True])
@pytest.mark.parametrize("model", ["sa-lru", "star-farr", "star-news"])
def test_l2_is_a_conventional_lru_that_a_squashed_load_can_perturb(
        model, wrong_path):
    # The STAR rules cover L1 state and squash invalidation only.  A
    # squashed load's L2 fill still evicts the L2 set's LRU line, and
    # inclusion recalls that line from another domain's L1.
    h = _hier(model, l1_lines=16, l1_assoc=2, l2_lines=64, l2_assoc=2)
    engine = SpecEngine(h)
    h.load(0x0, 1)
    h.load(0x800, 1)                   # the L2 set of 0x0 is now full
    if wrong_path:
        barrier = engine.issue_barrier()
        engine.issue_load(0x1000, 0)   # the same L2 set
        engine.squash_from(barrier.id)
    assert h.load(0x0, 1).source_level == (3 if wrong_path else 1)
