import pytest

from starcache import models
from starcache.attacks import (run_flush_reload_aes, run_prime_probe_aes,
                               run_spectre)
from starcache.checks import MUTATIONS, flat_replay_reference
from starcache.config import RunConfig
from starcache.core import CacheGeometry, Rng
from starcache.engine import SpecEngine
from starcache.hierarchy import Hierarchy
from starcache.models import (DESIGNS, Design, FarrCache, NewsCache,
                              SetAssocLru)
from starcache.trace import parse_trace, replay

# Designs that take one defense alone, for tests only.  sa-lru+squash
# adds squash invalidation to the conventional cache, as CleanupSpec
# does; star-farr−squash and star-news−squash keep the randomized,
# domain-gated cache and drop squash invalidation, as a Newcache-style
# design would.
TEST_DESIGNS = {
    "sa-lru+squash": Design(SetAssocLru, squash_invalidation=True),
    "star-farr−squash": Design(FarrCache, squash_invalidation=False),
    "star-news−squash": Design(NewsCache, squash_invalidation=False, k=4),
}


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


@pytest.mark.parametrize("model", ["sa-lru", "star-farr", "star-news"])
@pytest.mark.parametrize("cycles, ladder", [((1, 12, 100), (1, 13, 113)),
                                            ((2, 30, 200), (2, 32, 232))],
                         ids=["default", "other"])
def test_one_shared_immutable_outcome_per_source_level(model, cycles, ladder):
    l1, l2, mem = cycles
    h = _hier(model, l1_hit_cycles=l1, l2_hit_cycles=l2, memory_cycles=mem)
    from_mem = h.load(0x1000, 0)
    hit = h.load(0x1000, 0)
    h.l1.flush_line(0x1000, 0)        # the L2 copy stays
    from_l2 = h.load(0x1000, 0)
    assert (hit, from_l2, from_mem) == tuple(zip(ladder, (1, 2, 3)))
    # every access served from one level gets that level's outcome,
    # loads and stores alike
    assert h.store(0x1004, 0, 7) is hit
    assert h.load(0x2000, 0) is from_mem
    assert h.store(0x3000, 0) is from_mem
    h.l1.flush_line(0x2000, 0)
    assert h.load(0x2000, 0) is from_l2
    for outcome in (hit, from_l2, from_mem):
        with pytest.raises(AttributeError):
            outcome.latency = 5
        with pytest.raises(AttributeError):
            outcome.source_level = 2
    assert h.load(0x1000, 0) == (ladder[0], 1)


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
        # with no L1 copy left, the L2 line is still domain 1's alone
        h.load(0x6000, 1)
        h.l1.flush_line(0x6000, 1)
        assert h.flush(0x6000, 2) is False
        assert h.l2.contains_addr(0x6000)


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
        h.l1.flush_line(rec.base, rec.domain)
    out = h.load(0xB000, 0, spec_bit=1)
    assert out.source_level == 2
    h.squash([(0xB000, 0, 2)])
    assert h.l1.find(0xB000, 0) is None
    assert h.l2.contains_addr(0xB000)            # case i at L2
    assert h.sfill_inv_dropped_case_i == 1


def test_sfill_inv_ignored_by_baseline_l1():
    # the baseline counts the send, and no handler sees it
    for spec in (1, 0):
        h = _hier("sa-lru")
        h.load(0xC000, 0, spec_bit=spec)
        assert h.sfill_inv(0xC000, 0, 3) is False    # not passed on to L2
        assert h.sfill_inv_sent == 1
        assert h.sfill_inv_dropped_case_i == 0
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
    with pytest.raises(ValueError):
        Hierarchy(DESIGNS["sa-lru"], CacheGeometry(64, 512, 8),
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
    engine.squash_from(barrier.id)
    assert h.sfill_inv_sent == 2
    assert not h.l1.contains_addr(a)
    assert not h.l2.contains_addr(a)


ITEM_2 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: a committed speculative load keeps spec_bit on "
           "its L2 line, so a later squash of a reload drops that line")


@pytest.mark.parametrize("wrong_path",
                         [False, pytest.param(True, marks=ITEM_2)])
@pytest.mark.parametrize("clear_on_commit", [False, True])
@pytest.mark.parametrize("model", ["star-farr", "star-news"])
def test_squash_leaves_a_committed_l2_line_alone(model, clear_on_commit,
                                                 wrong_path):
    # A squash undoes only what its own window did: a line that an
    # earlier window brought in and committed stays in L2.
    a = 0x1000
    h = _hier(model, l1_lines=16, l1_assoc=2, l2_lines=256, l2_assoc=8,
              debug_checks=True)
    engine = SpecEngine(h, clear_specbit_on_commit=clear_on_commit)
    engine.issue_barrier()
    engine.issue_load(a, 0)
    engine.commit_all()
    for i in range(64):                # evict A from L1 only
        h.load(0x2000 + 64 * i, 0)
    assert not h.l1.contains_addr(a) and h.l2.contains_addr(a)
    if wrong_path:
        barrier = engine.issue_barrier()
        engine.issue_load(a, 0)        # an L2 hit, then squashed
        engine.squash_from(barrier.id)
    out = h.load(a, 1)
    assert (out.source_level, out.latency) == (2, 13)


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


@pytest.mark.parametrize("design", [DESIGNS["sa-lru"], DESIGNS["star-news"],
                                    *TEST_DESIGNS.values()],
                         ids=["sa-lru", "star-news", *TEST_DESIGNS])
def test_flush_and_squash_each_follow_their_own_flag(design):
    h = Hierarchy(design, CacheGeometry(64, 16, 4, design.k or 0),
                  CacheGeometry(64, 64, 4), Rng(1), debug_checks=True)
    # a domain-0 flush of domain 1's line removes it, at both levels,
    # exactly when the L1 class does not gate by domain
    h.load(0x1000, 1)
    h.flush(0x1000, 0)
    assert (h.l1.find(0x1000, 1) is None) is not design.l1.domain_gated
    assert h.l2.contains_addr(0x1000) is design.l1.domain_gated
    # a squashed wrong-path fill leaves exactly when the L1 acts on
    # squash invalidation; the request is sent either way
    engine = SpecEngine(h)
    barrier = engine.issue_barrier()
    engine.issue_load(0x2000, 0)
    engine.squash_from(barrier.id)
    assert h.sfill_inv_sent == 1
    assert (h.l1.find(0x2000, 0) is None) is design.squash_invalidation
    assert h.l2.contains_addr(0x2000) is not design.squash_invalidation


@pytest.mark.parametrize("name, spectre_leaks, conventional_leaks",
                         [("sa-lru+squash", False, True),
                          ("star-news−squash", True, False),
                          ("star-farr−squash", True, False)])
def test_one_defense_alone_leaves_the_other_attack_class_open(
        monkeypatch, name, spectre_leaks, conventional_leaks):
    # The paper's thesis on its cheapest cells: squash invalidation
    # alone stops the Spectre flush-reload receiver but not the
    # conventional channels, and a domain-gated random cache alone does
    # the reverse.  A prime-probe receiver of the Spectre wrong path is a
    # conventional channel: no squash refills the primed line it evicted.
    monkeypatch.setitem(models.DESIGNS, name, TEST_DESIGNS[name])
    cfg = RunConfig(model=name).validate()
    for secret in (42, 200):
        run = run_spectre(cfg, "fr-spectre", secret, trials=4)
        assert run.recovered == (secret if spectre_leaks else None)
        run = run_spectre(cfg, "pp-spectre", secret, trials=32)
        assert run.recovered == (secret if conventional_leaks else None)
    key = bytes(range(0x10, 0x20))
    want = [b >> 4 for b in key] if conventional_leaks else [None] * 16
    for run_aes in (run_flush_reload_aes, run_prime_probe_aes):
        assert run_aes(cfg, key, trials=1024).recovery.nibbles == want


class _DomainBlind:
    """Hits keyed as domain 0 for every access: the domain gate off."""

    def access(self, addr, domain, spec_bit, value=None):
        return super().access(addr, 0, spec_bit, value)


class _FixedVictim:
    """The first valid slot as every victim: random replacement off."""

    _random_valid_slot = MUTATIONS["farr-fixed-victim"][2]


# The hardened designs with one mechanism of the randomized cache taken
# out; squash invalidation stays on.
ABLATIONS = {
    f"{model}-{tag}": Design(type(mixin.__name__[1:] + l1.__name__,
                                  (mixin, l1), {}), True, k)
    for model, (l1, _, k) in DESIGNS.items() if l1 is not SetAssocLru
    for tag, mixin in (("domain-blind", _DomainBlind),
                       ("fixed-victim", _FixedVictim))}


@pytest.mark.parametrize("name, fr_aes, pp_aes", [
    ("star-farr-domain-blind", True, False),
    ("star-news-domain-blind", True, True),
    ("star-farr-fixed-victim", False, False),
    ("star-news-fixed-victim", False, False)])
def test_single_mechanism_ablations(monkeypatch, name, fr_aes, pp_aes):
    # Domain-blind hits reopen flush-reload AES on both models, and
    # prime-probe AES only where NEWS's narrow mapping makes conflicts;
    # squash invalidation still closes both Spectre receivers.  No
    # attack here depends on random replacement: a fixed victim leaves
    # all four closed, and only C7's uniformity test catches it.
    monkeypatch.setitem(models.DESIGNS, name, ABLATIONS[name])
    cfg = RunConfig(model=name).validate()
    assert type(cfg.build_hierarchy(Rng(1)).l1) is ABLATIONS[name].l1
    for secret in (42, 200):
        for kind, trials in (("fr-spectre", 4), ("pp-spectre", 32)):
            run = run_spectre(cfg, kind, secret, trials=trials)
            assert run.recovered is None, (kind, secret)
    key = bytes(range(0x10, 0x20))
    for run_aes, leaks in ((run_flush_reload_aes, fr_aes),
                           (run_prime_probe_aes, pp_aes)):
        want = [b >> 4 for b in key] if leaks else [None] * 16
        assert run_aes(cfg, key, trials=1024).recovery.nibbles == want
