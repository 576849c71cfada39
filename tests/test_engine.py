import pytest

from starcache.config import RunConfig
from starcache.core import Rng
from starcache.engine import SpecEngine, WindowFullError


def _setup(model="sa-lru", **kw):
    cfg = RunConfig(model=model).validate()
    hier = cfg.build_hierarchy(Rng(2).fork("engine-test"))
    return hier, SpecEngine(hier, **kw)


def test_load_alone_is_architectural():
    hier, eng = _setup()
    entry = eng.issue_load(0x1000, 0)
    assert entry.spec_bit == 0
    assert hier.l1.find(0x1000).spec_bit == 0


def test_load_behind_barrier_is_speculative():
    hier, eng = _setup()
    eng.issue_barrier()
    entry = eng.issue_load(0x2000, 0)
    assert entry.spec_bit == 1
    assert hier.l1.find(0x2000).spec_bit == 1


def test_load_behind_store_is_speculative():
    hier, eng = _setup()
    eng.issue_store(0x3000, 0)
    assert eng.issue_load(0x4000, 0).spec_bit == 1


def test_commit_restores_architectural_issue():
    hier, eng = _setup()
    eng.issue_barrier()
    eng.issue_load(0x5000, 0)
    eng.commit_all()
    assert eng.issue_load(0x6000, 0).spec_bit == 0


def test_store_executes_only_at_commit():
    hier, eng = _setup()
    eng.issue_store(0x7000, 0)
    assert hier.stores == 0
    assert hier.l1.find(0x7000) is None
    eng.commit_all()
    assert hier.stores == 1
    assert hier.l1.find(0x7000).dirty == 1


def test_squashed_store_never_executes():
    hier, eng = _setup()
    b = eng.issue_barrier()
    eng.issue_store(0x8000, 0)
    eng.squash_from(b.id)
    assert hier.stores == 0
    assert not eng.window


def test_resolve_to_is_partial():
    hier, eng = _setup()
    a = eng.issue_load(0x9000, 0)
    b = eng.issue_barrier()
    eng.issue_load(0xA000, 0)
    eng.resolve_to(b.id)
    assert len(eng.window) == 1
    assert eng.window[0].addr == 0xA000
    assert eng.issue_load(0xB000, 0).spec_bit == 0   # nothing unexecuted left


def test_squash_keeps_older_entries():
    hier, eng = _setup()
    keep = eng.issue_load(0x1000, 0)
    b = eng.issue_barrier()
    eng.issue_load(0x2000, 0)
    report = eng.squash_from(b.id)
    assert [e.id for e in eng.window] == [keep.id]
    assert report.loads_squashed == 1


def test_squash_report_splits_by_source():
    hier, eng = _setup("star-farr")
    hier.load(0x1000, 0)                  # resident: wrong path will hit L1
    b = eng.issue_barrier()
    eng.issue_load(0x1000, 0)             # L1 hit
    eng.issue_load(0x2000, 0)             # memory fill
    report = eng.squash_from(b.id)
    assert report.loads_squashed == 2
    assert hier.sfill_inv_sent == 1       # the L1 hit sends nothing


def test_squash_scrubs_speculative_fill_on_hardened_model():
    for model in ("star-farr", "star-news"):
        hier, eng = _setup(model)
        b = eng.issue_barrier()
        out = eng.issue_load(0x3000, 5)
        assert hier.l1.find(0x3000, 5) is not None
        eng.squash_from(b.id)
        assert hier.l1.find(0x3000, 5) is None
        assert not hier.l2.contains_addr(0x3000)


def test_squash_leaves_trace_on_baseline():
    hier, eng = _setup("sa-lru")
    b = eng.issue_barrier()
    eng.issue_load(0x3000, 0)
    eng.squash_from(b.id)
    assert hier.l1.find(0x3000) is not None      # the classic leak


def test_l1_hit_squash_sends_nothing():
    hier, eng = _setup("star-news")
    hier.load(0x4000, 0)
    b = eng.issue_barrier()
    eng.issue_load(0x4000, 0)
    eng.squash_from(b.id)
    assert hier.sfill_inv_sent == 0
    assert hier.l1.find(0x4000, 0) is not None


def test_window_eager_commit_when_full():
    hier, eng = _setup(capacity=4)
    for i in range(10):
        eng.issue_load(0x1000 + 64 * i, 0)
    assert len(eng.window) <= 4


def test_window_full_behind_barrier_raises():
    hier, eng = _setup(capacity=3)
    eng.issue_barrier()
    eng.issue_load(0x1000, 0)
    eng.issue_load(0x2000, 0)
    with pytest.raises(WindowFullError):
        eng.issue_load(0x3000, 0)


def test_clear_specbit_on_commit_variant():
    hier, eng = _setup("star-farr", clear_specbit_on_commit=True)
    b = eng.issue_barrier()
    eng.issue_load(0x5000, 0)
    assert hier.l1.find(0x5000, 0).spec_bit == 1
    eng.commit_all()
    assert hier.l1.find(0x5000, 0).spec_bit == 0


def test_specbit_sticky_without_the_variant():
    hier, eng = _setup("star-farr")
    eng.issue_barrier()
    eng.issue_load(0x5000, 0)
    eng.commit_all()
    assert hier.l1.find(0x5000, 0).spec_bit == 1


def test_unknown_entry_id_raises():
    hier, eng = _setup()
    with pytest.raises(KeyError):
        eng.squash_from(999)
    with pytest.raises(KeyError):
        eng.resolve_to(999)


def test_engine_counters():
    hier, eng = _setup()
    b = eng.issue_barrier()
    eng.issue_load(0x1000, 0)
    eng.issue_load(0x2000, 0)
    eng.squash_from(b.id)
    eng.issue_load(0x3000, 0)
    eng.commit_all()
    assert eng.loads_squashed == 2
