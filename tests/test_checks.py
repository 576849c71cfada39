import numpy as np
import pytest

from starcache import checks
from starcache.checks import (CHI2_CRIT_DOF15_P001, LruReference, MUTATIONS,
                              bin_slot_hist, chi_square_uniform,
                              flat_replay_reference, run_selftest,
                              sfill_case_rows)
from starcache.models import NewsCache


def test_chi_square_statistic():
    flat = np.full(16, 100)
    assert chi_square_uniform(flat) == 0.0
    spike = flat.copy()
    spike[3] += 160
    spike[4] -= 160
    assert chi_square_uniform(spike) > CHI2_CRIT_DOF15_P001


def test_slot_binning_sums_groups():
    hist = np.arange(64)
    binned = bin_slot_hist(hist)
    assert binned.shape == (16,)
    assert binned[0] == 0 + 1 + 2 + 3
    assert binned.sum() == hist.sum()


def test_sfill_case_table_is_exhaustive_and_green():
    rows = sfill_case_rows()
    # 3 secure caches x 2 levels x 3 states x 2 sources, plus 2
    # conventional contrast rows
    assert len(rows) == 38
    assert all(r["ok"] for r in rows)
    keys = {(r["cache"], r["level"], r["state"], r["source_level"])
            for r in rows}
    assert len(keys) == 38


def test_lru_reference_behaves_like_a_textbook():
    ref = LruReference(sets=2, assoc=2, line_size=64)
    assert ref.access(0x000) is False         # set 0 fill
    assert ref.access(0x080) is False         # set 0 fill
    assert ref.access(0x000) is True          # refresh
    assert ref.access(0x100) is False         # set 0 overflow drops 0x080
    assert ref.access(0x080) is False         # so this misses again
    assert ref.access(0x040) is False         # set 1 untouched by set 0
    assert ref.access(0x040) is True


def test_flat_replay_reference_tracks_stores():
    out = flat_replay_reference([("S", 0x100), ("L", 0x100),
                                 ("S", 0x140), ("S", 0x141)])
    # token 0 leaves its line all zero, and all-zero lines are filtered
    # to match the flat memory's nonzero view
    assert 0x100 not in out
    assert out[0x140][0] == 1 and out[0x140][1] == 2


def test_quick_selftest_all_green():
    results = run_selftest(quick=True)
    assert len(results) == 10
    assert all(r.ok for r in results), \
        [f"{r.name}: {r.detail}" for r in results if not r.ok]
    names = [r.name for r in results]
    assert len(set(names)) == 10


def test_mutations_are_caught():
    # test_cli checks that each failure names the mutant's target
    assert tuple(MUTATIONS) == ("farr-fixed-victim", "news-spec-fill")
    for name, (_, method, _) in MUTATIONS.items():
        original = vars(NewsCache)[method]
        results = run_selftest(quick=True, mutate=name)
        assert sum(not r.ok for r in results) == 1
        assert vars(NewsCache)[method] is original


def test_a_mutant_is_removed_when_its_check_raises(monkeypatch):
    def boom(quick):
        assert NewsCache._random_valid_slot is broken
        raise RuntimeError("check crashed")

    _, method, broken = MUTATIONS["farr-fixed-victim"]
    original = vars(NewsCache)[method]
    monkeypatch.setattr(checks, "check_farr_uniformity", boom)
    monkeypatch.setitem(MUTATIONS, "farr-fixed-victim", (boom, method, broken))
    with pytest.raises(RuntimeError, match="check crashed"):
        run_selftest(quick=True, mutate="farr-fixed-victim")
    assert vars(NewsCache)[method] is original
