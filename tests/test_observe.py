import math
import tracemalloc
import warnings

import numpy as np
import pytest

from starcache.observe import (ObservationMatrix, extreme_with_margin,
                               leakage_score, mi_bits, noise_floor,
                               recover_byte, recover_nibble)


def test_matrix_accumulates_means():
    m = ObservationMatrix(2, 3)
    m.record(0, [1.0, 2.0, 3.0])
    m.record(0, [3.0, 2.0, 1.0])
    m.record(1, [5.0, 5.0, 5.0], decision=2)
    mean = m.mean_latency()
    assert np.allclose(mean[0], [2.0, 2.0, 2.0])
    assert np.allclose(mean[1], [5.0, 5.0, 5.0])
    assert m.trials == 1
    assert m.dec_cnt[1, 2] == 1


def test_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ObservationMatrix(0, 4)
    m = ObservationMatrix(2, 3)
    with pytest.raises(ValueError):
        m.record(0, [1.0, 2.0])


def test_mean_latency_zero_cells_stay_zero():
    m = ObservationMatrix(2, 2)
    m.record(0, [4.0, 8.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean = m.mean_latency()
    assert mean[1].tolist() == [0.0, 0.0]     # row 1 never recorded
    assert mean[0].tolist() == [4.0, 8.0]


def test_lat_cnt_is_a_read_only_count_per_cell():
    m = ObservationMatrix(3, 4)
    expected = np.zeros((3, 4), dtype=np.int64)
    for row in (2, 0, 2, 2):
        m.record(row, [1.0] * 4, decision=row)
        expected[row] += 1
    assert m.lat_cnt.dtype == expected.dtype
    assert np.array_equal(m.lat_cnt, expected)
    assert m.lat_cnt.tobytes() == expected.tobytes()
    assert not m.lat_cnt.flags.writeable
    with pytest.raises(ValueError):
        m.lat_cnt[0, 1] = 0


def test_matrix_allocates_one_count_per_row():
    tracemalloc.start()
    try:
        m = ObservationMatrix(256, 512)
        allocated, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # lat_sum is the one 1 MiB array; decisions start in an empty log,
    # and dense per-cell trial and decision counts would add 1 MiB each
    assert allocated < 2.1 * (1 << 20)
    assert m.row_cnt.shape == (256,)


def test_decision_counts_match_a_dense_reference():
    rows, cols = 3, 8
    m = ObservationMatrix(rows, cols)
    ref = np.zeros((rows, cols), dtype=np.int64)
    rng = np.random.Generator(np.random.PCG64(11))
    lat = [0.0] * cols
    # 20x the cell count, so the 12-code log fills and folds many times
    for step in range(20 * rows * cols):
        row = int(rng.integers(rows))
        decision = None if rng.random() < 0.3 else int(rng.integers(cols))
        m.record(row, lat, decision)
        if decision is not None:
            ref[row, decision] += 1
        if step % 37 == 0 or step == 20 * rows * cols - 1:
            got = m.dec_cnt
            assert got.dtype == np.int64 and got.flags.c_contiguous
            assert np.array_equal(got, ref)
            assert got.tobytes() == ref.tobytes()
            assert m.trials == int(ref.sum())
    got = m.dec_cnt
    got[0, 0] += 100                      # a fresh array each read
    assert np.array_equal(m.dec_cnt, ref)
    with pytest.raises(AttributeError):
        m.dec_cnt = ref


def _traced_run(rows, cols, todo):
    """Build a rows x cols matrix and record each (row, decision) in
    todo, all under tracemalloc.  Return the matrix, the bytes traced
    after each record beyond those of the freshly built matrix, and the
    peak traced bytes."""
    warm = ObservationMatrix(1, 2)        # numpy's first-call caches
    for _ in range(3):
        warm.record(0, [0.0, 0.0], 1)
    assert warm.dec_cnt.tolist() == [[0, 3]]
    lat = np.zeros(cols)
    held = np.zeros(len(todo), dtype=np.int64)     # allocated untraced
    tracemalloc.start()
    try:
        m = ObservationMatrix(rows, cols)
        fixed, _ = tracemalloc.get_traced_memory()
        for i, (row, decision) in enumerate(todo):
            m.record(row, lat, decision)
            held[i] = tracemalloc.get_traced_memory()[0] - fixed
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return m, held, peak


def test_a_short_run_allocates_no_decision_histogram():
    m, _, peak = _traced_run(256, 512, [(t % 256, t % 64) for t in range(512)])
    # lat_sum is 1 MiB; 512 decisions take 4 KiB of log, where a dense
    # histogram would take another 1 MiB
    assert peak < 1.1 * (1 << 20)
    assert m.trials == 512


def test_decision_storage_stays_within_one_and_a_half_histograms():
    rows, cols = 64, 64
    cells = rows * cols
    dense = 8 * cells
    rng = np.random.Generator(np.random.PCG64(5))
    todo = [(int(r), None if d == cols else int(d))
            for r, d in zip(rng.integers(rows, size=12 * cells),
                            rng.integers(cols + 1, size=12 * cells))]
    m, held, _ = _traced_run(rows, cols, todo)
    assert m.trials > 10 * cells
    # object headers (histogram, log) and the loop's own small objects
    headers = 1024
    logged = np.cumsum([d is not None for _, d in todo])
    assert held[logged <= cells // 2].max() <= dense // 2 + headers
    assert held.max() <= 1.5 * dense + headers


@pytest.mark.parametrize("call,fragment", [
    (lambda m: m.record(-1, [0.0] * 4), "got -1"),
    (lambda m: m.record(3, [0.0] * 4), "got 3"),
    (lambda m: m.record(0, [0.0] * 4, decision=-1), "got -1"),
    (lambda m: m.record(0, [0.0] * 4, decision=4), "got 4"),
    (lambda m: m.folded(0), "into 0"),
    (lambda m: m.folded(-2), "into -2"),
], ids=["row-negative", "row-past-end", "decision-negative",
        "decision-past-end", "fold-zero", "fold-negative"])
def test_matrix_rejects_out_of_range_input(call, fragment):
    m = ObservationMatrix(3, 4)
    with pytest.raises(ValueError, match=fragment):
        call(m)
    assert not m.lat_sum.any() and not m.row_cnt.any() and m.trials == 0


def test_folding_groups_positions_mod_cols():
    m = ObservationMatrix(1, 8)
    m.record(0, [0, 1, 2, 3, 10, 11, 12, 13], decision=1)
    f = m.folded(4)
    assert f.cols == 4
    assert np.allclose(f.lat_sum[0], [10, 12, 14, 16])
    assert f.dec_cnt[0, 1] == 1
    with pytest.raises(ValueError):
        m.folded(3)


def test_folding_keeps_decisions_past_the_folded_width():
    m = ObservationMatrix(1, 8)
    m.record(0, [0.0] * 8, 5)
    f = m.folded(4)
    assert f.trials == 1
    assert f.dec_cnt.tolist() == [[0, 1, 0, 0]]


def test_folding_matches_a_dense_reference_after_the_log_folds():
    m = ObservationMatrix(4, 8)
    ref = np.zeros((4, 8), dtype=np.int64)
    for t in range(100):                  # past the 16-code log limit
        m.record(t % 4, [0.0] * 8, (3 * t) % 8)
        ref[t % 4, (3 * t) % 8] += 1
    for cols in (1, 2, 4, 8):
        f = m.folded(cols)
        expect = ref.reshape(4, -1, cols).sum(axis=1)
        assert f.dec_cnt.tobytes() == expect.tobytes()
        assert f.trials == 100
        f.record(1, [0.0] * cols, cols - 1)      # the fold keeps counting
        expect[1, cols - 1] += 1
        assert np.array_equal(f.dec_cnt, expect) and f.trials == 101


def test_folding_keeps_the_row_counts():
    m = ObservationMatrix(3, 8)
    for row in (0, 2, 2):
        m.record(row, [1.0] * 8)
    f = m.folded(4)
    assert f.row_cnt.tolist() == [1, 0, 2]
    assert np.array_equal(f.lat_cnt, np.repeat([[1], [0], [2]], 4, axis=1))
    assert np.allclose(f.mean_latency()[2], [2.0] * 4)
    f.row_cnt[0] += 1                     # a copy, not a shared view
    assert m.row_cnt[0] == 1


def test_csv_layout(tmp_path):
    m = ObservationMatrix(2, 2)
    m.record(1, [7.0, 9.0])
    path = tmp_path / "m.csv"
    m.write_csv(str(path), header_items=[("model", "sa-lru"), ("seed", 1)])
    lines = path.read_text().splitlines()
    assert lines[0] == "# model=sa-lru"
    assert lines[1] == "# seed=1"
    assert lines[2] == "value,position,mean_latency,trials"
    assert lines[3] == "1,0,7.000000,1"
    assert lines[4] == "1,1,9.000000,1"
    assert len(lines) == 5          # row 0 never probed, skipped


def test_mi_hand_values():
    assert mi_bits(np.array([[10, 0], [0, 10]])) == pytest.approx(1.0)
    assert mi_bits(np.array([[5, 5], [5, 5]])) == pytest.approx(0.0)
    bern = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
    assert mi_bits(np.array([[25, 0], [0, 75]])) == pytest.approx(bern)
    assert mi_bits(np.zeros((3, 3), dtype=np.int64)) == 0.0


def _diag_matrix(per_row=64):
    m = ObservationMatrix(16, 16)
    lat = [0.0] * 16
    for r in range(16):
        for _ in range(per_row):
            m.record(r, lat, decision=r)
    return m


def test_leakage_score_perfect_diagonal():
    m = _diag_matrix()
    assert m.trials == 1024
    assert leakage_score(m) == pytest.approx(4.0)


def test_leakage_score_needs_enough_trials():
    with pytest.raises(ValueError):
        leakage_score(_diag_matrix(per_row=63))


def test_constant_decisions_score_zero():
    m = ObservationMatrix(16, 16)
    lat = [0.0] * 16
    for r in range(16):
        for _ in range(64):
            m.record(r, lat, decision=3)
    assert leakage_score(m) == 0.0
    assert noise_floor(m) == 0.0     # shuffled labels cannot un-flatten it


def test_noise_floor_sits_under_real_signal():
    m = _diag_matrix()
    floor = noise_floor(m)
    assert 0.0 < floor < leakage_score(m)
    assert noise_floor(m) == floor   # fixed seed, reproducible


def _nibble_matrix(key_nibble, mode="dip", rows=256, cols=16):
    base, extreme = (100.0, 1.0) if mode == "dip" else (1.0, 100.0)
    m = ObservationMatrix(rows, cols)
    for v in range(rows):
        lat = [base] * cols
        lat[(v >> 4) ^ key_nibble] = extreme
        m.record(v, lat)
    return m


def test_recover_nibble_dip_and_peak():
    for mode in ("dip", "peak"):
        for key_nibble in (0x0, 0x7, 0xF):
            got, share = recover_nibble(_nibble_matrix(key_nibble, mode),
                                        mode, table_lo=0)
            assert got == key_nibble
            assert share == 1.0


def test_recover_nibble_vote_threshold():
    m = ObservationMatrix(256, 16)
    for v in range(256):
        lat = [100.0] * 16
        lat[v % 16] = 1.0            # votes spread over all 16 nibbles
        m.record(v, lat)
    got, share = recover_nibble(m, "dip", table_lo=0)
    assert got is None
    assert share <= 0.5


def test_recover_nibble_folds_first():
    key_nibble = 0x9
    wide = ObservationMatrix(256, 32)
    for v in range(256):
        lat = [100.0] * 32
        lat[(v >> 4) ^ key_nibble] = 1.0
        wide.record(v, lat)
    got, share = recover_nibble(wide, "dip", table_lo=0, fold_to=16)
    assert got == key_nibble and share == 1.0


def test_recover_nibble_rejects_bad_mode():
    with pytest.raises(ValueError):
        recover_nibble(ObservationMatrix(16, 16), "sideways", table_lo=0)


def test_extreme_with_margin_hand_values():
    c, margin = extreme_with_margin(np.array([10.0, 1.0, 10.0, 10.0]), "dip")
    assert (c, margin) == (1, 9.0)
    c, margin = extreme_with_margin(np.array([1.0, 9.0, 1.0]), "peak")
    assert (c, margin) == (1, 8.0)


def test_recover_byte_threshold_gate():
    values = np.full(256, 100.0)
    values[77] = 95.0
    assert recover_byte(values, "dip", threshold=6.0) == (None, 5.0)
    got, margin = recover_byte(values, "dip", threshold=4.0)
    assert got == 77 and margin == pytest.approx(5.0, abs=0.03)
