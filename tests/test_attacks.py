import numpy as np
import pytest

from starcache.attacks import (AesTables, AttackRun, aes_first_round_accesses,
                               pp_experiment_config, run_flush_reload_aes,
                               run_prime_probe_aes, run_spectre,
                               run_spectre_sweep)
from starcache.config import ConfigError, RunConfig
from starcache.observe import ObservationMatrix

KEY_ZERO = bytes(16)
KEY_MIXED = bytes(range(0x10, 0x10 + 16))


def _cfg(model, **kw):
    return RunConfig(model=model, **kw).validate()


def test_first_round_touch_pattern():
    tables = AesTables()
    addrs = aes_first_round_accesses(bytes([0x37] + [0] * 15), KEY_ZERO, tables)
    assert len(addrs) == 16
    # position 0 reads table 0 entry 0x37, line 3 of the table
    assert addrs[0] == tables.table_base(0) + 4 * 0x37
    assert (addrs[0] - tables.table_base(0)) // 64 == 0x3
    # remaining positions read entry 0 of their table
    assert addrs[4] == tables.table_base(0)
    assert addrs[5] == tables.table_base(1)
    with pytest.raises(ValueError):
        aes_first_round_accesses(b"short", KEY_ZERO, tables)


def test_fr_aes_recovers_high_nibbles_on_conventional():
    for key in (KEY_ZERO, KEY_MIXED):
        run = run_flush_reload_aes(_cfg("sa-lru"), key, trials=512)
        assert run.recovery.nibbles == [b >> 4 for b in key]
    summary = run.summary()
    assert summary["attack"] == "fr-aes"
    assert summary["nibbles"] == [b >> 4 for b in KEY_MIXED]


@pytest.mark.parametrize("margin", [float("nan"), float("inf")])
def test_summary_writes_a_non_finite_margin_as_null(margin):
    run = AttackRun("fr-spectre", "sa-lru", 1, 1, ObservationMatrix(1, 1),
                    margin=margin)
    assert run.summary()["margin_cycles"] is None
    assert run.summary()["recovered"] == "NONE"


def test_fr_aes_blind_on_hardened_models():
    for model in ("star-farr", "star-news"):
        run = run_flush_reload_aes(_cfg(model), KEY_ZERO, trials=256)
        assert all(n is None for n in run.recovery.nibbles)
        assert run.summary()["nibbles"] == ["NONE"] * 16


def test_fr_aes_survives_measurement_noise():
    # noise breaks single-trial ties, so rows need a few trials each
    run = run_flush_reload_aes(_cfg("sa-lru", noise_sigma=1.0), KEY_ZERO,
                               trials=768)
    assert None not in run.recovery.nibbles


def test_pp_aes_recovers_on_conventional_only():
    run = run_prime_probe_aes(_cfg("sa-lru"), KEY_MIXED, trials=512)
    assert run.recovery.nibbles == [b >> 4 for b in KEY_MIXED]
    run = run_prime_probe_aes(_cfg("star-farr"), KEY_MIXED, trials=192)
    assert all(n is None for n in run.recovery.nibbles)


def test_spectre_fr_single_secret():
    run = run_spectre(_cfg("sa-lru"), "fr-spectre", secret=123, trials=4)
    assert run.recovered == 123
    assert run.margin > 6.0
    assert run.summary()["recovered"] == 123


def test_spectre_fr_needs_the_wrong_path():
    run = run_spectre(_cfg("sa-lru"), "fr-spectre", secret=123, trials=4,
                      enter_wrong_path=False)
    assert run.recovered is None


def test_spectre_fr_cross_domain():
    assert run_spectre(_cfg("sa-lru"), "fr-spectre", 55, trials=4,
                       same_domain=False).recovered == 55
    for model in ("star-farr", "star-news"):
        run = run_spectre(_cfg(model), "fr-spectre", 55, trials=4,
                          same_domain=False)
        assert run.recovered is None


def test_spectre_fr_blind_on_hardened_models():
    for model in ("star-farr", "star-news"):
        run = run_spectre(_cfg(model), "fr-spectre", secret=123, trials=4)
        assert run.recovered is None
        assert run.summary()["recovered"] == "NONE"


def test_spectre_runs_on_the_smallest_window():
    # a barrier and two loads: three entries are enough
    run = run_spectre(_cfg("sa-lru", window_capacity=3), "fr-spectre",
                      secret=30, trials=4)
    assert run.recovered == 30
    with pytest.raises(ConfigError, match="window_capacity"):
        run_spectre(_cfg("sa-lru", window_capacity=2), "fr-spectre",
                    secret=30, trials=4)


def test_spectre_rejects_wide_secret():
    with pytest.raises(ValueError):
        run_spectre(_cfg("sa-lru"), "fr-spectre", secret=256, trials=1)


def test_spectre_fr_deterministic():
    a = run_spectre(_cfg("sa-lru"), "fr-spectre", 99, trials=4)
    b = run_spectre(_cfg("sa-lru"), "fr-spectre", 99, trials=4)
    assert np.array_equal(a.matrix.lat_sum, b.matrix.lat_sum)
    assert np.array_equal(a.matrix.dec_cnt, b.matrix.dec_cnt)


def test_spectre_fr_sweep_counts():
    # 4 trials x 256 secrets clears the decision-count gate for scoring
    run = run_spectre_sweep(_cfg("sa-lru"), "fr-spectre",
                            trials_per_secret=4)
    assert run.exact_count == 256 and run.none_count == 0
    summary = run.summary()
    assert summary["exact"] == 256 and summary["none"] == 0
    assert summary["leakage_score_bits"] is not None

    run = run_spectre_sweep(_cfg("star-farr"), "fr-spectre",
                            trials_per_secret=2)
    assert run.none_count == 256 and run.exact_count == 0


def test_spectre_pp_single_secret():
    run = run_spectre(_cfg("sa-lru"), "pp-spectre", secret=200, trials=8)
    assert run.recovered == 200
    for model in ("star-farr", "star-news"):
        run = run_spectre(_cfg(model), "pp-spectre", secret=200, trials=8)
        assert run.recovered is None


def test_pp_experiment_pins_two_way_l1():
    cfg = _cfg("sa-lru")
    pinned = pp_experiment_config(cfg)
    assert pinned.l1_assoc == 2 and pinned.l1_lines == cfg.l1_lines
    assert pp_experiment_config(pinned) is pinned


@pytest.mark.parametrize("run", [
    lambda cfg: run_flush_reload_aes(cfg, KEY_ZERO, trials=1),
    lambda cfg: run_prime_probe_aes(cfg, KEY_ZERO, trials=1),
    lambda cfg: run_spectre(cfg, "fr-spectre", 1, trials=1),
    lambda cfg: run_spectre_sweep(cfg, "pp-spectre", trials_per_secret=1),
], ids=["fr-aes", "pp-aes", "spectre", "spectre-sweep"])
def test_every_harness_checks_the_line_size(run):
    with pytest.raises(ConfigError, match="64-byte lines; line_size is 32"):
        run(_cfg("sa-lru", line_size=32))


def test_trials_default_comes_from_config():
    run = run_spectre(_cfg("sa-lru", trials=3), "fr-spectre", secret=5)
    assert run.trials == 3
