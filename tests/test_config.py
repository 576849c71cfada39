import pytest

from starcache.cli import main
from starcache.config import (ConfigError, RunConfig, env_overrides,
                              load_config, parse_config_file)


def test_defaults_validate():
    cfg = load_config()
    assert cfg.model == "sa-lru"
    assert cfg.l1_lines == 512 and cfg.l1_assoc == 8
    assert cfg.l2_lines == 4096
    assert (cfg.l1_hit_cycles, cfg.l2_hit_cycles, cfg.memory_cycles) == (1, 12, 100)
    assert cfg.seed == 1 and cfg.trials is None


def test_config_file_layer(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(
        "# comment line\n"
        "model = star-news   # trailing comment\n"
        "k = 6\n"
        "debug_checks = yes\n"
        "\n"
        "noise_sigma = 1.5\n")
    cfg = load_config(str(path))
    assert cfg.model == "star-news"
    assert cfg.k == 6
    assert cfg.debug_checks is True
    assert cfg.noise_sigma == 1.5


def test_env_beats_file_and_flags_beat_env(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text("seed = 5\nmodel = sa-lru\n")
    env = {"STARCACHE_SEED": "7", "HOME": "/nowhere"}
    assert load_config(str(path), env).seed == 7
    assert load_config(str(path), env, {"seed": 9}).seed == 9
    assert load_config(str(path), env, {"seed": None}).seed == 7  # unset flag


def test_env_keys_filtered_and_lowercased():
    env = {"STARCACHE_MODEL": "star-farr", "STARCACHE_UNKNOWN": "1",
           "OTHER_MODEL": "zzz"}
    assert env_overrides(env) == {"model": "star-farr"}


def test_values_take_each_field_type():
    env = {"STARCACHE_K": "3", "STARCACHE_TRIALS": "7",
           "STARCACHE_NOISE_SIGMA": "1.5", "STARCACHE_OUT_DIR": " res ",
           "STARCACHE_DEBUG_CHECKS": "on"}
    values = env_overrides(env)
    assert values == {"k": 3, "trials": 7, "noise_sigma": 1.5,
                      "out_dir": "res", "debug_checks": True}
    assert [type(values[k]) for k in ("k", "trials", "noise_sigma")] \
        == [int, int, float]
    with pytest.raises(ConfigError, match="STARCACHE_TRIALS: trials wants int"):
        env_overrides({"STARCACHE_TRIALS": "many"})
    with pytest.raises(ConfigError, match="noise_sigma wants float"):
        env_overrides({"STARCACHE_NOISE_SIGMA": "loud"})


@pytest.mark.parametrize("text,fragment", [
    ("model star-news\n", "expected 'key = value'"),
    ("speed = 3\n", "unknown key"),
    ("seed = fast\n", "wants int"),
    ("debug_checks = maybe\n", "wants a boolean"),
])
def test_config_file_rejections(tmp_path, text, fragment):
    path = tmp_path / "bad.conf"
    path.write_text(text)
    with pytest.raises(ConfigError) as info:
        parse_config_file(str(path))
    assert fragment in str(info.value)


def test_missing_config_file():
    with pytest.raises(ConfigError):
        parse_config_file("/nonexistent/run.conf")


@pytest.mark.parametrize("kw,fragment", [
    ({"model": "plru"}, "unknown model"),
    ({"k": 2}, "k only applies to star-news"),
    ({"model": "star-news", "k": 17}, "k must be 0..16"),
    ({"memory_cycles": 0}, "at least 1"),
    ({"window_capacity": 0}, "window_capacity"),
    ({"trials": 0}, "trials must be positive"),
    ({"seed": -1}, "non-negative"),
    ({"vote_threshold": 0.0}, "vote_threshold"),
    ({"noise_sigma": -0.5}, "noise_sigma"),
    ({"l1_lines": 500}, "power of two"),
    ({"noise_sigma": float("nan")}, "noise_sigma must be finite"),
    ({"noise_sigma": float("inf")}, "noise_sigma must be finite"),
    ({"dip_threshold_cycles": float("nan")}, "dip_threshold_cycles"),
    ({"dip_threshold_cycles": float("inf")}, "dip_threshold_cycles"),
    ({"dip_threshold_cycles": float("-inf")}, "dip_threshold_cycles"),
    ({"seed": 1 << 64}, "below 2**64"),
])
def test_validation_rejections(kw, fragment):
    with pytest.raises(ConfigError) as info:
        RunConfig(**kw).validate()
    assert fragment in str(info.value)


def test_config_file_rejects_mshr_entries(tmp_path):
    path = tmp_path / "old.conf"
    path.write_text("mshr_entries = 16\n")
    with pytest.raises(ConfigError, match="unknown key 'mshr_entries'"):
        parse_config_file(str(path))


def test_cli_exits_2_on_mshr_entries(tmp_path, capsys):
    path = tmp_path / "old.conf"
    path.write_text("mshr_entries = 16\n")
    assert main(["attack", "fr-aes", "--config", str(path)]) == 2
    assert "starcache: error:" in capsys.readouterr().err


def test_effective_k():
    assert RunConfig(model="sa-lru").effective_k == 0
    assert RunConfig(model="star-news").effective_k == 4     # default widening
    assert RunConfig(model="star-news", k=0).effective_k == 0
    assert RunConfig(model="star-news", k=6).effective_k == 6


def test_geometries_follow_fields():
    cfg = RunConfig(model="star-news", k=2).validate()
    g1 = cfg.l1_geometry()
    assert (g1.line_count, g1.associativity, g1.extra_index_bits) == (512, 8, 2)
    g2 = cfg.l2_geometry()
    assert (g2.line_count, g2.extra_index_bits) == (4096, 0)


def test_echo_items_cover_every_field_stably():
    cfg = RunConfig(model="star-news", debug_checks=True).validate()
    items = dict(cfg.echo_items())
    assert items["model"] == "star-news"
    assert items["k"] == "none"
    assert items["debug_checks"] == "true"
    assert items["clear_specbit_on_commit"] == "false"
    names = [k for k, _ in cfg.echo_items()]
    assert names[0] == "model" and "seed" in names and "out_dir" in names
    assert names == [k for k, _ in cfg.echo_items()]     # stable ordering


def test_unknown_override_key():
    with pytest.raises(ConfigError):
        load_config(None, {}, {"velocity": 3})
