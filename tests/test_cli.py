import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

import starcache
from starcache import attacks
from starcache.checks import MUTATIONS
from starcache.cli import _write_json, build_parser, main
from starcache.config import RunConfig


def _files_digest(root):
    out = {}
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def test_attack_fr_spectre_writes_outputs(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["attack", "fr-spectre", "--model", "sa-lru", "--trials", "4",
               "--secret", "42", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "recovered: 42" in stdout
    matrix = out / "fr-spectre-sa-lru-matrix.csv"
    summary = out / "fr-spectre-sa-lru-summary.json"
    assert matrix.exists() and summary.exists()
    head = matrix.read_text().splitlines()
    assert head[0].startswith("# model=sa-lru")
    payload = json.loads(summary.read_text())
    assert payload["attack"] == "fr-spectre"
    assert payload["recovered"] == 42
    assert payload["trials"] == 4


def test_attack_rejects_bad_key(tmp_path, capsys):
    rc = main(["attack", "fr-aes", "--key", "xyz",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "starcache: error:" in capsys.readouterr().err


@pytest.mark.parametrize("kind", attacks.SPECTRE)
@pytest.mark.parametrize("secret", ["300", "-1"])
def test_attack_rejects_out_of_range_secret(tmp_path, capsys, kind, secret):
    out = tmp_path / "o"
    rc = main(["attack", kind, "--secret", secret, "--trials", "1",
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("starcache: error:") and secret in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--noise-sigma", "--dip-threshold-cycles"])
def test_attack_rejects_nan_threshold_flags(tmp_path, capsys, flag):
    rc = main(["attack", "fr-spectre", "--model", "star-farr", flag, "nan",
               "--trials", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err


def test_attack_rejects_a_noise_sigma_that_would_overflow(tmp_path, capsys):
    # 1e308 cycles of jitter would overflow the latencies to +-inf
    out = tmp_path / "o"
    rc = main(["attack", "fr-spectre", "--trials", "1",
               "--noise-sigma", "1e308", "--out", str(out)])
    assert rc == 2
    assert "noise_sigma must be at most 1e+06" in capsys.readouterr().err
    assert not out.exists()
    assert main(["attack", "fr-spectre", "--trials", "1",
                 "--noise-sigma", "1e6", "--out", str(out)]) == 0


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_write_json_refuses_a_non_finite_value(tmp_path, value):
    with pytest.raises(ValueError, match="JSON compliant"):
        _write_json(str(tmp_path / "s.json"), {"margin_cycles": value})


def _subparser(command: str):
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return sub.choices[command]


def _kind_choices(command: str) -> tuple:
    kind = next(a for a in _subparser(command)._actions if a.dest == "kind")
    return tuple(kind.choices)


def test_kind_choices_come_from_the_attack_tables():
    assert _kind_choices("attack") == attacks.ATTACK_NAMES
    assert _kind_choices("sweep") == tuple(attacks.SPECTRE)
    cfg = RunConfig().validate()
    with pytest.raises(ValueError, match="unknown spectre kind"):
        attacks.run_spectre(cfg, "xx-spectre", 1, trials=1)
    with pytest.raises(ValueError, match="unknown spectre kind"):
        attacks.run_spectre_sweep(cfg, "fr-aes", trials_per_secret=1)


@pytest.mark.parametrize("kind", attacks.SPECTRE)
def test_spectre_noise_sigma_jitters_the_matrix(tmp_path, kind):
    def body(sigma: str, out: str) -> list:
        assert main(["attack", kind, "--model", "sa-lru", "--trials", "2",
                     "--noise-sigma", sigma, "--out",
                     str(tmp_path / out)]) == 0
        text = (tmp_path / out / f"{kind}-sa-lru-matrix.csv").read_text()
        return [ln for ln in text.splitlines() if not ln.startswith("#")]

    jittered = body("5", "noisy")
    first = _files_digest(tmp_path / "noisy")
    assert jittered != body("0", "quiet")
    body("5", "noisy")
    assert _files_digest(tmp_path / "noisy") == first


def test_attack_rejects_seed_beyond_64_bits(tmp_path, capsys):
    # the Rng keeps 64 bits, so 2**64 + 1 would rerun seed 1's experiment
    out = tmp_path / "o"
    rc = main(["attack", "fr-spectre", "--trials", "2",
               "--seed", str((1 << 64) + 1), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("starcache: error:") and "below 2**64" in err
    assert not out.exists()


@pytest.mark.parametrize("kind,env,fragment", [
    ("pp-aes", {"STARCACHE_L1_ASSOC": "16"}, "needs at least 64 L1 sets"),
    ("pp-spectre", {"STARCACHE_L1_LINES": "256"},
     "needs at least 256 L1 sets"),
    ("fr-spectre", {"STARCACHE_LINE_SIZE": "128"}, "64-byte lines"),
    # 2**37 sets would exhaust memory before the harness ever ran
    ("fr-spectre", {"STARCACHE_L2_LINES": str(1 << 40)},
     "l2_lines must be at most 1048576"),
], ids=["pp-aes-sets", "pp-spectre-sets", "line-size",
        "l2-lines-unbuildable"])
def test_attack_rejects_geometry_the_harness_cannot_decode(
        tmp_path, capsys, monkeypatch, kind, env, fragment):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    out = tmp_path / "o"
    assert main(["attack", kind, "--trials", "2", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("starcache: error:") and fragment in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["attack", "fr-spectre", "--trials", "1"],
    ["attack", "pp-spectre", "--trials", "1"],
    ["sweep", "pp-spectre", "--trials", "1"],
], ids=["fr-spectre", "pp-spectre", "sweep-pp-spectre"])
def test_spectre_rejects_a_window_too_small_for_its_wrong_path(
        tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setenv("STARCACHE_WINDOW_CAPACITY", "2")
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("starcache: error:") and "window_capacity" in err
    assert not out.exists()


def test_attack_rejects_non_utf8_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"seed = 1\n\xff\xfe = 2\n")
    out = tmp_path / "o"
    assert main(["attack", "fr-spectre", "--trials", "1", "--config",
                 str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("starcache: error:")
    assert f"{cfg}: not UTF-8 text (invalid start byte at byte 9)" in err
    assert not out.exists()


def test_attack_rejects_unknown_model():
    with pytest.raises(SystemExit):
        main(["attack", "fr-aes", "--model", "plru"])


def test_attack_rejects_k_on_non_news(tmp_path, capsys):
    rc = main(["attack", "fr-spectre", "--model", "sa-lru", "--k", "2",
               "--trials", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "star-news" in capsys.readouterr().err


def test_pp_spectre_echoes_pinned_geometry(tmp_path):
    out = tmp_path / "o"
    rc = main(["attack", "pp-spectre", "--model", "star-farr", "--trials", "2",
               "--out", str(out)])
    assert rc == 0
    text = (out / "pp-spectre-star-farr-matrix.csv").read_text()
    assert "# l1_assoc=2" in text           # the harness geometry, not 8


def test_replay_synth_writes_stats(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["replay", "--synth", "spec-mix", "--events", "2000",
               "--model", "star-news", "--out", str(out)])
    assert rc == 0
    lines = (out / "replay-star-news.csv").read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "stat,value"
    stats = dict(ln.split(",") for ln in body[1:])
    assert int(stats["loads"]) > 0
    assert "squashed_load_fraction" in stats
    assert "loads" in capsys.readouterr().out


def test_replay_trace_file(tmp_path):
    trace = tmp_path / "t.trace"
    trace.write_text("L 0x1000\nL 0x1000\n")
    out = tmp_path / "o"
    assert main(["replay", str(trace), "--out", str(out)]) == 0
    text = (out / "replay-sa-lru.csv").read_text()
    assert "l1_hits,1" in text
    assert "# trace=t.trace" in text


def test_replay_bad_trace_file(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("L zz\n")
    assert main(["replay", str(trace), "--out", str(tmp_path / "o")]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("body,fragment", [
    (b"L 0x1000\nL 0x\xff00\n", "not UTF-8"),
    (b"SPEC_BEGIN\n" + b"L 0x40\n" * 64 + b"SPEC_END commit\n",
     "line 65: speculation window holds more than 63"),
], ids=["not-utf8", "window-overflow"])
def test_replay_bad_trace_file_exits_2(tmp_path, capsys, body, fragment):
    trace = tmp_path / "t.trace"
    trace.write_bytes(body)
    out = tmp_path / "o"
    assert main(["replay", str(trace), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("starcache: error:") and fragment in err
    assert not out.exists()


def test_replay_synth_window_overflow_names_the_event(tmp_path, capsys):
    cfg = tmp_path / "small-window.cfg"
    cfg.write_text("window_capacity = 4\n")
    out = tmp_path / "o"
    assert main(["replay", "--synth", "spec-mix", "--events", "50",
                 "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("starcache: error: event ")
    assert "speculation window holds more than 3" in err
    assert "line 0" not in err
    assert not out.exists()


def test_replay_wants_exactly_one_input(tmp_path, capsys):
    trace = tmp_path / "t.trace"
    trace.write_text("L 0x1000\n")
    assert main(["replay", "--out", str(tmp_path / "o")]) == 2
    assert main(["replay", str(trace), "--synth", "spec-mix",
                 "--out", str(tmp_path / "o")]) == 2
    assert "exactly one input" in capsys.readouterr().err


def test_replay_ksweep(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["replay", "--synth", "conflict-heavy", "--events", "2000",
               "--model", "star-news", "--sweep-k", "0,2",
               "--out", str(out)])
    assert rc == 0
    lines = (out / "replay-star-news-ksweep.csv").read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0].startswith("k,loads,")
    assert body[1].startswith("0,") and body[2].startswith("2,")
    t0 = int(body[1].split(",")[8])
    t2 = int(body[2].split(",")[8])
    assert t0 > t2                          # widening retires conflicts


def test_replay_ksweep_guards(tmp_path, capsys):
    assert main(["replay", "--synth", "spec-mix", "--sweep-k", "0,2",
                 "--model", "sa-lru", "--out", str(tmp_path / "o")]) == 2
    assert main(["replay", "--synth", "spec-mix", "--sweep-k", "0,x",
                 "--model", "star-news", "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "only applies to star-news" in err
    assert "bad --sweep-k" in err


def test_env_layer_reaches_the_run(tmp_path, monkeypatch):
    monkeypatch.setenv("STARCACHE_SEED", "77")
    # replay takes no --trials; the file and env layers still set it
    monkeypatch.setenv("STARCACHE_TRIALS", "7")
    out = tmp_path / "o"
    main(["replay", "--synth", "uniform-random", "--events", "500",
          "--out", str(out)])
    header = (out / "replay-sa-lru.csv").read_text().splitlines()
    assert "# seed=77" in header and "# trials=7" in header


def test_repeat_invocation_is_byte_identical(tmp_path):
    out = tmp_path / "o"
    argv = ["attack", "fr-spectre", "--model", "star-news", "--trials", "4",
            "--out", str(out)]
    assert main(argv) == 0
    first = _files_digest(out)
    assert main(argv) == 0
    assert _files_digest(out) == first


def test_sweep_command_smoke(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["sweep", "fr-spectre", "--model", "sa-lru", "--trials", "1",
               "--out", str(out)])
    assert rc == 0
    assert "256/256 exact" in capsys.readouterr().out
    lines = (out / "fr-spectre-sweep-sa-lru-secrets.csv").read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    assert body[0] == "secret,recovered,margin"
    assert len(body) == 257
    assert body[1].startswith("0,0,")
    assert (out / "fr-spectre-sweep-sa-lru-matrix.csv").exists()
    assert (out / "fr-spectre-sweep-sa-lru-summary.json").exists()


@pytest.mark.parametrize("profile,flag,value,what", [
    ("spec-mix", "--p-squash", "2", "p_squash"),
    ("uniform-random", "--footprint", "0", "footprint_lines"),
    ("uniform-random", "--store-fraction", "1.5", "store_fraction"),
    ("uniform-random", "--domains", "300", "domains"),
    ("uniform-random", "--footprint", "100000000000000", "footprint_lines"),
    ("spec-mix", "--footprint", "100000000000000", "footprint_lines"),
    ("pointer-chase", "--footprint", "1000000000000", "footprint_lines"),
    ("spec-mix", "--events", "100000000000000", "events"),
])
def test_replay_synth_rejects_out_of_range_input(tmp_path, capsys, profile,
                                                 flag, value, what):
    out = tmp_path / "o"
    rc = main(["replay", "--synth", profile, "--events", "200", flag, value,
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("starcache: error:") and what in err
    assert not out.exists()


def test_selftest_quick_passes(capsys):
    assert main(["selftest", "--quick"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "10/10 checks passed"
    assert not [ln for ln in lines if "FAIL" in ln]


# mutation -> the one check that must fail under it
MUTATION_TARGETS = {"farr-fixed-victim": "farr-replacement-uniformity",
                    "news-spec-fill": "speculative-conflict-no-trace"}


@pytest.mark.parametrize("name", MUTATIONS)
def test_selftest_mutation_fails_only_its_target(capsys, name):
    assert main(["selftest", "--quick", "--mutate", name]) == 1
    lines = capsys.readouterr().out.splitlines()
    (failed,) = [ln for ln in lines if "FAIL" in ln]
    assert failed.startswith(f"[ FAIL] {MUTATION_TARGETS[name]}: ")
    assert lines[-1] == "9/10 checks passed"


# every settable value of each subcommand: its options and positionals
CONFIG_OPTIONS = {"--config", "--model", "--k", "--seed", "--out",
                  "--l1-hit-cycles", "--l2-hit-cycles", "--memory-cycles",
                  "--debug-checks"}
HARNESS_OPTIONS = CONFIG_OPTIONS | {"--trials", "--noise-sigma",
                                    "--dip-threshold-cycles"}
SETTINGS = {
    "attack": HARNESS_OPTIONS | {"kind", "--key", "--secret",
                                 "--cross-domain", "--skip-wrong-path",
                                 "--vote-threshold"},
    "sweep": HARNESS_OPTIONS | {"kind", "--cross-domain"},
    "replay": CONFIG_OPTIONS | {"trace", "--synth", "--events", "--p-squash",
                                "--store-fraction", "--footprint",
                                "--domains", "--sweep-k"},
    "selftest": {"--quick", "--mutate"},
}


@pytest.mark.parametrize("command,count", [
    ("attack", 18), ("sweep", 14), ("replay", 17), ("selftest", 2)])
def test_each_subcommand_takes_only_the_settings_it_reads(command, count):
    actions = [a for a in _subparser(command)._actions if a.dest != "help"]
    names = {a.option_strings[0] if a.option_strings else a.dest
             for a in actions}
    assert names == SETTINGS[command] and len(actions) == count
    # a config flag's dest is the RunConfig field it sets
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    dests = {a.dest for a in actions
             if set(a.option_strings) & HARNESS_OPTIONS}
    assert dests - {"config"} <= fields


def test_selftest_rejects_a_config_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["selftest", "--quick", "--config", "x"])
    assert info.value.code == 2
    assert "unrecognized arguments: --config x" in capsys.readouterr().err


def _run_module(*argv):
    src = os.path.dirname(os.path.dirname(starcache.__file__))
    return subprocess.run([sys.executable, "-m", "starcache.cli", *argv],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})


def test_module_entry_point_as_the_readme_runs_it():
    done = _run_module("attack", "--help")
    assert done.returncode == 0 and "--vote-threshold" in done.stdout
    done = _run_module("selftest", "--seed", "5")
    assert done.returncode == 2
    assert "unrecognized arguments: --seed 5" in done.stderr
