"""Acceptance gate: ten end-to-end criteria, one printed verdict line
each.  The heavy AES criteria run the full trial counts, so this file
is much slower than the unit suites."""

import contextlib
import hashlib
import os
import sys
import time

import numpy as np
import pytest

from starcache import attacks, checks
from starcache.cli import main as cli_main
from starcache.config import RunConfig
from starcache.core import Rng
from starcache.engine import SpecEngine
from starcache.models import MODEL_NAMES
from starcache.trace import replay, synth_trace

pytestmark = pytest.mark.acceptance

STAR_MODELS = ("star-farr", "star-news")
KEY_ZERO = bytes(16)
RUNTIME_LIMIT_S = 120.0

_capman = None


@pytest.fixture(autouse=True)
def _grab_capture_manager(request):
    global _capman
    _capman = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(criterion: str, ok: bool, detail: str) -> bool:
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}\n"
    # the verdict lines must reach the terminal even under fd capture
    ctx = (_capman.global_and_fixture_disabled() if _capman is not None
           else contextlib.nullcontext())
    with ctx:
        sys.stdout.write(line)
        sys.stdout.flush()
    return ok


def _cfg(model: str, **kw) -> RunConfig:
    return RunConfig(model=model, **kw).validate()


def _diagonal_holds(matrix, mode: str) -> bool:
    """Every input byte row must point its extreme at block input>>4
    inside the first 16 columns."""
    mean = matrix.mean_latency()
    for v in range(256):
        if not matrix.lat_cnt[v].any():
            return False
        window = mean[v, :16]
        pick = int(np.argmin(window) if mode == "dip" else np.argmax(window))
        if pick != v >> 4:
            return False
    return True


def _aes_criterion(criterion: str, runner, mode: str) -> None:
    parts = []
    ok = True
    for model in MODEL_NAMES:
        t0 = time.perf_counter()
        run = runner(_cfg(model), KEY_ZERO)
        elapsed = time.perf_counter() - t0
        in_time = elapsed < RUNTIME_LIMIT_S
        if model == "sa-lru":
            diag = _diagonal_holds(run.matrices[0], mode)
            nibbles_ok = run.recovery.nibbles == [0] * 16
            ok &= diag and nibbles_ok and in_time
            parts.append(f"sa-lru diagonal={'yes' if diag else 'NO'} "
                         f"nibbles={'16x0x0' if nibbles_ok else 'WRONG'} "
                         f"{elapsed:.0f}s")
        else:
            blind = all(n is None for n in run.recovery.nibbles)
            sealed = run.score is not None and run.score <= run.floor
            ok &= blind and sealed and in_time
            parts.append(f"{model} recovered={'NONE' if blind else 'LEAK'} "
                         f"score={run.score:.4f}<=floor={run.floor:.4f} "
                         f"{elapsed:.0f}s")
    assert _report(criterion, ok, "; ".join(parts))


def test_c01_flush_reload_aes_full_scale():
    _aes_criterion("C1", attacks.run_flush_reload_aes, "dip")


def test_c02_prime_probe_aes_full_scale():
    _aes_criterion("C2", attacks.run_prime_probe_aes, "peak")


def test_c03_spectre_fr_all_secrets():
    parts = []
    run = attacks.run_spectre_sweep(_cfg("sa-lru"), "fr-spectre")
    ok = run.exact_count == 256
    parts.append(f"sa-lru {run.exact_count}/256 exact")
    for model in STAR_MODELS:
        sweep = attacks.run_spectre_sweep(_cfg(model), "fr-spectre")
        ok &= sweep.none_count == 256
        parts.append(f"{model} {sweep.none_count}/256 NONE")
    assert _report("C3", ok, "; ".join(parts))


def test_c04_spectre_pp_all_secrets():
    parts = []
    run = attacks.run_spectre_sweep(_cfg("sa-lru"), "pp-spectre")
    ok = run.exact_count >= 250
    parts.append(f"sa-lru {run.exact_count}/256 exact (needs >=250)")
    for model in STAR_MODELS:
        sweep = attacks.run_spectre_sweep(_cfg(model), "pp-spectre")
        ok &= sweep.none_count == 256
        parts.append(f"{model} {sweep.none_count}/256 NONE")
    assert _report("C4", ok, "; ".join(parts))


def test_c05_squash_invalidation_case_table():
    rows = checks.sfill_case_rows()
    secure = [r for r in rows if r["cache"] != "sa-lru"]
    contrast = [r for r in rows if r["cache"] == "sa-lru"]
    good = sum(1 for r in rows if r["ok"])
    ok = good == len(rows) and len(secure) == 36
    assert _report("C5", ok,
                   f"{good}/{len(rows)} cases match "
                   f"({len(secure)} secure + {len(contrast)} conventional)")


def test_c06_index_widening_retires_conflicts():
    events = synth_trace("conflict-heavy", 20_000, seed=1)
    tagmiss = {}
    for k in (0, 2, 4, 6):
        cfg = _cfg("star-news", k=k)
        hier = cfg.build_hierarchy(Rng(cfg.seed).fork("ksweep"))
        stats = replay(events, hier, SpecEngine(hier, cfg.window_capacity))
        tagmiss[k] = stats.tagmiss_forward_nofill
    series = [tagmiss[k] for k in (0, 2, 4, 6)]
    nonincreasing = all(a >= b for a, b in zip(series, series[1:]))
    reductions = [1.0 - tagmiss[k] / tagmiss[0] for k in (2, 4, 6)]
    ok = nonincreasing and tagmiss[0] > 0 and reductions[-1] >= 0.5
    assert _report(
        "C6", ok,
        f"tagmiss {series} non-increasing={'yes' if nonincreasing else 'NO'}, "
        f"reductions {', '.join(f'{r:.1%}' for r in reductions)} "
        f"(expect about 70.4%/91.5%/97.3%, k=6 needs >=50%)")


def test_c07_replacement_uniformity():
    farr = checks.check_farr_uniformity(quick=False)
    news = checks.check_news_uniformity(quick=False)
    ok = farr.ok and news.ok
    assert _report("C7", ok, f"farr {farr.detail}; news {news.detail}")


def test_c08_correctness_oracles():
    lru = checks.check_lru_reference(quick=False, traces=10)
    flat = checks.check_flat_memory_oracle(quick=False, traces=10)
    incl = checks.check_inclusion_replay(quick=False)
    ok = lru.ok and flat.ok and incl.ok
    assert _report("C8", ok,
                   f"(a) {lru.detail}; (b) {flat.detail}; (c) {incl.detail}")


def test_c09_byte_identical_reruns(tmp_path):
    def digest(root):
        out = {}
        for name in sorted(os.listdir(root)):
            with open(os.path.join(root, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        return out

    ok = True
    checked = 0
    for argv in (
        ["attack", "fr-spectre", "--model", "star-news", "--trials", "4",
         "--seed", "7"],
        ["replay", "--synth", "spec-mix", "--events", "4000",
         "--model", "star-farr", "--seed", "7"],
    ):
        out = tmp_path / f"run{checked}"
        full = argv + ["--out", str(out)]
        ok &= cli_main(full) == 0
        first = digest(out)
        ok &= cli_main(full) == 0
        ok &= digest(out) == first
        checked += len(first)
    assert _report("C9", ok,
                   f"2 commands re-run, {checked} files byte-identical")


def test_c10_squash_fraction_statistic():
    events = synth_trace("spec-mix", 200_000, seed=1, p_squash=0.111)
    cfg = _cfg("sa-lru")
    hier = cfg.build_hierarchy(Rng(cfg.seed).fork("squash-frac"))
    stats = replay(events, hier, SpecEngine(hier, cfg.window_capacity))
    err = abs(stats.squashed_load_fraction - 0.111)
    ok = err <= 0.01
    assert _report(
        "C10", ok,
        f"squashed_load_fraction={stats.squashed_load_fraction:.4f} "
        f"target 0.111 +-0.01 (off by {err:.4f})")
