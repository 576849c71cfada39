"""The benchmark's workloads: set-up, one timed round, output checks.

Every workload runs all three L1 models at default geometry, with caches
starting empty as in the acceptance runs.  A round calls only public
entry points (the AES harnesses, or parse_trace + replay), looked up on
their modules at call time so that tracing.install can wrap them.
Inputs come from the seed alone, and a round repeated on one set-up
produces identical simulated outputs, which sim_digest pins.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import dataclass, field

from starcache import attacks, trace
from starcache.config import RunConfig, load_config
from starcache.core import Rng
from starcache.engine import SpecEngine
from starcache.models import MODEL_NAMES
from starcache.trace import EventKind

WORKLOADS = ("aes-pp", "aes-fr", "replay")

HARNESSES = {"aes-pp": "run_prime_probe_aes", "aes-fr": "run_flush_reload_aes"}

L2_LINES = RunConfig().l2_lines

# uniform-random: footprint 4x the L2, so L2 evictions and their
# back-invalidations dominate; spec-mix: footprint equal to the L2, the
# only profile that drives the speculation engine and squash invalidation
REPLAY_PROFILES = {
    "uniform-random": dict(store_fraction=0.3, footprint_lines=4 * L2_LINES,
                           domains=2),
    "spec-mix": dict(p_squash=0.111, footprint_lines=L2_LINES),
}

# The counters sim_ops_per_s and sim_digest read off each hierarchy.
COUNTERS = ("loads", "stores", "flushes", "l1_hits", "l1_miss_l2",
            "l1_miss_mem", "sfill_inv_sent")


@dataclass(frozen=True)
class Sizes:
    """Work per model in one round.  512 AES trials is the smallest count
    at which sa-lru reliably recovers every key nibble, so the AES size
    does not shrink for the self-test."""
    aes_trials: int = 512
    uniform_events: int = 20_000
    spec_mix_events: int = 60_000

    def events(self, profile: str) -> int:
        return (self.uniform_events if profile == "uniform-random"
                else self.spec_mix_events)


FULL = Sizes()
TINY = Sizes(uniform_events=6_000, spec_mix_events=3_000)


@dataclass
class State:
    """What set-up hands to every round of one workload."""
    workload: str
    seed: int
    sizes: Sizes
    configs: dict
    key: bytes = b""
    traces: dict = field(default_factory=dict)     # profile -> trace text
    expected: dict = field(default_factory=dict)   # profile -> event counts


@dataclass
class Round:
    """One timed pass over every model."""
    model_s: dict                 # model -> host seconds in the timed calls
    ops: int                      # loads + stores + flushes, all models
    digest: str
    checks: list                  # (description, passed)
    replay_s: dict = field(default_factory=dict)   # profile -> replay seconds
    replay_events: dict = field(default_factory=dict)

    @property
    def run_s(self) -> float:
        return sum(self.model_s.values())


def _expected_counts(events) -> dict:
    """Loads, stores and squashed loads a replay of `events` must report."""
    counts = {"loads": 0, "stores": 0, "loads_squashed": 0}
    window = 0
    for ev in events:
        if ev.kind is EventKind.LOAD:
            counts["loads"] += 1
            window += 1
        elif ev.kind is EventKind.STORE:
            counts["stores"] += 1
        elif ev.kind is EventKind.SPEC_BEGIN:
            window = 0
        elif ev.kind is EventKind.SPEC_END and not ev.commit:
            counts["loads_squashed"] += window
    return counts


def setup(workload: str, seed: int, sizes: Sizes = FULL) -> State:
    """Validate one config per model, build each model's hierarchy once,
    and for replay synthesize and format the traces."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    configs = {m: load_config(None, {}, {"model": m, "seed": seed})
               for m in MODEL_NAMES}
    for cfg in configs.values():
        cfg.build_hierarchy(Rng(seed).fork("setup"))
    state = State(workload, seed, sizes, configs)
    if workload == "replay":
        for profile, params in REPLAY_PROFILES.items():
            events = trace.synth_trace(profile, sizes.events(profile), seed,
                                       **params)
            state.traces[profile] = trace.format_trace(events)
            state.expected[profile] = _expected_counts(events)
    else:
        state.key = random.Random(seed).randbytes(attacks.KEY_BYTES)
    return state


def _capture_hierarchies(cfg: RunConfig) -> list:
    """Make cfg remember the hierarchies a harness builds from it."""
    built = []

    def build_hierarchy(rng, **tweaks):
        hier = type(cfg).build_hierarchy(cfg, rng, **tweaks)
        built.append(hier)
        return hier

    cfg.build_hierarchy = build_hierarchy
    return built


def _counters(hier) -> dict:
    return {name: getattr(hier, name) for name in COUNTERS}


def _aes_round(state: State) -> Round:
    harness = getattr(attacks, HARNESSES[state.workload])
    digest = hashlib.sha256()
    model_s, ops, checks = {}, 0, []
    for model, cfg in state.configs.items():
        built = _capture_hierarchies(cfg)
        t0 = time.perf_counter()
        run = harness(cfg, state.key, trials=state.sizes.aes_trials)
        model_s[model] = time.perf_counter() - t0
        (hier,) = built
        ops += hier.loads + hier.stores + hier.flushes
        nibbles = run.recovery.nibbles
        if model == "sa-lru":
            checks.append(("sa-lru recovers all 16 key nibbles",
                           nibbles == [b >> 4 for b in state.key]))
        else:
            checks.append((f"{model} recovers no key nibble",
                           all(n is None for n in nibbles)))
        for m in run.matrices:
            for cells in (m.lat_sum, m.lat_cnt, m.dec_cnt):
                digest.update(cells.tobytes())
        digest.update(json.dumps([model, nibbles, run.recovery.shares,
                                  run.score, run.floor, _counters(hier)]
                                 ).encode())
    return Round(model_s, ops, digest.hexdigest(), checks)


def _replay_round(state: State) -> Round:
    digest = hashlib.sha256()
    model_s, ops, checks = {}, 0, []
    replay_s = dict.fromkeys(state.traces, 0.0)
    replay_events = dict.fromkeys(state.traces, 0)
    for model, cfg in state.configs.items():
        model_s[model] = 0.0
        for profile, text in state.traces.items():
            t0 = time.perf_counter()
            events = trace.parse_trace(text)
            hier = cfg.build_hierarchy(Rng(state.seed).fork("replay"))
            engine = SpecEngine(hier, cfg.window_capacity,
                                cfg.clear_specbit_on_commit)
            t1 = time.perf_counter()
            stats = trace.replay(events, hier, engine)
            t2 = time.perf_counter()
            model_s[model] += t2 - t0
            replay_s[profile] += t2 - t1
            replay_events[profile] += len(events)
            ops += hier.loads + hier.stores + hier.flushes

            where = f"{model} {profile}"
            try:
                stats.check()
                holds = True
            except AssertionError:
                holds = False
            checks.append((f"{where}: ReplayStats.check() holds and "
                           "hits + misses = loads",
                           holds and stats.l1_hits + stats.l1_miss_l2
                           + stats.l1_miss_mem == stats.loads))
            want = state.expected[profile]
            checks.append((f"{where}: loads, stores and squashed loads "
                           "match the trace",
                           {k: getattr(stats, k) for k in want} == want))
            digest.update(json.dumps([model, profile, stats.as_dict(),
                                      _counters(hier)]).encode())
    return Round(model_s, ops, digest.hexdigest(), checks, replay_s,
                 replay_events)


def run_round(state: State) -> Round:
    if state.workload == "replay":
        return _replay_round(state)
    return _aes_round(state)
