"""The four timing-attack harnesses.

Two table-lookup key-recovery experiments (flush-reload and prime-probe
against first-round AES T-table accesses) and two transient-execution
covert channels (wrong-path loads squashed after an explicit
misprediction, received through flush-reload or prime-probe).  Every
harness runs victim and attacker against one shared cache hierarchy,
measures simulated latencies only, and feeds an ObservationMatrix whose
recovery statistics do the actual guessing.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .config import RunConfig
from .core import Rng
from .engine import SpecEngine
from .hierarchy import Hierarchy
from .observe import (MIN_SCORE_TRIALS, ObservationMatrix, RecoveryResult,
                      leakage_score, noise_floor, recover_byte, recover_nibble)

ATTACKER_DOMAIN = 0
VICTIM_DOMAIN = 1

AES_TABLE_BASE = 0x10_0000
FR_REGION_STRIDE = 0x1000        # isolated 4 KiB monitor region per table
PP_TABLE_STRIDE = 0x400          # packed tables, one set apiece per line
FR_REGION_BLOCKS = 64
TABLE_LINES = 16
ENTRY_BYTES = 4

SPECTRE_PROBE_BASE = 0x20_0000   # 256 shared probe blocks
SPECTRE_ARRAY1_LINE = 0x30_0000
SPECTRE_SECRET_LINE = 0x31_0000  # wrong-path read target, same set as array1
SPECTRE_PRIME_BASE = 0x80_0000
SPECTRE_INBOUNDS_VALUE = 77      # the in-bounds byte the trained path loads
PROBE_BLOCKS = 256

FR_AES_TRIALS = 1 << 15
PP_AES_TRIALS = 1 << 15
SPECTRE_FR_TRIALS = 16
SPECTRE_PP_TRIALS = 32

KEY_BYTES = 16


@dataclass(slots=True)
class AesTables:
    """Four 256-entry tables of 4-byte words at line-aligned bases."""
    base: int = AES_TABLE_BASE
    stride: int = FR_REGION_STRIDE

    def table_base(self, t: int) -> int:
        return self.base + t * self.stride

    def entry_addr(self, t: int, entry: int) -> int:
        return self.table_base(t) + ENTRY_BYTES * (entry & 0xFF)


def aes_first_round_accesses(key: bytes, input_block: bytes,
                             tables: AesTables) -> list[int]:
    """Table addresses touched by the first round, in program order.

    Byte position j indexes table j mod 4 at entry input[j] XOR key[j];
    16 four-byte entries share one 64-byte line.
    """
    if len(key) != KEY_BYTES or len(input_block) != KEY_BYTES:
        raise ValueError("key and input are 16 bytes each")
    return [tables.entry_addr(j % 4, key[j] ^ input_block[j])
            for j in range(KEY_BYTES)]


@dataclass
class AttackRun:
    """Everything one harness invocation produced."""
    attack: str
    model: str
    trials: int
    seed: int
    matrix: ObservationMatrix
    matrices: list | None = None
    recovery: RecoveryResult | None = None
    recovered: int | None = None
    margin: float = 0.0
    score: float | None = None
    floor: float | None = None
    params: dict = field(default_factory=dict)

    def summary(self) -> dict:
        out = {"attack": self.attack, "model": self.model,
               "trials": self.trials, "seed": self.seed}
        out.update(self.params)
        if self.recovery is not None:
            out.update(self.recovery.as_summary())
        else:
            out["recovered"] = "NONE" if self.recovered is None else self.recovered
            out["margin_cycles"] = round(self.margin, 6)
        out["leakage_score_bits"] = None if self.score is None \
            else round(self.score, 6)
        out["noise_floor_bits"] = None if self.floor is None \
            else round(self.floor, 6)
        return out


@dataclass
class SweepRun:
    """One attack repeated over every secret byte value."""
    attack: str
    model: str
    trials_per_secret: int
    seed: int
    matrix: ObservationMatrix
    recovered: list = field(default_factory=list)
    margins: list = field(default_factory=list)
    score: float | None = None
    floor: float | None = None

    @property
    def exact_count(self) -> int:
        return sum(1 for s, r in enumerate(self.recovered) if r == s)

    @property
    def none_count(self) -> int:
        return sum(1 for r in self.recovered if r is None)

    def summary(self) -> dict:
        return {"attack": self.attack, "model": self.model,
                "trials_per_secret": self.trials_per_secret,
                "seed": self.seed,
                "exact": self.exact_count, "none": self.none_count,
                "leakage_score_bits": None if self.score is None
                else round(self.score, 6),
                "noise_floor_bits": None if self.floor is None
                else round(self.floor, 6)}


def _maybe_scores(matrix: ObservationMatrix, rng: Rng):
    if matrix.trials < MIN_SCORE_TRIALS:
        return None, None
    return leakage_score(matrix), noise_floor(matrix, seed=rng.next_u64())


def _random_block(rng: Rng) -> bytes:
    return bytes(rng.choose(256) for _ in range(KEY_BYTES))


# -- AES flush-reload --

def run_flush_reload_aes(config: RunConfig, key: bytes,
                         trials: int | None = None,
                         seed: int | None = None) -> AttackRun:
    """Flush the monitored regions, let the victim do one first round,
    reload and time.  Victim and attacker sit in different domains and
    share the table addresses read-only."""
    trials = trials if trials is not None else (config.trials or FR_AES_TRIALS)
    seed = config.seed if seed is None else seed
    root = Rng(seed).fork("fr-aes")
    hier = config.build_hierarchy(root.fork("hier"))
    rin = root.fork("inputs")
    rnoise = root.fork("noise")
    sigma = config.noise_sigma

    tables = AesTables(AES_TABLE_BASE, FR_REGION_STRIDE)
    region = [[tables.table_base(t) + 64 * b for b in range(FR_REGION_BLOCKS)]
              for t in range(4)]
    matrices = [ObservationMatrix(256, FR_REGION_BLOCKS, "input_byte", "block")
                for _ in range(KEY_BYTES)]
    vecs = [np.empty(FR_REGION_BLOCKS) for _ in range(4)]

    load, flush = hier.load, hier.flush
    for _ in range(trials):
        block = _random_block(rin)
        for addrs in region:
            for addr in addrs:
                flush(addr, ATTACKER_DOMAIN)
        for addr in aes_first_round_accesses(key, block, tables):
            load(addr, VICTIM_DOMAIN)
        for addrs, vec in zip(region, vecs):
            if sigma:
                vec[:] = [load(addr, ATTACKER_DOMAIN).latency
                          + rnoise.gauss(0.0, sigma) for addr in addrs]
            else:
                vec[:] = [load(addr, ATTACKER_DOMAIN).latency
                          for addr in addrs]
        decisions = [int(np.argmin(vecs[t][:TABLE_LINES])) for t in range(4)]
        for j in range(KEY_BYTES):
            matrices[j].record(block[j], vecs[j % 4], decisions[j % 4])

    nibbles, shares = [], []
    for j in range(KEY_BYTES):
        n, s = recover_nibble(matrices[j], "dip", 0, config.vote_threshold)
        nibbles.append(n)
        shares.append(s)
    score, floor = _maybe_scores(matrices[0], root.fork("floor"))
    return AttackRun("fr-aes", config.model, trials, seed, matrices[0],
                     matrices, RecoveryResult(nibbles, shares),
                     score=score, floor=floor,
                     params={"key": key.hex()})


# -- AES prime-probe --

def run_prime_probe_aes(config: RunConfig, key: bytes,
                        trials: int | None = None,
                        seed: int | None = None) -> AttackRun:
    """Prime every line, run the victim, probe and time the evictions.

    On the conventional model the probe is charged per set; on the
    randomized models there are no attacker-visible sets, so each prime
    position is its own column and recovery folds them back onto the
    conventional layout hypothesis."""
    trials = trials if trials is not None else (config.trials or PP_AES_TRIALS)
    seed = config.seed if seed is None else seed
    root = Rng(seed).fork("pp-aes")
    hier = config.build_hierarchy(root.fork("hier"))
    rin = root.fork("inputs")
    rnoise = root.fork("noise")
    sigma = config.noise_sigma

    by_set = config.model == "sa-lru"
    n_sets = config.l1_lines // config.l1_assoc
    n_lines = config.l1_lines
    cols = n_sets if by_set else n_lines
    tables = AesTables(AES_TABLE_BASE, PP_TABLE_STRIDE)
    prime_addrs = [SPECTRE_PRIME_BASE + 64 * i for i in range(n_lines)]
    probe = _probe_order(prime_addrs, by_set, n_sets)
    matrices = [ObservationMatrix(256, cols, "input_byte",
                                  "set" if by_set else "prime_position")
                for _ in range(KEY_BYTES)]
    vec = np.empty(cols)

    load = hier.load
    for _ in range(trials):
        block = _random_block(rin)
        for addr in prime_addrs:
            load(addr, ATTACKER_DOMAIN)
        for addr in aes_first_round_accesses(key, block, tables):
            load(addr, VICTIM_DOMAIN)
        _probe(load, probe, vec, rnoise, sigma)
        folded = vec if by_set else vec.reshape(-1, n_sets).sum(axis=0)
        decisions = [16 * t + int(np.argmax(folded[16 * t:16 * t + TABLE_LINES]))
                     for t in range(4)]
        for j in range(KEY_BYTES):
            matrices[j].record(block[j], vec, decisions[j % 4])

    nibbles, shares = [], []
    for j in range(KEY_BYTES):
        n, s = recover_nibble(matrices[j], "peak", 16 * (j % 4),
                              config.vote_threshold,
                              fold_to=None if by_set else n_sets)
        nibbles.append(n)
        shares.append(s)
    score, floor = _maybe_scores(matrices[0], root.fork("floor"))
    return AttackRun("pp-aes", config.model, trials, seed, matrices[0],
                     matrices, RecoveryResult(nibbles, shares),
                     score=score, floor=floor,
                     params={"key": key.hex()})


# -- Spectre v1, flush-reload receiver --

def _wrong_path(engine: SpecEngine, secret: int, domain: int,
                enter: bool) -> None:
    """One mispredicted window: read past the bound, touch the probe
    block the stolen byte selects, then squash everything."""
    barrier = engine.issue_barrier()
    if enter:
        engine.issue_load(SPECTRE_SECRET_LINE, domain)
        engine.issue_load(SPECTRE_PROBE_BASE + 64 * secret, domain)
    engine.squash_from(barrier.id)


def _spectre_fr_trial(hier: Hierarchy, engine: SpecEngine, secret: int,
                      sender_dom: int, vec: np.ndarray,
                      enter_wrong_path: bool) -> None:
    flush, load = hier.flush, hier.load
    for s in range(PROBE_BLOCKS):
        flush(SPECTRE_PROBE_BASE + 64 * s, ATTACKER_DOMAIN)
    _wrong_path(engine, secret, sender_dom, enter_wrong_path)
    vec[:] = [load(SPECTRE_PROBE_BASE + 64 * s, ATTACKER_DOMAIN).latency
              for s in range(PROBE_BLOCKS)]


def run_spectre_fr(config: RunConfig, secret: int,
                   trials: int | None = None, seed: int | None = None,
                   same_domain: bool = True,
                   enter_wrong_path: bool = True) -> AttackRun:
    if not 0 <= secret <= 255:
        raise ValueError("secret is one byte")
    trials = trials if trials is not None else (config.trials or SPECTRE_FR_TRIALS)
    seed = config.seed if seed is None else seed
    root = Rng(seed).fork("fr-spectre")
    hier = config.build_hierarchy(root.fork("hier"))
    engine = SpecEngine(hier, config.window_capacity,
                        config.clear_specbit_on_commit)
    sender_dom = ATTACKER_DOMAIN if same_domain else VICTIM_DOMAIN

    matrix = ObservationMatrix(256, PROBE_BLOCKS, "secret", "block")
    vec = np.empty(PROBE_BLOCKS)
    for _ in range(trials):
        _spectre_fr_trial(hier, engine, secret, sender_dom, vec,
                          enter_wrong_path)
        matrix.record(secret, vec, int(np.argmin(vec)))

    recovered, margin = recover_byte(matrix.mean_latency()[secret], "dip",
                                     config.dip_threshold_cycles)
    return AttackRun("fr-spectre", config.model, trials, seed, matrix,
                     recovered=recovered, margin=margin,
                     params={"secret": secret, "same_domain": same_domain,
                             "wrong_path": enter_wrong_path})


def run_spectre_fr_sweep(config: RunConfig, trials_per_secret: int | None = None,
                         seed: int | None = None,
                         same_domain: bool = True) -> SweepRun:
    """run_spectre_fr over every secret value, one shared hierarchy."""
    trials_per_secret = trials_per_secret if trials_per_secret is not None \
        else (config.trials or SPECTRE_FR_TRIALS)
    seed = config.seed if seed is None else seed
    root = Rng(seed).fork("fr-spectre-sweep")
    hier = config.build_hierarchy(root.fork("hier"))
    engine = SpecEngine(hier, config.window_capacity,
                        config.clear_specbit_on_commit)
    sender_dom = ATTACKER_DOMAIN if same_domain else VICTIM_DOMAIN

    matrix = ObservationMatrix(256, PROBE_BLOCKS, "secret", "block")
    vec = np.empty(PROBE_BLOCKS)
    run = SweepRun("fr-spectre", config.model, trials_per_secret, seed, matrix)
    for secret in range(256):
        for _ in range(trials_per_secret):
            _spectre_fr_trial(hier, engine, secret, sender_dom, vec, True)
            matrix.record(secret, vec, int(np.argmin(vec)))
        recovered, margin = recover_byte(
            matrix.mean_latency()[secret], "dip", config.dip_threshold_cycles)
        run.recovered.append(recovered)
        run.margins.append(margin)
    run.score, run.floor = _maybe_scores(matrix, root.fork("floor"))
    return run


# -- Spectre v1, prime-probe receiver --

def pp_experiment_config(config: RunConfig) -> RunConfig:
    """Two-way L1 keeps set == probed block for the conventional model;
    the randomized models ignore associativity, so every model runs the
    same experiment geometry."""
    if config.l1_assoc == 2:
        return config
    return dataclasses.replace(config, l1_assoc=2).validate()


def _probe_order(prime_addrs, by_set: bool, n_sets: int) -> list:
    """(address, column) pairs in probe order: the primed lines newest
    first, each charged to its set or to its own prime position."""
    return [(prime_addrs[i], i % n_sets if by_set else i)
            for i in range(len(prime_addrs) - 1, -1, -1)]


def _probe(load, probe, vec: np.ndarray, rnoise: Rng | None = None,
           sigma: float = 0.0) -> None:
    """Time every probe load (plus jitter when sigma is set) and store
    the per-column sums in vec.  The sums run in Python floats, in probe
    order, and reach vec in one assignment."""
    acc = [0.0] * len(vec)
    for addr, col in probe:
        lat = load(addr, ATTACKER_DOMAIN).latency
        if sigma:
            lat += rnoise.gauss(0.0, sigma)
        acc[col] += lat
    vec[:] = acc


def _fold(vec: np.ndarray, n_sets: int) -> np.ndarray:
    return vec if vec.shape == (n_sets,) else vec.reshape(-1, n_sets).sum(axis=0)


def run_spectre_pp(config: RunConfig, secret: int,
                   trials: int | None = None, seed: int | None = None,
                   same_domain: bool = True,
                   enter_wrong_path: bool = True) -> AttackRun:
    """Prime-probe Spectre: per trial prime, wrong path, squash, probe.

    The receiver cannot flush, so unrelated eviction peaks stay in the
    measurement; a secret-independent baseline is measured first with
    the sender running its trained in-bounds path on a separate
    instance, and recovery works on the difference."""
    if not 0 <= secret <= 255:
        raise ValueError("secret is one byte")
    config = pp_experiment_config(config)
    trials = trials if trials is not None else (config.trials or SPECTRE_PP_TRIALS)
    seed = config.seed if seed is None else seed
    root = Rng(seed).fork("pp-spectre")
    sender_dom = ATTACKER_DOMAIN if same_domain else VICTIM_DOMAIN

    by_set = config.model == "sa-lru"
    n_sets = config.l1_lines // config.l1_assoc
    cols = n_sets if by_set else config.l1_lines
    prime_addrs = [SPECTRE_PRIME_BASE + 64 * i for i in range(config.l1_lines)]
    probe = _probe_order(prime_addrs, by_set, n_sets)
    vec = np.empty(cols)

    # baseline pass: trained path only, fresh instance
    hier_b = config.build_hierarchy(root.fork("hier-baseline"))
    base_sum = np.zeros(cols)
    for _ in range(trials):
        for addr in prime_addrs:
            hier_b.load(addr, ATTACKER_DOMAIN)
        hier_b.load(SPECTRE_ARRAY1_LINE, sender_dom)
        hier_b.load(SPECTRE_PROBE_BASE + 64 * SPECTRE_INBOUNDS_VALUE, sender_dom)
        _probe(hier_b.load, probe, vec)
        base_sum += vec
    base_fold = _fold(base_sum / trials, n_sets)

    hier = config.build_hierarchy(root.fork("hier"))
    engine = SpecEngine(hier, config.window_capacity,
                        config.clear_specbit_on_commit)
    matrix = ObservationMatrix(256, cols, "secret",
                               "set" if by_set else "prime_position")
    for _ in range(trials):
        for addr in prime_addrs:
            hier.load(addr, ATTACKER_DOMAIN)
        _wrong_path(engine, secret, sender_dom, enter_wrong_path)
        _probe(hier.load, probe, vec)
        matrix.record(secret, vec,
                      int(np.argmax(_fold(vec, n_sets) - base_fold)))

    diff = _fold(matrix.mean_latency()[secret], n_sets) - base_fold
    recovered, margin = recover_byte(diff, "peak", config.dip_threshold_cycles)
    return AttackRun("pp-spectre", config.model, trials, seed, matrix,
                     recovered=recovered, margin=margin,
                     params={"secret": secret, "same_domain": same_domain,
                             "wrong_path": enter_wrong_path})


def run_spectre_pp_sweep(config: RunConfig, trials_per_secret: int | None = None,
                         seed: int | None = None,
                         same_domain: bool = True) -> SweepRun:
    """run_spectre_pp over every secret; the secret-independent baseline
    is measured once and shared."""
    config = pp_experiment_config(config)
    trials_per_secret = trials_per_secret if trials_per_secret is not None \
        else (config.trials or SPECTRE_PP_TRIALS)
    seed = config.seed if seed is None else seed
    root = Rng(seed).fork("pp-spectre-sweep")
    sender_dom = ATTACKER_DOMAIN if same_domain else VICTIM_DOMAIN

    by_set = config.model == "sa-lru"
    n_sets = config.l1_lines // config.l1_assoc
    cols = n_sets if by_set else config.l1_lines
    prime_addrs = [SPECTRE_PRIME_BASE + 64 * i for i in range(config.l1_lines)]
    probe = _probe_order(prime_addrs, by_set, n_sets)
    vec = np.empty(cols)

    hier_b = config.build_hierarchy(root.fork("hier-baseline"))
    base_sum = np.zeros(cols)
    for _ in range(trials_per_secret):
        for addr in prime_addrs:
            hier_b.load(addr, ATTACKER_DOMAIN)
        hier_b.load(SPECTRE_ARRAY1_LINE, sender_dom)
        hier_b.load(SPECTRE_PROBE_BASE + 64 * SPECTRE_INBOUNDS_VALUE, sender_dom)
        _probe(hier_b.load, probe, vec)
        base_sum += vec
    base_fold = _fold(base_sum / trials_per_secret, n_sets)

    hier = config.build_hierarchy(root.fork("hier"))
    engine = SpecEngine(hier, config.window_capacity,
                        config.clear_specbit_on_commit)
    matrix = ObservationMatrix(256, cols, "secret",
                               "set" if by_set else "prime_position")
    run = SweepRun("pp-spectre", config.model, trials_per_secret, seed, matrix)
    for secret in range(256):
        for _ in range(trials_per_secret):
            for addr in prime_addrs:
                hier.load(addr, ATTACKER_DOMAIN)
            _wrong_path(engine, secret, sender_dom, True)
            _probe(hier.load, probe, vec)
            matrix.record(secret, vec,
                          int(np.argmax(_fold(vec, n_sets) - base_fold)))
        diff = _fold(matrix.mean_latency()[secret], n_sets) - base_fold
        recovered, margin = recover_byte(diff, "peak",
                                         config.dip_threshold_cycles)
        run.recovered.append(recovered)
        run.margins.append(margin)
    run.score, run.floor = _maybe_scores(matrix, root.fork("floor"))
    return run


ATTACK_NAMES = ("fr-aes", "pp-aes", "fr-spectre", "pp-spectre")
