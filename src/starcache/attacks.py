"""The four timing-attack harnesses.

Two table-lookup key-recovery experiments (flush-reload and prime-probe
against first-round AES T-table accesses: run_flush_reload_aes and
run_prime_probe_aes) and two transient-execution covert channels
(wrong-path loads squashed after an explicit misprediction, received
through flush-reload or prime-probe).  The covert channels share two
entry points, run_spectre for one secret and run_spectre_sweep for all
256, which pick the receiver by kind from the SPECTRE table.  Every
harness runs victim and attacker against one shared cache hierarchy,
measures simulated latencies only (jittered by noise_sigma), and feeds
an ObservationMatrix whose recovery statistics do the actual guessing.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, RunConfig
from .core import Rng
from .engine import SpecEngine
from .models import DESIGNS, SetAssocLru
from .observe import (MIN_SCORE_TRIALS, ObservationMatrix, RecoveryResult,
                      fold, leakage_score, noise_floor, recover_byte,
                      recover_nibble)

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
LINE_BYTES = 64                  # every layout below steps 64 bytes a line


def aes_first_round_accesses(key: bytes, input_block: bytes,
                             stride: int) -> list[int]:
    """Table addresses touched by the first round, in program order.

    Byte position j indexes table j mod 4, the tables stride bytes apart
    from AES_TABLE_BASE, at entry input[j] XOR key[j]; 16 share a line.
    """
    if len(key) != KEY_BYTES or len(input_block) != KEY_BYTES:
        raise ValueError("key and input are 16 bytes each")
    return [AES_TABLE_BASE + stride * (j % 4) + ENTRY_BYTES * (k ^ x)
            for j, (k, x) in enumerate(zip(key, input_block))]


@dataclass
class AttackRun:
    """Everything one harness invocation produced, and the config it ran."""
    attack: str
    config: RunConfig
    trials: int
    matrix: ObservationMatrix
    matrices: list | None = None
    recovery: RecoveryResult | None = None
    recovered: int | None = None
    margin: float = 0.0
    score: float | None = None
    floor: float | None = None
    params: dict = field(default_factory=dict)

    def summary(self) -> dict:
        out = {"attack": self.attack, "model": self.config.model,
               "trials": self.trials, "seed": self.config.seed}
        out.update(self.params)
        if self.recovery is not None:
            out.update(self.recovery.as_summary())
        else:
            out["recovered"] = "NONE" if self.recovered is None else self.recovered
            out["margin_cycles"] = round(self.margin, 6) \
                if math.isfinite(self.margin) else None
        out["leakage_score_bits"] = None if self.score is None \
            else round(self.score, 6)
        out["noise_floor_bits"] = None if self.floor is None \
            else round(self.floor, 6)
        return out


@dataclass
class SweepRun:
    """One attack over every secret byte value, and the config it ran."""
    attack: str
    config: RunConfig
    trials_per_secret: int
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
        return {"attack": self.attack, "model": self.config.model,
                "trials_per_secret": self.trials_per_secret,
                "seed": self.config.seed,
                "exact": self.exact_count, "none": self.none_count,
                "leakage_score_bits": None if self.score is None
                else round(self.score, 6),
                "noise_floor_bits": None if self.floor is None
                else round(self.floor, 6)}


def _maybe_scores(matrix: ObservationMatrix, rng: Rng):
    if matrix.trials < MIN_SCORE_TRIALS:
        return None, None
    return leakage_score(matrix), noise_floor(matrix, seed=rng.next_u64())


def _trials(config: RunConfig, trials: int | None, default: int) -> int:
    """An explicit count wins, then the config, then the harness default."""
    return trials if trials is not None else (config.trials or default)


def check_geometry(config: RunConfig, kind: str) -> RunConfig:
    """Return the config kind runs (pp-spectre: its experiment geometry),
    or refuse a geometry the harness layouts do not fit.

    Every harness places its table entries, probe blocks and prime lines
    LINE_BYTES apart, and a prime-probe receiver reads one L1 set per
    column it decodes: pp-aes the 64 sets its four packed tables cover,
    pp-spectre one set per secret value on its two-way geometry.  A
    Spectre wrong path holds a barrier and two loads in one window."""
    if config.line_size != LINE_BYTES:
        raise ConfigError(f"{kind} lays out {LINE_BYTES}-byte lines; "
                          f"line_size is {config.line_size}")
    if kind in SPECTRE and config.window_capacity < 3:
        raise ConfigError(f"{kind} issues a barrier and two loads per "
                          f"window; window_capacity is "
                          f"{config.window_capacity}, needs at least 3")
    need = {"pp-aes": 4 * TABLE_LINES, "pp-spectre": PROBE_BLOCKS}.get(kind, 0)
    if kind == "pp-spectre":
        config = pp_experiment_config(config)
    sets = config.l1_lines // config.l1_assoc
    if sets < need:
        raise ConfigError(f"{kind} needs at least {need} L1 sets; l1_lines "
                          f"{config.l1_lines} at l1_assoc {config.l1_assoc} "
                          f"gives {sets}")
    return config


def _random_block(rng: Rng) -> bytes:
    return bytes(rng.choose(256) for _ in range(KEY_BYTES))


def _probe(load, probe, vec: np.ndarray, rnoise: Rng, sigma: float) -> None:
    """Time every (address, column) probe load, plus jitter when sigma
    is set, and store the per-column sums in vec.  The sums run in Python
    floats, in probe order, and reach vec in one assignment."""
    acc = [0.0] * len(vec)
    for addr, col in probe:
        lat = load(addr, ATTACKER_DOMAIN).latency
        if sigma:
            lat += rnoise.gauss(0.0, sigma)
        acc[col] += lat
    vec[:] = acc


def _aes_run(kind: str, config: RunConfig, key: bytes, trials: int,
             root: Rng, matrices: list, mode: str,
             table_lo, fold_to: int | None = None) -> AttackRun:
    """Vote every byte position's key nibble, byte j in the table window
    that starts at column table_lo[j % 4], and score position 0."""
    votes = [recover_nibble(m, mode, table_lo[j % 4], config.vote_threshold,
                            fold_to=fold_to) for j, m in enumerate(matrices)]
    score, floor = _maybe_scores(matrices[0], root.fork("floor"))
    return AttackRun(kind, config, trials, matrices[0], matrices,
                     RecoveryResult(*map(list, zip(*votes))),
                     score=score, floor=floor, params={"key": key.hex()})


# -- AES flush-reload --

def run_flush_reload_aes(config: RunConfig, key: bytes,
                         trials: int | None = None) -> AttackRun:
    """Flush the monitored regions, let the victim do one first round,
    reload and time.  Victim and attacker sit in different domains and
    share the table addresses read-only."""
    config = check_geometry(config, "fr-aes")
    trials = _trials(config, trials, FR_AES_TRIALS)
    root = Rng(config.seed).fork("fr-aes")
    hier = config.build_hierarchy(root.fork("hier"))
    rin = root.fork("inputs")
    rnoise = root.fork("noise")
    sigma = config.noise_sigma

    # table t's region is columns 64t..64t+63 of one reload vector
    probe = [(AES_TABLE_BASE + FR_REGION_STRIDE * t + LINE_BYTES * b,
              FR_REGION_BLOCKS * t + b)
             for t in range(4) for b in range(FR_REGION_BLOCKS)]
    matrices = [ObservationMatrix(256, FR_REGION_BLOCKS, "input_byte", "block")
                for _ in range(KEY_BYTES)]
    vec = np.empty(len(probe))
    regions = np.split(vec, 4)       # views of vec, one per table

    load, flush = hier.load, hier.flush
    for _ in range(trials):
        block = _random_block(rin)
        for addr, _col in probe:
            flush(addr, ATTACKER_DOMAIN)
        for addr in aes_first_round_accesses(key, block, FR_REGION_STRIDE):
            load(addr, VICTIM_DOMAIN)
        _probe(load, probe, vec, rnoise, sigma)
        decisions = [int(np.argmin(r[:TABLE_LINES])) for r in regions]
        for j in range(KEY_BYTES):
            matrices[j].record(block[j], regions[j % 4], decisions[j % 4])

    return _aes_run("fr-aes", config, key, trials, root, matrices,
                    "dip", (0,) * 4)


# -- prime-probe geometry --

def pp_experiment_config(config: RunConfig) -> RunConfig:
    """Two-way L1 keeps set == probed block for the conventional model;
    the randomized models ignore associativity, so every model runs the
    same experiment geometry."""
    if config.l1_assoc == 2:
        return config
    return dataclasses.replace(config, l1_assoc=2).validate()


def _pp_layout(config: RunConfig):
    """(by_set, n_sets, cols, prime_addrs, probe) for a prime-probe
    receiver.  One prime line per L1 line; probe holds (address,
    column) pairs, the primed lines newest first, each charged to its
    set on the conventional model and to its own prime position on the
    randomized ones, which have no attacker-visible sets."""
    by_set = DESIGNS[config.model].l1 is SetAssocLru
    n_sets = config.l1_lines // config.l1_assoc
    cols = n_sets if by_set else config.l1_lines
    prime_addrs = [SPECTRE_PRIME_BASE + LINE_BYTES * i
                   for i in range(config.l1_lines)]
    probe = [(prime_addrs[i], i % n_sets if by_set else i)
             for i in range(len(prime_addrs) - 1, -1, -1)]
    return by_set, n_sets, cols, prime_addrs, probe


# -- AES prime-probe --

def run_prime_probe_aes(config: RunConfig, key: bytes,
                        trials: int | None = None) -> AttackRun:
    """Prime every line, run the victim, probe and time the evictions.

    On the conventional model the probe is charged per set; on the
    randomized models there are no attacker-visible sets, so each prime
    position is its own column and recovery folds them back onto the
    conventional layout hypothesis."""
    config = check_geometry(config, "pp-aes")
    trials = _trials(config, trials, PP_AES_TRIALS)
    root = Rng(config.seed).fork("pp-aes")
    hier = config.build_hierarchy(root.fork("hier"))
    rin = root.fork("inputs")
    rnoise = root.fork("noise")
    sigma = config.noise_sigma

    by_set, n_sets, cols, prime_addrs, probe = _pp_layout(config)
    matrices = [ObservationMatrix(256, cols, "input_byte",
                                  "set" if by_set else "prime_position")
                for _ in range(KEY_BYTES)]
    vec = np.empty(cols)

    load = hier.load
    for _ in range(trials):
        block = _random_block(rin)
        for addr in prime_addrs:
            load(addr, ATTACKER_DOMAIN)
        for addr in aes_first_round_accesses(key, block, PP_TABLE_STRIDE):
            load(addr, VICTIM_DOMAIN)
        _probe(load, probe, vec, rnoise, sigma)
        folded = fold(vec, n_sets)
        decisions = [16 * t + int(np.argmax(folded[16 * t:16 * t + TABLE_LINES]))
                     for t in range(4)]
        for j in range(KEY_BYTES):
            matrices[j].record(block[j], vec, decisions[j % 4])

    return _aes_run("pp-aes", config, key, trials, root, matrices,
                    "peak", (0, 16, 32, 48), None if by_set else n_sets)


# -- Spectre v1 --
#
# Each receiver has one loop over a list of secrets on one shared
# hierarchy.  The single-secret runs pass [secret], the sweeps all 256
# values; the RNG label keeps the two apart.

def _wrong_path(engine: SpecEngine, secret: int, domain: int,
                enter: bool) -> None:
    """One mispredicted window: read past the bound, touch the probe
    block the stolen byte selects, then squash everything."""
    barrier = engine.issue_barrier()
    if enter:
        engine.issue_load(SPECTRE_SECRET_LINE, domain)
        engine.issue_load(SPECTRE_PROBE_BASE + LINE_BYTES * secret, domain)
    engine.squash_from(barrier.id)


def _spectre_fr_runs(config: RunConfig, secrets, trials: int, label: str,
                     same_domain: bool, enter_wrong_path: bool):
    """Per trial: flush the probe blocks, run the wrong path, reload and
    time.  Returns the root RNG, the matrix and one (recovered, margin)
    pair per secret."""
    root = Rng(config.seed).fork(label)
    hier = config.build_hierarchy(root.fork("hier"))
    rnoise = root.fork("noise")
    sigma = config.noise_sigma
    engine = SpecEngine(hier, config.window_capacity,
                        config.clear_specbit_on_commit)
    sender_dom = ATTACKER_DOMAIN if same_domain else VICTIM_DOMAIN
    probe = [(SPECTRE_PROBE_BASE + LINE_BYTES * s, s)
             for s in range(PROBE_BLOCKS)]
    matrix = ObservationMatrix(256, PROBE_BLOCKS, "secret", "block")
    vec = np.empty(PROBE_BLOCKS)
    flush, load = hier.flush, hier.load
    results = []
    for secret in secrets:
        for _ in range(trials):
            for addr, _col in probe:
                flush(addr, ATTACKER_DOMAIN)
            _wrong_path(engine, secret, sender_dom, enter_wrong_path)
            _probe(load, probe, vec, rnoise, sigma)
            matrix.record(secret, vec, int(np.argmin(vec)))
        results.append(recover_byte(matrix.mean_latency()[secret], "dip",
                                    config.dip_threshold_cycles))
    return root, matrix, results


def _spectre_pp_runs(config: RunConfig, secrets, trials: int, label: str,
                     same_domain: bool, enter_wrong_path: bool):
    """Per trial: prime, wrong path, squash, probe.

    The receiver cannot flush, so unrelated eviction peaks stay in the
    measurement; a secret-independent baseline is measured first with
    the sender running its trained in-bounds path on a separate
    instance, and recovery works on the difference over the
    PROBE_BLOCKS sets a secret can select.  Returns what
    _spectre_fr_runs does."""
    root = Rng(config.seed).fork(label)
    rnoise = root.fork("noise")
    sigma = config.noise_sigma
    sender_dom = ATTACKER_DOMAIN if same_domain else VICTIM_DOMAIN
    by_set, n_sets, cols, prime_addrs, probe = _pp_layout(config)
    vec = np.empty(cols)

    hier_b = config.build_hierarchy(root.fork("hier-baseline"))
    base_sum = np.zeros(cols)
    for _ in range(trials):
        for addr in prime_addrs:
            hier_b.load(addr, ATTACKER_DOMAIN)
        hier_b.load(SPECTRE_ARRAY1_LINE, sender_dom)
        hier_b.load(SPECTRE_PROBE_BASE + LINE_BYTES * SPECTRE_INBOUNDS_VALUE,
                    sender_dom)
        _probe(hier_b.load, probe, vec, rnoise, sigma)
        base_sum += vec
    base_fold = fold(base_sum / trials, n_sets)[:PROBE_BLOCKS]

    hier = config.build_hierarchy(root.fork("hier"))
    engine = SpecEngine(hier, config.window_capacity,
                        config.clear_specbit_on_commit)
    matrix = ObservationMatrix(256, cols, "secret",
                               "set" if by_set else "prime_position")
    results = []
    for secret in secrets:
        for _ in range(trials):
            for addr in prime_addrs:
                hier.load(addr, ATTACKER_DOMAIN)
            _wrong_path(engine, secret, sender_dom, enter_wrong_path)
            _probe(hier.load, probe, vec, rnoise, sigma)
            folded = fold(vec, n_sets)[:PROBE_BLOCKS]
            matrix.record(secret, vec, int(np.argmax(folded - base_fold)))
        diff = (fold(matrix.mean_latency()[secret], n_sets)[:PROBE_BLOCKS]
                - base_fold)
        results.append(recover_byte(diff, "peak", config.dip_threshold_cycles))
    return root, matrix, results


# kind -> (receiver, default trials per secret)
SPECTRE = {"fr-spectre": (_spectre_fr_runs, SPECTRE_FR_TRIALS),
           "pp-spectre": (_spectre_pp_runs, SPECTRE_PP_TRIALS)}
ATTACK_NAMES = ("fr-aes", "pp-aes", *SPECTRE)


def _spectre_receiver(kind: str):
    if kind not in SPECTRE:
        raise ValueError(f"unknown spectre kind {kind!r}; "
                         f"choose from {', '.join(SPECTRE)}")
    return SPECTRE[kind]


def run_spectre(config: RunConfig, kind: str, secret: int,
                trials: int | None = None, same_domain: bool = True,
                enter_wrong_path: bool = True) -> AttackRun:
    """Spectre v1 for one secret byte, received by flush-reload
    (fr-spectre) or by prime-probe on the two-way experiment geometry
    (pp-spectre, see pp_experiment_config)."""
    runs, default_trials = _spectre_receiver(kind)
    if not 0 <= secret <= 255:
        raise ConfigError(f"secret must be one byte (0..255), got {secret}")
    config = check_geometry(config, kind)
    trials = _trials(config, trials, default_trials)
    _, matrix, [(recovered, margin)] = runs(
        config, [secret], trials, kind, same_domain, enter_wrong_path)
    return AttackRun(kind, config, trials, matrix,
                     recovered=recovered, margin=margin,
                     params={"secret": secret, "same_domain": same_domain,
                             "wrong_path": enter_wrong_path})


def run_spectre_sweep(config: RunConfig, kind: str,
                      trials_per_secret: int | None = None,
                      same_domain: bool = True) -> SweepRun:
    """run_spectre over every secret value on one shared hierarchy;
    pp-spectre measures its secret-independent baseline once."""
    runs, default_trials = _spectre_receiver(kind)
    config = check_geometry(config, kind)
    trials = _trials(config, trials_per_secret, default_trials)
    root, matrix, results = runs(config, range(256), trials, f"{kind}-sweep",
                                 same_domain, True)
    return SweepRun(kind, config, trials, matrix,
                    [r for r, _ in results], [m for _, m in results],
                    *_maybe_scores(matrix, root.fork("floor")))
