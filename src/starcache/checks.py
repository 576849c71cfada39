"""Self-test battery: invariant suites runnable from the CLI.

Each check rebuilds its state from scratch, measures against an
independently coded reference (textbook LRU, flat memory replay,
chi-square bound, the invalidation case rules), and reports one
CheckResult.  MUTATIONS holds deliberately broken NewsCache methods;
run_selftest puts one on the class only while the check that must
catch it runs, so a silent weakening of the defenses turns the suite
red instead of staying invisible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .core import CacheGeometry, FlatMemory, Rng
from .engine import SpecEngine
from .models import DESIGNS, MODEL_NAMES, NewsCache
from .trace import parse_trace, replay, synth_trace, format_trace

# upper chi-square quantile, 15 degrees of freedom, tail mass 0.001
CHI2_CRIT_DOF15_P001 = 37.697

SLOT_BINS = 16


@dataclass(slots=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def chi_square_uniform(hist: np.ndarray) -> float:
    expected = hist.sum() / hist.size
    return float(((hist - expected) ** 2 / expected).sum())


def bin_slot_hist(slot_hist: np.ndarray) -> np.ndarray:
    return slot_hist.reshape(SLOT_BINS, -1).sum(axis=1)


# -- replacement uniformity --

def farr_victim_histogram(events: int, seed: int) -> np.ndarray:
    """Histogram of the slot each post-fill miss lands in (equal to the
    victim slot, since the freed slot is reused immediately)."""
    cfg = RunConfig(model="star-farr").validate()
    hier = cfg.build_hierarchy(Rng(seed).fork("farr-uniformity"))
    lines = cfg.l1_lines
    base = 0x100_0000
    for i in range(lines):
        hier.load(base + 64 * i, 0)
    hist = np.zeros(lines, dtype=np.int64)
    for j in range(events):
        addr = base + 64 * (lines + j)
        hier.load(addr, 0)
        hist[hier.l1._slot_of(addr, 0)] += 1
    return hist


def news_victim_histogram(events: int, seed: int) -> np.ndarray:
    """Histogram of mapping-miss victim slots; every probe uses a fresh
    (domain, index) key so no two events share a mapping entry."""
    cfg = RunConfig(model="star-news", k=4).validate()
    hier = cfg.build_hierarchy(Rng(seed).fork("news-uniformity"))
    lines = cfg.l1_lines
    base = 0x200_0000
    for i in range(lines):
        hier.load(base + 64 * i, 2)
    hist = np.zeros(lines, dtype=np.int64)
    for j in range(events):
        domain = 3 + (j // lines) % 200
        addr = base + 64 * (j % lines)
        hier.load(addr, domain)
        hist[hier.l1._slot_of(addr, domain)] += 1
    return hist


def _uniformity_result(name: str, hist: np.ndarray) -> CheckResult:
    stat = chi_square_uniform(bin_slot_hist(hist))
    return CheckResult(
        name, stat < CHI2_CRIT_DOF15_P001,
        f"chi2={stat:.2f} over {SLOT_BINS} bins, "
        f"critical={CHI2_CRIT_DOF15_P001} (p>0.001)")


def check_farr_uniformity(quick: bool) -> CheckResult:
    events = 20_000 if quick else 100_000
    hist = farr_victim_histogram(events, seed=101)
    return _uniformity_result("farr-replacement-uniformity", hist)


def check_news_uniformity(quick: bool) -> CheckResult:
    events = 20_000 if quick else 100_000
    hist = news_victim_histogram(events, seed=102)
    return _uniformity_result("news-replacement-uniformity", hist)


# -- domain isolation --

def check_cross_domain_no_hit(quick: bool) -> CheckResult:
    """One domain's lines never serve another domain's requests on the
    hardened models; the conventional model is confirmed to do the
    opposite."""
    pairs = 100 if quick else 200
    base = 0x300_0000
    for model in ("star-farr", "star-news"):
        cfg = RunConfig(model=model).validate()
        hier = cfg.build_hierarchy(Rng(103).fork(f"nohit-{model}"))
        for i in range(pairs):
            addr = base + 64 * i
            hier.load(addr, 1)
            out = hier.load(addr, 2)
            if out.source_level == 1:
                return CheckResult("cross-domain-no-hit", False,
                                   f"{model}: foreign line hit at 0x{addr:x}")
            again = hier.load(addr, 1)
            if again.source_level != 1:
                return CheckResult(
                    "cross-domain-no-hit", False,
                    f"{model}: own line lost after foreign access 0x{addr:x}")
    cfg = RunConfig(model="sa-lru").validate()
    hier = cfg.build_hierarchy(Rng(103).fork("nohit-base"))
    hier.load(base, 1)
    if hier.load(base, 2).source_level != 1:
        return CheckResult("cross-domain-no-hit", False,
                           "conventional model failed to share across domains")
    return CheckResult("cross-domain-no-hit", True,
                       f"{pairs} cross-domain probes on both hardened models")


# -- speculative conflict leaves no trace --

def check_spec_conflict_no_trace(quick: bool) -> CheckResult:
    """A squashed speculative tag-conflict must leave the resident line
    untouched except for the design's one random eviction."""
    trials = 50 if quick else 100
    survived = 0
    tagmiss_seen = 0
    background = 256
    base = 0x400_0000
    for t in range(trials):
        cfg = RunConfig(model="star-news").validate()
        hier = cfg.build_hierarchy(Rng(104 + t).fork("spec-trace"))
        engine = SpecEngine(hier)
        for i in range(background):
            hier.load(base + 64 * i, 0)
        victim_addr = base + 64 * 300
        hier.load(victim_addr, 0)
        conflict = victim_addr ^ (1 << 19)   # same index, different tag
        barrier = engine.issue_barrier()
        engine.issue_load(conflict, 0)
        engine.squash_from(barrier.id)
        tagmiss_seen += hier.tagmiss_forward_nofill
        rec = hier.l1.find(victim_addr, 0)
        if rec is not None:
            survived += 1
    rate = survived / trials
    ok = rate >= 0.5 and tagmiss_seen > 0
    return CheckResult(
        "speculative-conflict-no-trace", ok,
        f"conflicting line survived {survived}/{trials} squashes, "
        f"{tagmiss_seen} forward-without-fill events")


# -- squash invalidation case table --

def _standalone_cache(kind: str, level: int):
    # sa-lru-secure: the set-associative handler the sa-lru L1 skips
    design = DESIGNS[kind.removesuffix("-secure")]
    geom = CacheGeometry(64, 64, 4, 0 if design.k is None else 2)
    return design.l1(geom, FlatMemory(64),
                     Rng(105).fork(f"case-table-{kind}-{level}"), level)


SFILL_STATES = ("found-nonspec", "found-spec", "absent")


def sfill_case_rows() -> list[dict]:
    """Exhaustive behavior table for the squash invalidation handler.

    Expected behavior, straight from the rules: a resident non-spec
    line drops the message and stays; a resident speculative line is
    invalidated; in either non-drop case the message travels on only if
    it originated below this level.
    """
    addr = 0x5000
    rows = []
    for kind in ("star-farr", "star-news", "sa-lru-secure"):
        for level in (1, 2):
            for state in SFILL_STATES:
                for source in (2, 3):
                    cache = _standalone_cache(kind, level)
                    if state == "found-nonspec":
                        cache.access(addr, 0, 0)
                    elif state == "found-spec":
                        cache.access(addr, 0, 1)
                    before = cache.inval_dropped_case_i
                    propagates = cache.handle_sfill_inv(addr, 0, source)
                    resident = cache.find(addr, 0) is not None
                    if state == "found-nonspec":
                        expect_propagates = False
                        expect_resident = True
                        expect_counter = before + 1
                    else:
                        expect_propagates = source > level
                        expect_resident = False
                        expect_counter = before
                    rows.append({
                        "cache": kind, "level": level, "state": state,
                        "source_level": source, "propagates": propagates,
                        "resident": resident,
                        "ok": (propagates is expect_propagates
                               and resident is expect_resident
                               and cache.inval_dropped_case_i == expect_counter),
                    })
    # the baseline hierarchy counts the message and delivers none of it
    for state in ("found-nonspec", "found-spec"):
        hier = RunConfig(model="sa-lru").validate().build_hierarchy(
            Rng(105).fork("case-table-sa-lru"))
        hier.load(addr, 0, 1 if state == "found-spec" else 0)
        propagates = hier.sfill_inv(addr, 0, 3)
        resident = hier.l1.find(addr, 0) is not None
        rows.append({
            "cache": "sa-lru", "level": 1, "state": state, "source_level": 3,
            "propagates": propagates, "resident": resident,
            "ok": propagates is False and resident and hier.sfill_inv_sent == 1,
        })
    return rows


def check_sfill_case_table(quick: bool) -> CheckResult:
    rows = sfill_case_rows()
    bad = [r for r in rows if not r["ok"]]
    return CheckResult(
        "sfill-inv-case-table", not bad,
        f"{len(rows) - len(bad)}/{len(rows)} cases match the rules"
        + ("" if not bad else f"; first bad: {bad[0]}"))


# -- LRU against a textbook reference --

class LruReference:
    """Deliberately naive set-associative LRU: per-set python lists,
    move-to-front on hit, drop the tail on overflow."""

    def __init__(self, sets: int, assoc: int, line_size: int):
        self.sets = [[] for _ in range(sets)]
        self.assoc = assoc
        self.shift = line_size.bit_length() - 1
        self.nsets = sets

    def access(self, addr: int) -> bool:
        line = addr >> self.shift
        bucket = self.sets[line % self.nsets]
        if line in bucket:
            bucket.remove(line)
            bucket.insert(0, line)
            return True
        if len(bucket) == self.assoc:
            bucket.pop()
        bucket.insert(0, line)
        return False


def check_lru_reference(quick: bool, traces: int = 10) -> CheckResult:
    events = 20_000 if quick else 100_000
    cfg = RunConfig(model="sa-lru").validate()
    footprint = 2048
    for t in range(traces):
        hier = cfg.build_hierarchy(Rng(106 + t).fork("lru-oracle"))
        ref = LruReference(cfg.l1_lines // cfg.l1_assoc, cfg.l1_assoc,
                           cfg.line_size)
        rng = Rng(106_000 + t)
        for i in range(events):
            addr = 0x500_0000 + 64 * rng.choose(footprint)
            got = hier.load(addr, 0).source_level == 1
            want = ref.access(addr)
            if got != want:
                return CheckResult(
                    "lru-reference", False,
                    f"trace {t} event {i}: hierarchy "
                    f"{'hit' if got else 'miss'}, reference "
                    f"{'hit' if want else 'miss'} at 0x{addr:x}")
    return CheckResult("lru-reference", True,
                       f"{traces} traces x {events} events identical")


# -- write-back correctness against flat replay --

def flat_replay_reference(events: list[tuple[str, int]],
                          line_size: int = 64) -> dict[int, bytes]:
    """Apply the store stream directly: running store count modulo 256
    written at the addressed byte, exactly the token rule the hierarchy
    uses when no explicit value is given."""
    mem: dict[int, bytearray] = {}
    seq = 0
    mask = ~(line_size - 1)
    for op, addr in events:
        if op == "S":
            base = addr & mask
            line = mem.setdefault(base, bytearray(line_size))
            line[addr - base] = seq
            seq = (seq + 1) & 0xFF
    return {b: bytes(d) for b, d in mem.items() if any(d)}


def check_flat_memory_oracle(quick: bool, traces: int = 10) -> CheckResult:
    events_per = 2_000 if quick else 5_000
    for t in range(traces):
        rng = Rng(107_000 + t)
        events: list[tuple[str, int]] = []
        for _ in range(events_per):
            op = "S" if rng.chance(0.4) else "L"
            addr = 0x600_0000 + 64 * rng.choose(256) + rng.choose(64)
            events.append((op, addr))
        for model in MODEL_NAMES:
            # tiny caches so dirty evictions and back-invalidations flow
            cfg = RunConfig(model=model, l1_lines=16, l1_assoc=2,
                            l2_lines=64, l2_assoc=4).validate()
            hier = cfg.build_hierarchy(Rng(107 + t).fork(f"flat-{model}"))
            for op, addr in events:
                if op == "S":
                    hier.store(addr, 0)
                else:
                    hier.load(addr, 0)
            hier.drain()
            got = {b: bytes(d) for b, d in hier.memory.nonzero_lines().items()
                   if any(d)}
            want = flat_replay_reference(events)
            if got != want:
                return CheckResult(
                    "flat-memory-oracle", False,
                    f"{model} trace {t}: post-drain memory diverges "
                    f"({len(got)} vs {len(want)} nonzero lines)")
    return CheckResult("flat-memory-oracle", True,
                       f"{traces} traces x 3 models drain to the reference")


# -- inclusion / invariant replay --

def check_inclusion_replay(quick: bool) -> CheckResult:
    events = 2_000 if quick else 5_000
    for model in MODEL_NAMES:
        cfg = RunConfig(model=model, l1_lines=32, l1_assoc=4, l2_lines=128,
                        l2_assoc=4, debug_checks=True).validate()
        hier = cfg.build_hierarchy(Rng(108).fork(f"incl-{model}"))
        engine = SpecEngine(hier)
        text = format_trace(synth_trace("spec-mix", events, seed=108,
                                        p_squash=0.2, footprint_lines=512))
        try:
            replay(parse_trace(text), hier, engine)
        except AssertionError as exc:
            return CheckResult("inclusion-replay", False, f"{model}: {exc}")
    return CheckResult("inclusion-replay", True,
                       f"invariants held through {events}-event replays "
                       "on all models")


# -- squash statistics --

def check_squash_fraction(quick: bool) -> CheckResult:
    events = 20_000 if quick else 60_000
    p = 0.111
    cfg = RunConfig(model="star-farr").validate()
    hier = cfg.build_hierarchy(Rng(109).fork("squash-frac"))
    stats = replay(synth_trace("spec-mix", events, seed=109, p_squash=p),
                   hier, SpecEngine(hier))
    err = abs(stats.squashed_load_fraction - p)
    ok = err <= 0.01 and stats.sfill_inv_sent > 0
    return CheckResult(
        "squash-fraction", ok,
        f"squashed fraction {stats.squashed_load_fraction:.4f} vs target {p} "
        f"(+-0.01), {stats.sfill_inv_sent} squash invalidations sent")


# -- determinism --

def check_determinism(quick: bool) -> CheckResult:
    from .attacks import run_spectre
    cfg = RunConfig(model="star-farr").validate()
    a = run_spectre(cfg, "fr-spectre", secret=30, trials=4)
    b = run_spectre(cfg, "fr-spectre", secret=30, trials=4)
    same = (np.array_equal(a.matrix.lat_sum, b.matrix.lat_sum)
            and np.array_equal(a.matrix.dec_cnt, b.matrix.dec_cnt)
            and a.recovered == b.recovered)
    return CheckResult("determinism", same,
                       "repeat run bit-identical" if same
                       else "repeat run diverged")


_news_access = NewsCache.access

# name -> (the check that must catch it, NewsCache method, broken
# variant): the victim is always the first valid slot; access runs with
# spec_bit forced to 0, so a speculative conflict fills in place
MUTATIONS = {
    "farr-fixed-victim": (
        check_farr_uniformity, "_random_valid_slot",
        lambda self: next(i for i, rec in enumerate(self._slots)
                          if rec is not None)),
    "news-spec-fill": (
        check_spec_conflict_no_trace, "access",
        lambda self, addr, domain, spec_bit, value=None:
            _news_access(self, addr, domain, 0, value)),
}


def run_selftest(quick: bool = False,
                 mutate: str | None = None) -> list[CheckResult]:
    """Run every check; mutate names the MUTATIONS entry whose broken
    method is on NewsCache while its target check runs."""
    target, method, broken = MUTATIONS[mutate] if mutate else (None,) * 3
    traces = 3 if quick else 10
    results = []
    for check in (check_farr_uniformity, check_news_uniformity,
                  check_cross_domain_no_hit, check_spec_conflict_no_trace,
                  check_sfill_case_table,
                  lambda q: check_lru_reference(q, traces=traces),
                  lambda q: check_flat_memory_oracle(q, traces=traces),
                  check_inclusion_replay, check_squash_fraction,
                  check_determinism):
        if check is not target:
            results.append(check(quick))
            continue
        original = vars(NewsCache)[method]
        setattr(NewsCache, method, broken)
        try:
            results.append(check(quick))
        finally:
            setattr(NewsCache, method, original)
    return results
